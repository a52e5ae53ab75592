"""Shared binning helpers: power-of-two delay bins and decimal log bins."""

from __future__ import annotations

import math

# Values of exactly zero (e.g. delays past the observed support) cannot live on a
# log grid; they get this sentinel bin index instead.
FLOOR_BIN = -(2**31)

# Log bins per decade, for visibility bins and for calibration bins alike.
PER_DECADE = 10


def pow2_edges(horizon: int) -> list[int]:
    """Delay-bin edges 1, 2, 4, ... up to the first power of two >= horizon.

    Bin k covers [2**k, 2**(k+1)) seconds, so widths never decrease with delay.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 second, got {horizon}")
    edges = [1]
    while edges[-1] < horizon:
        edges.append(edges[-1] * 2)
    if len(edges) == 1:
        edges.append(2)
    return edges


def delay_bin(dt: int) -> int:
    """Index k of the power-of-two delay bin [2**k, 2**(k+1)) holding dt >= 1."""
    return dt.bit_length() - 1


def log_bin_index(x: float) -> int:
    """Index of the log-spaced bin containing x > 0; FLOOR_BIN for x == 0."""
    if x < 0:
        raise ValueError(f"log binning needs x >= 0, got {x}")
    if x == 0.0:
        return FLOOR_BIN
    return math.floor(math.log10(x) * PER_DECADE)


def log_bin_center(index: int) -> float:
    """Geometric center of a log bin; 0.0 for the floor bin."""
    if index == FLOOR_BIN:
        return 0.0
    return 10.0 ** ((index + 0.5) / PER_DECADE)


def log_bin_bounds(index: int) -> tuple[float, float]:
    if index == FLOOR_BIN:
        return (0.0, 0.0)
    return (10.0 ** (index / PER_DECADE), 10.0 ** ((index + 1) / PER_DECADE))
