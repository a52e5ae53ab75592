"""Nelder–Mead simplex minimization (Nelder & Mead, Computer Journal 7, 1965).

Step for step the unbounded, non-adaptive method of SciPy 1.17's
``optimize.minimize(method="Nelder-Mead")`` with only ``maxiter``, ``xatol``
and ``fatol`` set: the same initial simplex, the same numpy expressions for
each move, the same re-sorts and the same convergence test. The fits give
bit-identical results to it, and importing the package stays cheap;
``tests/test_simplex.py`` holds the two side by side.

Like SciPy, it orders tied vertices with numpy's default ``argsort``, which
is not stable on ties and may order them differently on CPUs with different
sort kernels. A fit that reaches tied values (``inf`` wherever a closed form
is not positive) can therefore keep a different vertex on another host.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def nelder_mead(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> tuple[np.ndarray, float, bool]:
    """Minimize ``fun`` from ``x0``; return ``(x, fun(x), success)``.

    ``success`` is False when ``maxiter`` iterations ran out before every
    vertex lay within ``xatol`` of the best one in each coordinate and within
    ``fatol`` of it in value. ``fun`` is called with a copy of each vertex.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([fun(np.copy(vertex)) for vertex in sim], dtype=float)
    # sorted twice, as the reference does: np.argsort is not stable on ties
    sim, fsim = _sorted(sim, fsim)
    sim, fsim = _sorted(sim, fsim)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]  # reflection
        fxr = fun(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expansion
            fxe = fun(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = fun(np.copy(xc))
                accepted = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = fun(np.copy(xc))
                accepted = fxc < fsim[-1]
            if accepted:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = fun(np.copy(sim[j]))
        iterations += 1
        sim, fsim = _sorted(sim, fsim)
    return sim[0], np.min(fsim), iterations < maxiter
