"""``simplex.nelder_mead`` against its reference, SciPy's Nelder–Mead.

The port must repeat ``scipy.optimize.minimize(method="Nelder-Mead")`` step
for step, so every comparison here is exact: the same end point, the same
objective value and the same success flag, never a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from contagion import inference, visibility
from contagion.inference import CalibrationCurve, CalibrationPoint, fit_scale_and_floor
from contagion.simplex import nelder_mead
from contagion.visibility import (
    SusceptibilityCurve,
    SusceptibilityForm,
    evaluate_form,
    fit_susceptibility_analytic,
)


def reference(fun, x0, maxiter, xatol, fatol):
    res = optimize.minimize(fun, x0, method="Nelder-Mead",
                            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    return res.x, res.fun, res.success


def assert_same(ours, ref):
    (x, fun, success), (ref_x, ref_fun, ref_success) = ours, ref
    assert np.array_equal(x, ref_x)
    assert fun == ref_fun or (math.isnan(fun) and math.isnan(ref_fun))
    assert success == ref_success


def objective(kind, center, cut, vandal):
    """One test objective; ``math.inf`` where ``x[0] > cut``, as ``_rms_log_error``
    returns it where the closed form is not positive. A vandal overwrites the
    point it was given, which only a copied vertex survives."""
    center = np.asarray(center)

    def fun(x):
        if kind == "quadratic":
            value = float(np.sum((1.0 + np.arange(len(x))) * (x - center) ** 2))
        elif kind == "abs":
            value = float(np.sum(np.abs(x - center)))
        elif kind == "steps":  # plateaus, so that moves tie
            value = float(np.floor(8.0 * np.sum(np.abs(x - center))))
        else:  # Rosenbrock, shifted so that one dimension has a minimum too
            y = x - center + 1.0
            value = float((1.0 - y[0]) ** 2 + np.sum(100.0 * (y[1:] - y[:-1] ** 2) ** 2))
        if cut is not None and x[0] > cut:
            value = math.inf
        if vandal:
            x[:] = 7.0
        return value

    return fun


coordinates = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False))


@st.composite
def problems(draw):
    n = draw(st.integers(1, 5))
    x0 = draw(st.lists(coordinates, min_size=n, max_size=n))
    center = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    cut = draw(st.one_of(st.none(), st.floats(-1.0, 3.0)))
    kind = draw(st.sampled_from(["quadratic", "abs", "steps", "rosenbrock"]))
    return kind, x0, center, cut, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(
    problem=problems(),
    maxiter=st.sampled_from([1, 2, 5, 50, 400]),
    xatol=st.sampled_from([1e-4, 1e-8, 1e-12]),
    fatol=st.sampled_from([1e-4, 1e-10, 1e-14]),
)
@example(problem=("quadratic", [0.0, 0.0], [1.0, -1.0], None, False),
         maxiter=5, xatol=1e-8, fatol=1e-10)  # runs out of iterations
@example(problem=("quadratic", [0.0, 0.5], [1.0, -1.0], None, True),
         maxiter=400, xatol=1e-8, fatol=1e-10)  # converges
@example(problem=("rosenbrock", [0.0, 0.0, 1.5], [0.0, 0.0, 0.0], 0.9, False),
         maxiter=400, xatol=1e-12, fatol=1e-14)  # inf beyond the cut
@example(problem=("abs", [0.5], [0.0], 0.0, False),
         maxiter=50, xatol=1e-4, fatol=1e-4)  # every vertex past the cut is inf
@example(problem=("quadratic", [0.0], [0.000125], None, False),
         maxiter=50, xatol=0.00025, fatol=1e-14)  # converged with the x test at equality
@example(problem=("steps", [-0.75, -0.39], [0.82, -0.21], None, False),
         maxiter=50, xatol=1e-8, fatol=1.0)  # the value test holds at equality
@example(problem=("steps", [-0.83, 0.97], [-0.81, 0.49], None, False),
         maxiter=50, xatol=1e-8, fatol=1e-10)  # an outside contraction ties the reflection
def test_matches_scipy_step_for_step(problem, maxiter, xatol, fatol):
    kind, x0, center, cut, vandal = problem
    fun = objective(kind, center, cut, vandal)
    x0 = np.array(x0)
    with np.errstate(invalid="ignore"):  # inf - inf in the tolerance test
        assert_same(nelder_mead(fun, x0, maxiter, xatol, fatol),
                    reference(fun, x0, maxiter, xatol, fatol))


@pytest.fixture
def checked(monkeypatch):
    """Route both production call sites through the port and the reference,
    asserting that every call agrees; returns the list of calls made."""
    calls = []

    def both(fun, x0, maxiter, xatol, fatol):
        ours = nelder_mead(fun, x0, maxiter, xatol, fatol)
        assert_same(ours, reference(fun, x0, maxiter, xatol, fatol))
        calls.append((maxiter, xatol, fatol))
        return ours

    monkeypatch.setattr(inference, "nelder_mead", both)
    monkeypatch.setattr(visibility, "nelder_mead", both)
    return calls


def test_scale_and_floor_objective_matches_scipy(checked):
    rng = np.random.default_rng(11)
    points = []
    for lg in np.linspace(-9, -4.2, 25):
        q = 10.0**lg
        observed = (667.0 * q + math.exp(-19)) * (1.0 + 0.02 * rng.standard_normal())
        points.append(CalibrationPoint(predicted=q, observed=min(observed, 1.0), trials=10_000))
    fit_scale_and_floor(CalibrationCurve(points=points))
    assert checked == [(3000, 1e-10, 1e-14)] * 2


@pytest.mark.parametrize("form,constants", [
    (SusceptibilityForm.DIGG, {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}),
    (SusceptibilityForm.TWITTER, {"A": 0.3, "P": 0.16, "B": 0.55}),
], ids=["digg", "twitter"])
def test_susceptibility_objective_matches_scipy(form, constants, checked):
    trials = 10**6
    empirical = {nf: (round(evaluate_form(form, constants, nf) * trials), trials)
                 for nf in (1, 2, 3, 5, 8, 12, 20, 35, 60, 100, 180, 300)}
    fit_susceptibility_analytic(SusceptibilityCurve(empirical=empirical), form)
    assert checked and set(checked) == {(4000, 1e-12, 1e-14)}
