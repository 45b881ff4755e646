"""Property tests: the kernel core reproduces the paper's formulas bitwise.

For pi_t = a(t) + b(t) M_t (+ c(t) N_t) the paper gives each quantity in
closed form.  The formulas below are written out term by term in the
same left-to-right order as the paper, so the library must agree with
them to the last bit at every random state.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import longrate as lr
from longrate import ModelState

MODELS = {
    "ref1f": lr.zoo.reference_one_factor(),
    "pareto05": lr.zoo.pareto_one_factor(0.5),
    "pareto2": lr.zoo.pareto_one_factor(2.0),
    "ref2f": lr.zoo.reference_two_factor(),
    "ref2fx": lr.zoo.staggered_two_factor(),
}

times = st.floats(0.0, 200.0)
tenors = st.floats(0.0, 1e6)
factors = st.floats(-4.0, 4.0).map(math.exp)


def paper_formulas(model, t, m, n, T):
    """(pi, P(t,T), r, L, theta, E[pi]) written out from the paper."""
    a, b = model.a, model.b
    A, B = a.tail_limit, b.tail_limit
    if model.factors == 1:
        pi = float(a(t)) + float(b(t)) * m
        bond = (float(a(T)) + float(b(T)) * m) / pi
        r = -(float(a.deriv(t)) + float(b.deriv(t)) * m) / pi
        lam = model.lam
        abar, bbar = A * lam**-lam, B * lam**-lam
        L = (pi / (abar + bbar * m)) ** (1.0 / lam)
        theta = A + B * m
        mean = float(a(t)) + float(b(t))
        return pi, bond, r, L, theta, mean
    c, C = model.c, model.c.tail_limit
    pi = float(a(t)) + float(b(t)) * m + float(c(t)) * n
    bond = (float(a(T)) + float(b(T)) * m + float(c(T)) * n) / pi
    r = -(float(a.deriv(t)) + float(b.deriv(t)) * m + float(c.deriv(t)) * n) / pi
    L = pi / (A + B * m + C * n)
    theta = A + B * m + C * n
    mean = float(a(t)) + float(b(t)) + float(c(t))
    return pi, bond, r, L, theta, mean


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=200, deadline=None)
@given(t=times, tenor=tenors, m=factors, n=factors)
def test_core_matches_paper_formulas_bitwise(name, t, tenor, m, n):
    model = MODELS[name]
    state = ModelState(t, m, n) if model.factors == 2 else ModelState(t, m)
    T = t + tenor
    got = (
        lr.kernel_value(model, state),
        lr.bond_price(model, state, T),
        lr.short_rate(model, state),
        lr.long_rate(model, state),
        lr.theta_value(model, state),
        lr.expected_kernel(model, t),
    )
    assert got == paper_formulas(model, t, m, n, T)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=6),
    rho=st.floats(-1.0, 1.0),
)
def test_kernel_paths_equal_kernel_value_on_every_path(name, seed, steps, rho):
    """Each column of kernel_paths is pi at each path's state.

    The path evaluation calls the coefficients on the whole grid at once.
    numpy's vectorised power may round differently from its scalar power
    (by an ulp, on CPUs with wide SIMD), so agreement is to a few ulp.
    """
    model = MODELS[name]
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    ensemble = lr.ensemble_for_model(model, grid, 6, seed, rho=rho)
    pi = lr.kernel_paths(model, ensemble)
    for i in range(ensemble.n_paths):
        for j, t in enumerate(grid):
            xs = [float(x[i, j]) for x in ensemble.factor_values]
            want = lr.kernel_value(model, ModelState(float(t), *xs))
            assert pi[i, j] == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)


# ---------------------------------------------------------------------------
# One-factor inversions against the separate short- and long-rate formulas
# ---------------------------------------------------------------------------

INVERTIBLE = {name: lr.zoo.zoo_model(name) for name in ("pareto05", "pareto2", "pareto3", "ref1f")}


def short_rate_reference(model, t, T, u):
    """(interval, r, M, P(t, T)) at the short rate a fraction u into its interval.

    The formulas as written for the short rate alone: Wronskian
    w = a b' - b a', interval sorted(-a'/a, -b'/b).
    """
    a_t, b_t = float(model.a(t)), float(model.b(t))
    ap, bp = float(model.a.derivative(t)), float(model.b.derivative(t))
    w = a_t * bp - b_t * ap
    lo, hi = sorted((-ap / a_t, -bp / b_t))
    r = lo + u * (hi - lo)
    assume(lo < r < hi)
    m = -(ap + r * a_t) / (bp + r * b_t)
    a_T, b_T = float(model.a(T)), float(model.b(T))
    bond = ((a_T * bp - b_T * ap) + (a_T * b_t - b_T * a_t) * r) / w
    return (lo, hi), r, m, bond


def long_rate_reference(model, t, T, u):
    """(interval, L, M, P(t, T)) at the long rate a fraction u into its interval.

    The formulas as written for the long rate alone, through y = L^-lam:
    det = a bbar - b abar, interval sorted((a/abar)^(1/lam), (b/bbar)^(1/lam)).
    """
    a_t, b_t = float(model.a(t)), float(model.b(t))
    abar = model.a.tail_limit * model.lam ** -model.lam
    bbar = model.b.tail_limit * model.lam ** -model.lam
    det = a_t * bbar - b_t * abar
    inv = 1.0 / model.lam
    lo, hi = sorted(((a_t / abar) ** inv, (b_t / bbar) ** inv))
    L = lo + u * (hi - lo)
    assume(lo < L < hi)
    y = L ** -model.lam
    m = (abar - y * a_t) / (y * b_t - bbar)
    a_T, b_T = float(model.a(T)), float(model.b(T))
    bond = ((a_T * bbar - b_T * abar) + (a_t * b_T - b_t * a_T) * y) / det
    return (lo, hi), L, m, bond


INVERSIONS = {
    "short": (short_rate_reference, lr.attainable_short_rates,
              lr.state_from_short_rate_1f, lr.bond_from_short_rate_1f),
    "long": (long_rate_reference, lr.attainable_long_rates,
             lr.state_from_long_rate_1f, lr.bond_from_long_rate_1f),
}


@pytest.mark.parametrize("rate", sorted(INVERSIONS))
@pytest.mark.parametrize("name", sorted(INVERTIBLE))
@settings(max_examples=100, deadline=None)
@given(t=times, tenor=tenors, u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_one_factor_inversions_match_reference_bitwise(name, rate, t, tenor, u):
    model = INVERTIBLE[name]
    reference, interval, state_from, bond_from = INVERSIONS[rate]
    T = t + tenor
    (lo, hi), x, m, bond = reference(model, t, T, u)
    assert interval(model, t) == (lo, hi)
    assert state_from(model, t, x).m == m
    assert bond_from(model, t, T, x) == bond
