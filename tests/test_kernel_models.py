"""Rational kernel models: bonds, rates, inversions, decompositions, I/O."""

import json
import math

import numpy as np
import pytest

import longrate as lr
from longrate import (
    CoefficientFunction,
    Model,
    ModelState,
    bond_price,
    fgh_coefficients,
    fit_initial_curve,
    long_libor_1f,
    long_libor_2f,
    long_pareto_1f,
    short_rate_1f,
    short_rate_2f,
    state_from_long_rate_1f,
    state_from_short_rate_1f,
)
from longrate.errors import (
    DegenerateModelError,
    DomainError,
    UnattainableRateError,
    UnsupportedOperationError,
)

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# Pinned closed forms (reference one-factor model: a=0.5/(1+t), b=0.5/(2+t))
# ---------------------------------------------------------------------------


def test_reference_bond_pinned(ref1f):
    state = ModelState(t=0.0, m=1.0)
    # (0.5/11 + 0.5/12) / 0.75
    expected = (0.5 / 11 + 0.5 / 12) / 0.75
    assert bond_price(ref1f, state, 10.0) == pytest.approx(expected, rel=1e-14)
    assert bond_price(ref1f, state, 10.0) == pytest.approx(0.1161616, abs=5e-8)


def test_reference_short_rate_pinned(ref1f):
    # r = -(a' + b' M)/pi = (0.5 + 0.125)/0.75 at t=0, M=1
    assert short_rate_1f(ref1f, ModelState(0.0, 1.0)) == pytest.approx(
        0.8333333333333334, rel=1e-12
    )


def test_reference_long_libor_pinned(ref1f):
    # tail limits: A = 0.5, B = 0.5; L = (a_t + b_t M) / (A + B M) at lam=1
    assert long_libor_1f(ref1f, ModelState(0.0, 1.0)) == pytest.approx(0.75, rel=1e-14)


def test_pareto2_long_rate_pinned(pareto2):
    got = long_pareto_1f(pareto2, ModelState(0.0, 1.0))
    # ((0.5 + 0.5/4) / (0.5 * 2^-2 * 2)) ** (1/2)
    assert got == pytest.approx(1.5811388300841898, rel=1e-12)


def test_two_factor_bond_and_rates_pinned(ref2f):
    state = ModelState(0.0, 1.0, 1.0)
    expected = (0.4 / 11 + 0.3 / 11 + 0.3 / 12) / 0.85
    assert bond_price(ref2f, state, 10.0) == pytest.approx(expected, rel=1e-14)
    assert bond_price(ref2f, state, 10.0) == pytest.approx(0.1042781, abs=5e-8)
    assert short_rate_2f(ref2f, state) == pytest.approx(0.9117647058823529, rel=1e-12)
    assert long_libor_2f(ref2f, state) == pytest.approx(0.85, rel=1e-14)


def test_bond_approaches_one_at_short_maturity(ref1f, ref2f):
    for model, state in (
        (ref1f, ModelState(2.0, 1.3)),
        (ref2f, ModelState(2.0, 1.3, 0.8)),
    ):
        assert bond_price(model, state, 2.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_bond_requires_future_maturity(ref1f):
    with pytest.raises(DomainError):
        bond_price(ref1f, ModelState(3.0, 1.0), 2.0)


def test_expected_kernel_and_theta(ref1f, pareto2):
    assert lr.expected_kernel(ref1f, 0.0) == pytest.approx(0.75)
    assert lr.expected_kernel(ref1f, 1e6) == pytest.approx(
        0.5 / (1 + 1e6) + 0.5 / (2 + 1e6), rel=1e-12
    )
    # theta uses the tail-limit portfolio: lam=2 tails are 0.5*lam^-lam*lam? no:
    # t^2 * 0.5/(1+t)^2 -> 0.5 and t^2 * 0.5/(2+t)^2 -> 0.5
    assert lr.theta_value(pareto2, ModelState(0.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Quotient identities on random states
# ---------------------------------------------------------------------------


def _random_states_1f(n):
    ts = RNG.uniform(0.0, 20.0, n)
    ms = np.exp(RNG.normal(0.0, 0.6, n))
    return [ModelState(float(t), float(m)) for t, m in zip(ts, ms)]


def test_short_rate_matches_log_derivative(ref1f):
    """r = -d/dT ln P(t,T) at T=t, checked by central differences."""
    h = 1e-5
    for state in _random_states_1f(20):
        t = state.t
        up = math.log(bond_price(ref1f, state, t + 2 * h))
        dn = math.log(bond_price(ref1f, state, t + h))
        fd = -(up - dn) / h
        assert short_rate_1f(ref1f, state) == pytest.approx(fd, abs=2e-5)


def test_two_factor_short_rate_matches_log_derivative(ref2f):
    h = 1e-5
    state = ModelState(1.5, 0.9, 1.4)
    up = math.log(bond_price(ref2f, state, 1.5 + 2 * h))
    dn = math.log(bond_price(ref2f, state, 1.5 + h))
    assert short_rate_2f(ref2f, state) == pytest.approx(-(up - dn) / h, abs=2e-5)


def test_bond_from_short_rate_identity(ref1f):
    for state in _random_states_1f(100):
        r = short_rate_1f(ref1f, state)
        direct = bond_price(ref1f, state, state.t + 7.5)
        via_rate = lr.bond_from_short_rate_1f(ref1f, state.t, state.t + 7.5, r)
        assert via_rate == pytest.approx(direct, rel=1e-10)


def test_bond_from_long_rate_identity(ref1f):
    for state in _random_states_1f(100):
        L = long_libor_1f(ref1f, state)
        direct = bond_price(ref1f, state, state.t + 12.0)
        via_rate = lr.bond_from_long_rate_1f(ref1f, state.t, state.t + 12.0, L)
        assert via_rate == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# State inversion
# ---------------------------------------------------------------------------


def test_short_rate_inversion_round_trip(ref1f):
    for state in _random_states_1f(50):
        r = short_rate_1f(ref1f, state)
        back = state_from_short_rate_1f(ref1f, state.t, r)
        assert back.m == pytest.approx(state.m, rel=1e-10)


def test_long_rate_inversion_round_trip(ref1f):
    for state in _random_states_1f(50):
        L = long_libor_1f(ref1f, state)
        back = state_from_long_rate_1f(ref1f, state.t, L)
        assert back.m == pytest.approx(state.m, rel=1e-10)


def test_attainable_short_rates_bracket(ref1f):
    lo, hi = lr.attainable_short_rates(ref1f, 0.0)
    assert lo < short_rate_1f(ref1f, ModelState(0.0, 1.0)) < hi
    # the interval endpoints are the M -> 0 and M -> inf limits
    ends = sorted(
        (
            short_rate_1f(ref1f, ModelState(0.0, 1e-9)),
            short_rate_1f(ref1f, ModelState(0.0, 1e9)),
        )
    )
    assert ends[0] == pytest.approx(lo, rel=1e-6)
    assert ends[1] == pytest.approx(hi, rel=1e-6)


def test_unattainable_short_rate_raises(ref1f):
    with pytest.raises(UnattainableRateError) as err:
        state_from_short_rate_1f(ref1f, 0.0, 10.0)
    lo, hi = err.value.interval
    assert not (lo < 10.0 < hi)


def test_unattainable_long_rate_raises(ref1f):
    lo, hi = lr.attainable_long_rates(ref1f, 0.0)
    with pytest.raises(UnattainableRateError):
        state_from_long_rate_1f(ref1f, 0.0, hi + 1.0)
    with pytest.raises(UnattainableRateError):
        state_from_long_rate_1f(ref1f, 0.0, lo - 0.1)


def test_degenerate_model_has_no_inverse():
    model = lr.zoo.degenerate_one_factor()
    # proportional coefficients: the short rate does not depend on M
    r0 = short_rate_1f(model, ModelState(1.0, 0.5))
    r1 = short_rate_1f(model, ModelState(1.0, 2.0))
    assert r0 == pytest.approx(r1, rel=1e-12)
    # ... and neither does the long rate, since abar = bbar as a = b
    for call in (
        lambda: state_from_short_rate_1f(model, 1.0, r0),
        lambda: lr.bond_from_short_rate_1f(model, 1.0, 5.0, r0),
        lambda: lr.attainable_short_rates(model, 1.0),
        lambda: state_from_long_rate_1f(model, 1.0, long_libor_1f(model, ModelState(1.0, 0.5))),
        lambda: lr.bond_from_long_rate_1f(model, 1.0, 5.0, 0.5),
        lambda: lr.attainable_long_rates(model, 1.0),
    ):
        with pytest.raises(DegenerateModelError) as err:
            call()
        assert err.value.code == "NO_INVERSE"


# ---------------------------------------------------------------------------
# Factor counts: one function per quantity, guarded factor-specific operations
# ---------------------------------------------------------------------------


def test_one_and_two_factor_names_serve_any_model(ref1f, ref2f):
    s1, s2 = ModelState(0.0, 1.0), ModelState(0.0, 1.0, 1.0)
    for short in (short_rate_1f, short_rate_2f, lr.short_rate):
        assert short(ref2f, s2) == pytest.approx(0.9117647058823529, rel=1e-12)
        assert short(ref1f, s1) == pytest.approx(0.8333333333333334, rel=1e-12)
    # P(0, 5) = (0.4/6 + 0.3/6 + 0.3/7) / 0.85 keeps the c(T) N term
    for bond in (lr.bond_price_1f, lr.bond_price_2f, bond_price):
        assert bond(ref2f, s2, 5.0) == pytest.approx((0.7 / 6 + 0.3 / 7) / 0.85, rel=1e-14)
    assert long_pareto_1f(ref2f, s2) == pytest.approx(0.85, rel=1e-14)
    assert long_libor_2f(ref1f, s1) == pytest.approx(0.75, rel=1e-14)
    with pytest.raises(DomainError):
        long_libor_2f(lr.zoo.pareto_one_factor(2.0), s1)
    with pytest.raises(DomainError, match="1-factor model cannot use 2 factor value"):
        bond_price(ref1f, s2, 5.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: state_from_short_rate_1f(m, 0.0, 0.9),
        lambda m: state_from_long_rate_1f(m, 0.0, 0.85),
        lambda m: lr.attainable_short_rates(m, 0.0),
        lambda m: lr.attainable_long_rates(m, 0.0),
        lambda m: lr.bond_from_short_rate_1f(m, 0.0, 5.0, 0.9),
        lambda m: lr.bond_from_long_rate_1f(m, 0.0, 5.0, 0.85),
    ],
    ids=["state_from_short", "state_from_long", "attainable_short", "attainable_long",
         "bond_from_short", "bond_from_long"],
)
def test_one_factor_operations_reject_two_factor_models(ref2f, call):
    with pytest.raises(DomainError, match="needs a 1-factor model, got a 2-factor model"):
        call(ref2f)


def test_fgh_rejects_one_factor_models(ref1f):
    with pytest.raises(DomainError, match="needs a 2-factor model, got a 1-factor model"):
        fgh_coefficients(ref1f, 0.0, 5.0)


# ---------------------------------------------------------------------------
# Two-factor pricing decomposition
# ---------------------------------------------------------------------------


def _fgh_oracle(model, t, T):
    """Solve the 3x3 linear system directly."""
    a_t, b_t, c_t = float(model.a(t)), float(model.b(t)), float(model.c(t))
    ap, bp, cp = float(model.a.deriv(t)), float(model.b.deriv(t)), float(model.c.deriv(t))
    A, B, C = model.a.tail_limit, model.b.tail_limit, model.c.tail_limit
    lhs = np.array([[a_t, -ap, A], [b_t, -bp, B], [c_t, -cp, C]])
    rhs = np.array([float(model.a(T)), float(model.b(T)), float(model.c(T))])
    return np.linalg.solve(lhs, rhs)


def test_fgh_matches_linear_solve(ref2fx):
    for t, T in ((0.0, 10.0), (1.0, 5.0), (3.0, 50.0), (0.5, 2.0)):
        got = fgh_coefficients(ref2fx, t, T)
        want = _fgh_oracle(ref2fx, t, T)
        np.testing.assert_allclose([got.f, got.g, got.h], want, rtol=1e-9, atol=1e-12)


def test_fgh_reconstructs_bond(ref2fx):
    for _ in range(100):
        t = float(RNG.uniform(0.0, 10.0))
        T = t + float(RNG.uniform(0.5, 40.0))
        m = float(np.exp(RNG.normal(0.0, 0.5)))
        n = float(np.exp(RNG.normal(0.0, 0.5)))
        state = ModelState(t, m, n)
        coef = fgh_coefficients(ref2fx, t, T)
        r = short_rate_2f(ref2fx, state)
        L = long_libor_2f(ref2fx, state)
        rebuilt = coef.f + coef.g * r + coef.h / L
        assert rebuilt == pytest.approx(bond_price(ref2fx, state, T), rel=1e-10)


def test_fgh_reconstructs_bond_on_dependent_rows(ref2f):
    """a and b of the reference two-factor model are proportional, so the
    coefficient system is singular; the minimum-norm solution must still
    reconstruct the bond."""
    for t, T in ((0.0, 10.0), (1.0, 5.0), (2.0, 100.0)):
        coef = fgh_coefficients(ref2f, t, T)
        for m, n in ((1.0, 1.0), (0.6, 1.7), (2.2, 0.4)):
            state = ModelState(t, m, n)
            rebuilt = coef.f + coef.g * short_rate_2f(ref2f, state) + coef.h / long_libor_2f(ref2f, state)
            assert rebuilt == pytest.approx(bond_price(ref2f, state, T), rel=1e-10)


def test_fgh_near_identity_at_zero_tenor(ref2fx):
    coef = fgh_coefficients(ref2fx, 2.0, 2.0 + 1e-10)
    assert coef.f == pytest.approx(1.0, abs=1e-7)
    assert coef.g == pytest.approx(0.0, abs=1e-7)
    assert coef.h == pytest.approx(0.0, abs=1e-7)


def test_fgh_rejects_inconsistent_singular_system():
    """Rows can be made dependent at one time with an inconsistent target:
    c matches b to first order at t0 (same tail limit) but differs at T."""
    t0 = 1.0

    def c_fn(t):
        t = np.asarray(t, dtype=float)
        return 0.3 / (1.0 + t) + (t - t0) ** 2 * np.exp(-t) * 0.05

    def c_deriv(t):
        t = np.asarray(t, dtype=float)
        return (
            -0.3 / (1.0 + t) ** 2
            + (2.0 * (t - t0) - (t - t0) ** 2) * np.exp(-t) * 0.05
        )

    base = lr.zoo.reference_two_factor()
    model = Model(
        coefficients=(
            CoefficientFunction(
                lambda t: 0.4 / (1.0 + np.asarray(t, dtype=float)),
                lambda t: -0.4 / (1.0 + np.asarray(t, dtype=float)) ** 2,
                lam=1.0,
                tail_limit=0.4,
            ),
            CoefficientFunction(
                lambda t: 0.3 / (1.0 + np.asarray(t, dtype=float)),
                lambda t: -0.3 / (1.0 + np.asarray(t, dtype=float)) ** 2,
                lam=1.0,
                tail_limit=0.3,
            ),
            CoefficientFunction(c_fn, c_deriv, lam=1.0, tail_limit=0.3),
        ),
        drivers=base.drivers,
    )
    with pytest.raises(DegenerateModelError) as err:
        fgh_coefficients(model, t0, 10.0)
    assert err.value.code == "NO_DECOMPOSITION"


# ---------------------------------------------------------------------------
# Config round-trips
# ---------------------------------------------------------------------------


def test_model_config_round_trip(ref1f, tmp_path):
    cfg = lr.model_to_config(ref1f)
    again = lr.model_from_config(cfg)
    for t in (0.0, 1.0, 10.0, 250.0):
        assert float(again.a(t)) == pytest.approx(float(ref1f.a(t)), rel=1e-14)
        assert float(again.b(t)) == pytest.approx(float(ref1f.b(t)), rel=1e-14)
    path = tmp_path / "model.json"
    lr.save_model_config(ref1f, path)
    loaded = lr.load_model_config(path)
    assert bond_price(loaded, ModelState(0.0, 1.0), 10.0) == pytest.approx(
        bond_price(ref1f, ModelState(0.0, 1.0), 10.0), rel=1e-14
    )


def test_two_factor_config_round_trip(ref2f, tmp_path):
    path = tmp_path / "m2.json"
    lr.save_model_config(ref2f, path)
    loaded = lr.load_model_config(path)
    s = ModelState(0.0, 1.0, 1.0)
    assert bond_price(loaded, s, 10.0) == pytest.approx(bond_price(ref2f, s, 10.0), rel=1e-14)
    assert loaded.drivers is not None


def test_packaged_configs_parse():
    import importlib.resources as res

    for name in ("ref1f.json", "ref2f.json", "pareto2.json"):
        with res.as_file(res.files("longrate") / "data" / name) as p:
            model = lr.load_model_config(p)
        assert lr.expected_kernel(model, 0.0) > 0.0


def test_config_missing_key_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"factors": 1}))
    with pytest.raises(DomainError) as err:
        lr.load_model_config(path)
    assert "missing key" in str(err.value)


def test_declared_tail_limit_cross_checked():
    # hand-built coefficient whose declared tail limit disagrees with t*f(t)
    bogus = CoefficientFunction(
        lambda t: 0.5 / (1.0 + np.asarray(t, dtype=float)),
        lambda t: -0.5 / (1.0 + np.asarray(t, dtype=float)) ** 2,
        lam=1.0,
        tail_limit=0.9,
    )
    with pytest.raises(DomainError) as err:
        Model(coefficients=(bogus, CoefficientFunction.rational(0.5, 2.0, 1.0)))
    assert "tail limit" in str(err.value)


def test_model_needs_a_factor_and_one_driver_per_factor(ref2f):
    with pytest.raises(DomainError, match="at least one factor"):
        Model(ref2f.coefficients[:1])
    with pytest.raises(DomainError, match="one driver per factor"):
        Model(ref2f.coefficients, ref2f.drivers[:1])


def test_negative_coefficient_rejected():
    with pytest.raises(DomainError) as err:
        Model(
            coefficients=(
                CoefficientFunction(
                    lambda t: 0.5 - 0.1 * np.asarray(t, dtype=float),
                    lambda t: np.full_like(np.asarray(t, dtype=float), -0.1),
                    lam=1.0,
                    tail_limit=0.0,
                ),
                CoefficientFunction.rational(0.5, 2.0, 1.0),
            ),
        )
    assert "positive" in str(err.value)


# ---------------------------------------------------------------------------
# Fitting a model to an initial curve
# ---------------------------------------------------------------------------


def test_fit_initial_curve_equal_split_hyperbolic():
    curve = lr.tail_pareto_curve(1.0, 0.02)
    model = fit_initial_curve(curve, weights=(0.5, 0.5))
    # exact split of the curve everywhere it is defined
    for t in (0.0, 1.0, 10.0, 200.0, 5e4):
        assert float(model.a(t)) == pytest.approx(0.5 * curve.df(t), rel=1e-12)
        assert float(model.b(t)) == pytest.approx(0.5 * curve.df(t), rel=1e-12)
    # closed form at grid points, where the sampled curve is exact
    for t in curve.grid[[1, 10, -1]]:
        assert float(model.a(t)) == pytest.approx(0.5 / (1.0 + 0.02 * t), rel=1e-9)
    assert model.a.tail_limit == pytest.approx(25.0, rel=1e-6)
    # initial-curve consistency at M=1
    for T in (0.5, 7.0, 43.0):
        assert bond_price(model, ModelState(0.0, 1.0), T) == pytest.approx(
            curve.df(T), rel=1e-9
        )


def test_fit_initial_curve_needs_pareto_tail():
    with pytest.raises(DomainError):
        fit_initial_curve(lr.flat_exponential_curve(0.03), weights=(0.5, 0.5))


def test_fitted_model_short_rate_unsupported():
    curve = lr.tail_pareto_curve(2.0, 0.04)
    model = fit_initial_curve(curve, weights=(0.5, 0.5))
    with pytest.raises(UnsupportedOperationError) as err:
        short_rate_1f(model, ModelState(0.0, 1.0))
    assert str(err.value).startswith("UNSUPPORTED")
