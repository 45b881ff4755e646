"""Rate conventions, conversions, curves, and forward consistency."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import longrate as lr
from longrate import (
    DiscountCurve,
    ExponentialTail,
    ParetoTail,
    RateConvention,
    Tenor,
    convert_rate,
    discount_from_rate,
    forward_discount,
    log_discount_from_rate,
    rate_from_discount,
    rate_from_log_discount,
    time_consistency_residual,
)
from longrate.errors import DomainError

EXP = RateConvention.exponential()
LIBOR = RateConvention.libor()
P2 = RateConvention.tail_pareto(2.0)
ZC1 = RateConvention.zero_coupon(1.0)


# ---------------------------------------------------------------------------
# Pinned values
# ---------------------------------------------------------------------------


def test_exponential_discount_pinned():
    assert discount_from_rate(Tenor(0, 10), EXP, 0.05) == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )


def test_pareto_discount_pinned():
    # (1 + 50*0.04/2)^-2 = 2^-2
    assert discount_from_rate(Tenor(0, 50), P2, 0.04) == pytest.approx(0.25, abs=1e-15)


def test_libor_from_half_discount():
    assert rate_from_discount(Tenor(0, 10), LIBOR, 0.5) == pytest.approx(0.1, abs=1e-15)


def test_zero_coupon_from_half_discount():
    # kappa=1 over 10y: (1+Z)^-10 = 0.5 -> Z = 2^(1/10) - 1
    z = rate_from_discount(Tenor(0, 10), ZC1, 0.5)
    assert z == pytest.approx(2.0 ** 0.1 - 1.0, rel=1e-12)
    assert z == pytest.approx(0.0717734625, abs=1e-9)


def test_convert_exponential_to_libor_pinned():
    out = convert_rate(Tenor(0, 10), EXP, LIBOR, 0.05)
    assert out == pytest.approx((math.exp(0.5) - 1.0) / 10.0, rel=1e-12)
    assert out == pytest.approx(0.0648721271, abs=1e-9)


def test_convert_libor_to_pareto2_pinned():
    out = convert_rate(Tenor(0, 10), LIBOR, P2, 0.1)
    assert out == pytest.approx(0.0828427125, abs=1e-9)


def test_libor_equals_pareto_index_one():
    t = Tenor(0.0, 7.0)
    for value in (0.01, 0.1, 0.5):
        a = discount_from_rate(t, LIBOR, value)
        b = discount_from_rate(t, RateConvention.tail_pareto(1.0), value)
        assert a == pytest.approx(b, rel=1e-14)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

conventions = st.sampled_from(
    [
        EXP,
        LIBOR,
        RateConvention.tail_pareto(0.5),
        P2,
        RateConvention.tail_pareto(3.0),
        ZC1,
        RateConvention.zero_coupon(4.0),
    ]
)


@given(
    st.floats(min_value=0.05, max_value=1.2),
    st.floats(min_value=0.1, max_value=80.0),
    conventions,
)
@settings(max_examples=300, deadline=None)
def test_rate_discount_round_trip(df, length, conv):
    """rate -> discount -> rate is the identity on the attainable range."""
    tenor = Tenor(1.0, 1.0 + length)
    rate = rate_from_discount(tenor, conv, df)
    back = discount_from_rate(tenor, conv, rate)
    assert back == pytest.approx(df, rel=1e-12)


@given(
    st.floats(min_value=0.05, max_value=1.2),
    st.floats(min_value=0.1, max_value=80.0),
    conventions,
    conventions,
)
@settings(max_examples=300, deadline=None)
def test_conversion_preserves_discount(df, length, conv_a, conv_b):
    tenor = Tenor(0.0, length)
    ra = rate_from_discount(tenor, conv_a, df)
    rb = convert_rate(tenor, conv_a, conv_b, ra)
    assert discount_from_rate(tenor, conv_b, rb) == pytest.approx(df, rel=1e-12)


@given(
    st.floats(min_value=0.05, max_value=1.3),
    st.floats(min_value=0.3, max_value=3.9),
    st.floats(min_value=0.05, max_value=3.5),
)
@settings(max_examples=300, deadline=None)
def test_quote_ordering(df, alpha, gap):
    """Lower tail index quotes higher: R <= L^(alpha) <= L^(beta), beta < alpha."""
    beta = alpha - gap
    if beta <= 0.0:
        beta = alpha / 2.0
    tenor = Tenor(0.0, 10.0)
    r = rate_from_discount(tenor, EXP, df)
    la = rate_from_discount(tenor, RateConvention.tail_pareto(alpha), df)
    lb = rate_from_discount(tenor, RateConvention.tail_pareto(beta), df)
    assert r <= la + 1e-14 * max(1.0, abs(la))
    assert la <= lb + 1e-14 * max(1.0, abs(lb))


def test_ordering_audit_includes_df_above_one():
    rep = lr.ordering_audit(Tenor(0.0, 10.0), 1.1, alphas=(0.5, 2.0, 3.0))
    assert isinstance(rep, lr.AuditReport) and rep.passed
    assert rep.data["discount_factor"] == 1.1
    assert list(rep.data["rates"]) == ["exp", "pareto:3", "pareto:2", "libor", "pareto:0.5"]
    values = list(rep.data["rates"].values())
    assert values == sorted(values)
    assert all(v < 0.0 for v in values)


def test_pareto_approaches_exponential_at_large_index():
    tenor = Tenor(0.0, 10.0)
    r = rate_from_discount(tenor, EXP, 0.5)
    errors = []
    for lam in (1e3, 1e6):
        l_lam = rate_from_discount(tenor, RateConvention.tail_pareto(lam), 0.5)
        errors.append(abs(l_lam - r))
    assert errors[1] < errors[0]
    assert errors[1] < 1e-6


def test_exponential_zero_coupon_closed_form():
    # Z = kappa * (exp(R / kappa) - 1) must agree with the generic conversion
    tenor = Tenor(0.0, 25.0)
    for kappa in (0.5, 1.0, 4.0):
        for r in (-0.01, 0.02, 0.08):
            via_convert = convert_rate(
                tenor, EXP, RateConvention.zero_coupon(kappa), r
            )
            assert via_convert == pytest.approx(
                kappa * math.expm1(r / kappa), rel=1e-12
            )


# ---------------------------------------------------------------------------
# Domain edges
# ---------------------------------------------------------------------------


def test_tenor_rejects_bad_order():
    with pytest.raises(DomainError):
        Tenor(5.0, 5.0)
    with pytest.raises(DomainError):
        Tenor(-1.0, 2.0)


def test_outside_numbers_are_domain_errors():
    with pytest.raises(DomainError, match="t must be a number, got 'x'"):
        Tenor("x", 1.0)
    with pytest.raises(DomainError, match="index must be a number, got 'x'"):
        RateConvention("tail_pareto", "x")
    with pytest.raises(DomainError, match="band 0: end must be finite, got inf"):
        lr.STPRSchedule(((0.0, math.inf, 0.03), (10.0, None, 0.02)))


@pytest.mark.parametrize("build", [
    lambda: lr.GBMDriver((0.0,), (True,)),
    lambda: lr.GBMDriver.constant(True),
    lambda: lr.CashFlow(True, amount=1.0),
    lambda: lr.CashFlow(10.0, amount=True),
    lambda: lr.DiscountCurve([0.0, 1.0], [1.0, True]),
    lambda: lr.DiscountCurve(np.array([0.0, 1.0]), np.array([True, True])),
], ids=["driver", "constant-driver", "flow-time", "flow-amount", "curve-list", "curve-array"])
def test_public_constructors_refuse_booleans(build):
    """float() reads True as 1: each of these built sigma = 1, time 1 or P(1) = 1."""
    with pytest.raises(DomainError, match="must be a number|must be numbers"):
        build()


def test_curve_sets_p0_to_one_in_its_own_copy():
    """An integer grid converts at once; P(0) within 1e-12 of 1 is set to 1 in the
    curve's arrays, never in the caller's."""
    grid, values = np.array([0, 1, 2]), np.array([1.0 + 1e-13, 0.9, 0.8])
    curve = lr.DiscountCurve(grid, values)
    assert values[0] == 1.0 + 1e-13 and curve.values[0] == 1.0
    assert curve.grid.dtype == float and curve.grid.tolist() == [0.0, 1.0, 2.0]


def test_libor_below_attainable_raises():
    with pytest.raises(DomainError) as err:
        discount_from_rate(Tenor(0, 10), LIBOR, -0.2)
    assert "-0.1" in str(err.value)


def test_pareto_below_attainable_raises():
    # pareto-2 over x=10 needs value > -2/10
    with pytest.raises(DomainError):
        discount_from_rate(Tenor(0, 10), P2, -0.25)
    discount_from_rate(Tenor(0, 10), P2, -0.19)  # inside the interval


def test_zero_coupon_below_attainable_raises():
    with pytest.raises(DomainError):
        discount_from_rate(Tenor(0, 10), ZC1, -1.5)


def test_exponential_divergence_maps_to_inf():
    # huge negative exponential rate over a long tenor overflows exp;
    # the discount is reported as divergent, not as an exception
    assert log_discount_from_rate(Tenor(0, 1000), EXP, -2.0) == pytest.approx(2000.0)
    assert discount_from_rate(Tenor(0, 1000), EXP, -2.0) == math.inf


@pytest.mark.parametrize("conv", [EXP, LIBOR, P2, RateConvention.tail_pareto(0.5), ZC1])
def test_array_rates_match_scalar_rates(conv):
    rng = np.random.default_rng(4)
    t = rng.uniform(0.0, 100.0, 200)
    lengths = (t + np.geomspace(1e-3, 1e8, 200)) - t
    lds = np.log(rng.uniform(0.2, 1.15, 200)) * rng.choice([1e-6, 1.0, 1e3, 1e5], 200)
    out = lr.rates_from_log_discount(lengths, conv, lds)
    for x, ld, rate in zip(lengths, lds, out):
        ref = rate_from_log_discount(Tenor(0.0, float(x)), conv, float(ld))
        assert rate == ref or abs(rate - ref) <= 1e-12 * max(abs(rate), abs(ref))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("conv", [EXP, LIBOR, RateConvention.tail_pareto(2.0),
                                  RateConvention.zero_coupon(2.0)], ids=RateConvention.label)
def test_array_rates_overflow_at_a_tiny_length_to_inf_without_warning(conv):
    out = lr.rates_from_log_discount(np.array([1e-308, 1.0]), conv, np.array([-10.0, -0.01]))
    assert out[0] == math.inf and math.isfinite(out[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("conv", [EXP, LIBOR, RateConvention.tail_pareto(2.0),
                                  RateConvention.zero_coupon(2.0)], ids=RateConvention.label)
def test_rates_arithmetic_overflows_at_a_tiny_length_without_warning(conv):
    """A read of a priced ln P trace calls ``_rates`` directly, past the public conversion."""
    out = lr.termstructure._rates(np.array([1e-310]), conv, np.array([-1.0]))
    assert out[0] == math.inf


# kappa * x = 1e-600 underflows to 0: each route gives the quote's limit as kappa * x
# shrinks, which a length of 1 reaches too, and at ln P = +-0 the signed zero of any length.
@pytest.mark.parametrize("log_df, limit", [(-10.0, math.inf), (10.0, -1e-300), (0.0, -0.0),
                                           (-0.0, 0.0)])
def test_zero_coupon_quote_of_an_underflowing_kappa_x_is_its_limit(log_df, limit):
    zc = RateConvention.zero_coupon(1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = rate_from_log_discount(Tenor(0, 1e-300), zc, log_df)
        array = lr.rates_from_log_discount(np.array([1e-300, 1.0]), zc, np.full(2, log_df))
    for quote in (scalar, *array):
        assert quote == limit and math.copysign(1.0, quote) == math.copysign(1.0, limit)


def test_array_rates_overflow_to_inf_and_reject_nonfinite_logs():
    out = lr.rates_from_log_discount(np.array([1.0, 1.0]), LIBOR, np.array([-1.0, -1e4]))
    assert math.isfinite(out[0]) and out[1] == math.inf
    assert rate_from_log_discount(Tenor(0, 1), LIBOR, -1e4) == math.inf
    with pytest.raises(DomainError):
        lr.rates_from_log_discount(np.array([1.0]), EXP, np.array([-np.inf]))


# A row of finite ln P over normal tenor lengths: a subnormal length over a subnormal ln P
# gives quotes near 1 whose y / lam has lost its digits.
LOG_DF_ROWS = st.integers(1, 8).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(min_value=np.finfo(float).tiny, allow_infinity=False)),
    arrays(float, n, elements=st.floats(allow_nan=False, allow_infinity=False)),
))


@settings(max_examples=300, deadline=None)
@given(row=LOG_DF_ROWS, lams=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
def test_rates_of_one_log_df_row_are_ordered_downward_in_index(row, lams):
    """exponential <= tail-Pareto at the higher index <= at the lower index, per tenor.

    This is the stratification audit's ordering check, with its slack and
    with a non-finite (overflowed) quote made nan, which enters no comparison.
    """
    lengths, log_df = row
    conventions = [EXP, *(RateConvention.tail_pareto(lam) for lam in sorted(set(lams))[::-1])]
    rows = np.array([lr.rates_from_log_discount(lengths, conv, log_df) for conv in conventions])
    quotes = np.where(np.isfinite(rows), rows, np.nan)
    slack = 1e-12 * np.fmax.reduce(np.abs(quotes), axis=0, initial=1.0)
    # halved, so that q - slack cannot overflow at quotes near -1.8e308
    assert not (quotes[1:] / 2 < quotes[:-1] / 2 - slack / 2).any()


def test_parse_labels_round_trip():
    for text in ("exp", "libor", "pareto:2", "pareto:0.5", "zc:1", "zc:4"):
        conv = RateConvention.parse(text)
        again = RateConvention.parse(conv.label())
        assert again == conv
    assert RateConvention.parse("libor").pareto_index == 1.0
    assert RateConvention.parse("exp").pareto_index is None


def test_parse_rejects_unknown():
    with pytest.raises(DomainError):
        RateConvention.parse("weekly")
    with pytest.raises(DomainError):
        RateConvention.parse("pareto:-1")


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def test_flat_curve_time_consistency():
    curve = lr.flat_exponential_curve(0.03)
    probes = [(10.0, 10.0), (15.0, 15.0), (20.0, 40.0), (50.0, 50.0)]
    assert time_consistency_residual(curve, probes) <= 1e-12


def test_hyperbolic_curve_not_time_consistent():
    curve = lr.tail_pareto_curve(1.0, 0.02)
    assert time_consistency_residual(curve, [(10.0, 10.0), (50.0, 50.0)]) > 1e-4


def test_time_consistency_needs_probes():
    curve = lr.flat_exponential_curve(0.03)
    with pytest.raises(DomainError):
        time_consistency_residual(curve, [])
    with pytest.raises(DomainError):
        time_consistency_residual(curve, [(1.0, 0.0)])


def test_forward_discount_hyperbolic_pinned():
    # 1/(1+0.02*100) over 1/(1+0.02*50) = (1/3)/(1/2)
    curve = lr.tail_pareto_curve(1.0, 0.02)
    assert forward_discount(curve, 50.0, 100.0) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_forward_discount_of_flat_curve():
    curve = lr.flat_exponential_curve(0.05)
    assert forward_discount(curve, 3.0, 8.0) == pytest.approx(math.exp(-0.25), rel=1e-9)


def test_forward_discount_chains():
    curve = lr.tail_pareto_curve(2.0, 0.04)
    fd = forward_discount
    assert fd(curve, 1.0, 4.0) * fd(curve, 4.0, 9.0) == pytest.approx(
        fd(curve, 1.0, 9.0), rel=1e-12
    )


def test_curve_csv_round_trip(tmp_path):
    curve = lr.tail_pareto_curve(2.0, 0.04)
    path = tmp_path / "curve.csv"
    lr.save_curve_csv(curve, path)
    text = path.read_text()
    assert text.splitlines()[0] == "maturity_years,discount_factor"
    assert text.splitlines()[1].startswith("0,1")
    again = lr.load_curve_csv(path, tail=ParetoTail(2.0, 0.04))
    for t in (0.5, 7.0, 123.0, 5e4):
        assert again.df(t) == pytest.approx(curve.df(t), rel=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_sorted_unique_is_np_unique_bitwise(seed):
    """Duplicates, both zeros in either order and infinities, as np.unique keeps them."""
    rng = np.random.default_rng(seed)
    pool = np.array([-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, np.inf, -np.inf])
    for n in (0, 1, 2, 17, 300):
        x = np.concatenate([rng.choice(pool, n), rng.uniform(-3.0, 3.0, n).round(1)])
        rng.shuffle(x)
        got, want = lr.termstructure._sorted_unique(x), np.unique(x)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    grid = lr.termstructure.default_curve_grid()
    assert np.all(np.diff(grid) > 0.0) and grid[0] == 0.0


def test_curve_beyond_grid_needs_tail():
    grid = np.array([0.0, 1.0, 2.0])
    curve = DiscountCurve(grid, np.exp(-0.03 * grid))
    with pytest.raises(lr.ExtrapolationError):
        curve.df(5.0)


def test_tail_continuation_is_continuous():
    grid = np.linspace(0.0, 10.0, 41)
    for tail in (ExponentialTail(0.04), ParetoTail(2.0, 0.04)):
        curve = DiscountCurve(grid, np.exp(-0.04 * grid), tail=tail)
        below = curve.df(10.0 - 1e-9)
        above = curve.df(10.0 + 1e-9)
        assert above == pytest.approx(below, rel=1e-6)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e6),
)
@settings(max_examples=200, deadline=None)
def test_pareto_tail_continuous_at_grid_end(lam, level, horizon):
    """ln P at the last knot and one ulp past it agree within 1e-12 relative."""
    curve = lr.tail_pareto_curve(lam, level, grid=np.linspace(0.0, horizon, 17))
    end = curve.horizon
    at, beyond = curve.log_df(np.array([end, np.nextafter(end, math.inf)]))
    assert beyond == pytest.approx(at, rel=1e-12, abs=0.0)


def test_curve_requires_unit_start():
    grid = np.array([0.0, 1.0])
    with pytest.raises(DomainError):
        DiscountCurve(grid, np.array([0.99, 0.9]))


def test_curve_df_vectorized_matches_scalar():
    curve = lr.tail_pareto_curve(2.0, 0.04)
    ts = np.array([0.0, 0.7, 3.0, 42.0])
    np.testing.assert_allclose(curve.df(ts), [curve.df(float(t)) for t in ts], rtol=1e-12)
