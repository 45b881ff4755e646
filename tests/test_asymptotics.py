"""Long-rate estimation, tail classification, and the structural audits."""

import dataclasses
import math
import types
from importlib import resources

import numpy as np
import pytest

import longrate as lr
from longrate import (
    ModelState,
    RateConvention,
    bond_evaluator,
    classify_curve,
    curve_evaluator,
    default_long_rate_horizons,
    deterministic_long_rate,
    dir_monotonicity_audit,
    estimate_long_rate,
    pareto_kernel_certificate,
    stratification_audit,
)
from longrate.errors import DomainError, InadmissibleCurveError, LongrateError

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXP = RateConvention.exponential()
LIBOR = RateConvention.libor()


# ---------------------------------------------------------------------------
# Long-rate estimation
# ---------------------------------------------------------------------------


def test_reference_long_libor_estimate(ref1f):
    est = estimate_long_rate(bond_evaluator(ref1f, ModelState(0.0, 1.0)), 0.0, LIBOR)
    assert est.status == "CONVERGED"
    assert abs(est.value - 0.75) <= 1e-6


def test_estimate_converges_at_other_states(ref1f):
    state = ModelState(2.0, 1.3)
    est = estimate_long_rate(bond_evaluator(ref1f, state), 2.0, LIBOR)
    closed = lr.long_libor_1f(ref1f, state)
    assert abs(est.value - closed) <= 1e-6


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_pareto_long_rate_estimates(lam):
    model = lr.zoo.pareto_one_factor(lam)
    conv = RateConvention.tail_pareto(lam)
    est = estimate_long_rate(bond_evaluator(model, ModelState(0.0, 1.0)), 0.0, conv)
    closed = lr.long_pareto_1f(model, ModelState(0.0, 1.0))
    assert est.status == "CONVERGED"
    assert abs(est.value - closed) <= 1e-6


def test_flat_curve_exponential_estimate(curves):
    est = estimate_long_rate(curve_evaluator(curves["flat3"]), 0.0, EXP)
    assert est.status == "CONVERGED"
    assert est.value == pytest.approx(0.03, abs=1e-9)


def test_flat_curve_libor_diverges(curves):
    est = estimate_long_rate(curve_evaluator(curves["flat3"]), 0.0, LIBOR)
    assert est.status == "DIVERGENT"
    assert est.value == math.inf


def test_estimate_records_trace(ref1f, tmp_path):
    est = estimate_long_rate(bond_evaluator(ref1f, ModelState(0.0, 1.0)), 0.0, LIBOR)
    horizons = default_long_rate_horizons()
    assert len(est.trace) == len(horizons)
    assert est.trace[0][0] == pytest.approx(horizons[0])
    out = tmp_path / "trace.csv"
    lr.save_trace_csv(est, 0.0, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "horizon,rate"
    assert len(lines) == 1 + len(est.trace)


def test_estimate_needs_enough_horizons(ref1f):
    with pytest.raises(DomainError):
        estimate_long_rate(
            bond_evaluator(ref1f, ModelState(0.0, 1.0)), 0.0, LIBOR,
            horizons=np.array([10.0]),
        )
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            estimate_long_rate(
                bond_evaluator(ref1f, ModelState(0.0, 1.0)), 0.0, LIBOR,
                horizons=np.array([10.0, 100.0, bad]),
            )


def test_constant_curve_is_inadmissible():
    """P == 1 never decays, so no admissible kernel can sit behind it."""
    curve = lr.curve_from_function(
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        tail=lr.ExponentialTail(0.0),
    )
    with pytest.raises(InadmissibleCurveError):
        stratification_audit(curve_evaluator(curve), 0.0)


# ---------------------------------------------------------------------------
# The array estimator against a scalar reference
# ---------------------------------------------------------------------------

EQUIV_TIMES = (0.0, 1.0, 10.0, 100.0)
EQUIV_CONVENTIONS = [
    EXP, LIBOR, RateConvention.tail_pareto(0.5), RateConvention.tail_pareto(2.0),
    RateConvention.tail_pareto(3.0), RateConvention.zero_coupon(1.0),
]


def _reference_estimate(log_df, t, conv, xs):
    """The estimator as a scalar loop: price each horizon, quote it, read decade suprema.

    ``log_df(T)`` is ln P(t, T) for one maturity; a ``DomainError`` ends the schedule.
    """
    trace = []
    for x in xs:
        T = t + float(x)
        try:
            ld = log_df(T)
        except DomainError:
            break
        trace.append((float(x), lr.rate_from_log_discount(lr.Tenor(t, T), conv, ld)))
    sups, hi = [], trace[-1][0]
    while True:
        lo = hi / 10.0
        window = [r for x, r in trace if lo < x <= hi]
        if not window:
            break
        sups.append(max(window))
        hi = lo
        if hi < trace[0][0]:
            break
    sups.reverse()
    final = sups[-1]
    prev = sups[-2] if len(sups) >= 2 else math.nan
    if math.isinf(final) or (final > 1e3 and final >= prev):
        status = "DIVERGENT"
    elif len(sups) >= 2 and abs(final - prev) < 1e-6:
        status = "CONVERGED"
    else:
        status = "UNCONVERGED"
    return lr.LongRateEstimate(
        conv, final, t + trace[-1][0], status, final, tuple(sups), tuple(trace)
    )


def _close(a, b, rtol=1e-12):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _assert_equivalent(est, ref):
    assert est.status == ref.status
    assert len(est.trace) == len(ref.trace)
    assert len(est.decade_sups) == len(ref.decade_sups)
    assert all(_close(a, b) for a, b in zip(est.decade_sups, ref.decade_sups))
    assert _close(est.value, ref.value)
    assert est.horizon == ref.horizon


def _zoo_subjects():
    """(label, evaluator, scalar ln P(t, .), t, own index or None) for every zoo input."""
    for name, model in sorted(lr.zoo.model_zoo().items()):
        for t in EQUIV_TIMES:
            state = ModelState(t, 1.3, 0.8 if model.factors == 2 else None)
            yield (f"{name} t={t:g}", bond_evaluator(model, state),
                   lambda T, m=model, s=state: lr.bond_log_df(m, s, T), t, model.lam)
    for name, curve in sorted(lr.zoo.curve_zoo().items()):
        lam = curve.tail.lam if isinstance(curve.tail, lr.ParetoTail) else None
        for t in EQUIV_TIMES:
            yield (f"{name} t={t:g}", curve_evaluator(curve),
                   lambda T, c=curve, t=t: c.log_df(T) - c.log_df(t), t, lam)


class _ScalarLoop:
    """An evaluator pricing one maturity at a time with a scalar ln P."""

    def __init__(self, log_df):
        self.scalar = log_df

    def log_df(self, t, T):
        return np.array([self.scalar(float(x)) for x in T])


@pytest.mark.parametrize("conv", EQUIV_CONVENTIONS, ids=lambda c: c.label())
def test_estimator_matches_scalar_reference(conv):
    xs = default_long_rate_horizons()
    for label, ev, log_df, t, _ in _zoo_subjects():
        est = estimate_long_rate(ev, t, conv)
        ref = _reference_estimate(log_df, t, conv, xs)
        try:
            _assert_equivalent(est, ref)
        except AssertionError:
            pytest.fail(f"{label} {conv.label()}: {est} vs {ref}")


def test_stratification_matches_scalar_reference():
    xs = default_long_rate_horizons()
    for label, ev, log_df, t, lam in _zoo_subjects():
        alphas = sorted({0.5, 1.0, 2.0, 3.0} | ({lam} if lam else set()))
        rep = stratification_audit(ev, t, alphas=alphas)
        # Trends read off the scalar reference estimates by the audit's own rule.
        ref_exp = _reference_estimate(log_df, t, EXP, xs)
        assert rep.data["exponential"]["status"] == ref_exp.status, label
        assert rep.data["exponential"]["trend"] == lr.asymptotics._trend(ref_exp), label
        for alpha in alphas:
            ref = _reference_estimate(log_df, t, RateConvention.tail_pareto(alpha), xs)
            entry = rep.data["indices"][f"{alpha:g}"]
            assert entry["status"] == ref.status, (label, alpha)
            assert entry["trend"] == lr.asymptotics._trend(ref), (label, alpha)
            assert _close(entry["value"], ref.value), (label, alpha)
        # The same audit fed one scalar ln P per maturity reaches the same checks.
        scalar = stratification_audit(_ScalarLoop(log_df), t, alphas=alphas)
        assert rep.verdict == scalar.verdict, label
        assert [(c.name, c.status) for c in rep.checks] == [
            (c.name, c.status) for c in scalar.checks
        ], label


class _CountingEvaluator:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def log_df(self, t, T):
        self.calls += 1
        return self.inner.log_df(t, T)


def test_one_evaluator_call_per_estimate_and_audit(pareto2):
    """A foreign evaluator (here a wrapper) has no trace cache: every estimate
    and audit calls it once and gets the package evaluator's results."""
    inner = bond_evaluator(pareto2, ModelState(0.0, 1.0))
    ev = _CountingEvaluator(inner)
    for calls in (1, 2):
        assert estimate_long_rate(ev, 0.0, LIBOR) == estimate_long_rate(inner, 0.0, LIBOR)
        assert ev.calls == calls
    alphas = (0.5, 1.0, 2.0, 3.0)
    assert stratification_audit(ev, 0.0, alphas) == stratification_audit(inner, 0.0, alphas)
    assert ev.calls == 3


def test_package_evaluators_price_one_trace_per_schedule(pareto2, curves):
    for ev in (bond_evaluator(pareto2, ModelState(0.0, 1.0)), curve_evaluator(curves["gamma2"])):
        trace = lr.asymptotics._log_df_trace(ev, 0.0, None)
        estimate_long_rate(ev, 0.0, LIBOR)
        stratification_audit(ev, 0.0)
        assert lr.asymptotics._log_df_trace(ev, 0.0, default_long_rate_horizons()) is trace
        assert not any(a.flags.writeable for a in (trace.lengths, trace.log_df))


def test_trace_cache_matches_fresh_evaluators(pareto2, curves):
    """One evaluator asked in turn for other anchors and schedules, one of them
    an array changed in place between two calls, answers as a fresh one does."""
    def check(ev, make, t, horizons):
        assert estimate_long_rate(ev, t, LIBOR, horizons) == estimate_long_rate(
            make(), t, LIBOR, horizons)
        assert stratification_audit(ev, t, horizons=horizons) == stratification_audit(
            make(), t, horizons=horizons)

    short = default_long_rate_horizons(stop=1e6)
    subjects = [
        (lambda: curve_evaluator(curves["hyperbolic2"]), (0.0, 10.0, 0.0, 100.0)),
        (lambda: bond_evaluator(pareto2, ModelState(10.0, 1.3)), (10.0,)),
    ]
    for make, times in subjects:
        ev = make()
        schedule = default_long_rate_horizons()
        for horizons in (None, schedule, short, schedule):
            for t in times:
                check(ev, make, t, horizons)
        schedule *= 2.0
        for t in reversed(times):
            check(ev, make, t, schedule)


def test_trace_cache_is_not_part_of_the_evaluator(pareto2, curves):
    # params=None makes the model, and so its evaluator, hashable
    hashable = lr.Model(
        tuple(dataclasses.replace(c, params=None) for c in pareto2.coefficients),
        pareto2.drivers,
    )
    state = ModelState(0.0, 1.0)
    pairs = [
        (bond_evaluator(hashable, state), bond_evaluator(hashable, state)),
        (curve_evaluator(curves["gamma2"]), curve_evaluator(curves["gamma2"])),
    ]
    for used, fresh in pairs:
        estimate_long_rate(used, 0.0, EXP)
        assert used._trace is not None and fresh._trace is None
        assert used == fresh
        assert repr(used) == repr(fresh)
    used, fresh = pairs[0]
    assert hash(used) == hash(fresh)


CACHED_CONVENTIONS = [
    EXP, LIBOR, RateConvention.tail_pareto(0.5), RateConvention.tail_pareto(2.0),
    RateConvention.tail_pareto(3.0), RateConvention.zero_coupon(1.0),
    RateConvention.zero_coupon(12.0),
]


def test_cached_estimates_equal_fresh_reads(pareto2, curves):
    """Each convention's estimate is read once per trace and equals a fresh read
    of a freshly priced trace, before and after a stratification audit."""
    asy = lr.asymptotics
    subjects = [
        (bond_evaluator(pareto2, ModelState(10.0, 1.3)), 10.0),
        (curve_evaluator(curves["hyperbolic2"]), 1.0),
    ]
    for ev, t in subjects:
        fresh = asy._price_trace(ev, t, asy._schedule(default_long_rate_horizons()))
        for _ in range(2):
            for conv in CACHED_CONVENTIONS:
                est = estimate_long_rate(ev, t, conv)
                expected = _checked_read(fresh, conv)[1]
                assert est == expected and repr(est) == repr(expected)
                assert estimate_long_rate(ev, t, conv) is est
            stratification_audit(ev, t)
        cached_rates, _ = asy._log_df_trace(ev, t, None).read(RateConvention.tail_pareto(2.0))
        assert not cached_rates.flags.writeable


def test_foreign_evaluator_is_priced_on_every_read(pareto2):
    inner = bond_evaluator(pareto2, ModelState(0.0, 1.0))
    ev = _CountingEvaluator(inner)
    for calls, conv in enumerate(CACHED_CONVENTIONS + CACHED_CONVENTIONS, start=1):
        assert estimate_long_rate(ev, 0.0, conv) == estimate_long_rate(inner, 0.0, conv)
        assert ev.calls == calls
    assert not hasattr(ev, "_trace")


def test_cached_trace_does_not_admit_invalid_requests(curves):
    """A request whose bytes or anchor nearly match a cached valid trace is still validated."""
    xs = default_long_rate_horizons(stop=1e6)[:40]
    ev = curve_evaluator(curves["gamma2"])
    estimate_long_rate(ev, 1.0, EXP, xs)
    with pytest.raises(DomainError, match="anchor time must be finite"):
        estimate_long_rate(ev, math.nan, EXP, xs)
    with pytest.raises(DomainError, match="horizon offsets must be"):
        estimate_long_rate(ev, 1.0, EXP, xs.reshape(2, 20))  # the cached schedule's bytes
    with pytest.raises(DomainError, match="horizon offsets must be"):
        estimate_long_rate(ev, 1.0, EXP, xs[::-1])
    with pytest.raises(DomainError, match="horizon offsets must be"):
        stratification_audit(ev, 1.0, horizons=xs.reshape(2, 20))
    assert estimate_long_rate(ev, 1.0, EXP, xs) == estimate_long_rate(
        curve_evaluator(curves["gamma2"]), 1.0, EXP, xs)


# ---------------------------------------------------------------------------
# Truncated schedules
# ---------------------------------------------------------------------------


def test_tailless_curve_truncates_at_its_grid_horizon():
    curve = lr.curve_from_function(lambda t: np.exp(-0.03 * t))  # grid ends at 1000
    xs = default_long_rate_horizons()
    est = estimate_long_rate(curve_evaluator(curve), 0.0, EXP)
    assert est.status == "CONVERGED"
    assert est.value == pytest.approx(0.03, abs=1e-15)
    assert est.horizon == 1000.0 and len(est.trace) == 17
    assert est.truncated_at == xs[17]
    assert est.truncation_reason is not None
    est = estimate_long_rate(curve_evaluator(curve), 5.0, LIBOR)
    assert est.status == "DIVERGENT"
    assert est.horizon == pytest.approx(754.8942093324558, rel=1e-15)
    assert len(est.trace) == 16
    assert est.truncated_at == 5.0 + xs[16]
    with pytest.raises(DomainError, match="before two horizons"):
        estimate_long_rate(curve_evaluator(curve), 999.0, EXP)


def test_untruncated_estimate_records_no_truncation(ref1f):
    est = estimate_long_rate(bond_evaluator(ref1f, ModelState(0.0, 1.0)), 0.0, LIBOR)
    assert est.truncated_at is None and est.truncation_reason is None


def test_underflowing_bond_truncates_instead_of_raising():
    """lam = 45: a(T) = 0.5 (1 + T)^-45 underflows to 0 before T = 1e8."""
    model = lr.zoo.pareto_one_factor(45.0)
    state = ModelState(0.0, 1.0)
    with pytest.raises(DomainError, match="underflows"):
        lr.bond_log_df(model, state, 1e8)
    ld = bond_evaluator(model, state).log_df(0.0, np.array([10.0, 1e8]))
    assert math.isfinite(ld[0]) and ld[1] == -math.inf
    conv = RateConvention.tail_pareto(45.0)
    est = estimate_long_rate(bond_evaluator(model, state), 0.0, conv)
    ref = _reference_estimate(
        lambda T: lr.bond_log_df(model, state, T), 0.0, conv, default_long_rate_horizons()
    )
    _assert_equivalent(est, ref)
    assert est.status == "UNCONVERGED"
    assert est.horizon == pytest.approx(1.3335214321633e7, rel=1e-12)
    assert est.truncated_at == pytest.approx(1.7782794100389e7, rel=1e-12)
    assert "underflows" in est.truncation_reason
    assert est.value == pytest.approx(44.31217595445062, rel=1e-12)


def test_nearly_flat_curve_is_inadmissible_from_one_trace():
    """P(0, 1e8) = exp(-0.01) >= 0.9: rejected off the shared ln P trace."""
    ev = _CountingEvaluator(curve_evaluator(lr.flat_exponential_curve(1e-10)))
    with pytest.raises(InadmissibleCurveError):
        stratification_audit(ev, 0.0)
    assert ev.calls == 1


# ---------------------------------------------------------------------------
# The read path against a transcription of its checked form
# ---------------------------------------------------------------------------
#
# A read of a priced trace skips the checks the public functions make.  The
# helpers below are the read path before that change, transcribed: price and
# cut the schedule, convert with a finiteness check, read the estimate with
# the trace pairs built per read, and audit with the minimum taken over those
# pairs.  The package must match them bit for bit, -0.0 included.


def _checked_trace(bond, t, xs):
    maturities = t + xs
    ld = np.asarray(bond.log_df(t, maturities), dtype=float)
    unpriced = np.flatnonzero(~np.isfinite(ld))
    n = int(unpriced[0]) if unpriced.size else xs.size
    truncated_at = reason = None
    if n < xs.size:
        truncated_at = float(maturities[n])
        reason = (
            "discount factor underflows to 0" if ld[n] == -np.inf
            else "evaluator cannot price this maturity"
        )
    edges = [float(xs[n - 1])]
    while edges[-1] >= xs[0]:
        edges.append(edges[-1] / 10.0)
    ends = np.searchsorted(xs[:n], edges, side="right")
    empty = np.flatnonzero(ends[1:] == ends[:-1])
    count = int(empty[0]) if empty.size else len(edges) - 1
    return types.SimpleNamespace(
        t=t, offsets=tuple(xs[:n].tolist()), lengths=maturities[:n] - t, log_df=ld[:n],
        window_starts=ends[count:0:-1], truncated_at=truncated_at, truncation_reason=reason,
    )


def _checked_rates(lengths, conv, log_df):
    x = np.asarray(lengths, dtype=float)
    ld = np.asarray(log_df, dtype=float)
    if not np.all(np.isfinite(ld)):
        raise DomainError("log discount factors must be finite")
    if conv.kind == "exponential":
        return -ld / x
    lam = conv.pareto_index
    with np.errstate(over="ignore"):
        if lam is not None:
            return lam * np.expm1(-ld / lam) / x
        kappa = float(conv.index)
        return kappa * np.expm1(-ld / (kappa * x))


def _checked_read(trace, conv):
    rates = _checked_rates(trace.lengths, conv, trace.log_df)
    sups = np.maximum.reduceat(rates, trace.window_starts).tolist()
    final = sups[-1]
    prev = sups[-2] if len(sups) >= 2 else math.nan
    if math.isinf(final) or (final > 1e3 and final >= prev):
        status = "DIVERGENT"
    elif len(sups) >= 2 and abs(final - prev) < 1e-6:
        status = "CONVERGED"
    else:
        status = "UNCONVERGED"
    return rates, lr.LongRateEstimate(
        conv, final, trace.t + trace.offsets[-1], status, final, tuple(sups),
        tuple(zip(trace.offsets, rates.tolist())),
        trace.truncated_at, trace.truncation_reason,
    )


def _checked_stratification(trace, t, alphas):
    asy = lr.asymptotics
    lams = sorted({float(a) for a in alphas}, reverse=True)
    asy._check_admissible(trace)
    conventions = [EXP] + [RateConvention.tail_pareto(lam) for lam in lams]
    r_est, *lam_ests = [_checked_read(trace, conv)[1] for conv in conventions]
    l_est = dict(zip(lams, lam_ests))
    trends = {lam: asy._trend(e) for lam, e in l_est.items()}
    r_trend = asy._trend(r_est)
    checks = []
    min_r = min(rate for _, rate in r_est.trace)
    checks.append(lr.CheckResult(
        "exponential long rate nonnegative", "PASS" if min_r >= -1e-8 else "FAIL",
        f"min finite-horizon estimate {min_r:.9g}",
    ))

    def trend_name(lam):
        return f"index {lam:g} trend {trends[lam]}"

    if r_trend == "FINITE_POSITIVE":
        bad = [lam for lam in lams if trends[lam] != "DIVERGENT"]
        checks.append(lr.CheckResult(
            "positive exponential rate forces divergence at every index",
            "FAIL" if bad else "PASS",
            "; ".join(trend_name(l) for l in bad) if bad else
            f"R converges to {r_est.value:.9g}, all indices diverge",
        ))
    finite_lams = [lam for lam in lams if trends[lam] == "FINITE_POSITIVE"]
    if len(finite_lams) > 1:
        checks.append(lr.CheckResult(
            "at most one index carries a finite positive rate", "FAIL",
            f"finite at indices {finite_lams!r}",
        ))
    for lam in finite_lams:
        checks.append(lr.CheckResult(
            f"finite rate at index {lam:g} forces exponential rate to zero",
            "PASS" if r_trend == "ZERO" else "FAIL",
            f"R trend {r_trend}, value {r_est.value:.9g}",
        ))
        for other in lams:
            if other > lam:
                checks.append(lr.CheckResult(
                    f"finite rate at index {lam:g} forces index {other:g} to zero",
                    "PASS" if trends[other] == "ZERO" else "FAIL", trend_name(other),
                ))
            elif other < lam:
                checks.append(lr.CheckResult(
                    f"finite rate at index {lam:g} forces index {other:g} to diverge",
                    "PASS" if trends[other] == "DIVERGENT" else "FAIL", trend_name(other),
                ))
    if r_trend == "INCONCLUSIVE":
        checks.append(lr.CheckResult(
            "exponential trend resolved", "INCONCLUSIVE", "trend unresolved"))
    for lam in lams:
        if trends[lam] == "INCONCLUSIVE":
            checks.append(lr.CheckResult(
                f"index {lam:g} trend resolved", "INCONCLUSIVE", "trend unresolved"))
    data = {
        "t": float(t),
        "exponential": {"value": r_est.value, "status": r_est.status, "trend": r_trend},
        "indices": {
            f"{lam:g}": {
                "value": l_est[lam].value, "status": l_est[lam].status, "trend": trends[lam],
            }
            for lam in lams
        },
    }
    return lr.AuditReport("stratification audit", tuple(checks), data)


def _assert_same_bits(got, want, where):
    """Equal values of equal types, every float compared through its int64 bits."""
    assert type(got) is type(want), where
    if isinstance(want, float):
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), where
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), where
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_bits(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same_bits(got[key], want[key], f"{where}[{key!r}]")
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same_bits(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    else:
        assert got == want, where


class _FixedLogDf:
    """A foreign evaluator returning one fixed ln P per maturity, whatever t."""

    def __init__(self, log_df):
        self.ld = np.asarray(log_df, dtype=float)

    def log_df(self, t, T):
        return self.ld[: len(T)].copy()


def _signed_zero_trace(first):
    """ln P = -0.01 x, except that the first two entries are ``first`` and its negation:
    the exponential quotes there are -first / x and first / x, the trace's minimum."""
    ld = -0.01 * default_long_rate_horizons()
    ld[:2] = first, -first
    return _FixedLogDf(ld)


def _read_path_subjects():
    """label -> (evaluator factory, t, horizons or None)."""
    subjects = {}
    for name, model in sorted(lr.zoo.model_zoo().items()):
        for t in EQUIV_TIMES:
            state = ModelState(t, 1.3, 0.8 if model.factors == 2 else None)
            subjects[f"{name}-t{t:g}"] = (
                lambda m=model, s=state: bond_evaluator(m, s), t, None)
    for name, curve in sorted(lr.zoo.curve_zoo().items()):
        for t in EQUIV_TIMES:
            subjects[f"{name}-t{t:g}"] = (lambda c=curve: curve_evaluator(c), t, None)
    tailless = lr.curve_from_function(lambda t: np.exp(-0.03 * t))  # grid ends at 1000
    subjects["tailless-t0"] = (lambda: curve_evaluator(tailless), 0.0, None)
    subjects["tailless-t5"] = (lambda: curve_evaluator(tailless), 5.0, None)
    underflowing = lr.zoo.pareto_one_factor(45.0)  # P underflows before 1e8
    subjects["underflow-pareto45"] = (
        lambda: bond_evaluator(underflowing, ModelState(0.0, 1.0)), 0.0, None)
    pareto2 = lr.zoo.pareto_one_factor(2.0)
    subjects["foreign-pareto2"] = (
        lambda: _CountingEvaluator(bond_evaluator(pareto2, ModelState(10.0, 1.3))), 10.0, None)
    subjects["gamma2-short-schedule"] = (
        lambda: curve_evaluator(lr.zoo.curve_zoo()["gamma2"]), 25.0,
        default_long_rate_horizons(stop=1e6))
    subjects["signed-zero-plus-first"] = (lambda: _signed_zero_trace(-0.0), 0.0, None)
    subjects["signed-zero-minus-first"] = (lambda: _signed_zero_trace(0.0), 0.0, None)
    return subjects


READ_PATH_SUBJECTS = _read_path_subjects()
READ_PATH_CONVENTIONS = [
    EXP, LIBOR, RateConvention.tail_pareto(0.5), RateConvention.tail_pareto(1.0),
    RateConvention.tail_pareto(2.0), RateConvention.tail_pareto(3.0),
    RateConvention.zero_coupon(1.0), RateConvention.zero_coupon(12.0),
]
READ_PATH_ALPHAS = [(1.0, 2.0, 3.0), (3.0, 0.5, 2.0, 1.0, 2.0)]


@pytest.mark.parametrize("label", sorted(READ_PATH_SUBJECTS))
def test_reads_match_the_transcribed_read_path_bitwise(label):
    """Every read and audit is bitwise the checked read path's, before and after
    the trace's reads are cached, and every rates array handed out is read-only."""
    make, t, xs = READ_PATH_SUBJECTS[label]
    schedule = default_long_rate_horizons() if xs is None else xs
    ref = _checked_trace(make(), t, schedule)
    ev = make()
    for rounds in range(2):
        for alphas in READ_PATH_ALPHAS:
            _assert_same_bits(
                stratification_audit(ev, t, alphas, xs), _checked_stratification(ref, t, alphas),
                f"{label} audit {alphas} round {rounds}",
            )
        for conv in READ_PATH_CONVENTIONS:
            where = f"{label} {conv} round {rounds}"
            want_rates, want = _checked_read(ref, conv)
            _assert_same_bits(estimate_long_rate(ev, t, conv, xs), want, where)
            rates, est = lr.asymptotics._log_df_trace(ev, t, xs).read(conv)
            _assert_same_bits(est, want, where)
            _assert_same_bits(rates, want_rates, where)
            assert not rates.flags.writeable, where
    if label.startswith("signed-zero"):
        detail = stratification_audit(ev, t).checks[0].detail
        assert detail == f"min finite-horizon estimate {-ref.log_df[0] / 10.0:.9g}"
    if label.startswith(("tailless", "underflow")):
        assert ref.truncated_at is not None


def test_audit_matches_the_transcribed_read_path_on_adversarial_quotes(monkeypatch):
    """The audit's minimum against the transcription, on quotes no ln P converts
    to: nan, -inf, signed zeros and exponential quotes about -1e-8, so that both
    verdicts occur."""
    rng = np.random.default_rng(23)
    alphas = (0.5, 1.0, 2.0, 3.0)
    row_of = {EXP: 0, **{RateConvention.tail_pareto(a): 4 - k for k, a in enumerate(alphas)}}
    gamma2 = lr.zoo.curve_zoo()["gamma2"]
    ref = _checked_trace(curve_evaluator(gamma2), 0.0, default_long_rate_horizons())
    n = len(ref.offsets)
    minima = []
    for _ in range(300):
        rows = np.sort(rng.exponential(size=(5, n)) * 10.0 ** rng.uniform(-3.0, 3.0, n), axis=0)
        rows[0, rng.integers(0, n, 3)] = rng.choice([0.0, -0.0, -5e-9, -2e-8], 3)
        odd = rng.random(rows.shape) < 0.03
        rows[odd] = rng.choice([np.inf, -np.inf, np.nan], int(odd.sum()))

        def fake_rates(x, conv, ld, rows=rows):
            return rows[row_of[conv]].copy()

        monkeypatch.setattr(lr.asymptotics, "_rates", fake_rates)
        monkeypatch.setitem(globals(), "_checked_rates", fake_rates)
        got = stratification_audit(curve_evaluator(gamma2), 0.0, alphas)
        _assert_same_bits(got, _checked_stratification(ref, 0.0, alphas), "adversarial")
        minima.append(got.checks[0].status)
    assert {"PASS", "FAIL"} == set(minima)


def test_private_estimate_constructor_equals_the_public_one(pareto2, curves):
    """A read builds its estimate without the frozen dataclass's setattr per field;
    the estimate is the one ``LongRateEstimate(...)`` builds, to ==, hash and repr."""
    subjects = [
        (bond_evaluator(pareto2, ModelState(10.0, 1.3)), 10.0),
        (curve_evaluator(lr.curve_from_function(lambda t: np.exp(-0.03 * t))), 5.0),  # truncated
    ]
    for ev, t in subjects:
        for conv in READ_PATH_CONVENTIONS:
            est = estimate_long_rate(ev, t, conv)
            public = lr.LongRateEstimate(
                est.convention, est.value, est.horizon, est.status, est.tail_sup,
                est.decade_sups, est.trace, est.truncated_at, est.truncation_reason)
            assert est == public and hash(est) == hash(public) and repr(est) == repr(public)
            assert list(vars(est)) == list(vars(public))
            with pytest.raises(dataclasses.FrozenInstanceError):
                est.value = 0.0
    args = (EXP, 0.25, 1e8, "CONVERGED", (0.5, 0.25), ((10.0, 0.5), (1e8, 0.25)), 1e9, "why")
    est = lr.asymptotics._estimate(*args)
    public = lr.LongRateEstimate(*args[:4], 0.25, *args[4:])
    assert est == public and hash(est) == hash(public) and repr(est) == repr(public)


@pytest.mark.filterwarnings("error")
def test_reads_of_overflowing_quotes_warn_nothing(ref1f, curves):
    """Quotes that overflow to +inf (simple and tail-Pareto rates of exponential decay,
    a vanishing compounding frequency, a subnormal tenor length) raise no warning."""
    tiny = np.array([1e-300, 2e-300, 1e-299])  # -ln P / x overflows
    extreme = READ_PATH_CONVENTIONS + [RateConvention.tail_pareto(1e-3)]
    subjects = [
        (bond_evaluator(ref1f, ModelState(0.0, 1.0)), 0.0, None, extreme),
        (curve_evaluator(curves["flat3"]), 10.0, None,
         extreme + [RateConvention.zero_coupon(1e-300)]),
        (_FixedLogDf([-10.0, -10.0, -10.0]), 0.0, tiny, extreme),
    ]
    for ev, t, xs, conventions in subjects:
        overflowed = 0
        for conv in conventions:
            rates, est = lr.asymptotics._log_df_trace(ev, t, xs).read(conv)
            overflowed += int(np.isinf(rates).any())
            assert estimate_long_rate(ev, t, conv, xs) == est
        stratification_audit(ev, t, (0.5, 1.0, 2.0, 3.0), xs)
        assert overflowed


# ---------------------------------------------------------------------------
# The schedule memo
# ---------------------------------------------------------------------------


def test_schedule_memo_serves_alternating_schedules_bitwise(curves):
    """As a curve operation alternates two schedules, every read and audit is the
    transcribed read path's, for a package and a foreign evaluator (priced on every
    call), on a curve with a tail and on one whose trace stops at its grid horizon:
    a prefix of the schedule, with its own decade windows."""
    asy = lr.asymptotics
    schedules = (default_long_rate_horizons(), default_long_rate_horizons(stop=1e6))
    tailless = lr.curve_from_function(lambda t: np.exp(-0.03 * t))  # grid ends at 1000
    for curve in (curves["gamma2"], tailless):
        ev, foreign = curve_evaluator(curve), _CountingEvaluator(curve_evaluator(curve))
        for rounds in range(2):
            for t in (0.0, 10.0):
                for xs in schedules:
                    where = f"{curve.tail} t={t:g} n={xs.size} round {rounds}"
                    ref = _checked_trace(curve_evaluator(curve), t, xs)
                    for subject in (ev, foreign):
                        calls = foreign.calls
                        trace = asy._log_df_trace(subject, t, xs)
                        _assert_same_bits(trace.window_starts, ref.window_starts, where)
                        assert trace.offsets == ref.offsets, where
                        for conv in (EXP, LIBOR, RateConvention.tail_pareto(2.0)):
                            _assert_same_bits(estimate_long_rate(subject, t, conv, xs),
                                              _checked_read(ref, conv)[1], where)
                        _assert_same_bits(stratification_audit(subject, t, horizons=xs),
                                          _checked_stratification(ref, t, (1.0, 2.0, 3.0)), where)
                        if subject is foreign:
                            assert foreign.calls == calls + 5, where
                    if curve is tailless:
                        n = len(ref.offsets)
                        assert n < xs.size, where
                        full = asy._decade_window_starts(xs)
                        assert not np.array_equal(ref.window_starts, full), where


def test_schedule_memo_is_keyed_by_value_not_identity(pareto2):
    """A caller that changes its schedule array in place gets the changed schedule,
    checked again, while the memo keeps the copy it took."""
    asy = lr.asymptotics
    base = default_long_rate_horizons()
    xs = base.copy()
    ev = bond_evaluator(pareto2, ModelState(0.0, 1.0))
    for scale in (1.0, 2.0, 0.5, 1.0):
        xs[:] = base * scale
        ref = _checked_trace(bond_evaluator(pareto2, ModelState(0.0, 1.0)), 0.0, xs.copy())
        for subject in (ev, _CountingEvaluator(ev)):
            _assert_same_bits(estimate_long_rate(subject, 0.0, LIBOR, xs),
                              _checked_read(ref, LIBOR)[1], f"scale {scale}")
            assert asy._log_df_trace(subject, 0.0, xs).offsets == tuple(xs.tolist())
    kept = asy._schedule(xs)
    xs[1] = xs[0]  # no longer increasing
    with pytest.raises(DomainError, match="horizon offsets must be"):
        estimate_long_rate(ev, 0.0, LIBOR, xs)
    assert kept.offsets == tuple(base.tolist()) and not kept.xs.flags.writeable
    xs[:] = base
    assert asy._schedule(xs) is kept


def test_schedule_memo_stays_at_its_bound():
    """Pricing 10^4 distinct schedules keeps the memo at its bound: the newest
    schedule stays kept and the oldest is dropped."""
    asy = lr.asymptotics
    memo = asy._checked_schedule
    base = default_long_rate_horizons(stop=1e3)
    ev = _FixedLogDf(-0.03 * base)
    oldest = asy._schedule(base)
    for i in range(1, 10_001):
        xs = base * (1.0 + i * 1e-6)
        estimate_long_rate(ev, 0.0, EXP, xs)
        assert memo.cache_info().currsize <= asy._SCHEDULE_MEMO_SIZE
    assert memo.cache_info().currsize == asy._SCHEDULE_MEMO_SIZE
    hits = memo.cache_info().hits
    newest = asy._schedule(xs)
    assert memo.cache_info().hits == hits + 1 and asy._schedule(xs) is newest
    misses = memo.cache_info().misses
    assert asy._schedule(base) is not oldest and memo.cache_info().misses == misses + 1


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_flat_exponential(curves):
    out = classify_curve(curves["flat3"])
    assert out.kind == "exponential"
    assert out.rate == pytest.approx(0.03, rel=1e-2)
    assert not out.diagnostics.ambiguous


def test_classify_gamma_two(curves):
    out = classify_curve(curves["gamma2"])
    assert out.kind == "tail_pareto"
    assert out.lam == pytest.approx(2.0, rel=1e-2)
    assert out.level == pytest.approx(0.04, rel=1e-2)


def test_classify_hyperbolic(curves):
    out = classify_curve(curves["hyperbolic2"])
    assert out.kind == "tail_pareto"
    assert out.lam == pytest.approx(1.0, rel=1e-2)
    assert out.level == pytest.approx(0.02, rel=1e-2)


def test_classify_short_grid_is_undetermined():
    grid = np.linspace(0.0, 30.0, 31)
    curve = lr.DiscountCurve(grid, np.exp(-0.03 * grid))
    out = classify_curve(curve)
    assert out.kind == "undetermined"
    assert "tail data" in out.diagnostics.note


def test_classify_as_dict_round_trips(curves):
    doc = classify_curve(curves["gamma3"]).as_dict()
    assert doc["kind"] == "tail_pareto"
    assert set(doc) >= {"kind", "rate", "lambda", "level", "diagnostics"}


# ---------------------------------------------------------------------------
# Deterministic propagation
# ---------------------------------------------------------------------------


def test_propagation_hyperbolic_pinned(curves):
    hyp = curves["hyperbolic2"]
    assert deterministic_long_rate(hyp, 0.0, LIBOR) == pytest.approx(0.02, rel=1e-9)
    assert deterministic_long_rate(hyp, 50.0, LIBOR) == pytest.approx(0.01, rel=1e-9)


def test_propagation_gamma3_pinned(curves):
    g3 = curves["gamma3"]
    conv = RateConvention.tail_pareto(3.0)
    # t with P = 0.729 = 0.9^3: 1 + 0.02 t / 3 = 1/0.9; the only error is
    # grid interpolation of P(0, t)
    t = 3.0 * (1.0 / 0.9 - 1.0) / 0.02
    assert deterministic_long_rate(g3, t, conv) == pytest.approx(0.018, rel=1e-5)


def test_propagation_degenerate_limits(curves):
    hyp = curves["hyperbolic2"]
    assert deterministic_long_rate(hyp, 0.0, EXP) == 0.0
    assert deterministic_long_rate(hyp, 0.0, RateConvention.tail_pareto(2.0)) == 0.0
    assert deterministic_long_rate(hyp, 0.0, RateConvention.tail_pareto(0.5)) == math.inf
    flat = curves["flat3"]
    assert deterministic_long_rate(flat, 0.0, EXP) == pytest.approx(0.03)
    assert deterministic_long_rate(flat, 0.0, LIBOR) == math.inf
    z = deterministic_long_rate(flat, 0.0, RateConvention.zero_coupon(1.0))
    assert z == pytest.approx(math.expm1(0.03), rel=1e-9)


def test_propagation_agrees_with_estimator(curves):
    """Closed-form propagation vs direct estimation at horizon 1e6."""
    horizons = default_long_rate_horizons(stop=1e6)
    hyp = curves["hyperbolic2"]
    for t in (0.0, 10.0, 50.0):
        est = estimate_long_rate(curve_evaluator(hyp), t, LIBOR, horizons=horizons)
        assert abs(est.value - deterministic_long_rate(hyp, t, LIBOR)) <= 1e-4
    g2 = curves["gamma2"]
    conv = RateConvention.tail_pareto(2.0)
    for t in (0.0, 25.0):
        est = estimate_long_rate(curve_evaluator(g2), t, conv, horizons=horizons)
        assert abs(est.value - deterministic_long_rate(g2, t, conv)) <= 1e-4


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


def test_stratification_pareto2_pattern(pareto2):
    rep = stratification_audit(bond_evaluator(pareto2, ModelState(0.0, 1.0)), 0.0)
    assert rep.verdict == "PASS", "\n".join(rep.lines())
    assert rep.data["exponential"]["trend"] == "ZERO"
    assert rep.data["indices"]["2"]["trend"] == "FINITE_POSITIVE"
    assert rep.data["indices"]["1"]["trend"] == "DIVERGENT"
    assert rep.data["indices"]["3"]["trend"] == "ZERO"
    assert rep.data["indices"]["2"]["value"] == pytest.approx(1.5811388300841898, abs=1e-6)


def test_stratification_flat_curve_pattern(curves):
    rep = stratification_audit(curve_evaluator(curves["flat3"]), 0.0)
    assert rep.verdict == "PASS", "\n".join(rep.lines())
    assert rep.data["exponential"]["trend"] == "FINITE_POSITIVE"
    for key in ("1", "2", "3"):
        assert rep.data["indices"][key]["trend"] == "DIVERGENT"


def test_trend_reads_a_converged_estimate_near_zero_as_zero(curves):
    """hyperbolic2 at index 3, probed to 1e12, converges to 3.1e-8: within 1e-6 of zero."""
    est = estimate_long_rate(curve_evaluator(curves["hyperbolic2"]), 0.0,
                             RateConvention.tail_pareto(3.0), default_long_rate_horizons(stop=1e12))
    assert est.status == "CONVERGED" and 0.0 < est.value <= 1e-6
    assert lr.asymptotics._trend(est) == "ZERO"


def test_stratification_across_zoo():
    """No false verdicts on any bundled model."""
    for name, model in lr.zoo.model_zoo().items():
        lam = model.a.lam
        state = ModelState(0.0, 1.0, 1.0 if name in ("ref2f", "ref2fx") else None)
        alphas = sorted({0.5, 1.0, 2.0, 3.0} | {lam})
        rep = stratification_audit(bond_evaluator(model, state), 0.0, alphas=alphas)
        assert rep.verdict == "PASS", f"{name}:\n" + "\n".join(rep.lines())
        assert rep.data["exponential"]["trend"] == "ZERO", name
        for alpha in alphas:
            trend = rep.data["indices"][f"{alpha:g}"]["trend"]
            if alpha == lam:
                assert trend == "FINITE_POSITIVE", (name, alpha)
            elif alpha < lam:
                assert trend == "DIVERGENT", (name, alpha)
            else:
                assert trend == "ZERO", (name, alpha)


# ---------------------------------------------------------------------------
# Monotonicity audit
# ---------------------------------------------------------------------------


def test_dir_audit_flat_curve(curves):
    rep = dir_monotonicity_audit(curves["flat3"], [0.0, 1.0, 5.0, 25.0])
    assert rep.verdict == "PASS", "\n".join(rep.lines())
    ests = rep.data["values"]
    assert max(ests) - min(ests) <= 1e-9


def _greenbook_curve():
    with resources.as_file(
        resources.files("longrate").joinpath("data", "greenbook_example.json")
    ) as fp:
        return lr.STPRSchedule.load(fp).curve()


def test_dir_audit_curve_fails_where_the_long_rate_falls():
    """Probed to x = 100 only, the declining bands read as a falling long rate."""
    rep = dir_monotonicity_audit(_greenbook_curve(), [0.0, 50.0, 100.0, 200.0],
                                 horizons=np.geomspace(10.0, 100.0, 9))
    assert [c.status for c in rep.checks] == ["FAIL", "FAIL"]
    assert rep.data["values"][0] == pytest.approx(0.035)
    assert rep.data["values"][-1] == pytest.approx(0.015)


def test_dir_audit_curve_gives_the_zero_coupon_check_the_verdict_on_the_rate():
    """R falls by 2.4e-7 in all, within tolerance.  z = kappa*expm1(R/kappa) is strictly
    increasing in R, so z takes R's PASS, though its own values fall by 5e-3."""
    rep = dir_monotonicity_audit(_greenbook_curve(), [0.0, 50.0, 100.0, 200.0], kappa=0.001)
    assert [c.status for c in rep.checks] == ["PASS", "PASS"]
    values, z_values = rep.data["values"], rep.data["zero_coupon_values"]
    assert 0.0 < values[0] - values[-1] < 1e-6
    assert z_values[0] - z_values[-1] > 1e-3


@pytest.mark.parametrize("use_model", [False, True])
def test_dir_audit_overflowing_zero_coupon_translation(curves, ref1f, use_model):
    if use_model:
        ens = lr.ensemble_for_model(ref1f, np.array([0.0, 1.0, 2.0]), 5, seed=1)
        args = (ref1f, [0.0, 1.0, 2.0], ens)
    else:
        args = (curves["flat3"], [0.0, 1.0])
    with pytest.raises(DomainError, match="overflows at kappa=1e-300"):
        dir_monotonicity_audit(*args, kappa=1e-300)


def test_dir_audit_model_degenerate_case(ref1f):
    grid = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    ens = lr.ensemble_for_model(ref1f, grid, 2000, seed=7)
    rep = dir_monotonicity_audit(ref1f, [0.0, 1.0, 5.0], ensemble=ens)
    assert rep.verdict == "PASS", "\n".join(rep.lines())
    assert rep.data["max_rate"] <= 1e-6


def _serial_rate_extremes(model, ens, times, x):
    """The model audit's largest fall and largest estimate, over all paths at once."""
    ests = []
    for t in times:
        j = ens.time_index(t)
        t = float(ens.grid[j])
        factors = [f[:, j] for f in ens.factor_values]
        pi = lr.kernel_models._combine(lr.kernel_models._values_at(model.coefficients, t), factors)
        num = lr.kernel_models._combine(
            lr.kernel_models._values_at(model.coefficients, t + x), factors
        )
        ests.append(-(np.log(num) - np.log(pi)) / x)
    ests = np.stack(ests)
    return float(np.max(ests[:-1] - ests[1:], initial=-np.inf)), float(np.max(ests))


DIR_GRID = np.linspace(0.0, 10.0, 21)
DIR_TIMES = [0.0, 1.0, 2.0, 5.0, 10.0]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("name, n_paths", [("ref1f", 4097), ("ref2f", 4095), ("ref2f", 8193)])
def test_dir_audit_model_matches_serial_estimates(request, name, n_paths, threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    model = request.getfixturevalue(name)
    ens = lr.ensemble_for_model(model, DIR_GRID, n_paths, seed=7, rho=0.5)
    rep = dir_monotonicity_audit(model, DIR_TIMES, ensemble=ens)
    x = float(default_long_rate_horizons()[-1])
    worst_drop, max_rate = _serial_rate_extremes(model, ens, DIR_TIMES, x)
    assert np.float64(rep.data["worst_drop"]).tobytes() == np.float64(worst_drop).tobytes()
    assert np.float64(rep.data["max_rate"]).tobytes() == np.float64(max_rate).tobytes()


# The nan sits in the middle one of three path blocks; pi is nan there, and
# the block that forms it raises on every worker count.
@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_dir_audit_nan_in_one_path_block_fails(ref1f, threads, monkeypatch):
    monkeypatch.setenv("LONGRATE_THREADS", threads)
    ens = lr.ensemble_for_model(ref1f, DIR_GRID, 8193, seed=7)
    factors = ens.factors.copy()
    factors[0, 5000, 4] = np.nan  # M at t = 2
    object.__setattr__(ens, "factors", factors)
    with pytest.raises(LongrateError, match="kernel positivity violated"):
        dir_monotonicity_audit(ref1f, DIR_TIMES, ensemble=ens)


# a(t) < 0 within 0.25 of the dip, which misses the validation probes: pi < 0
# on every path at audit time 3, or at the maturity 3 + x it prices.
@pytest.mark.parametrize("dip", [3.0, 3.0 + default_long_rate_horizons()[-1]],
                         ids=["at_t", "at_t_plus_x"])
def test_dir_audit_raises_where_a_coefficient_makes_pi_negative(ref1f, dip):
    a, b = ref1f.coefficients

    def dipped(t, base=a.fn):
        t = np.asarray(t, dtype=float)
        return base(t) - np.where(np.abs(t - dip) < 0.25, 1.0, 0.0)

    model = dataclasses.replace(ref1f, coefficients=(dataclasses.replace(a, fn=dipped), b))
    times = [0.0, 1.0, 3.0, 5.0]
    ens = lr.ensemble_for_model(model, np.array(times), 2000, seed=7)
    with pytest.raises(LongrateError, match="kernel positivity violated"):
        dir_monotonicity_audit(model, times, ensemble=ens)


def test_dir_audit_model_needs_ensemble(ref1f):
    with pytest.raises(DomainError):
        dir_monotonicity_audit(ref1f, [0.0, 1.0])


@pytest.mark.parametrize("horizons", [[], [np.nan], [-5.0], [1e8, 10.0]],
                         ids=["empty", "nan", "negative", "decreasing"])
def test_dir_audit_model_checks_the_horizons_as_the_estimators_do(ref1f, horizons):
    """The model branch prices t + x only at offsets the estimators would price."""
    ens = lr.ensemble_for_model(ref1f, np.array([0.0, 1.0, 2.0]), 5, seed=1)
    with pytest.raises(DomainError, match="horizon offsets must be finite, positive and increasing"):
        dir_monotonicity_audit(ref1f, [0.0, 1.0, 2.0], ensemble=ens, horizons=horizons)


# ---------------------------------------------------------------------------
# Tail-Pareto certificate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cert_ensemble(pareto2):
    grid = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 29)])
    return lr.ensemble_for_model(pareto2, grid, 8000, seed=5)


def test_certificate_passes_at_declared_index(pareto2, cert_ensemble):
    rep = pareto_kernel_certificate(pareto2, cert_ensemble)
    assert rep.verdict == "PASS", "\n".join(rep.lines())


def test_certificate_fails_at_wrong_index(pareto2, cert_ensemble):
    low = pareto_kernel_certificate(pareto2, cert_ensemble, lam=1.0)
    assert low.verdict == "FAIL"
    high = pareto_kernel_certificate(pareto2, cert_ensemble, lam=3.0)
    assert high.verdict == "FAIL"


def test_certificate_rejects_bad_index(pareto2, cert_ensemble):
    with pytest.raises(DomainError):
        pareto_kernel_certificate(pareto2, cert_ensemble, lam=-2.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_certificate_rejects_non_finite_index(pareto2, cert_ensemble, lam):
    with pytest.raises(DomainError, match="finite"):
        pareto_kernel_certificate(pareto2, cert_ensemble, lam=lam)


# Seeds whose ensembles put the removed benchmark-theta checks above 4 SE
# (4.2, 4.61 and 4.02) and failed a correct model at its declared index.
@pytest.mark.parametrize("name, seed", [("ref1f", 803011), ("pareto3", 1501013),
                                        ("pareto3", 3043013)])
def test_certificate_passes_declared_index_at_former_chance_fails(name, seed):
    model = lr.zoo.zoo_model(name)
    grid = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 29)])
    ens = lr.ensemble_for_model(model, grid, 100_000, seed=seed)
    rep = pareto_kernel_certificate(model, ens)
    assert rep.verdict == "PASS", "\n".join(rep.lines())


@pytest.mark.parametrize("name", sorted(lr.zoo.model_zoo()))
def test_certificate_verdict_table(name):
    """Which of (a) tail positivity, (b) tail boundedness and (c) bond scale fail.

    None at lam; (b) and (c) at lam + 1; (a) and (c) at lam / 2, where
    pareto05's bond scale at index 0.25 still passes.
    """
    _assert_verdict_table(name, np.geomspace(1.0, 1e4, 29), 4097)


@pytest.mark.parametrize("name", sorted(lr.zoo.model_zoo()))
def test_certificate_verdict_table_to_1e8(name):
    """The same table out to the paper's horizons; every M is 0 there from about 5e4 on."""
    _assert_verdict_table(name, np.geomspace(1.0, 1e8, 57), 2000)


def _assert_verdict_table(name, times, n_paths):
    model = lr.zoo.zoo_model(name)
    ens = lr.ensemble_for_model(model, np.concatenate([[0.0], times]), n_paths, seed=7, rho=0.5)
    expected = [(model.lam, ""), (model.lam + 1.0, "bc"),
                (model.lam / 2.0, "a" if name == "pareto05" else "ac")]
    for lam, fails in expected:
        rep = pareto_kernel_certificate(model, ens, lam)
        failed = "".join("abc"[i] for i, c in enumerate(rep.checks) if c.status != "PASS")
        assert len(rep.checks) == 3 and failed == fails, (lam, rep.lines())
