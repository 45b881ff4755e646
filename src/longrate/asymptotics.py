"""Long-rate estimation, tail classification, and structural audits.

The long rate under a convention is the lim sup of finite-horizon quotes
as maturity grows.  Numerically we probe a geometric horizon schedule,
take the supremum over the final decade, and compare it with the
supremum over the decade before:

* CONVERGED   : the two window suprema agree within 1e-6 (absolute);
* DIVERGENT   : the window suprema grow monotonically beyond 1e3;
* UNCONVERGED : anything else (the decade trail still distinguishes
                estimates sliding to zero from genuinely stuck ones).

The structural audits check the facts the theory forces: the long
exponential rate is nonnegative and can never fall; a finite positive
long rate of tail index lam forces every lower index to diverge and
every higher index (and the exponential rate) to zero; deterministic
curves propagate their long rates by discounting the time-0 value.

The probe schedule comes from ``termstructure``.  The audits that read
simulated paths (DIR's model branch and the certificate) take their
path statistics from ``montecarlo``, which executes only when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from . import montecarlo
from .errors import DomainError, InadmissibleCurveError, LongrateError
from .kernel_models import BondEvaluator, Model, ModelState, bond_log_df
from .reporting import INCONCLUSIVE, AuditReport, CheckResult, _judged
from .termstructure import (
    _CONVERGENCE_TOL,
    DiscountCurve,
    ExponentialTail,
    ParetoTail,
    RateConvention,
    _rates,
    default_long_rate_horizons,
)

__all__ = [
    "LongRateEstimate",
    "estimate_long_rate",
    "default_long_rate_horizons",
    "save_trace_csv",
    "CurveForwardEvaluator",
    "curve_evaluator",
    "FitDiagnostics",
    "AsymptoticClass",
    "classify_curve",
    "stratification_audit",
    "dir_monotonicity_audit",
    "deterministic_long_rate",
    "pareto_kernel_certificate",
]

CONVERGED = "CONVERGED"
UNCONVERGED = "UNCONVERGED"
DIVERGENT = "DIVERGENT"

_DIVERGENCE_CAP = 1e3
_FIT_POINTS = 33
_FIT_RESIDUAL_TOL = 1e-3
_ZERO_TOL = 1e-6
# A decade-over-decade shrink factor below this reads as "sliding to zero".
_SHRINK_RATIO = 0.9
_BOND_HORIZONS = (1e6, 1e7, 1e8)  # where the certificate reads T^lam P(0, T)


@dataclass(frozen=True)
class CurveForwardEvaluator:
    """Forward bond prices implied by a time-0 curve: P(t,T) = P(0,T)/P(0,t).

    Like ``BondEvaluator``, it carries the estimators' cache of the last
    ln P trace priced from it, matched by the value of (t, horizons) and
    left out of ==, hash and repr.
    """

    curve: DiscountCurve
    _trace: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def log_df(self, t: float, T) -> np.ndarray:
        """ln P(t, T) over an array of maturities.

        A curve without an asymptotic tail cannot price maturities beyond
        its grid; those entries are NaN.
        """
        T = np.asarray(T, dtype=float)
        curve = self.curve
        priced = T <= curve.horizon if curve.tail is None else np.full(T.shape, True)
        ld = np.full(T.shape, np.nan)
        ld[priced] = curve.log_df(T[priced]) - curve.log_df(t)
        return ld


def curve_evaluator(curve: DiscountCurve) -> CurveForwardEvaluator:
    return CurveForwardEvaluator(curve)


# Evaluators whose ln P is a pure function of (t, T): the trace cache is
# sound for these alone, so foreign ones are priced on every call.
_CACHING_EVALUATORS = (BondEvaluator, CurveForwardEvaluator)


class _OnAccess:
    """A dataclass field that may be given a function of no arguments, called
    on each access: ==, hash and repr then see the value it returns."""

    def __set_name__(self, owner, name):
        self._slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self._slot)  # the field has no default
        value = obj.__dict__[self._slot]
        return value() if callable(value) else value

    def __set__(self, obj, value):
        obj.__dict__[self._slot] = value


def _trace_pairs(offsets: tuple[float, ...], rates: np.ndarray) -> tuple[tuple[float, float], ...]:
    return tuple(zip(offsets, rates.tolist()))


@dataclass(frozen=True)
class LongRateEstimate:
    """Finite-horizon estimate of a long rate.

    ``value`` equals ``tail_sup``, the supremum over the final probed
    decade.  ``decade_sups`` lists the window suprema in increasing
    horizon order (diagnostic trail for trend reading); ``trace`` holds
    the raw (offset, rate) pairs, which a read builds on each access.
    When the evaluator cannot price the whole schedule, ``truncated_at``
    is the first maturity it could not price and ``truncation_reason``
    says why; both are None otherwise.
    """

    convention: RateConvention
    value: float
    horizon: float
    status: str
    tail_sup: float
    decade_sups: tuple[float, ...]
    trace: tuple[tuple[float, float], ...] = _OnAccess()
    truncated_at: float | None = None
    truncation_reason: str | None = None


@dataclass(frozen=True)
class _LogDfTrace:
    """ln P(t, t + x) over the priced prefix of a horizon schedule.

    Reads check nothing, on what ``_price_trace`` guarantees: ``log_df``
    is finite, every array is read-only, and ``offsets`` is built once
    and shared by every read's trace pairs.
    """

    t: float
    offsets: tuple[float, ...]  # offsets x
    lengths: np.ndarray  # tenor lengths (t + x) - t
    log_df: np.ndarray
    window_starts: np.ndarray  # first index of each decade window, increasing
    truncated_at: float | None
    truncation_reason: str | None
    _reads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def read(self, convention: RateConvention) -> tuple[np.ndarray, LongRateEstimate]:
        """One convention's read-only rates and its estimate, read from the decade
        suprema; later reads of an equal convention (with an index of the same
        type) return the same two objects."""
        key = (convention, type(convention.index))
        hit = self._reads.get(key)
        if hit is not None:
            return hit
        rates = _rates(self.lengths, convention, self.log_df)
        rates.setflags(write=False)
        sups = np.maximum.reduceat(rates, self.window_starts).tolist()
        final = sups[-1]
        prev = sups[-2] if len(sups) >= 2 else math.nan
        if math.isinf(final) or (final > _DIVERGENCE_CAP and final >= prev):
            status = DIVERGENT
        elif len(sups) >= 2 and abs(final - prev) < _CONVERGENCE_TOL:
            status = CONVERGED
        else:
            status = UNCONVERGED
        hit = self._reads[key] = (rates, LongRateEstimate(
            convention, final, self.t + self.offsets[-1], status, final, tuple(sups),
            partial(_trace_pairs, self.offsets, rates), self.truncated_at, self.truncation_reason,
        ))
        return hit


def _decade_window_starts(xs: np.ndarray) -> np.ndarray:
    """Where the decade windows (hi/10, hi] start, counting hi down from xs[-1].

    Counting stops below xs[0] or at the first empty window; the windows
    are adjacent and the last one ends at xs[-1].
    """
    edges, lo = [float(xs[-1])], float(xs[0])
    while edges[-1] >= lo:
        edges.append(edges[-1] / 10.0)
    ends = np.searchsorted(xs, edges, side="right")  # entries <= each edge
    empty = np.flatnonzero(ends[1:] == ends[:-1])
    count = int(empty[0]) if empty.size else len(edges) - 1
    return ends[count:0:-1]


def _log_df_trace(bond, t: float, horizons: np.ndarray | None) -> _LogDfTrace:
    """ln P(t, t + x) over the schedule, cut at the first unpriced horizon.

    The package's own evaluators price a (t, schedule) once and keep the
    trace, which is looked up before ``_check_tenors``: only a checked
    (t, schedule) is ever kept.  Any other evaluator is called every time.
    """
    xs = default_long_rate_horizons() if horizons is None else np.asarray(horizons, float)
    t = float(t)
    caching = isinstance(bond, _CACHING_EVALUATORS)
    if caching:
        key = (xs.shape, np.float64(t).tobytes() + xs.tobytes())
        cached = bond._trace
        if cached is not None and cached[0] == key:
            return cached[1]
    _check_tenors(t, xs)
    trace = _price_trace(bond, t, xs.copy())  # a schedule the caller cannot change
    if caching:
        object.__setattr__(bond, "_trace", (key, trace))
    return trace


def _check_tenors(t: float, xs: np.ndarray) -> None:
    """The one rule for pricing P(t, t + x): two or more offsets x, finite, positive and
    increasing; t finite and nonnegative; and no tenor (t + x) - t that rounds to 0."""
    if not (xs.ndim == 1 and xs.size >= 2 and np.isfinite(xs).all()
            and xs[0] > 0 and (xs[1:] > xs[:-1]).all()):
        raise DomainError("horizon offsets must be finite, positive and increasing")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"anchor time must be finite and nonnegative, got {t!r}")
    if not (t + xs[0]) - t > 0.0:
        raise DomainError(f"horizon {float(xs[0])!r} vanishes against anchor time {t!r}")


def _price_trace(bond, t: float, xs: np.ndarray) -> _LogDfTrace:
    """One evaluator call over the schedule; the trace's arrays are read-only.

    A ``LongrateError`` from the evaluator leaves no horizon priced; a
    non-finite ln P entry (how evaluators mark a maturity they cannot
    price) cuts the schedule there.
    """
    maturities = t + xs
    too_short = "bond evaluator failed before two horizons were probed"
    try:
        ld = np.asarray(bond.log_df(t, maturities), dtype=float)
    except LongrateError as exc:
        raise DomainError(too_short) from exc
    unpriced = np.flatnonzero(~np.isfinite(ld))
    n = int(unpriced[0]) if unpriced.size else xs.size
    if n < 2:
        raise DomainError(too_short)
    truncated_at = reason = None
    if n < xs.size:
        truncated_at = float(maturities[n])
        reason = (
            "discount factor underflows to 0" if ld[n] == -np.inf
            else "evaluator cannot price this maturity"
        )
    xs, lengths = xs[:n], maturities[:n] - t
    trace = _LogDfTrace(
        t, tuple(xs.tolist()), lengths, ld[:n], _decade_window_starts(xs), truncated_at, reason
    )
    for arr in (trace.lengths, trace.log_df, trace.window_starts):
        arr.setflags(write=False)
    return trace


def estimate_long_rate(
    bond,
    t: float,
    convention: RateConvention,
    horizons: np.ndarray | None = None,
) -> LongRateEstimate:
    """Estimate the long rate at time t from a bond evaluator.

    ``bond`` implements ``log_df(t, T)``, returning ln P(t, T) over an
    array of maturities T (logs stay accurate at extreme horizons, where
    the factor itself can underflow); the whole schedule is priced in one
    call.  The schedule is truncated at the first horizon the evaluator
    cannot price (a non-finite entry); rates that overflow the quote
    (e.g. the simple rate of an exponentially decaying curve) become +inf
    and count as divergence evidence.
    """
    return _log_df_trace(bond, t, horizons).read(convention)[1]


def save_trace_csv(estimate: LongRateEstimate, t: float, path) -> None:
    """Write the finite-horizon trace of an estimate made at anchor time ``t``
    as ``horizon,rate``, each horizon the maturity t + x that was priced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("horizon,rate\n")
        for x, rate in estimate.trace:
            fh.write(f"{t + x:.9g},{rate:.9g}\n")


# Trend labels used by the stratification logic.
_FINITE = "FINITE_POSITIVE"
_ZERO = "ZERO"
_DIV = "DIVERGENT"
_UNDECIDED = "INCONCLUSIVE"


def _trend(est: LongRateEstimate) -> str:
    """Read the limiting behaviour off an estimate and its decade trail."""
    if est.status == DIVERGENT:
        return _DIV
    if est.status == CONVERGED:
        if abs(est.value) <= _ZERO_TOL:
            return _ZERO
        return _FINITE if est.value > 0.0 else _UNDECIDED
    sups = est.decade_sups
    if len(sups) >= 3 and all(s > 0.0 for s in sups):
        declining = all(b < a for a, b in zip(sups, sups[1:]))
        if declining and sups[-1] <= _SHRINK_RATIO * sups[-3]:
            return _ZERO
    return _UNDECIDED


def _check_admissible(trace: _LogDfTrace) -> None:
    """Reject discount data that never decays (no admissible kernel behind it)."""
    df_end = math.exp(float(trace.log_df[-1]))
    if df_end >= 0.9:
        raise InadmissibleCurveError(
            f"discount factor is still {df_end:.6g} at horizon {trace.offsets[-1]:g}; "
            "the data admit no pricing kernel with vanishing expectation"
        )


def stratification_audit(
    bond,
    t: float,
    alphas: Sequence[float] = (1.0, 2.0, 3.0),
    horizons: np.ndarray | None = None,
) -> AuditReport:
    """Cross-convention consistency audit of the long-rate estimates.

    Estimates the long exponential rate and the long tail-Pareto rate at
    each index in ``alphas``, reads each estimate's limiting trend, and
    checks the joint pattern the theory forces:

    * the exponential long rate is nonnegative;
    * a positive exponential long rate makes every tail-Pareto rate
      diverge;
    * at most one index can carry a finite positive rate;
    * a finite positive rate at index lam forces the exponential rate to
      zero, higher indices to zero, and lower indices to diverge.

    Each unresolved trend, the exponential one first and then the indices
    in decreasing order, adds an INCONCLUSIVE check.  The finite-horizon
    quotes of one trace are ordered downward in the index by construction
    (with y = -ln P, lam * expm1(y / lam) / x falls towards y / x as lam
    grows), which the property test of ``termstructure._rates`` checks; the
    audit does not.
    """
    lams = sorted({float(a) for a in alphas}, reverse=True)
    if not lams or lams[-1] <= 0.0:
        raise DomainError("indices must be positive")
    trace = _log_df_trace(bond, t, horizons)
    _check_admissible(trace)
    r_rates, r_est = trace.read(RateConvention.exponential())
    l_est = {lam: trace.read(RateConvention.tail_pareto(lam))[1] for lam in lams}
    trends = {lam: _trend(e) for lam, e in l_est.items()}
    r_trend = _trend(r_est)

    checks: list[CheckResult] = []

    def check(name, ok, detail):
        checks.append(_judged(name, ok, detail))

    def trend_name(lam):
        return f"index {lam:g} trend {trends[lam]}"

    min_r = min(r_rates.tolist())
    check("exponential long rate nonnegative", min_r >= -1e-8,
          f"min finite-horizon estimate {min_r:.9g}")
    if r_trend == _FINITE:
        bad = [lam for lam in lams if trends[lam] != _DIV]
        check("positive exponential rate forces divergence at every index", not bad,
              "; ".join(map(trend_name, bad)) if bad else
              f"R converges to {r_est.value:.9g}, all indices diverge")
    finite_lams = [lam for lam in lams if trends[lam] == _FINITE]
    if len(finite_lams) > 1:
        check("at most one index carries a finite positive rate", False,
              f"finite at indices {finite_lams!r}")
    for lam in finite_lams:
        check(f"finite rate at index {lam:g} forces exponential rate to zero", r_trend == _ZERO,
              f"R trend {r_trend}, value {r_est.value:.9g}")
        for other in lams:
            if other != lam:
                forced, to = (_ZERO, "to zero") if other > lam else (_DIV, "to diverge")
                check(f"finite rate at index {lam:g} forces index {other:g} {to}",
                      trends[other] == forced, trend_name(other))
    named = [("exponential", r_trend)] + [(f"index {lam:g}", trends[lam]) for lam in lams]
    checks += [
        CheckResult(f"{name} trend resolved", INCONCLUSIVE, "trend unresolved")
        for name, trend in named if trend == _UNDECIDED
    ]
    data = {
        "t": float(t),
        "exponential": {"value": r_est.value, "status": r_est.status, "trend": r_trend},
        "indices": {
            f"{lam:g}": {"value": est.value, "status": est.status, "trend": trends[lam]}
            for lam, est in l_est.items()
        },
    }
    return AuditReport("stratification audit", tuple(checks), data)


# ---------------------------------------------------------------------------
# Monotonicity of the long exponential rate
# ---------------------------------------------------------------------------


def _zero_coupon_quote(rate: float, kappa: float) -> float:
    """kappa * (exp(rate / kappa) - 1), the zero-coupon translation of a rate."""
    try:
        return kappa * math.expm1(rate / kappa)
    except OverflowError:
        raise DomainError(
            f"zero-coupon translation overflows at kappa={kappa:g} for rate {rate:.9g}"
        ) from None


def _dir_audit_inputs(
    times: Sequence[float], horizons: np.ndarray | None, kappa: float
) -> tuple[list[float], np.ndarray]:
    """DIR's audit times and horizon offsets, after its checks of kappa, of the
    times, and of ``_check_tenors`` at every time."""
    RateConvention.zero_coupon(kappa)  # kappa must be finite and positive
    ts = [float(x) for x in times]
    if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("need at least two strictly increasing audit times")
    xs = default_long_rate_horizons() if horizons is None else np.asarray(horizons, float)
    for t in ts:
        _check_tenors(t, xs)
    return ts, xs


def dir_monotonicity_audit(
    subject,
    times: Sequence[float],
    ensemble: montecarlo.PathEnsemble | None = None,
    horizons: np.ndarray | None = None,
    kappa: float = 1.0,
) -> AuditReport:
    """Check that the long exponential rate never falls through time.

    For a deterministic curve the audit estimates the rate at each time
    from forward prices and checks it is nondecreasing (for flat
    exponential curves it is constant).  For a kernel model it evaluates
    the estimate along every simulated path at the last horizon offset (a
    LongrateError where a pi value it forms is not > 0); power-law models
    are the degenerate case whose long exponential rate vanishes, so
    estimates must also sit below the estimation tolerance.

    Both subjects state each rule once.  Every audit time must pass the
    estimators' rule for pricing P(t, t + x) over ``horizons``, before any
    curve or path is read.  The rate falls where it drops by more than the
    convergence tolerance (1e-6, absolute).  The zero-coupon translation
    z = kappa*(exp(R/kappa) - 1) is strictly increasing in R, so its check
    takes the verdict on R.
    """
    ts, xs = _dir_audit_inputs(times, horizons, kappa)
    data: dict = {"times": ts, "kappa": kappa}
    if isinstance(subject, DiscountCurve):
        ev = curve_evaluator(subject)
        values = [estimate_long_rate(ev, t, RateConvention.exponential(), xs).value for t in ts]
        z_values = [_zero_coupon_quote(v, kappa) for v in values]
        never_falls = not any(b < a - _CONVERGENCE_TOL for a, b in zip(values, values[1:]))
        checks = [_judged("long exponential rate nondecreasing", never_falls,
                          f"estimates {['%.9g' % v for v in values]}")]
        z_detail = f"estimates {['%.9g' % v for v in z_values]}"
        data.update({"values": values, "zero_coupon_values": z_values,
                     "spread": max(values) - min(values)})
    else:
        if ensemble is None:
            raise DomainError("model audits need a simulated ensemble")
        idx = [ensemble.time_index(t) for t in ts]
        worst_drop, max_rate = montecarlo._model_rate_extremes(
            subject, ensemble, idx, float(xs[-1]))
        never_falls = worst_drop <= _CONVERGENCE_TOL
        z_worst = (_zero_coupon_quote(worst_drop, kappa) if math.isfinite(worst_drop)
                   else worst_drop)
        checks = [
            _judged("long exponential rate nondecreasing along every path", never_falls,
                    f"worst decrease {worst_drop:.3g} against tolerance {_CONVERGENCE_TOL:g}"),
            _judged("power-law kernel long exponential rate vanishes",
                    max_rate <= _CONVERGENCE_TOL,
                    f"max estimate {max_rate:.3g} over {ensemble.n_paths} paths x {len(ts)} times"),
        ]
        z_detail = f"monotone in the exponential rate; worst decrease {z_worst:.3g}"
        data.update({"max_rate": max_rate, "worst_drop": worst_drop})
    checks.append(_judged(f"zero-coupon translation (kappa={kappa:g}) nondecreasing",
                          never_falls, z_detail))
    return AuditReport("long-rate monotonicity audit", tuple(checks), data)


# ---------------------------------------------------------------------------
# Classification and deterministic propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitDiagnostics:
    exponential_rate: float
    exponential_intercept: float
    exponential_residual: float
    pareto_lam: float
    pareto_level: float
    pareto_residual: float
    window: tuple[float, float]
    ambiguous: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "exponential": {
                "rate": self.exponential_rate,
                "intercept": self.exponential_intercept,
                "residual": self.exponential_residual,
            },
            "tail_pareto": {
                "lambda": self.pareto_lam,
                "level": self.pareto_level,
                "residual": self.pareto_residual,
            },
            "window": list(self.window),
            "ambiguous": self.ambiguous,
            "note": self.note,
        }


@dataclass(frozen=True)
class AsymptoticClass:
    """Tail class of a curve: exponential, tail_pareto, or undetermined."""

    kind: str
    rate: float | None
    lam: float | None
    level: float | None
    diagnostics: FitDiagnostics

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "lambda": self.lam,
            "level": self.level,
            "diagnostics": self.diagnostics.as_dict(),
        }


def classify_curve(
    curve: DiscountCurve, window: tuple[float, float] | None = None
) -> AsymptoticClass:
    """Fit the curve's tail against the two canonical decay laws.

    Over 33 geometric maturities of the window the audit regresses -ln P
    on T (exponential type) and on ln T (tail-Pareto type), both with
    intercept, and accepts a law when its maximum absolute residual is
    at most 1e-3.  The tail-Pareto level is recovered from the
    fitted intercept: -ln P ~ lam ln T - ln K with L = lam * K**(-1/lam).
    If both laws fit, the lower residual wins and the result is flagged
    ambiguous.
    """
    if window is None:
        if curve.tail is not None:
            window = (1e6, 1e8)
        else:
            window = (curve.horizon / 10.0, curve.horizon)
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi < math.inf):
        raise DomainError(f"bad fit window {window!r}")
    if hi < 1e3:
        note = (
            f"tail data reach only {hi:g} years; classification needs >= 1e3 "
            "(attach an asymptotic model or extend the grid)"
        )
        diag = FitDiagnostics(
            math.nan, math.nan, math.nan, math.nan, math.nan, math.nan,
            (lo, hi), False, note,
        )
        return AsymptoticClass("undetermined", None, None, None, diag)
    T = np.geomspace(lo, hi, _FIT_POINTS)
    neglog = -np.asarray(curve.log_df(T), dtype=float)

    def fit(regressor):
        design = np.column_stack([np.ones_like(T), regressor])
        coef, *_ = np.linalg.lstsq(design, neglog, rcond=None)
        resid = float(np.max(np.abs(neglog - design @ coef)))
        return float(coef[0]), float(coef[1]), resid

    c_exp, r_hat, resid_exp = fit(T)
    c_par, lam_hat, resid_par = fit(np.log(T))
    level_hat = math.nan
    if lam_hat > 0.0:
        # lam * exp(-c)**(-1/lam) in one exp call so a hopeless candidate
        # (huge |c| on a non-power-law curve) degrades to inf, not a crash.
        try:
            level_hat = lam_hat * math.exp(c_par / lam_hat)
        except OverflowError:
            level_hat = math.inf

    exp_ok = resid_exp <= _FIT_RESIDUAL_TOL and r_hat > 0.0
    par_ok = resid_par <= _FIT_RESIDUAL_TOL and lam_hat > 0.0 and math.isfinite(level_hat)
    ambiguous = exp_ok and par_ok
    note = ""
    if exp_ok and (not par_ok or resid_exp <= resid_par):
        kind, rate, lam, level = "exponential", r_hat, None, None
    elif par_ok:
        kind, rate, lam, level = "tail_pareto", None, lam_hat, level_hat
    else:
        kind, rate, lam, level = "undetermined", None, None, None
        note = "neither decay law fits the tail window within tolerance"
    diag = FitDiagnostics(
        r_hat, c_exp, resid_exp, lam_hat, level_hat, resid_par,
        (lo, hi), ambiguous, note,
    )
    return AsymptoticClass(kind, rate, lam, level, diag)


def deterministic_long_rate(
    curve: DiscountCurve, t: float, convention: RateConvention
) -> float:
    """Long rate of a deterministic curve by closed-form propagation.

    Deterministic no-arbitrage forward prices give, for a curve of
    exponential type with tail rate r, a constant long exponential rate
    r; for a curve of tail-Pareto type (lam0, L), the index-lam0 long
    rate propagates as P(0,t)^(1/lam0) * L.  Requests at a convention
    the class cannot support return the degenerate limit instead: 0 when
    the quote collapses, +inf when it diverges.  A curve without a tail
    takes the tail ``classify_curve`` fits, whose index matches a
    convention's within 1% (an attached tail's within 1e-9).
    """
    t = float(t)
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t!r}")
    tail, match_tol = curve.tail, 1e-9
    if tail is None:
        cls = classify_curve(curve)
        if cls.kind == "exponential":
            tail = ExponentialTail(cls.rate)
        elif cls.kind == "tail_pareto":
            tail = ParetoTail(cls.lam, cls.level)
        else:
            raise DomainError("curve tail class is undetermined; cannot propagate a long rate")
        # fitted indices carry estimation error, so match within the
        # classification accuracy (1% relative), not exactly
        match_tol = 1e-2
    lam = convention.pareto_index
    if isinstance(tail, ExponentialTail):
        if lam is not None:
            return math.inf  # simple-type quotes diverge against exponential decay
        r = float(tail.rate)
        return r if convention.index is None else _zero_coupon_quote(r, float(convention.index))
    if lam is None:
        return 0.0  # exponential and zero-coupon quotes vanish against power decay
    lam0 = float(tail.lam)
    if abs(lam - lam0) <= match_tol * max(1.0, lam0):
        return float(curve.df(t)) ** (1.0 / lam0) * float(tail.level)
    return 0.0 if lam > lam0 else math.inf


# ---------------------------------------------------------------------------
# Tail-Pareto kernel certificate
# ---------------------------------------------------------------------------


def _scaled_bond(lam: float, T: float, log_p: float) -> float:
    """T^lam P from ln P; +inf where it overflows."""
    try:
        return math.exp(lam * math.log(T) + log_p)
    except OverflowError:
        return math.inf


def pareto_kernel_certificate(
    model: Model,
    ensemble: montecarlo.PathEnsemble,
    lam: float | None = None,
) -> AuditReport:
    """Certify tail-Pareto behaviour of the kernel at index ``lam``.

    Checks along simulated paths (at least 2) and at the unit state
    (t = 0, every factor 1), each of which depends on the index:

    (a) the pathwise minimum of t^lam pi_t over the final three decade
        windows (read as the long-rate estimator reads them) is finite
        and positive in each and does not slide to zero;
    (b) the cross-section mean of t^lam pi_t is finite in each window and
        does not grow without bound;
    (c) T^lam P(t,T) is stable in (0, inf) at bond horizons 1e6, 1e7, 1e8.

    Auditing a model at the wrong index makes (a) fail (index too low:
    the scaled kernel collapses) or (b)/(c) fail (index too high: it
    blows up).  The martingale property of the simulated factors decides
    no index; ``kernel_condition_audit`` tests it at every grid time.
    A pi_t not > 0 in the windows raises LongrateError.
    """
    lam = model.lam if lam is None else float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"index must be finite and positive, got {lam!r}")
    if ensemble.n_paths < 2:
        raise DomainError(
            f"the tail-Pareto certificate needs at least 2 paths, got {ensemble.n_paths}"
        )
    grid = ensemble.grid
    # the final (at most three) adjacent decade windows of the grid after t = 0
    bounds = [*(_decade_window_starts(grid[1:]) + 1)[-3:], grid.size]
    if len(bounds) < 3:
        raise DomainError("ensemble grid too short: need at least two tail decades")
    # one power call over the whole grid: numpy's SIMD and scalar loops can round apart;
    # at a very high index t^lam overflows to inf, and (c) fails
    with np.errstate(over="ignore"):
        weights = grid**lam
    minima, means = montecarlo._decade_extremes(model, ensemble, weights, bounds)
    unit_state = ModelState(0.0, *[1.0] * model.factors)
    scales = [_scaled_bond(lam, T, bond_log_df(model, unit_state, T)) for T in _BOND_HORIZONS]
    # decade over decade as products, since a decade may underflow to 0
    collapsing = all(b < 0.7 * a for a, b in zip(minima, minima[1:]))
    exploding = all(b > 1.5 * a for a, b in zip(means, means[1:]))
    ratios = [b / a for a, b in zip(scales, scales[1:])]
    checks = (
        _judged("pathwise tail positivity",
                all(0.0 < v < math.inf for v in minima) and not collapsing,  # false for nan
                f"decade minima {['%.6g' % v for v in minima]}"),
        _judged("expected tail boundedness", all(map(math.isfinite, means)) and not exploding,
                f"decade means {['%.6g' % v for v in means]}"),
        _judged("bond tail scale stable",
                all(0.5 <= r <= 2.0 for r in ratios)
                and all(math.isfinite(s) and s > 0.0 for s in scales),
                f"T^lam P at horizons {list(_BOND_HORIZONS)!r}: {['%.6g' % s for s in scales]}"),
    )
    data = {
        "lambda": lam,
        "decade_minima": minima,
        "decade_means": means,
        "bond_scales": scales,
    }
    return AuditReport(f"tail-Pareto kernel certificate (index {lam:g})", checks, data)
