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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .aggregation import _CONVERGENCE_TOL, default_long_rate_horizons
from .errors import DomainError, InadmissibleCurveError, LongrateError
from .kernel_models import (
    BondEvaluator,
    Model,
    ModelState,
    _combine,
    _factor_values,
    _values_at,
    bond_log_df,
    theta_value,
)
from .montecarlo import (
    _CHUNK_PATHS,
    PathEnsemble,
    _combined_rows,
    _in_blocks,
    _row_moments,
    _z_score,
    kernel_paths,
)
from .reporting import FAIL, INCONCLUSIVE, PASS, AuditReport, CheckResult
from .termstructure import (
    DiscountCurve,
    ExponentialTail,
    ParetoTail,
    RateConvention,
    rates_from_log_discount,
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


@dataclass(frozen=True)
class LongRateEstimate:
    """Finite-horizon estimate of a long rate.

    ``value`` equals ``tail_sup``, the supremum over the final probed
    decade.  ``decade_sups`` lists the window suprema in increasing
    horizon order (diagnostic trail for trend reading); ``trace`` holds
    the raw (offset, rate) pairs.  When the evaluator cannot price the
    whole schedule, ``truncated_at`` is the first maturity it could not
    price and ``truncation_reason`` says why; both are None otherwise.
    """

    convention: RateConvention
    value: float
    horizon: float
    status: str
    tail_sup: float
    decade_sups: tuple[float, ...]
    trace: tuple[tuple[float, float], ...]
    truncated_at: float | None = None
    truncation_reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass(frozen=True)
class _LogDfTrace:
    """ln P(t, t + x) over the priced prefix of a horizon schedule."""

    t: float
    xs: np.ndarray  # offsets x
    lengths: np.ndarray  # tenor lengths (t + x) - t
    log_df: np.ndarray
    window_starts: np.ndarray  # first index of each decade window, increasing
    truncated_at: float | None
    truncation_reason: str | None

    def rates(self, convention: RateConvention) -> np.ndarray:
        return rates_from_log_discount(self.lengths, convention, self.log_df)


def _decade_window_starts(xs: np.ndarray) -> np.ndarray:
    """Where the decade windows (hi/10, hi] start, counting hi down from xs[-1].

    Counting stops below xs[0] or at the first empty window; the windows
    are adjacent and the last one ends at xs[-1].
    """
    edges = [float(xs[-1])]
    while edges[-1] >= xs[0]:
        edges.append(edges[-1] / 10.0)
    ends = np.searchsorted(xs, edges, side="right")  # entries <= each edge
    empty = np.flatnonzero(ends[1:] == ends[:-1])
    count = int(empty[0]) if empty.size else len(edges) - 1
    return ends[count:0:-1]


def _log_df_trace(bond, t: float, horizons: np.ndarray | None) -> _LogDfTrace:
    """ln P(t, t + x) over the schedule, cut at the first unpriced horizon.

    The package's own evaluators price a (t, schedule) once and keep the
    trace; any other evaluator is called every time.
    """
    xs = default_long_rate_horizons() if horizons is None else np.array(horizons, float)
    if not (xs.ndim == 1 and xs.size >= 2 and np.all(np.isfinite(xs))
            and xs[0] > 0 and np.all(np.diff(xs) > 0)):
        raise DomainError("horizon offsets must be finite, positive and increasing")
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"anchor time must be finite and nonnegative, got {t!r}")
    if not isinstance(bond, _CACHING_EVALUATORS):
        return _price_trace(bond, t, xs)
    key = np.float64(t).tobytes() + xs.tobytes()
    cached = bond._trace
    if cached is None or cached[0] != key:
        cached = (key, _price_trace(bond, t, xs))
        object.__setattr__(bond, "_trace", cached)
    return cached[1]


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
    lengths = maturities[:n] - t
    if not lengths[0] > 0.0:
        raise DomainError(f"horizon {xs[0]!r} vanishes against anchor time {t!r}")
    trace = _LogDfTrace(
        t, xs[:n], lengths, ld[:n], _decade_window_starts(xs[:n]), truncated_at, reason
    )
    for arr in (trace.xs, trace.lengths, trace.log_df, trace.window_starts):
        arr.setflags(write=False)
    return trace


def _read_estimate(
    trace: _LogDfTrace, convention: RateConvention, rates: np.ndarray
) -> LongRateEstimate:
    """Decade suprema and status of one convention's rates over a trace."""
    sups = np.maximum.reduceat(rates, trace.window_starts).tolist()
    final = sups[-1]
    prev = sups[-2] if len(sups) >= 2 else math.nan
    if math.isinf(final) or (final > _DIVERGENCE_CAP and final >= prev):
        status = DIVERGENT
    elif len(sups) >= 2 and abs(final - prev) < _CONVERGENCE_TOL:
        status = CONVERGED
    else:
        status = UNCONVERGED
    return LongRateEstimate(
        convention, final, trace.t + float(trace.xs[-1]), status, final, tuple(sups),
        tuple(zip(trace.xs.tolist(), rates.tolist())),
        trace.truncated_at, trace.truncation_reason,
    )


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
    trace = _log_df_trace(bond, t, horizons)
    return _read_estimate(trace, convention, trace.rates(convention))


def save_trace_csv(estimate: LongRateEstimate, path) -> None:
    """Write the finite-horizon trace as ``horizon,rate`` (absolute maturities)."""
    t0 = estimate.horizon - estimate.trace[-1][0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("horizon,rate\n")
        for x, rate in estimate.trace:
            fh.write(f"{t0 + x:.9g},{rate:.9g}\n")


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
    x_max = float(trace.xs[-1])
    df_end = math.exp(float(trace.log_df[-1]))
    if df_end >= 0.9:
        raise InadmissibleCurveError(
            f"discount factor is still {df_end:.6g} at horizon {x_max:g}; "
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
    * a finite positive rate at index lam forces the exponential rate to
      zero, higher indices to zero, and lower indices to diverge;
    * at most one index can carry a finite positive rate;
    * at every common horizon the finite-horizon quotes are ordered
      downward in the index.
    """
    lams = sorted({float(a) for a in alphas}, reverse=True)
    if not lams or lams[-1] <= 0.0:
        raise DomainError("indices must be positive")
    trace = _log_df_trace(bond, t, horizons)
    _check_admissible(trace)
    conventions = [RateConvention.exponential()]
    conventions += [RateConvention.tail_pareto(lam) for lam in lams]
    rows = np.array([trace.rates(conv) for conv in conventions])
    r_est, *lam_ests = [
        _read_estimate(trace, conv, row) for conv, row in zip(conventions, rows)
    ]
    l_est = dict(zip(lams, lam_ests))
    trends = {lam: _trend(e) for lam, e in l_est.items()}
    r_trend = _trend(r_est)

    checks: list[CheckResult] = []
    min_r = min(rate for _, rate in r_est.trace)
    checks.append(
        CheckResult(
            "exponential long rate nonnegative",
            PASS if min_r >= -1e-8 else FAIL,
            f"min finite-horizon estimate {min_r:.9g}",
        )
    )

    def trend_name(lam):
        return f"index {lam:g} trend {trends[lam]}"

    if r_trend == _FINITE:
        bad = [lam for lam in lams if trends[lam] != _DIV]
        checks.append(
            CheckResult(
                "positive exponential rate forces divergence at every index",
                FAIL if bad else PASS,
                "; ".join(trend_name(l) for l in bad) if bad else
                f"R converges to {r_est.value:.9g}, all indices diverge",
            )
        )
    finite_lams = [lam for lam in lams if trends[lam] == _FINITE]
    if len(finite_lams) > 1:
        checks.append(
            CheckResult(
                "at most one index carries a finite positive rate",
                FAIL,
                f"finite at indices {finite_lams!r}",
            )
        )
    for lam in finite_lams:
        ok_r = r_trend == _ZERO
        checks.append(
            CheckResult(
                f"finite rate at index {lam:g} forces exponential rate to zero",
                PASS if ok_r else FAIL,
                f"R trend {r_trend}, value {r_est.value:.9g}",
            )
        )
        for other in lams:
            if other > lam:
                checks.append(
                    CheckResult(
                        f"finite rate at index {lam:g} forces index {other:g} to zero",
                        PASS if trends[other] == _ZERO else FAIL,
                        trend_name(other),
                    )
                )
            elif other < lam:
                checks.append(
                    CheckResult(
                        f"finite rate at index {lam:g} forces index {other:g} to diverge",
                        PASS if trends[other] == _DIV else FAIL,
                        trend_name(other),
                    )
                )
    # Finite-horizon ordering: exponential <= higher index <= lower index,
    # at every horizon (a column of ``rows``).
    finite = np.isfinite(rows)
    slack = 1e-12 * np.maximum(1.0, np.where(finite, np.abs(rows), 0.0).max(axis=0))
    order_ok = not np.any(finite[:-1] & finite[1:] & (rows[1:] < rows[:-1] - slack))
    checks.append(
        CheckResult(
            "finite-horizon quotes ordered downward in index",
            PASS if order_ok else FAIL,
            "exponential <= tail-Pareto quotes, decreasing index last",
        )
    )
    undecided = [lam for lam in lams if trends[lam] == _UNDECIDED]
    if r_trend == _UNDECIDED:
        checks.append(
            CheckResult("exponential trend resolved", INCONCLUSIVE, "trend unresolved")
        )
    for lam in undecided:
        checks.append(
            CheckResult(f"index {lam:g} trend resolved", INCONCLUSIVE, "trend unresolved")
        )
    data = {
        "t": float(t),
        "exponential": {
            "value": r_est.value, "status": r_est.status, "trend": r_trend,
        },
        "indices": {
            f"{lam:g}": {
                "value": l_est[lam].value,
                "status": l_est[lam].status,
                "trend": trends[lam],
            }
            for lam in lams
        },
    }
    return AuditReport("stratification audit", tuple(checks), data)


# ---------------------------------------------------------------------------
# Monotonicity of the long exponential rate
# ---------------------------------------------------------------------------


def _model_rate_extremes(
    model: Model, ensemble: PathEnsemble, idx: list[int], x: float
) -> tuple[float, float]:
    """The largest fall between consecutive times, and the largest value, of
    the per-path exponential-rate estimates at grid indices ``idx`` and
    horizon x.

    The estimates are formed a block of paths at a time on the workers;
    each block keeps only its two maxima, and the blocks' maxima combine
    through np.maximum, which is exact and propagates nan in any block.
    """
    _factor_values(model, ensemble)
    ts = [float(ensemble.grid[j]) for j in idx]
    # coefficient i at audit time k is [i, k, 0]: a column against time-major paths
    at_t = np.array([_values_at(model.coefficients, t) for t in ts]).T[:, :, None]
    at_tx = np.array([_values_at(model.coefficients, t + x) for t in ts]).T[:, :, None]
    extremes = np.empty(((ensemble.n_paths + _CHUNK_PATHS - 1) // _CHUNK_PATHS, 2))

    def block(start: int, stop: int, _) -> None:
        factors = ensemble.rows[:, idx, start:stop]
        pi = _combine(at_t, factors)
        ests = -(np.log(_combine(at_tx, factors)) - np.log(pi)) / x
        extremes[start // _CHUNK_PATHS] = (
            np.max(ests[:-1] - ests[1:], initial=-np.inf),
            np.max(ests),
        )

    _in_blocks(ensemble.n_paths, _CHUNK_PATHS, block)
    worst_drop, max_rate = np.maximum.reduce(extremes)
    return float(worst_drop), float(max_rate)


def _zero_coupon_quote(rate: float, kappa: float) -> float:
    """kappa * (exp(rate / kappa) - 1), the zero-coupon translation of a rate."""
    try:
        return kappa * math.expm1(rate / kappa)
    except OverflowError:
        raise DomainError(
            f"zero-coupon translation overflows at kappa={kappa:g} for rate {rate:.9g}"
        ) from None


def dir_monotonicity_audit(
    subject,
    times: Sequence[float],
    ensemble: PathEnsemble | None = None,
    horizons: np.ndarray | None = None,
    kappa: float = 1.0,
) -> AuditReport:
    """Check that the long exponential rate never falls through time.

    For a deterministic curve the audit estimates the rate at each time
    from forward prices and checks it is nondecreasing (for flat
    exponential curves it is constant).  For a kernel model it evaluates
    the estimate along every simulated path; power-law models are the
    degenerate case whose long exponential rate vanishes, so estimates
    must also sit below the estimation tolerance.  The zero-coupon
    translation z = kappa*(exp(R/kappa) - 1) is monotone in R, so its
    monotonicity is checked on the same data.
    """
    RateConvention.zero_coupon(kappa)  # kappa must be finite and positive
    ts = [float(x) for x in times]
    if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("need at least two strictly increasing audit times")
    xs = default_long_rate_horizons() if horizons is None else np.asarray(horizons, float)
    checks: list[CheckResult] = []
    data: dict = {"times": ts, "kappa": kappa}

    if isinstance(subject, DiscountCurve):
        ev = curve_evaluator(subject)
        ests = [estimate_long_rate(ev, t, RateConvention.exponential(), xs) for t in ts]
        values = [e.value for e in ests]
        drops = [
            (a, b) for a, b in zip(values, values[1:]) if b < a - _CONVERGENCE_TOL
        ]
        checks.append(
            CheckResult(
                "long exponential rate nondecreasing",
                PASS if not drops else FAIL,
                f"estimates {['%.9g' % v for v in values]}",
            )
        )
        z_values = [_zero_coupon_quote(v, kappa) for v in values]
        z_drops = [
            (a, b) for a, b in zip(z_values, z_values[1:]) if b < a - _CONVERGENCE_TOL
        ]
        checks.append(
            CheckResult(
                f"zero-coupon translation (kappa={kappa:g}) nondecreasing",
                PASS if not z_drops else FAIL,
                f"estimates {['%.9g' % v for v in z_values]}",
            )
        )
        spread = max(values) - min(values)
        data.update({"values": values, "zero_coupon_values": z_values, "spread": spread})
        return AuditReport("long-rate monotonicity audit", tuple(checks), data)

    model: Model = subject
    if ensemble is None:
        raise DomainError("model audits need a simulated ensemble")
    idx = [ensemble.time_index(t) for t in ts]
    worst_drop, max_rate = _model_rate_extremes(model, ensemble, idx, float(xs[-1]))
    checks.append(
        CheckResult(
            "long exponential rate nondecreasing along every path",
            PASS if worst_drop <= _CONVERGENCE_TOL else FAIL,
            f"worst decrease {worst_drop:.3g} against tolerance {_CONVERGENCE_TOL:g}",
        )
    )
    checks.append(
        CheckResult(
            "power-law kernel long exponential rate vanishes",
            PASS if max_rate <= _CONVERGENCE_TOL else FAIL,
            f"max estimate {max_rate:.3g} over {ensemble.n_paths} paths x {len(ts)} times",
        )
    )
    z_worst = _zero_coupon_quote(worst_drop, kappa) if math.isfinite(worst_drop) else worst_drop
    checks.append(
        CheckResult(
            f"zero-coupon translation (kappa={kappa:g}) nondecreasing",
            PASS if worst_drop <= _CONVERGENCE_TOL else FAIL,
            f"monotone in the exponential rate; worst decrease {z_worst:.3g}",
        )
    )
    data.update({"max_rate": max_rate, "worst_drop": worst_drop})
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
    the quote collapses, +inf when it diverges.
    """
    t = float(t)
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t!r}")
    tail = getattr(curve, "tail", None)
    if isinstance(tail, ExponentialTail):
        kind, rate, lam0, level = "exponential", float(tail.rate), None, None
        match_tol = 1e-9
    elif isinstance(tail, ParetoTail):
        kind, rate, lam0, level = "tail_pareto", None, float(tail.lam), float(tail.level)
        match_tol = 1e-9
    else:
        cls = classify_curve(curve)
        kind, rate, lam0, level = cls.kind, cls.rate, cls.lam, cls.level
        # fitted indices carry estimation error, so match within the
        # classification accuracy (1% relative), not exactly
        match_tol = 1e-2
    if kind == "undetermined":
        raise DomainError(
            "curve tail class is undetermined; cannot propagate a long rate"
        )
    if kind == "exponential":
        r = float(rate)
        if convention.kind == "exponential":
            return r
        if convention.kind == "zero_coupon":
            return _zero_coupon_quote(r, float(convention.index))
        return math.inf  # simple-type quotes diverge against exponential decay
    lam0, level = float(lam0), float(level)
    if convention.kind in ("exponential", "zero_coupon"):
        return 0.0
    lam = float(convention.pareto_index)
    if abs(lam - lam0) <= match_tol * max(1.0, lam0):
        p0t = float(curve.df(t))
        return p0t ** (1.0 / lam0) * level
    return 0.0 if lam > lam0 else math.inf


# ---------------------------------------------------------------------------
# Tail-Pareto kernel certificate
# ---------------------------------------------------------------------------


def _max_driver_variance(model: Model, t: float) -> float:
    """Largest log-variance V(0, t) over the model's declared drivers."""
    drivers = model.drivers or ()
    if not drivers:
        return 0.0
    return max(d.variance(0.0, t) for d in drivers)


def _scaled_bond(lam: float, T: float, log_p: float) -> float:
    """T^lam P from ln P; +inf where it overflows."""
    try:
        return math.exp(lam * math.log(T) + log_p)
    except OverflowError:
        return math.inf


def _decade_extremes(
    pi: np.ndarray, weights: np.ndarray, bounds: list[int]
) -> tuple[list[float], list[float]]:
    """Minimum and mean of t^lam pi_t over each decade [a, b) of pi's time rows.

    A decade is formed in one contiguous buffer that mirrors rows a to b
    of pi, a block of paths at a time on the workers, each block keeping
    its minimum; the minima combine through np.minimum, which is exact
    and propagates nan in any block.  The mean is one pairwise sum over
    the whole buffer.
    """
    n = pi.shape[1]
    buf = np.empty((max(b - a for a, b in zip(bounds, bounds[1:])), n))
    block_min = np.empty((n + _CHUNK_PATHS - 1) // _CHUNK_PATHS)
    minima, means = [], []
    for a, b in zip(bounds, bounds[1:]):
        decade = buf[: b - a]

        def fill(start: int, stop: int, _) -> None:  # runs within this iteration
            part = decade[:, start:stop]
            with np.errstate(over="ignore"):
                np.multiply(weights[a:b, None], pi[a:b, start:stop], out=part)
            block_min[start // _CHUNK_PATHS] = part.min()

        _in_blocks(n, _CHUNK_PATHS, fill)
        minima.append(float(np.minimum.reduce(block_min)))
        means.append(float(np.add.reduce(decade, axis=None) / decade.size))
    return minima, means


def _theta_moments(
    model: Model, ensemble: PathEnsemble, testable: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and SE of theta_j - theta_(j-1) and of theta_j at each testable grid index j.

    theta_t = A + B M_t (+ C N_t) does not depend on the index, so the
    moments are cached with the ensemble for the model last passed
    (matched by identity, as ``kernel_paths`` matches it); ``testable``
    depends on the model and the grid alone.
    """
    cached = ensemble._theta
    if cached is not None and cached[0] is model:
        return cached[1]
    n = ensemble.n_paths
    tails = [c.tail_limit for c in model.coefficients]
    theta = _combined_rows(tails, ensemble.rows[:, : testable[-1] + 1])  # time-major
    steps = _row_moments(
        len(testable),
        n,
        lambda i, buf: np.subtract(theta[testable[i]], theta[testable[i] - 1], out=buf),
    )
    levels = _row_moments(len(testable), n, lambda i, _: theta[testable[i]])
    steps.setflags(write=False)
    levels.setflags(write=False)
    object.__setattr__(ensemble, "_theta", (model, (steps, levels)))
    return steps, levels


def pareto_kernel_certificate(
    model: Model,
    ensemble: PathEnsemble,
    lam: float | None = None,
) -> AuditReport:
    """Certify tail-Pareto behaviour of the kernel at index ``lam``.

    Checks along simulated paths and at the unit state (t = 0, every
    factor 1):

    (a) the pathwise minimum of t^lam pi_t over the final three decade
        windows (read as the long-rate estimator reads them) is finite
        and positive in each and does not slide to zero;
    (b) the cross-section mean of t^lam pi_t is finite in each window and
        does not grow without bound;
    (c) T^lam P(t,T) is stable in (0, inf) at bond horizons 1e6, 1e7, 1e8;
    (d) the benchmark theta_t = lim inf E_t[T^lam pi_T] is an empirical
        supermartingale (here a martingale, so its mean also stays at
        the time-0 value within Monte Carlo error).  theta does not
        depend on the index, so its moments are taken once per (model,
        ensemble) and shared by the certificates at every index.

    Auditing a model at the wrong index makes (a) fail (index too low:
    the scaled kernel collapses) or (b)/(c) fail (index too high: it
    blows up).
    """
    lam = model.lam if lam is None else float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"index must be finite and positive, got {lam!r}")
    pi = kernel_paths(model, ensemble).T
    grid = ensemble.grid
    # the final (at most three) adjacent decade windows of the grid after t = 0
    bounds = [*(_decade_window_starts(grid[1:]) + 1)[-3:], grid.size]
    if len(bounds) < 3:
        raise DomainError("ensemble grid too short: need at least two tail decades")
    # one power call over the whole grid: numpy's SIMD and scalar loops can round apart;
    # at a very high index t^lam overflows to inf, and (c) fails
    with np.errstate(over="ignore"):
        weights = grid**lam
    minima, means = _decade_extremes(pi, weights, bounds)
    checks: list[CheckResult] = []

    # decade over decade as products, since a decade may underflow to 0
    collapsing = all(b < 0.7 * a for a, b in zip(minima, minima[1:]))
    positive = all(0.0 < v < math.inf for v in minima)  # false for nan
    checks.append(
        CheckResult(
            "pathwise tail positivity",
            PASS if positive and not collapsing else FAIL,
            f"decade minima {['%.6g' % v for v in minima]}",
        )
    )
    exploding = all(b > 1.5 * a for a, b in zip(means, means[1:]))
    checks.append(
        CheckResult(
            "expected tail boundedness",
            PASS if all(map(math.isfinite, means)) and not exploding else FAIL,
            f"decade means {['%.6g' % v for v in means]}",
        )
    )

    unit_state = ModelState(0.0, *[1.0] * model.factors)
    scales = [_scaled_bond(lam, T, bond_log_df(model, unit_state, T)) for T in _BOND_HORIZONS]
    ratios = [b / a for a, b in zip(scales, scales[1:])]
    stable = all(0.5 <= r <= 2.0 for r in ratios) and all(
        math.isfinite(s) and s > 0.0 for s in scales
    )
    checks.append(
        CheckResult(
            "bond tail scale stable",
            PASS if stable else FAIL,
            f"T^lam P at horizons {list(_BOND_HORIZONS)!r}: {['%.6g' % s for s in scales]}",
        )
    )

    theta0 = theta_value(model, unit_state)
    # The mean of a driftless lognormal stops being sampleable once its
    # log-variance is large (the expectation sits on paths no finite sample
    # contains), so the mean-based benchmark checks only probe grid times
    # with V(0, t) <= 2; the deep tail stays covered by the pathwise decade
    # checks above.
    v_cap = 2.0
    testable = [
        j
        for j in range(1, grid.size)
        if _max_driver_variance(model, float(grid[j])) <= v_cap
    ]
    t_cap = float(grid[testable[-1]]) if testable else math.nan
    worst_super = -math.inf
    worst_const = 0.0
    if testable:
        steps, levels = _theta_moments(model, ensemble, testable)
        for (mean_d, se_d), (mean_t, se_t) in zip(steps.tolist(), levels.tolist()):
            worst_super = max(worst_super, _z_score(mean_d, se_d, theta0))
            worst_const = max(worst_const, _z_score(abs(mean_t - theta0), se_t, theta0))
    window = f"grid times <= {t_cap:g}" if testable else "no grid times in sampling window"
    checks.append(
        CheckResult(
            "benchmark supermartingale inequality",
            PASS if worst_super <= 4.0 else FAIL,
            f"max mean increment {worst_super:.3g} SE over {window} (must not exceed 4)",
        )
    )
    checks.append(
        CheckResult(
            "benchmark expectation constant",
            PASS if worst_const <= 4.0 else FAIL,
            f"max |mean theta - theta_0| = {worst_const:.3g} SE over {window}",
        )
    )
    data = {
        "lambda": lam,
        "decade_minima": minima,
        "decade_means": means,
        "bond_scales": scales,
    }
    return AuditReport(f"tail-Pareto kernel certificate (index {lam:g})", tuple(checks), data)
