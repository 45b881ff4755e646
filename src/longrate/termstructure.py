"""Discount factors and discount curves.

The rate conventions and their scalar conversions live in
``conventions``, which imports no numpy; its public names are imported
back here.  This module adds the array form of the conversion
(``rates_from_log_discount``), the ordering audit of one discount
factor's quotes, and discount curves with their tails.

The module also holds the two default schedules: the knots of a curve
(``default_curve_grid``) and the tenor offsets the long-rate estimators
probe (``default_long_rate_horizons``), with the tolerance within which
successive long-rate estimates count as converged.  ``ordering_audit``
reports through ``reporting``, which executes only when it runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import reporting
from .conventions import (
    _EXP,
    RateConvention,
    Tenor,
    convert_rate,
    discount_from_rate,
    log_discount_from_rate,
    rate_from_discount,
    rate_from_log_discount,
)
from .errors import DomainError, ExtrapolationError, _finite, _numbers, _read_json

__all__ = [
    "Tenor",
    "RateConvention",
    "discount_from_rate",
    "rate_from_discount",
    "rate_from_log_discount",
    "rates_from_log_discount",
    "log_discount_from_rate",
    "convert_rate",
    "ordering_audit",
    "DiscountCurve",
    "ExponentialTail",
    "ParetoTail",
    "flat_exponential_curve",
    "tail_pareto_curve",
    "curve_from_function",
    "forward_discount",
    "time_consistency_residual",
    "load_curve_csv",
    "save_curve_csv",
    "default_curve_grid",
    "default_long_rate_horizons",
    "STPRSchedule",
]

_CURVE_HORIZON = 1000.0  # years: the last knot of default_curve_grid
_HORIZON_START = 10.0
_HORIZONS_PER_DECADE = 8
# Successive long-rate estimates closer than this count as converged.
_CONVERGENCE_TOL = 1e-6


def rates_from_log_discount(lengths, conv: RateConvention, log_df) -> np.ndarray:
    """Array form of ``rate_from_log_discount``: one rate per (tenor length, ln P).

    Same formulas, evaluated elementwise; quotes that overflow are +inf.
    """
    x = np.asarray(lengths, dtype=float)
    ld = np.asarray(log_df, dtype=float)
    if not np.all(np.isfinite(ld)):
        raise DomainError("log discount factors must be finite")
    return _rates(x, conv, ld)


def _rates(x: np.ndarray, conv: RateConvention, ld: np.ndarray) -> np.ndarray:
    """The arithmetic of ``rates_from_log_discount``, for float arrays with ln P finite."""
    with np.errstate(over="ignore"):  # -ln P / x overflows at a tiny length x
        if conv.kind == _EXP:
            return -ld / x
        lam = conv.pareto_index
        if lam is not None:
            return lam * np.expm1(-ld / lam) / x
        kappa = float(conv.index)
        return kappa * np.expm1(-ld / (kappa * x))


def ordering_audit(
    tenor: Tenor, df: float, alphas: Iterable[float] = (2.0,)
) -> reporting.AuditReport:
    """Check the systematic ordering R <= L^(alpha) <= L^(beta) for alpha > beta.

    Computes the exponential rate and the tail-Pareto rate at each index in
    ``alphas`` (plus index 1, the Libor rate) for the given
    discount factor, and verifies the quotes are monotone in the convention
    order.  Equality across conventions only occurs at df == 1.  ``data``
    holds the tenor, the discount factor and the quotes by label in that
    order: exponential first, then tail-Pareto by decreasing index (Libor
    is index 1).
    """
    d = _finite("discount factor", df)
    if d <= 0.0:
        raise DomainError(f"discount factor must be positive, got {df!r}")
    lams = {float(a) for a in alphas} | {1.0}
    if min(lams) <= 0.0:
        raise DomainError("tail-Pareto indices must be positive")
    ld = math.log(d)
    entries: list[tuple[str, float]] = [
        ("exp", rate_from_log_discount(tenor, RateConvention.exponential(), ld))
    ]
    for lam in sorted(lams, reverse=True):
        label = "libor" if lam == 1.0 else f"pareto:{lam:g}"
        entries.append(
            (label, rate_from_log_discount(tenor, RateConvention.tail_pareto(lam), ld))
        )
    rates = [r for _, r in entries]
    # Monotone up to float noise: near df == 1 the quotes may tie or cross by a few ulp.
    slack = 4.0 * np.finfo(float).eps * max(1.0, max(abs(r) for r in rates))
    ok = all(rates[i + 1] >= rates[i] - slack for i in range(len(rates) - 1))
    check = reporting._judged(
        "quotes ordered downward in index", ok, " <= ".join(label for label, _ in entries)
    )
    data = {"t": tenor.t, "T": tenor.T, "discount_factor": d, "rates": dict(entries)}
    return reporting.AuditReport("ordering audit", (check,), data)


# ---------------------------------------------------------------------------
# Discount curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialTail:
    """Beyond-grid continuation at a constant exponential rate."""

    rate: float

    def __post_init__(self):
        _finite("tail rate", self.rate)

    def log_df_beyond(self, t, t_end: float, log_df_end: float):
        return log_df_end - self.rate * (np.asarray(t, dtype=float) - t_end)


@dataclass(frozen=True)
class ParetoTail:
    """Beyond-grid continuation with tail-Pareto decay.

    P(t) = P(t_end) * ((1 + level*t/lam) / (1 + level*t_end/lam)) ** -lam,
    which is continuous at the grid end and has tail index ``lam`` and
    asymptotic simple rate ``level``.
    """

    lam: float
    level: float

    def __post_init__(self):
        lam = _finite("tail index", self.lam)
        level = _finite("tail level", self.level)
        if lam <= 0.0:
            raise DomainError(f"tail index must be positive, got {lam!r}")
        if level <= 0.0:
            raise DomainError(f"tail level must be positive, got {level!r}")

    def log_df_beyond(self, t, t_end: float, log_df_end: float):
        tt = np.asarray(t, dtype=float)
        lam, level = self.lam, self.level
        return log_df_end - lam * (
            np.log1p(level * tt / lam) - math.log1p(level * t_end / lam)
        )

    def tail_constant(self, t_end: float, log_df_end: float) -> float:
        """K = lim t^lam * P(t), the Pareto scale of the continued curve."""
        return math.exp(
            log_df_end + self.lam * (math.log(self.lam / self.level) + math.log1p(self.level * t_end / self.lam))
        )


@dataclass(frozen=True)
class DiscountCurve:
    """Time-0 discount factors on a grid, log-linearly interpolated.

    The grid starts at 0 with value 1 and is strictly increasing; values
    are strictly positive (factors above 1 encode negative rates).
    Interpolation is linear in -ln P, i.e. piecewise-constant forward
    rates.  Queries beyond the grid require an attached asymptotic tail
    model; otherwise they raise ``ExtrapolationError``.
    """

    grid: np.ndarray
    values: np.ndarray
    tail: ExponentialTail | ParetoTail | None = None
    _neglog: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            grid, values = _numbers(self.grid), _numbers(self.values)
        except (TypeError, ValueError):
            raise DomainError("curve grid and values must be numbers") from None
        if grid.ndim != 1 or values.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        if grid.size < 2:
            raise DomainError("curve needs at least two grid points")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise DomainError("curve grid and values must be finite")
        if grid[0] != 0.0:
            raise DomainError(f"curve grid must start at 0, got {float(grid[0])!r}")
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("curve grid must be strictly increasing")
        if abs(values[0] - 1.0) > 1e-12:
            raise DomainError(f"curve value at maturity 0 must be 1, got {float(values[0])!r}")
        if not np.all(values > 0.0):
            raise DomainError("discount factors must be strictly positive")
        values[0] = 1.0
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        neglog = -np.log(values)
        neglog.setflags(write=False)
        object.__setattr__(self, "_neglog", neglog)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def log_df(self, t):
        """ln P(0, t); scalar in, scalar out, arrays broadcast."""
        tt = np.asarray(t, dtype=float)
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt)
        if not np.all(tt >= 0.0):  # also true for nan
            raise DomainError("maturities must be nonnegative numbers")
        out = np.empty_like(tt)
        inside = tt <= self.grid[-1]
        out[inside] = -np.interp(tt[inside], self.grid, self._neglog)
        beyond = ~inside
        if np.any(beyond):
            if self.tail is None:
                raise ExtrapolationError(
                    f"maturity beyond curve horizon {self.horizon:g} with no "
                    "asymptotic model attached"
                )
            out[beyond] = self.tail.log_df_beyond(
                tt[beyond], self.horizon, float(-self._neglog[-1])
            )
        return float(out[0]) if scalar else out

    def df(self, t):
        return np.exp(self.log_df(t)) if np.ndim(t) else float(math.exp(self.log_df(t)))


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d float array, bit for bit, but every nan kept.

    The same sort, keeping x[0] and every x[i] != x[i - 1] (of -0.0 and
    0.0 the one the sort puts first), without the ``numpy.ma`` import
    that ``np.unique`` makes on its first call (numpy 2.4).
    """
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def default_curve_grid() -> np.ndarray:
    """Annual knots to 100y, then 10 knots per decade out to _CURVE_HORIZON."""
    dense = np.arange(0.0, 100.5, 1.0)
    sparse = np.geomspace(100.0, _CURVE_HORIZON, int(10 * math.log10(_CURVE_HORIZON / 100.0)) + 1)
    return _sorted_unique(np.concatenate([dense, sparse]))


def default_long_rate_horizons(stop: float = 1e8) -> np.ndarray:
    """Geometric tenor offsets x = T - t probed by the long-rate estimators.

    They run from 10 to ``stop`` with 8 points per decade.
    """
    if not stop > _HORIZON_START:
        raise DomainError(
            f"horizon must exceed {_HORIZON_START:g}, the first probed offset; got {stop!r}"
        )
    if not math.isfinite(stop):
        raise DomainError(f"horizon stop must be finite, got {stop!r}")
    n = int(round(_HORIZONS_PER_DECADE * math.log10(stop / _HORIZON_START))) + 1
    return np.geomspace(_HORIZON_START, stop, max(n, 2))


def curve_from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray | None = None,
    tail: ExponentialTail | ParetoTail | None = None,
) -> DiscountCurve:
    g = default_curve_grid() if grid is None else np.asarray(grid, dtype=float)
    return DiscountCurve(g, np.asarray(fn(g), dtype=float), tail)


def flat_exponential_curve(rate: float) -> DiscountCurve:
    """P(0,t) = exp(-rate * t), continued at the same rate beyond the grid."""
    r = _finite("rate", rate)
    with np.errstate(over="ignore"):  # a factor that overflows is rejected as not finite
        return curve_from_function(lambda t: np.exp(-r * t), tail=ExponentialTail(r))


def tail_pareto_curve(
    lam: float, level: float, grid: np.ndarray | None = None
) -> DiscountCurve:
    """P(0,t) = (1 + level*t/lam) ** -lam with the matching Pareto tail.

    lam = 1 gives the hyperbolic curve P = 1/(1 + level*t).
    """
    tail = ParetoTail(float(lam), float(level))
    return curve_from_function(
        lambda t: np.exp(-tail.lam * np.log1p(tail.level * t / tail.lam)), grid, tail
    )


def forward_discount(curve: DiscountCurve, t: float, T: float) -> float:
    """P(t, T) implied by the time-0 curve under no-arbitrage: P(0,T)/P(0,t)."""
    t = _finite("t", t)
    T = _finite("T", T)
    if t < 0.0 or T < t:
        raise DomainError(f"need 0 <= t <= T, got t={t!r}, T={T!r}")
    if T == t:
        return 1.0
    return math.exp(curve.log_df(T) - curve.log_df(t))


def time_consistency_residual(
    curve: DiscountCurve, probes: Sequence[tuple[float, float]]
) -> float:
    """max |P(0, t+x) - P(0, t) * P(0, x)| over the probe pairs (t, x).

    Zero (to round-off) exactly for flat exponential curves; any genuinely
    declining term structure shows a positive residual, which is the
    quantitative face of the time-inconsistency of such schedules.
    """
    if not probes:
        raise DomainError("need at least one probe pair")
    worst = 0.0
    for t, x in probes:
        t = _finite("probe t", t)
        x = _finite("probe x", x)
        if t < 0.0 or x <= 0.0:
            raise DomainError(f"probe needs t >= 0 and x > 0, got ({t!r}, {x!r})")
        gap = abs(
            math.exp(curve.log_df(t + x))
            - math.exp(curve.log_df(t)) * math.exp(curve.log_df(x))
        )
        worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# Green-Book-style schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class STPRSchedule:
    """Banded flat-rate schedule covering [0, inf).

    ``bands`` is a tuple of (start, end, rate) with end None for the
    final open band.  Bands must be contiguous from 0 and rates positive.
    By default each band's rate acts as the forward rate over the band,
    so the discount curve is continuous and piecewise exponential; the
    spot interpretation (P = exp(-rate(t) * t)) is also available but
    makes P discontinuous at band boundaries.
    """

    bands: tuple[tuple[float, float | None, float], ...]
    components: dict | None = None

    def __post_init__(self):
        if not self.bands:
            raise DomainError("schedule needs at least one band")
        try:
            bands = tuple(tuple(b) for b in self.bands)
        except TypeError:
            raise DomainError(
                f"bands must be a list of [start, end, rate] lists, got {self.bands!r}"
            ) from None
        object.__setattr__(self, "bands", bands)
        prev_end = 0.0
        for i, band in enumerate(self.bands):
            if len(band) != 3:
                raise DomainError(f"band {i}: expected [start, end, rate], got {band!r}")
            start, end, rate = band
            start = _finite(f"band {i}: start", start)
            last = i == len(self.bands) - 1
            if start != prev_end:
                raise DomainError(
                    f"band {i}: starts at {start!r} but previous band ends at "
                    f"{prev_end!r} (bands must tile [0, inf) with no gaps)"
                )
            if end is None:
                if not last:
                    raise DomainError(f"band {i}: only the final band may be open-ended")
            else:
                end = _finite(f"band {i}: end", end)
                if end <= start:
                    raise DomainError(f"band {i}: end {end!r} must exceed start {start!r}")
                if last:
                    raise DomainError("final band must be open-ended (end null)")
                prev_end = end
            rate = _finite(f"band {i}: rate", rate)
            if rate <= 0.0:
                raise DomainError(f"band {i}: rate must be positive, got {rate!r}")

    @classmethod
    def from_config(cls, cfg: dict) -> "STPRSchedule":
        if not isinstance(cfg, dict) or "bands" not in cfg:
            raise DomainError("schedule config must be an object with a 'bands' key")
        return cls(cfg["bands"], cfg.get("components"))

    @classmethod
    def load(cls, path) -> "STPRSchedule":
        return cls.from_config(_read_json(path))

    @property
    def boundaries(self) -> list[float]:
        return [float(b[1]) for b in self.bands if b[1] is not None]

    def rate_at(self, t: float) -> float:
        t = float(t)
        if t < 0.0:
            raise DomainError(f"time must be nonnegative, got {t!r}")
        for start, end, rate in self.bands:
            if end is None or t < float(end):
                return float(rate)
        raise AssertionError("bands must cover [0, inf)")

    def neg_log_df(self, t: float) -> float:
        """-ln P(0,t) under forward-band compounding (continuous P)."""
        t = float(t)
        total = 0.0
        for start, end, rate in self.bands:
            hi = t if end is None else min(float(end), t)
            if hi <= float(start):
                break
            total += float(rate) * (hi - float(start))
        return total

    def curve(self, spot: bool = False) -> DiscountCurve:
        g = _sorted_unique(np.concatenate([default_curve_grid(), self.boundaries]))
        if spot:
            values = np.array([math.exp(-self.rate_at(t) * t) for t in g])
        else:
            values = np.array([math.exp(-self.neg_log_df(t)) for t in g])
        tail_rate = float(self.bands[-1][2])
        return DiscountCurve(g, values, ExponentialTail(tail_rate))


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

_CSV_HEADER = ["maturity_years", "discount_factor"]


def load_curve_csv(
    path, tail: ExponentialTail | ParetoTail | None = None
) -> DiscountCurve:
    """Read a curve from CSV with header ``maturity_years,discount_factor``.

    A missing (0, 1.0) first row is prepended.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty curve file") from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise DomainError(
                f"{path}: expected header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise DomainError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: non-numeric row {row!r}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    if rows[0][0] != 0.0:
        rows.insert(0, (0.0, 1.0))
    grid = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    return DiscountCurve(grid, values, tail)


def save_curve_csv(curve: DiscountCurve, path) -> None:
    """Write the curve grid as CSV (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        fh.write("0,1.0\n")
        for t, p in zip(curve.grid[1:], curve.values[1:]):
            fh.write("%.9g,%.9g\n" % (t, p))
