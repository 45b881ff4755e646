"""Path simulation, kernel diagnostics, and claim valuation.

Simulation is exact in distribution: GBM log-increments over each grid
step are Gaussian with variance int sigma^2 and mean minus half that, so
no discretisation bias enters at any step size.  One lognormal step,
``_factor_normals``, forms these log-increments (correlated across
factors) for path simulation and for claim valuation's terminal draws,
which take a single step from the state time to the flow.  Paths are
generated in fixed-size chunks, each chunk seeded from (seed, chunk
index) by ``workers._chunk_rng``; results therefore depend only on the
request, never on how many workers ran it.
At long horizons a factor underflows to 0, its correct limit, so paths
need only be nonnegative: pi = a + b M (+ c N) carries the positivity rule.
Paths are stored time-major, in one (k, len(grid), n_paths) array, so a
statistic at a fixed time reads one contiguous row; the path-major
``factors``, ``m`` and ``n`` are transposed views.  No audit stores pi:
each forms the pi rows it reads (and the deflated bonds) from the factor
rows, in its workers' scratch rows or blocks, and checks their positivity.
Every per-block loop (path chunks, pi rows and terminal draws) runs on
the workers of ``workers._in_blocks``, and so do the audits' reductions:
each per-time mean and standard error is taken over one whole row
(``_row_moments``), and minima and maxima over paths are kept per row or
block of paths, then combined with np.minimum or np.maximum, which are
exact in any order and propagate nan (``_reduce_blocks``, which also forms
the path statistics of DIR's model branch and of the tail-Pareto
certificate for ``asymptotics``).  Blocks depend only on the path count
and every sum is one pairwise sum over the same row, so the worker count
never changes a result.  What stays serial is the certificate's decade sums.

All sample means use numpy's pairwise summation; agreement checks are
quoted against 4 standard errors (``_Z_BOUND``).

CSV output (``write_ensemble_csv`` and the sample files of the CLI) goes
through one numpy kernel in ``csvformat``, whose bytes equal Python's
``'%.9g' % v`` for every double: it rounds each value to 9 digits with a
correctly rounded power of ten, hands the near-ties it cannot decide to
Python, and builds the text from 4-digit lookup tables.  It executes
on the first write, so processes that write no CSV never run it.
"""

from __future__ import annotations

import errno
import hashlib
import math
import mmap
import struct
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import csvformat
from .drivers import GBMDriver
from .errors import DomainError, LongrateError
from .kernel_models import (
    Model,
    ModelState,
    _combine,
    _factor_values,
    _values_at,
    bond_price,
    expected_kernel,
    kernel_value,
)
from .reporting import AuditReport, _judged
from .workers import _check_seed, _chunk_rng, _in_blocks

__all__ = [
    "PathEnsemble",
    "simulate_paths",
    "ensemble_for_model",
    "kernel_paths",
    "kernel_condition_audit",
    "deflated_bond_martingale_check",
    "CashFlow",
    "CashFlowSchedule",
    "FlowValuation",
    "ValuationResult",
    "value_claim",
    "write_ensemble_csv",
]

_CHUNK_PATHS = 4096
_HORIZON_PROBE = 1e6
_VANISH_TOL = 1e-3
_Z_BOUND = 4.0


def _path_array(shape: tuple[int, ...]) -> np.ndarray:
    """An empty float array of a path-sized output, in its own private anonymous mapping.

    The mapping is advised for huge pages and unmapped when the array is
    freed, so a freed path array returns to the system at once instead of
    staying in the allocator's heap.  Where the platform has no private
    mappings or no huge-page advice, this is np.empty.  A shape that
    cannot be allocated raises a DomainError naming its size.
    """
    if not (hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MADV_HUGEPAGE")):
        return _heap_array(shape)
    try:
        buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    except (MemoryError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise _unallocatable(shape) from None
    buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(shape)


def _heap_array(shape: tuple[int, ...]) -> np.ndarray:
    """np.empty(shape), which reuses freed heap pages, or a DomainError naming its size."""
    try:
        return np.empty(shape)
    except MemoryError:
        raise _unallocatable(shape) from None


def _unallocatable(shape: tuple[int, ...]) -> DomainError:
    nbytes = 8 * math.prod(shape)
    return DomainError(f"a path array of shape {shape} ({nbytes} bytes) cannot be allocated")


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or g[0] != 0.0 or not np.all(np.diff(g) > 0.0):
        raise DomainError("grid must be increasing from 0 with at least two points")
    return g


def _check_correlation(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated martingale paths on a fixed time grid.

    ``factors`` has shape (k, n_paths, len(grid)), one slab per factor in
    factor order, with the first column identically 1 and no value
    negative or nan (0 is an underflowed path).  ``m`` and ``n`` are
    views of the first two slabs (``n`` is None for k = 1); ``rows`` is
    the time-major view (k, len(grid), n_paths), contiguous for a
    simulated ensemble (any layout is accepted, with strided rows).
    Arrays are frozen after construction; the generating seed and
    correlation are recorded so the ensemble is reproducible from its
    metadata.  Nothing derived from the paths is stored with them: the
    audits form pi from these rows as they read it.
    """

    grid: np.ndarray
    factors: np.ndarray
    seed: int
    rho: float = 0.0

    def __post_init__(self):
        grid = _check_grid(self.grid)
        shape = self.factors.shape
        if len(shape) != 3 or shape[0] < 1 or shape[1] < 1 or shape[2] != grid.size:
            raise DomainError("path array shape must be (k, n_paths, len(grid))")
        if not self.factors.min() >= 0.0:  # also false for nan
            raise DomainError("martingale paths must stay nonnegative")
        _check_correlation(self.rho)
        grid.setflags(write=False)
        self.factors.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def m(self) -> np.ndarray:
        return self.factors[0]

    @property
    def n(self) -> np.ndarray | None:
        return self.factors[1] if len(self.factors) > 1 else None

    @property
    def rows(self) -> np.ndarray:
        return self.factors.transpose(0, 2, 1)

    @property
    def factor_values(self) -> np.ndarray:
        """The factor paths; iterating gives M, N, ... in factor order."""
        return self.factors

    @property
    def n_paths(self) -> int:
        return int(self.factors.shape[1])

    def time_index(self, t: float) -> int:
        hits = np.flatnonzero(np.isclose(self.grid, t, rtol=0.0, atol=1e-12))
        if hits.size != 1:
            raise DomainError(f"time {t!r} is not on the ensemble grid")
        return int(hits[0])


def _factor_normals(rng, buffers, rho: float, steps):
    """Lognormal log-steps vol * z + drift for each factor, in factor order.

    ``steps`` holds one (vol, drift) pair per factor, scalars or arrays
    over the steps.  Standard normals are drawn in factor order into
    ``buffers[:-1]``; every later factor's are correlated with the
    first's as sqrt(1 - rho^2) * z_n + rho * z_m, with rho * z_m held in
    ``buffers[-1]`` and formed before z_m is scaled.  Each yielded array
    is the caller's to overwrite.
    """
    *zs, rho_z_m = buffers
    z_m = rng.standard_normal(out=zs[0])
    if len(zs) > 1:
        np.multiply(rho, z_m, out=rho_z_m)
    scale = math.sqrt(1.0 - rho * rho)
    for i, (z, (vol, drift)) in enumerate(zip(zs, steps)):
        if i:
            rng.standard_normal(out=z)
            z *= scale
            z += rho_z_m
        z *= vol
        z += drift
        yield z


def simulate_paths(
    drivers: GBMDriver | Sequence[GBMDriver],
    grid,
    n_paths: int,
    seed: int,
    rho: float = 0.0,
) -> PathEnsemble:
    """Simulate martingale paths with exact lognormal stepping.

    ``drivers`` is one GBMDriver or one per factor; every factor after
    the first has instantaneous correlation ``rho`` with the first
    (ignored for a single driver).  The per-chunk seeding makes output
    independent of LONGRATE_THREADS.
    """
    g = _check_grid(grid)
    if n_paths < 1:
        raise DomainError(f"n_paths must be positive, got {n_paths!r}")
    seed = _check_seed(seed)
    drivers = (drivers,) if isinstance(drivers, GBMDriver) else tuple(drivers)
    if not drivers:
        raise DomainError("simulation needs at least one driver")
    _check_correlation(rho)

    # per factor: the step volatilities and the mean log-steps -V/2
    steps = [(np.sqrt(v), -0.5 * v) for v in (d.step_variances(g) for d in drivers)]
    rows = _path_array((len(drivers), g.size, n_paths))

    def fill(start: int, stop: int, buffers: np.ndarray) -> None:
        rng = _chunk_rng(seed, (), start // _CHUNK_PATHS)
        normals = _factor_normals(rng, buffers[:, : stop - start], rho, steps)
        for x, z in zip(rows[:, :, start:stop], normals):
            x[0] = 1.0
            x[1:] = z.T
            # a running sum along each path, one time row at a time: the
            # additions of np.cumsum(z, axis=1) in its order, at about half the cost
            for j in range(2, g.size):
                np.add(x[j - 1], x[j], out=x[j])
            np.exp(x[1:], out=x[1:])

    # per worker: one chunk of normals per factor, and one for rho * z_m
    _in_blocks(n_paths, _CHUNK_PATHS, fill,
               lambda: np.empty((len(drivers) + 1, _CHUNK_PATHS, g.size - 1)))
    return PathEnsemble(g, rows.transpose(0, 2, 1), seed, float(rho))


def _declared_drivers(model: Model) -> tuple[GBMDriver, ...]:
    drivers = model.drivers
    if drivers is None or any(d is None for d in drivers):
        raise DomainError("model declares no driver; cannot simulate")
    return drivers


def ensemble_for_model(
    model: Model, grid, n_paths: int, seed: int, rho: float = 0.0
) -> PathEnsemble:
    """Simulate an ensemble using the model's own declared drivers.

    ``rho`` must lie in [-1, 1] and applies to two-factor models only;
    one-factor ensembles record 0.
    """
    drivers = _declared_drivers(model)
    _check_correlation(rho)
    rho = rho if len(drivers) > 1 else 0.0
    return simulate_paths(drivers, grid, n_paths, seed, rho)


def _grid_coefficients(model: Model, ensemble: PathEnsemble) -> np.ndarray:
    """The coefficients at every grid time (k + 1, len(grid)), one array evaluation
    each, as every pi row takes them: a scalar evaluation at a grid time can
    differ in the last bit (numpy's SIMD and scalar loops round apart)."""
    _factor_values(model, ensemble)
    return np.array([np.asarray(c(ensemble.grid), dtype=float) for c in model.coefficients])


def _combined(coefs, xs, out: np.ndarray, term: np.ndarray | None = None) -> np.ndarray:
    """``_combine(coefs, xs)``'s operations in its order, in ``out``, for factor values ``xs``
    (k, ...) and coefficients broadcast to them; products after the first go to ``term``."""
    np.add(coefs[0], np.multiply(coefs[1], xs[0], out=out), out=out)
    for c, x in zip(coefs[2:], xs[1:]):
        np.add(out, np.multiply(c, x, out=term), out=out)
    return out


def _kernel_min(coefs, xs, out: np.ndarray, term: np.ndarray | None = None, axis=None):
    """pi formed in ``out`` by ``_combined``, and its minimum over ``axis``: the positivity
    check of every pi value the package forms, a LongrateError where one is not > 0 (or nan)."""
    least = _combined(coefs, xs, out, term).min(axis)
    if not np.min(least) > 0.0:
        raise LongrateError("kernel positivity violated along simulated paths")
    return least


def kernel_paths(model: Model, ensemble: PathEnsemble) -> np.ndarray:
    """pi along every path: a(t) + b(t) M_t (+ c(t) N_t), shape like m.

    A fresh read-only path array on each call, formed a time row at a time
    on the workers (a LongrateError where a value is not > 0).  The audits
    form the rows they read instead, with the same bits.
    """
    coefs, rows = _grid_coefficients(model, ensemble), ensemble.rows
    pi = _path_array(rows.shape[1:])
    _in_blocks(len(pi), 1, lambda j, _, term: _kernel_min(coefs[:, j], rows[:, j], pi[j], term),
               lambda: np.empty(rows.shape[2]))
    pi.setflags(write=False)
    return pi.T


def _reduce_blocks(n_paths: int, width: int, block: Callable, reduce: np.ufunc) -> np.ndarray:
    """``reduce.reduce`` over the path blocks of the ``width`` values ``block(start, stop)``
    returns for each; ``reduce`` is np.maximum or np.minimum, exact in any order and nan-keeping."""
    per_block = np.empty(((n_paths + _CHUNK_PATHS - 1) // _CHUNK_PATHS, width))

    def task(start: int, stop: int, _) -> None:
        per_block[start // _CHUNK_PATHS] = block(start, stop)

    _in_blocks(n_paths, _CHUNK_PATHS, task)
    return reduce.reduce(per_block)


def _model_rate_extremes(
    model: Model, ensemble: PathEnsemble, idx: list[int], x: float
) -> tuple[float, float]:
    """The largest fall between consecutive times, and the largest value, of the
    per-path exponential-rate estimates at grid indices ``idx`` and horizon x
    (DIR's model branch), formed a block of paths at a time from pi at t and
    t + x (a LongrateError where a pi value is not > 0)."""
    _factor_values(model, ensemble)
    ts = [float(ensemble.grid[j]) for j in idx]
    # coefficient i at audit time k is [i, k, 0]: a column against time-major paths
    at_t = np.array([_values_at(model.coefficients, t) for t in ts]).T[:, :, None]
    at_tx = np.array([_values_at(model.coefficients, t + x) for t in ts]).T[:, :, None]

    def block(start: int, stop: int) -> tuple:
        factors = ensemble.rows[:, idx, start:stop]
        pi, pi_x, term = np.empty((3, len(idx), stop - start))
        _kernel_min(at_t, factors, pi, term)
        _kernel_min(at_tx, factors, pi_x, term)
        ests = -(np.log(pi_x) - np.log(pi)) / x
        return np.max(ests[:-1] - ests[1:], initial=-np.inf), np.max(ests)

    worst_drop, max_rate = _reduce_blocks(ensemble.n_paths, 2, block, np.maximum)
    return float(worst_drop), float(max_rate)


def _decade_extremes(
    model: Model, ensemble: PathEnsemble, weights: np.ndarray, bounds: list[int]
) -> tuple[list[float], list[float]]:
    """Minimum and mean of t^lam pi_t (``weights`` holds t^lam, which may overflow)
    over each decade [a, b) of the grid's time rows: the certificate's path statistics.

    A decade is formed in one contiguous buffer that mirrors time rows a
    to b, a block of paths at a time: pi from the factor rows, whose row
    minima each block keeps, then scaled in place.  The least scaled row
    minimum is the buffer's minimum (a rounded w * pi is monotone in pi for
    w >= 0), and the mean is one pairwise sum over the whole buffer.
    """
    coefs = _grid_coefficients(model, ensemble)[:, :, None]
    rows, n = ensemble.rows, ensemble.n_paths
    buf = np.empty((max(b - a for a, b in zip(bounds, bounds[1:])), n))
    minima, means = [], []
    for a, b in zip(bounds, bounds[1:]):
        decade = buf[: b - a]

        def fill(start: int, stop: int) -> np.ndarray:  # runs within this iteration
            part = decade[:, start:stop]
            least = _kernel_min(coefs[:, a:b], rows[:, a:b, start:stop], part, axis=1)
            np.multiply(weights[a:b, None], part, out=part)
            return least

        with np.errstate(over="ignore"):
            least = _reduce_blocks(n, b - a, fill, np.minimum)
            minima.append(float(np.min(weights[a:b] * least)))
        means.append(float(np.add.reduce(decade, axis=None) / decade.size))
    return minima, means


def _mean_se(values: np.ndarray, dev: np.ndarray | None = None) -> tuple[float, float]:
    """Mean and standard error of a 1-d sample, bitwise np.mean and np.std(ddof=1) / sqrt(n).

    The sample is summed once, as np.mean sums it; its squared deviations
    go to ``dev``, a contiguous scratch row of the sample's length (a new
    one when None), and are summed as np.std sums them.
    """
    n = values.size
    mean = np.add.reduce(values) / n
    if n < 2:
        return float(mean), 0.0
    dev = np.subtract(values, mean, out=dev)
    np.square(dev, out=dev)
    return float(mean), float(np.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n))


def _row_moments(count: int, n: int, row: Callable, scratch: int = 2) -> np.ndarray:
    """Mean and SE (columns 0 and 1) of the sample ``row(i, bufs)`` for each i < count.

    Each sample has n values; ``row`` returns a stored row or forms one in
    ``bufs``, its worker's ``scratch`` rows of n, the last of which it may
    use only as scratch: ``_mean_se`` takes it for the deviations.  Every row
    is one block, so each statistic is the one ``_mean_se`` takes of it alone.
    """
    if n < 2:
        raise DomainError(f"standard errors need at least 2 paths, got {n}")
    out = np.empty((count, 2))

    def moments(i: int, _stop: int, buffers: np.ndarray) -> None:
        out[i] = _mean_se(row(i, buffers), buffers[-1])

    _in_blocks(count, 1, moments, lambda: np.empty((scratch, n)))
    return out


def _z_score(gap: float, se: float, scale: float) -> float:
    """A gap (or a signed mean) in standard errors, guarding degenerate columns.

    At t = 0 every path agrees bitwise, so both the gap and the sample
    standard error are pure float-summation rounding; dividing one by the
    other is meaningless.  Such columns must instead agree with the target
    almost exactly, which is a stricter requirement than any z band.
    """
    floor = 1e-9 * max(1.0, abs(scale))
    if se <= floor:
        return 0.0 if gap <= floor else math.inf
    return gap / se


def kernel_condition_audit(model: Model, ensemble: PathEnsemble) -> AuditReport:
    """Audit the admissibility conditions of the kernel along an ensemble.

    Checks: strict positivity of every simulated pi_t (a violation raises
    LongrateError, so the check reports the least pi and passes);
    finiteness of the cross-section means; agreement of those means with
    the analytic E[pi_t] = a + b (+ c) within 4 standard errors; and decay
    of the analytic expectation to at most 1e-3 at t = 1e6 (the vanishing
    lim inf condition).
    """
    coefs = _grid_coefficients(model, ensemble)
    minima = np.empty(ensemble.grid.size)

    def pi_row(j: int, bufs: np.ndarray) -> np.ndarray:
        minima[j] = _kernel_min(coefs[:, j], ensemble.rows[:, j], *bufs)
        return bufs[0]

    stats = _row_moments(ensemble.grid.size, ensemble.n_paths, pi_row)
    min_pi = float(minima.min())
    worst_z = 0.0  # max(x, nan) is x, so a nan z never becomes the maximum
    for t, (mean, se) in zip(ensemble.grid, stats.tolist()):
        target_t = expected_kernel(model, float(t))
        worst_z = max(worst_z, _z_score(abs(mean - target_t), se, target_t))
    decay = expected_kernel(model, _HORIZON_PROBE)
    checks = (
        _judged("kernel positivity", min_pi > 0.0,
                f"min pi = {min_pi:.9g} over {ensemble.n_paths} paths"),
        _judged("finite kernel expectation", np.all(np.isfinite(stats[:, 0])),
                "cross-section means finite at all grid times"),
        _judged("mean kernel matches coefficients", worst_z <= _Z_BOUND,
                f"max |mean - ({'+'.join('abc'[: model.factors + 1])})| = {worst_z:.3g} SE"),
        _judged("expectation vanishes at long horizons", decay <= _VANISH_TOL,
                f"E[pi] = {decay:.9g} at t = {_HORIZON_PROBE:g}"),
    )
    return AuditReport(
        "kernel admissibility audit",
        checks,
        {"min_pi": min_pi, "max_mean_z": worst_z, "expectation_at_probe": decay},
    )


def deflated_bond_martingale_check(
    model: Model,
    ensemble: PathEnsemble,
    times: Sequence[float],
    maturity: float,
) -> AuditReport:
    """Check E[pi_t P(t,T)] is constant in t (equal to a(T) + b(T) (+ c(T))).

    The deflated bond price is an exact martingale in these models; the
    audit prices the bond path by path and compares the cross-section
    mean with the analytic constant within 4 standard errors.  A pi_t
    not > 0 at an audit time raises LongrateError.
    """
    if not math.isfinite(maturity):
        raise DomainError(f"maturity must be finite, got {maturity!r}")
    if len(times) == 0:
        raise DomainError("deflated bond check needs at least one audit time")
    cols = []
    for t in times:
        j = ensemble.time_index(float(t))
        if maturity < ensemble.grid[j]:
            raise DomainError(f"maturity {maturity!r} precedes audit time {t!r}")
        cols.append(j)
    target = expected_kernel(model, maturity)
    coefs = _grid_coefficients(model, ensemble)
    at_maturity = _values_at(model.coefficients, maturity)

    def deflated_bond(i: int, bufs: np.ndarray) -> np.ndarray:
        # pi_t P(t, T): the pathwise price (a(T) + b(T) M_t (+ c(T) N_t)) / pi_t, times pi_t
        bond, pi, term = bufs
        xs = ensemble.rows[:, cols[i]]
        _kernel_min(coefs[:, cols[i]], xs, pi, term)
        _combined(at_maturity, xs, bond, term)
        return np.multiply(pi, np.divide(bond, pi, out=bond), out=bond)

    stats = _row_moments(len(cols), ensemble.n_paths, deflated_bond, scratch=3)
    rows = [
        {"t": float(t), "mean": mean, "se": se, "z": _z_score(abs(mean - target), se, target)}
        for t, (mean, se) in zip(times, stats.tolist())
    ]
    checks = tuple(
        _judged(f"deflated bond mean at t={t:g}", row["z"] <= _Z_BOUND,
                f"mean = {row['mean']:.9g}, target = {target:.9g}, {row['z']:.3g} SE")
        for t, row in zip(times, rows)
    )
    return AuditReport(
        "deflated bond martingale check",
        checks,
        {"maturity": float(maturity), "target": target, "rows": rows},
    )


# ---------------------------------------------------------------------------
# Claim valuation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CashFlow:
    """One payment: either a constant ``amount`` or a ``payoff`` callable.

    A payoff is a function of the terminal factor value(s): f(M_T) for
    one-factor models, f(M_T, N_T) for two-factor models.  Exactly one
    of the two must be given.
    """

    time: float
    amount: float | None = None
    payoff: Callable | None = None

    def __post_init__(self):
        t = float(self.time)
        if not math.isfinite(t) or t < 0.0:
            raise DomainError(f"flow time must be finite and nonnegative, got {self.time!r}")
        if (self.amount is None) == (self.payoff is None):
            raise DomainError("flow needs exactly one of amount or payoff")
        if self.amount is not None and not math.isfinite(float(self.amount)):
            raise DomainError(f"flow amount must be finite, got {self.amount!r}")


@dataclass(frozen=True)
class CashFlowSchedule:
    flows: tuple[CashFlow, ...]

    def __post_init__(self):
        if not self.flows:
            raise DomainError("schedule needs at least one flow")
        object.__setattr__(self, "flows", tuple(self.flows))


@dataclass(frozen=True)
class FlowValuation:
    time: float
    value: float
    standard_error: float | None
    method: str  # closed_form | simulation | expired


@dataclass(frozen=True)
class ValuationResult:
    value: float
    flows: tuple[FlowValuation, ...]

    def as_dict(self) -> dict:
        return {"value": self.value, "flows": [asdict(f) for f in self.flows]}


def _state_spawn_key(state: ModelState) -> tuple[int, ...]:
    packed = struct.pack(
        "<ddd", state.t, state.m, state.n if state.n is not None else math.nan
    )
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return tuple(struct.unpack("<4I", digest))


def _terminal_factors(model, state, T, seed, flow_index, n_paths, rho):
    """Draw (M_T[, N_T]) given the state, chunk-seeded from (seed, state, flow)."""
    base_key = _state_spawn_key(state)
    drivers = _declared_drivers(model)
    # per factor: the volatility and the mean log-step -V/2 over (t, T]
    steps = [(math.sqrt(v), -0.5 * v) for v in (d.variance(state.t, T) for d in drivers)]
    # from the heap, which reuses freed pages: a fresh mapping faults in every page per flow
    outs = _heap_array((len(drivers), n_paths))

    def draw(start: int, stop: int, buffers: np.ndarray) -> None:
        rng = _chunk_rng(seed, (*base_key, int(flow_index)), start // _CHUNK_PATHS)
        normals = _factor_normals(rng, buffers[:, : stop - start], rho, steps)
        for x0, out, z in zip(state.factor_values, outs, normals):
            np.multiply(x0, np.exp(z, out=z), out=out[start:stop])

    _in_blocks(n_paths, _CHUNK_PATHS, draw, lambda: np.empty((len(drivers) + 1, _CHUNK_PATHS)))
    return outs


def value_claim(
    model: Model,
    state: ModelState,
    schedule: CashFlowSchedule,
    n_paths: int = 100_000,
    seed: int | None = None,
    rho: float = 0.0,
    simulate_constants: bool = False,
) -> ValuationResult:
    """Value a claim as S_t = sum over flows of E_t[pi_T H_T] / pi_t.

    Flows dated at or before the valuation time contribute zero.
    Constant amounts are valued in closed form (amount times bond price)
    unless ``simulate_constants`` is set; payoff flows are always
    simulated.  Simulations are conditional on the state: the terminal
    factor is drawn from its exact lognormal transition law, seeded
    deterministically from (seed, state, flow), so repeated valuations
    reproduce to the byte.
    """
    pi_t = kernel_value(model, state)
    _check_correlation(rho)
    needs_sim = simulate_constants or any(f.payoff is not None for f in schedule.flows)
    if needs_sim:
        if seed is None:
            raise DomainError("simulation-based valuation needs an explicit seed")
        if n_paths < 2:
            raise DomainError(f"n_paths must be at least 2, got {n_paths!r}")
        seed = _check_seed(seed)
    out = []
    total = 0.0
    for idx, flow in enumerate(schedule.flows):
        T = float(flow.time)
        if T <= state.t:
            out.append(FlowValuation(T, 0.0, None, "expired"))
            continue
        if flow.amount is not None and not simulate_constants:
            value = float(flow.amount) * bond_price(model, state, T)
            out.append(FlowValuation(T, value, None, "closed_form"))
            total += value
            continue
        terminal = _terminal_factors(model, state, T, seed, idx, n_paths, rho)
        pi_T = _combine(_values_at(model.coefficients, T), terminal)
        if flow.amount is not None:
            h = float(flow.amount)
            samples = pi_T * h
        else:
            h = np.asarray(flow.payoff(*terminal), dtype=float)
            if h.shape != pi_T.shape:
                raise DomainError("payoff must return one value per path")
            if not np.all(np.isfinite(h)):
                raise DomainError(
                    "payoff produced non-finite values; unbounded or invalid "
                    "payoff specifications are rejected"
                )
            samples = pi_T * h
        mean, se = _mean_se(samples)
        out.append(FlowValuation(T, mean / pi_t, se / pi_t, "simulation"))
        total += mean / pi_t
    return ValuationResult(total, tuple(out))


def write_ensemble_csv(ensemble: PathEnsemble, path) -> None:
    """Write paths as CSV columns path,t,M[,N] (UTF-8, LF); X3, X4, ... follow N.

    Every value after the path index reads as ``'%.9g' % v`` would print
    it, byte for byte (see ``csvformat``).  Rows are built a block of
    whole paths at a time, so the buffers stay near 1 MB.
    """
    factors = ensemble.factors
    names = ["M", "N", *(f"X{i}" for i in range(3, len(factors) + 1))][: len(factors)]
    with open(path, "wb") as fh:
        fh.write((",".join(["path", "t", *names]) + "\n").encode())
        csvformat.write_path_rows(fh, ensemble.grid, factors)
