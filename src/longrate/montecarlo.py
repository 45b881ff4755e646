"""Path simulation, kernel diagnostics, and claim valuation.

Simulation is exact in distribution: GBM log-increments over each grid
step are Gaussian with variance int sigma^2 and mean minus half that, so
no discretisation bias enters at any step size.  One lognormal step,
``_factor_normals``, forms these log-increments (correlated across
factors) for path simulation and for claim valuation's terminal draws,
which take a single step from the state time to the flow.  Paths are
generated in fixed-size chunks, each chunk seeded from (seed, chunk
index); results therefore depend only on the request, never on how many
workers ran it.
Paths are stored time-major, in one (k, len(grid), n_paths) array, so a
statistic at a fixed time reads one contiguous row; the path-major
``factors``, ``m``, ``n`` and ``kernel_paths`` are transposed views.
The LONGRATE_THREADS environment variable, the only worker setting,
gives the worker count (default: the CPUs the process may use).  Every
per-block loop (path chunks, ``_combined_rows`` and terminal draws) runs
through ``_in_blocks``, and so do the audits' reductions: each per-time
mean and standard error is taken over one whole row (``_row_moments``),
and minima and maxima over paths are kept per block of paths, then
combined with np.minimum or np.maximum, which are exact in any order and
propagate nan.  Blocks depend only on the path count and every sum is
one pairwise sum over the same row, so the count never changes a
result.  What stays serial is the one minimum scan of pi, taken when pi
is built and cached with it, and the certificate's decade sums.
``_in_blocks`` runs the first share of blocks on the calling thread and
the others on helper threads kept for the life of the process: their
pool is made on first use, grows to the largest count asked and never
shrinks, is dropped in a child made by fork, and a call made from a
helper runs serially on it, so nested calls cannot deadlock.

All sample means use numpy's pairwise summation; agreement checks are
quoted against 4 standard errors.

CSV output (``write_ensemble_csv`` and the sample files of the CLI) goes
through one numpy kernel in ``csvformat``, whose bytes equal Python's
``'%.9g' % v`` for every double: it rounds each value to 9 digits with a
correctly rounded power of ten, hands the near-ties it cannot decide to
Python, and builds the text from 4-digit lookup tables.  It is imported
on the first write, so processes that write no CSV never load it.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .aggregation import _check_seed, _chunk_rng
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
from .reporting import FAIL, PASS, AuditReport, CheckResult

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
    "worker_count",
]

_CHUNK_PATHS = 4096
_HORIZON_PROBE = 1e6
_VANISH_TOL = 1e-3


def worker_count() -> int:
    """Monte Carlo workers: LONGRATE_THREADS (at least 1), else the usable CPUs.

    The usable CPUs are those the process may run on (``os.cpu_count()``
    where the platform cannot tell).  The count never changes a result.
    """
    text = os.environ.get("LONGRATE_THREADS", "").strip()
    if not text:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(text))
    except ValueError:
        raise DomainError(f"LONGRATE_THREADS must be an integer, got {text!r}") from None


# One pool of helper threads serves every _in_blocks call in the process.
# It is made on the first call that needs a helper, replaced (under the
# lock) only by a larger one, and dropped in a forked child, which has no
# threads but the one that forked.
_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_helpers = 0
_on_helper = threading.local()


def _mark_helper() -> None:
    _on_helper.flag = True


def _drop_pool() -> None:
    global _pool_lock, _pool, _pool_helpers
    _pool_lock, _pool, _pool_helpers = threading.Lock(), None, 0


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_drop_pool)


def _submit(run: Callable, shares: list) -> list:
    """Submit ``run(share)`` for each share to the helper pool, grown to one helper per share."""
    global _pool, _pool_helpers
    with _pool_lock:
        if _pool_helpers < len(shares):
            if _pool is not None:
                _pool.shutdown(wait=False)  # its queued shares still run
            _pool = ThreadPoolExecutor(len(shares), "longrate-helper", _mark_helper)
            _pool_helpers = len(shares)
        return [_pool.submit(run, share) for share in shares]


def _in_blocks(total: int, size: int, task: Callable, scratch: Callable = lambda: None) -> None:
    """Call ``task(start, stop, buffers)`` on each ``size``-long block of range(total).

    Up to worker_count() workers run, never more than there are blocks.
    Worker w runs blocks w, w + W, w + 2W, ... as one share, passing every
    block the one buffer set ``scratch()`` made for it.  The calling
    thread runs share 0; shares 1 to W - 1 go to the process's persistent
    helper threads, whose pool grows to the largest count asked and never
    shrinks.  A call made from inside a helper runs all its blocks there,
    serially, so nested calls cannot deadlock.  Every share finishes
    before the first error (in share order) is re-raised.  Blocks must
    write disjoint outputs, so no result depends on the schedule.
    """
    starts = range(0, total, size)
    workers = min(worker_count(), len(starts))

    def run(share):
        buffers = scratch()
        for start in share:
            task(start, min(start + size, total), buffers)

    if workers <= 1 or getattr(_on_helper, "flag", False):
        run(starts)
        return
    helpers = _submit(run, [starts[w::workers] for w in range(1, workers)])
    try:
        run(starts[::workers])
    finally:
        wait(helpers)
    for done in helpers:
        done.result()


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or g[0] != 0.0 or np.any(np.diff(g) <= 0):
        raise DomainError("grid must be increasing from 0 with at least two points")
    return g


def _check_correlation(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated martingale paths on a fixed time grid.

    ``factors`` has shape (k, n_paths, len(grid)), one slab per factor in
    factor order, with the first column identically 1.  ``m`` and ``n``
    are views of the first two slabs (``n`` is None for k = 1); ``rows``
    is the time-major view (k, len(grid), n_paths), contiguous for a
    simulated ensemble (any layout is accepted, with strided rows).
    Arrays are frozen after construction; the generating seed and
    correlation are recorded so the ensemble is reproducible from its
    metadata.

    ``kernel_paths`` caches pi with the ensemble, read-only, for the model
    last passed to it: each model audited costs one more path array for
    as long as it stays the cached one.  The certificate caches the
    moments of its benchmark theta the same way (two small arrays).
    """

    grid: np.ndarray
    factors: np.ndarray
    seed: int
    rho: float = 0.0
    _kernel: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _theta: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = _check_grid(self.grid)
        shape = self.factors.shape
        if len(shape) != 3 or shape[0] < 1 or shape[1] < 1 or shape[2] != grid.size:
            raise DomainError("path array shape must be (k, n_paths, len(grid))")
        if not self.factors.min() > 0.0:  # also false for nan
            raise DomainError("martingale paths must stay strictly positive")
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
    rows = np.empty((len(drivers), g.size, n_paths))

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
    # The grid, shape and correlation are checked above, so the ensemble's one
    # contiguous positivity scan is the only check left that can fail.
    try:
        return PathEnsemble(g, rows.transpose(0, 2, 1), seed, float(rho))
    except DomainError:
        raise DomainError(
            "paths underflowed to zero; the horizon is too long for this "
            "volatility (shorten the grid or lower sigma)"
        ) from None


def _declared_drivers(model: Model) -> tuple[GBMDriver, ...]:
    drivers = model.drivers
    if drivers is None or any(d is None for d in drivers):
        raise DomainError("model declares no driver; cannot simulate")
    return drivers


def ensemble_for_model(
    model: Model, grid, n_paths: int, seed: int, rho: float = 0.0
) -> PathEnsemble:
    """Simulate an ensemble using the model's own declared drivers.

    ``rho`` applies to two-factor models only; one-factor ensembles record 0.
    """
    drivers = _declared_drivers(model)
    rho = rho if len(drivers) > 1 else 0.0
    return simulate_paths(drivers, grid, n_paths, seed, rho)


def _combined_rows(coefs, rows: np.ndarray, pi: np.ndarray | None = None) -> np.ndarray:
    """``_combine(coefs, rows)`` over time-major factor rows (k, times, paths).

    Each coefficient is a scalar or a column over the times; the (times,
    paths) result is accumulated in place, a block of paths at a time on
    the workers, with one scratch block per worker for each product
    after the first.  Given ``pi``, rows like the result's, each value v
    is stored as pi * (v / pi), formed within its block.  Blocks are
    4096 paths wide: numpy's per-row cost on these strided blocks made
    2048-path blocks slower, though smaller.
    """
    out = np.empty(rows.shape[1:])

    def combine(start: int, stop: int, term: np.ndarray) -> None:
        # _combine's operations in its order, accumulated in the output block
        block, xs, term = out[:, start:stop], rows[:, :, start:stop], term[:, : stop - start]
        np.add(coefs[0], np.multiply(coefs[1], xs[0], out=block), out=block)
        for c, x in zip(coefs[2:], xs[1:]):
            np.add(block, np.multiply(c, x, out=term), out=block)
        if pi is not None:
            pi_block = pi[:, start:stop]
            np.multiply(pi_block, np.divide(block, pi_block, out=block), out=block)

    _in_blocks(out.shape[1], _CHUNK_PATHS, combine, lambda: np.empty((out.shape[0], _CHUNK_PATHS)))
    return out


def _kernel_cache(model: Model, ensemble: PathEnsemble) -> tuple[np.ndarray, float]:
    """pi (path-major, as ``kernel_paths`` returns it) and its minimum, cached."""
    cached = ensemble._kernel
    if cached is not None and cached[0] is model:
        return cached[1:]
    _factor_values(model, ensemble)
    coefs = [np.asarray(c(ensemble.grid), dtype=float)[:, None] for c in model.coefficients]
    rows = _combined_rows(coefs, ensemble.rows)
    min_pi = float(rows.min())
    if not min_pi > 0.0:
        raise LongrateError("kernel positivity violated along simulated paths")
    rows.setflags(write=False)
    object.__setattr__(ensemble, "_kernel", (model, rows.T, min_pi))
    return ensemble._kernel[1:]


def kernel_paths(model: Model, ensemble: PathEnsemble) -> np.ndarray:
    """pi along every path: a(t) + b(t) M_t (+ c(t) N_t), shape like m.

    The array is read-only and cached with the ensemble for the model
    last passed (matched by identity), together with its minimum, which
    the positivity check takes when pi is built; every audit of that
    model on the ensemble reads one array, and the cache costs one path
    array.  It is the transpose of ``_combined_rows``' time-major rows,
    which the audits read as ``kernel_paths(model, ensemble).T``.
    """
    return _kernel_cache(model, ensemble)[0]


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


def _row_moments(count: int, n: int, row: Callable) -> np.ndarray:
    """Mean and SE (columns 0 and 1) of the sample ``row(i, buf)`` for each i < count.

    Each sample has n values; ``row`` returns a stored row or forms one in
    ``buf``, its worker's scratch row.  Every row is one block, so each
    statistic is the one ``_mean_se`` takes of that row alone.
    """
    if n < 2:
        raise DomainError(f"standard errors need at least 2 paths, got {n}")
    out = np.empty((count, 2))

    def moments(i: int, _stop: int, buffers: np.ndarray) -> None:
        out[i] = _mean_se(row(i, buffers[0]), buffers[1])

    _in_blocks(count, 1, moments, lambda: np.empty((2, n)))
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

    Checks: strict positivity of every simulated pi_t; finiteness of the
    cross-section means; agreement of those means with the analytic
    E[pi_t] = a + b (+ c) within 4 standard errors; and decay of the
    analytic expectation to at most 1e-3 at t = 1e6 (the vanishing
    lim inf condition).
    """
    pi, min_pi = _kernel_cache(model, ensemble)
    pi = pi.T
    checks = []
    checks.append(
        CheckResult(
            "kernel positivity",
            PASS if min_pi > 0.0 else FAIL,
            f"min pi = {min_pi:.9g} over {ensemble.n_paths} paths",
        )
    )
    stats = _row_moments(ensemble.grid.size, ensemble.n_paths, lambda j, _: pi[j])
    finite = bool(np.all(np.isfinite(stats[:, 0])))
    checks.append(
        CheckResult(
            "finite kernel expectation",
            PASS if finite else FAIL,
            "cross-section means finite at all grid times",
        )
    )
    worst_z = 0.0
    for t, (mean, se) in zip(ensemble.grid, stats.tolist()):
        target_t = expected_kernel(model, float(t))
        worst_z = max(worst_z, _z_score(abs(mean - target_t), se, target_t))
    checks.append(
        CheckResult(
            "mean kernel matches coefficients",
            PASS if worst_z <= 4.0 else FAIL,
            f"max |mean - ({'+'.join('abc'[: model.factors + 1])})| = {worst_z:.3g} SE",
        )
    )
    decay = expected_kernel(model, _HORIZON_PROBE)
    checks.append(
        CheckResult(
            "expectation vanishes at long horizons",
            PASS if decay <= _VANISH_TOL else FAIL,
            f"E[pi] = {decay:.9g} at t = {_HORIZON_PROBE:g}",
        )
    )
    return AuditReport(
        "kernel admissibility audit",
        tuple(checks),
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
    mean with the analytic constant within 4 standard errors.
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
    # pi_t P(t, T): the pathwise price (a(T) + b(T) M_t (+ c(T) N_t)) / pi_t,
    # times pi_t, from the first audit time to the last
    span = slice(min(cols), max(cols) + 1)
    bonds = _combined_rows(_values_at(model.coefficients, maturity), ensemble.rows[:, span],
                           pi=kernel_paths(model, ensemble).T[span])
    stats = _row_moments(len(cols), ensemble.n_paths, lambda i, _: bonds[cols[i] - span.start])
    checks = []
    rows = []
    for t, (mean, se) in zip(times, stats.tolist()):
        z = _z_score(abs(mean - target), se, target)
        rows.append({"t": float(t), "mean": mean, "se": se, "z": z})
        checks.append(
            CheckResult(
                f"deflated bond mean at t={t:g}",
                PASS if z <= 4.0 else FAIL,
                f"mean = {mean:.9g}, target = {target:.9g}, {z:.3g} SE",
            )
        )
    return AuditReport(
        "deflated bond martingale check",
        tuple(checks),
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
        return {
            "value": self.value,
            "flows": [
                {
                    "time": f.time,
                    "value": f.value,
                    "standard_error": f.standard_error,
                    "method": f.method,
                }
                for f in self.flows
            ],
        }


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
    outs = np.empty((len(drivers), n_paths))

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
    needs_sim = simulate_constants or any(f.payoff is not None for f in schedule.flows)
    if needs_sim:
        if seed is None:
            raise DomainError("simulation-based valuation needs an explicit seed")
        if n_paths < 2:
            raise DomainError(f"n_paths must be at least 2, got {n_paths!r}")
        seed = _check_seed(seed)
        if model.factors > 1:
            _check_correlation(rho)
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
    from .csvformat import write_path_rows  # loaded only by processes that write CSV

    factors = ensemble.factors
    names = ["M", "N", *(f"X{i}" for i in range(3, len(factors) + 1))][: len(factors)]
    with open(path, "wb") as fh:
        fh.write((",".join(["path", "t", *names]) + "\n").encode())
        write_path_rows(fh, ensemble.grid, factors)
