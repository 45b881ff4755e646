"""Path simulation, kernel diagnostics, and claim valuation.

Simulation is exact in distribution: GBM log-increments over each grid
step are Gaussian with variance int sigma^2 and mean minus half that, so
no discretisation bias enters at any step size.  Paths are generated in
fixed-size chunks, each chunk seeded from (seed, chunk index); results
therefore depend only on the request, never on how many workers ran it.
The LONGRATE_THREADS environment variable caps the worker count.

All sample means use numpy's pairwise summation; agreement checks are
quoted against 4 standard errors.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drivers import GBMDriver
from .errors import DomainError, LongrateError
from .kernel_models import (
    Model,
    ModelState,
    OneFactorModel,
    TwoFactorModel,
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
_WRITE_ROWS = 1 << 12  # CSV rows formatted per block by write_ensemble_csv


def worker_count(requested: int | None = None) -> int:
    """Effective worker count: the request (default 1) capped by LONGRATE_THREADS."""
    cap_text = os.environ.get("LONGRATE_THREADS", "").strip()
    cap = None
    if cap_text:
        try:
            cap = max(1, int(cap_text))
        except ValueError:
            raise DomainError(
                f"LONGRATE_THREADS must be an integer, got {cap_text!r}"
            ) from None
    n = requested if requested is not None else (cap or 1)
    if n < 1:
        raise DomainError(f"worker count must be at least 1, got {requested!r}")
    return min(n, cap) if cap else n


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated martingale paths on a fixed time grid.

    ``m`` (and ``n`` for two-factor ensembles) has shape
    (n_paths, len(grid)) with the first column identically 1.  Arrays are
    frozen after construction; the generating seed and correlation are
    recorded so the ensemble is reproducible from its metadata.
    """

    grid: np.ndarray
    m: np.ndarray
    n: np.ndarray | None
    seed: int
    rho: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise DomainError("grid must be increasing from 0 with at least two points")
        if self.m.shape != (self.m.shape[0], grid.size) or self.m.shape[0] < 1:
            raise DomainError("path array shape must be (n_paths, len(grid))")
        if not np.all(self.m > 0.0):
            raise DomainError("martingale paths must stay strictly positive")
        if self.n is not None:
            if self.n.shape != self.m.shape:
                raise DomainError("second factor must match the first factor's shape")
            if not np.all(self.n > 0.0):
                raise DomainError("martingale paths must stay strictly positive")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.rho!r}")
        for arr in (grid, self.m) + (() if self.n is None else (self.n,)):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def n_paths(self) -> int:
        return int(self.m.shape[0])

    @property
    def two_factor(self) -> bool:
        return self.n is not None

    def time_index(self, t: float) -> int:
        hits = np.flatnonzero(np.isclose(self.grid, t, rtol=0.0, atol=1e-12))
        if hits.size != 1:
            raise DomainError(f"time {t!r} is not on the ensemble grid")
        return int(hits[0])


def _chunk_paths(
    variances: np.ndarray,
    variances2: np.ndarray | None,
    rho: float,
    seed: int,
    chunk: int,
    k: int,
):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(chunk,))
    )
    steps = variances.size
    z_m = rng.standard_normal((k, steps))
    log_m = np.cumsum(-0.5 * variances + np.sqrt(variances) * z_m, axis=1)
    out_m = np.exp(log_m)
    if variances2 is None:
        return out_m, None
    z_n = rng.standard_normal((k, steps))
    z_n = rho * z_m + math.sqrt(1.0 - rho * rho) * z_n
    log_n = np.cumsum(-0.5 * variances2 + np.sqrt(variances2) * z_n, axis=1)
    return out_m, np.exp(log_n)


def simulate_paths(
    drivers: GBMDriver | Sequence[GBMDriver],
    grid,
    n_paths: int,
    seed: int,
    rho: float = 0.0,
    max_workers: int | None = None,
) -> PathEnsemble:
    """Simulate martingale paths with exact lognormal stepping.

    ``drivers`` is one GBMDriver or a pair; a pair produces a
    two-factor ensemble with instantaneous correlation ``rho``
    (ignored for a single driver).  The per-chunk seeding makes output
    independent of ``max_workers`` and of LONGRATE_THREADS.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or g[0] != 0.0 or np.any(np.diff(g) <= 0):
        raise DomainError("grid must be increasing from 0 with at least two points")
    if n_paths < 1:
        raise DomainError(f"n_paths must be positive, got {n_paths!r}")
    if isinstance(drivers, GBMDriver):
        driver_m, driver_n = drivers, None
    else:
        pair = tuple(drivers)
        if len(pair) == 1:
            driver_m, driver_n = pair[0], None
        elif len(pair) == 2:
            driver_m, driver_n = pair
        else:
            raise DomainError(f"expected one or two drivers, got {len(pair)}")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")

    v_m = driver_m.step_variances(g)
    v_n = driver_n.step_variances(g) if driver_n is not None else None
    m = np.empty((n_paths, g.size))
    m[:, 0] = 1.0
    n = None
    if driver_n is not None:
        n = np.empty_like(m)
        n[:, 0] = 1.0

    chunks = range(0, n_paths, _CHUNK_PATHS)

    def fill(start: int) -> None:
        k = min(_CHUNK_PATHS, n_paths - start)
        cm, cn = _chunk_paths(v_m, v_n, rho, seed, start // _CHUNK_PATHS, k)
        m[start : start + k, 1:] = cm
        if cn is not None:
            n[start : start + k, 1:] = cn

    workers = worker_count(max_workers)
    if workers == 1:
        for start in chunks:
            fill(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, chunks))

    if not np.all(m > 0.0) or (n is not None and not np.all(n > 0.0)):
        raise DomainError(
            "paths underflowed to zero; the horizon is too long for this "
            "volatility (shorten the grid or lower sigma)"
        )
    return PathEnsemble(g, m, n, int(seed), float(rho))


def ensemble_for_model(
    model: Model, grid, n_paths: int, seed: int, rho: float = 0.0, max_workers=None
) -> PathEnsemble:
    """Simulate an ensemble using the model's own declared drivers."""
    if isinstance(model, OneFactorModel):
        if model.driver is None:
            raise DomainError("model declares no driver; cannot simulate")
        return simulate_paths(model.driver, grid, n_paths, seed, 0.0, max_workers)
    if model.drivers is None:
        raise DomainError("model declares no drivers; cannot simulate")
    return simulate_paths(model.drivers, grid, n_paths, seed, rho, max_workers)


def kernel_paths(model: Model, ensemble: PathEnsemble) -> np.ndarray:
    """pi along every path: a(t) + b(t) M_t (+ c(t) N_t), shape like m."""
    if isinstance(model, OneFactorModel) and ensemble.two_factor:
        raise DomainError("one-factor model cannot price a two-factor ensemble")
    if isinstance(model, TwoFactorModel) and not ensemble.two_factor:
        raise DomainError("two-factor model needs a two-factor ensemble")
    g = ensemble.grid
    pi = np.asarray(model.a(g), dtype=float) + np.asarray(model.b(g), dtype=float) * ensemble.m
    if isinstance(model, TwoFactorModel):
        pi = pi + np.asarray(model.c(g), dtype=float) * ensemble.n
    if not np.all(pi > 0.0):
        raise LongrateError("kernel positivity violated along simulated paths")
    return pi


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return mean, se


def _z_score(gap: float, se: float, scale: float) -> float:
    """Gap in standard errors, guarding degenerate columns.

    At t = 0 every path agrees bitwise, so both the gap and the sample
    standard error are pure float-summation rounding; dividing one by the
    other is meaningless.  Such columns must instead agree with the target
    almost exactly, which is a stricter requirement than any z band.
    """
    floor = 1e-9 * max(1.0, abs(scale))
    if se <= floor:
        return 0.0 if gap <= floor else math.inf
    return gap / se


def kernel_condition_audit(
    model: Model,
    ensemble: PathEnsemble,
    horizon_probe: float = 1e6,
    vanish_tol: float = 1e-3,
) -> AuditReport:
    """Audit the admissibility conditions of the kernel along an ensemble.

    Checks: strict positivity of every simulated pi_t; finiteness of the
    cross-section means; agreement of those means with the analytic
    E[pi_t] = a + b (+ c) within 4 standard errors; and decay of the
    analytic expectation at the long-horizon probe (the vanishing
    lim inf condition).
    """
    pi = kernel_paths(model, ensemble)
    checks = []
    min_pi = float(pi.min())
    checks.append(
        CheckResult(
            "kernel positivity",
            PASS if min_pi > 0.0 else FAIL,
            f"min pi = {min_pi:.9g} over {ensemble.n_paths} paths",
        )
    )
    means = np.mean(pi, axis=0)
    finite = bool(np.all(np.isfinite(means)))
    checks.append(
        CheckResult(
            "finite kernel expectation",
            PASS if finite else FAIL,
            "cross-section means finite at all grid times",
        )
    )
    worst_z = 0.0
    for j, t in enumerate(ensemble.grid):
        mean, se = _mean_se(pi[:, j])
        target_t = expected_kernel(model, float(t))
        worst_z = max(worst_z, _z_score(abs(mean - target_t), se, target_t))
    checks.append(
        CheckResult(
            "mean kernel matches coefficients",
            PASS if worst_z <= 4.0 else FAIL,
            f"max |mean - (a+b{'+c' if ensemble.two_factor else ''})| = {worst_z:.3g} SE",
        )
    )
    decay = expected_kernel(model, horizon_probe)
    checks.append(
        CheckResult(
            "expectation vanishes at long horizons",
            PASS if decay <= vanish_tol else FAIL,
            f"E[pi] = {decay:.9g} at t = {horizon_probe:g}",
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
    pi = kernel_paths(model, ensemble)
    target = expected_kernel(model, maturity)
    a_T = float(model.a(maturity))
    b_T = float(model.b(maturity))
    c_T = float(model.c(maturity)) if isinstance(model, TwoFactorModel) else 0.0
    checks = []
    rows = []
    for t in times:
        j = ensemble.time_index(float(t))
        if maturity < ensemble.grid[j]:
            raise DomainError(f"maturity {maturity!r} precedes audit time {t!r}")
        num = a_T + b_T * ensemble.m[:, j]
        if ensemble.two_factor:
            num = num + c_T * ensemble.n[:, j]
        deflated = pi[:, j] * (num / pi[:, j])
        mean, se = _mean_se(deflated)
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
    """Draw (M_T, N_T) given the state, chunk-seeded from (seed, state, flow)."""
    base_key = _state_spawn_key(state)
    if isinstance(model, OneFactorModel):
        drivers = (model.driver,)
    else:
        drivers = model.drivers
    if drivers is None or any(d is None for d in drivers):
        raise DomainError("model declares no driver; cannot simulate")
    v_m = drivers[0].variance(state.t, T)
    v_n = drivers[1].variance(state.t, T) if len(drivers) > 1 else None
    m_out = np.empty(n_paths)
    n_out = np.empty(n_paths) if v_n is not None else None
    for start in range(0, n_paths, _CHUNK_PATHS):
        k = min(_CHUNK_PATHS, n_paths - start)
        ss = np.random.SeedSequence(
            entropy=int(seed),
            spawn_key=base_key + (int(flow_index), start // _CHUNK_PATHS),
        )
        rng = np.random.default_rng(ss)
        z_m = rng.standard_normal(k)
        m_out[start : start + k] = state.m * np.exp(
            -0.5 * v_m + math.sqrt(v_m) * z_m
        )
        if n_out is not None:
            z_n = rng.standard_normal(k)
            z_n = rho * z_m + math.sqrt(1.0 - rho * rho) * z_n
            n_out[start : start + k] = state.n * np.exp(
                -0.5 * v_n + math.sqrt(v_n) * z_n
            )
    return m_out, n_out


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
        m_T, n_T = _terminal_factors(model, state, T, seed, idx, n_paths, rho)
        pi_T = float(model.a(T)) + float(model.b(T)) * m_T
        if isinstance(model, TwoFactorModel):
            pi_T = pi_T + float(model.c(T)) * n_T
        if flow.amount is not None:
            h = float(flow.amount)
            samples = pi_T * h
        else:
            h = flow.payoff(m_T) if n_T is None else flow.payoff(m_T, n_T)
            h = np.asarray(h, dtype=float)
            if h.shape != m_T.shape:
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


def write_ensemble_csv(ensemble: PathEnsemble, path, fmt: str = "%.9g") -> None:
    """Write paths as CSV columns path,t,M[,N] (UTF-8, LF).

    Rows are formatted a block of whole paths at a time, with one ``%``
    over a repeated row template, so the buffers stay a few MB.
    """
    factors = (ensemble.m, ensemble.n) if ensemble.two_factor else (ensemble.m,)
    columns = 2 + len(factors)
    row = ",".join(["%d"] + [fmt] * (columns - 1)) + "\n"
    steps = ensemble.grid.size
    paths_per_block = max(1, _WRITE_ROWS // steps)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,t,M,N\n" if ensemble.two_factor else "path,t,M\n")
        for start in range(0, ensemble.n_paths, paths_per_block):
            stop = min(start + paths_per_block, ensemble.n_paths)
            table = np.empty((stop - start, steps, columns))
            table[:, :, 0] = np.arange(start, stop)[:, None]
            table[:, :, 1] = ensemble.grid
            for c, values in enumerate(factors, 2):
                table[:, :, c] = values[start:stop]
            fh.write((row * ((stop - start) * steps)) % tuple(table.ravel().tolist()))
