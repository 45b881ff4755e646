"""Aggregation of heterogeneous constant-rate discounting.

If a population discounts at rates distributed as mu(dr) on [0, inf),
the aggregate discount factor is the Laplace transform

    P(0, t) = integral exp(-r t) mu(dr).

Three mixing laws are supported:

* a discrete mixture sum_i p_i exp(-r_i t),
* a gamma law with shape lam and mean rate L (inverse scale lam / L),
  giving P = (1 + L t / lam) ** -lam,
* an exponential law with mean rate L, which is the gamma law at shape 1
  and gives the hyperbolic curve P = 1 / (1 + L t).

The asymptotic exponential rate -ln(P)/t of a discrete mixture tends to
the smallest represented rate; for the continuous laws (support reaching
down to 0) it tends to 0.  The same Laplace transform is the survival
function of the calamity time tau = Z / R with Z standard exponential
drawn independently of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError

__all__ = [
    "DiscreteMixture",
    "ExponentialMixture",
    "GammaMixture",
    "RateMixture",
    "aggregate_discount",
    "log_aggregate_discount",
    "asymptotic_exponential_rate",
    "AsymptoticRateEstimate",
    "default_long_rate_horizons",
    "sample_calamity_time",
    "CalamityTimeSample",
    "empirical_survival",
]

_CHUNK = 1 << 14  # draws per seeded chunk; fixed so results do not depend on workers
_BLOCK_ELEMS = 1 << 16  # horizon-by-rate entries per block of a discrete mixture
_HORIZON_START = 10.0
_HORIZONS_PER_DECADE = 8
# Successive long-rate estimates closer than this count as converged.
_CONVERGENCE_TOL = 1e-6


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


@dataclass(frozen=True)
class DiscreteMixture:
    """Finitely many agents: weights p_i (summing to 1) at rates r_i >= 0."""

    weights: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        try:
            w = np.asarray(self.weights, dtype=float)
            r = np.asarray(self.rates, dtype=float)
        except (TypeError, ValueError):
            raise DomainError("weights and rates must be numeric") from None
        if w.ndim != 1 or r.ndim != 1 or w.shape != r.shape or w.size == 0:
            raise DomainError("weights and rates must be 1-d arrays of equal length")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(r)):
            raise DomainError("weights and rates must be finite")
        if np.any(w <= 0.0):
            raise DomainError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if np.any(r < 0.0):
            raise DomainError("rates must be nonnegative")
        w = w.copy()
        r = r.copy()
        w.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)


@dataclass(frozen=True)
class GammaMixture:
    """Gamma-distributed rates: shape lam, mean ``mean_rate`` (so inverse scale lam/L)."""

    shape: float
    mean_rate: float

    def __post_init__(self):
        lam = _number(self.shape, "shape")
        L = _number(self.mean_rate, "mean rate")
        if not math.isfinite(lam) or lam <= 0.0:
            raise DomainError(f"shape must be positive, got {self.shape!r}")
        if not math.isfinite(L) or L <= 0.0:
            raise DomainError(f"mean rate must be positive, got {self.mean_rate!r}")


def ExponentialMixture(mean_rate: float) -> GammaMixture:
    """Exponentially distributed rates with mean ``mean_rate``: the gamma law at shape 1.

    Draw for draw and bit for bit the same as the exponential law: numpy's
    gamma sampler at shape 1 is its exponential sampler, and
    -1 * log1p(L t / 1) is -log1p(L t).
    """
    return GammaMixture(1.0, mean_rate)


RateMixture = Union[DiscreteMixture, GammaMixture]


def _check_time(t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0) or not np.all(np.isfinite(tt)):
        raise DomainError("time must be finite and nonnegative")
    return tt


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """ln sum_j exp(a[i, j]) for each row i of a real 2-d array.

    Same arithmetic as ``scipy.special.logsumexp(a, axis=1)`` (scipy 1.17),
    the max-shifted form of Blanchard, Higham & Higham, "Accurately
    computing the log-sum-exp and softmax functions", IMA J. Numer. Anal.
    41(4), 2021: the ``count`` entries equal to the row maximum ``a_max``
    are taken out of the sum s of exp(a - a_max) over the rest, and
    ln sum = log1p(s / count) + ln(count) + a_max.  Rows where that is not
    finite (e.g. every entry -inf) fall back to ln(sum exp(a)).
    """
    a_max = a.max(axis=1, keepdims=True)
    at_max = a == a_max
    count = at_max.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(at_max, -np.inf, a)
        terms -= a_max
        np.exp(terms, out=terms)
        s = terms.sum(axis=1, keepdims=True) / count
        out = (np.log1p(s) + np.log(count) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def log_aggregate_discount(mixture: RateMixture, t):
    """ln P(0, t); safe at horizons where the factor itself underflows."""
    tt = _check_time(t)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    if isinstance(mixture, DiscreteMixture):
        # log-sum-exp over log p_i - r_i t, in blocks of horizons so that the
        # temporaries stay O(block * k); every row is computed on its own
        log_w = np.log(mixture.weights)
        rows = max(1, _BLOCK_ELEMS // log_w.size)
        out = np.empty(tt.size)
        for i in range(0, tt.size, rows):
            a = log_w[None, :] - np.outer(tt[i : i + rows], mixture.rates)
            out[i : i + rows] = _logsumexp_rows(a)
    elif isinstance(mixture, GammaMixture):
        out = -mixture.shape * np.log1p(mixture.mean_rate * tt / mixture.shape)
    else:
        raise DomainError(f"unknown mixture type {type(mixture).__name__}")
    return float(out[0]) if scalar else out


def aggregate_discount(mixture: RateMixture, t):
    """Aggregate discount factor P(0, t) = E[exp(-R t)] under the mixture."""
    out = np.exp(log_aggregate_discount(mixture, t))
    return float(out) if np.ndim(t) == 0 else out


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


@dataclass(frozen=True)
class AsymptoticRateEstimate:
    """Tail behaviour of -ln(P)/t along a horizon schedule.

    ``status`` is CONVERGED when the last two successive estimates agree
    within 1e-6 (absolute), else UNCONVERGED.  ``target`` is the
    known limit implied by the mixture (min rate for discrete mixtures,
    0 for the continuous laws).
    """

    value: float
    target: float
    status: str
    horizons: np.ndarray
    estimates: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status == "CONVERGED"


def asymptotic_exponential_rate(mixture: RateMixture) -> AsymptoticRateEstimate:
    """Estimate the long-horizon exponential rate of the aggregate curve.

    The estimate at horizon t is -ln(P(0,t))/t over the long-rate horizons
    up to 1e6, evaluated in log space so that discrete mixtures remain
    computable at t = 1e6 where the factor itself underflows.
    """
    hs = default_long_rate_horizons(1e6)
    est = -log_aggregate_discount(mixture, hs) / hs
    status = "CONVERGED" if abs(est[-1] - est[-2]) < _CONVERGENCE_TOL else "UNCONVERGED"
    if isinstance(mixture, DiscreteMixture):
        target = float(mixture.rates.min())
    else:
        target = 0.0
    return AsymptoticRateEstimate(float(est[-1]), target, status, hs, est)


@dataclass(frozen=True)
class CalamityTimeSample:
    """Sampled calamity times tau = Z / R, censored at ``cap``.

    ``times`` holds min(tau, cap); ``censored`` marks draws whose true
    time exceeded the cap (including infinite times from R == 0 atoms).
    """

    times: np.ndarray
    censored: np.ndarray
    cap: float
    seed: int

    def __post_init__(self):
        self.times.setflags(write=False)
        self.censored.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())


def _draw_rates(mixture: RateMixture, rng: np.random.Generator, k: int) -> np.ndarray:
    if isinstance(mixture, DiscreteMixture):
        return rng.choice(mixture.rates, size=k, p=mixture.weights)
    if isinstance(mixture, GammaMixture):
        return rng.gamma(shape=mixture.shape, scale=mixture.mean_rate / mixture.shape, size=k)
    raise DomainError(f"unknown mixture type {type(mixture).__name__}")


def _check_seed(seed: int) -> int:
    """A seed as SeedSequence entropy, which must be nonnegative."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed!r}")
    return int(seed)


def _chunk_rng(seed: int, key: tuple[int, ...], chunk: int) -> np.random.Generator:
    """The generator of one fixed-size chunk of draws, seeded by (seed, key, chunk)
    alone, so no result depends on how chunks are scheduled across workers."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(*key, chunk)))


def sample_calamity_time(
    mixture: RateMixture, n: int, seed: int, cap: float = 1e4
) -> CalamityTimeSample:
    """Draw n calamity times tau = Z / R with Z ~ Exp(1) independent of R.

    Sampling is partitioned into fixed-size chunks with per-chunk derived
    seeds, so the result depends only on (mixture, n, seed, cap) and not
    on how chunks are scheduled across workers.
    """
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n!r}")
    if not (math.isfinite(cap) and cap > 0.0):
        raise DomainError(f"censoring cap must be positive and finite, got {cap!r}")
    seed = _check_seed(seed)
    times = np.empty(n)
    for start in range(0, n, _CHUNK):
        k = min(_CHUNK, n - start)
        rng = _chunk_rng(seed, (), start // _CHUNK)
        rates = _draw_rates(mixture, rng, k)
        z = rng.exponential(scale=1.0, size=k)
        with np.errstate(divide="ignore", invalid="ignore"):
            times[start : start + k] = np.where(rates > 0.0, z / rates, np.inf)
    censored = times > cap
    out = times.copy()
    out[censored] = cap
    return CalamityTimeSample(out, censored, float(cap), seed)


def empirical_survival(sample: CalamityTimeSample, t: float) -> tuple[float, float]:
    """Fraction of sampled times exceeding t, with its binomial standard error.

    Only valid for t below the censoring cap (censored draws are known to
    exceed the cap, hence any earlier time).
    """
    if not 0.0 <= t < sample.cap:
        raise DomainError(f"survival probe must satisfy 0 <= t < cap, got {t!r}")
    hits = float(np.count_nonzero(sample.times > t))
    n = sample.n
    p = hits / n
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return p, se
