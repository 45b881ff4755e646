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

No other module uses this one (only the CLI's ``aggregate`` command
runs it).  It takes its blocks and chunk seeds from ``workers`` and,
for ``asymptotic_exponential_rate`` alone (``aggregate --estimate``), the
long-rate probe schedule from ``termstructure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import termstructure
from .errors import DomainError, _finite, _number
from .workers import _check_seed, _chunk_rng, _in_blocks

__all__ = [
    "DiscreteMixture",
    "ExponentialMixture",
    "GammaMixture",
    "RateMixture",
    "aggregate_discount",
    "log_aggregate_discount",
    "asymptotic_exponential_rate",
    "AsymptoticRateEstimate",
    "sample_calamity_time",
    "CalamityTimeSample",
    "empirical_survival",
]

_CHUNK = 1 << 14  # draws per seeded chunk; fixed so results do not depend on workers
_BLOCK_ELEMS = 1 << 16  # horizon-by-rate entries per block of a discrete mixture
_EXP_ZERO = -746.0  # np.exp(x) is exactly +0.0 below ln(2^-1075) = -745.1332...
_GUIDE_BUCKETS = 1 << 12  # guide-table buckets of a discrete sample; a power of two
# Most atoms one guide bucket may span.  A step of the guided search costs
# about 1.2 ns a draw, numpy's binary search over 1000 atoms about 55 ns.
_GUIDE_SPAN = 16


def _numbers(values) -> np.ndarray:
    """``values`` as a new float array of the same shape, each entry a number as
    ``_number`` reads it; an array of numbers converts at once."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    entries = np.asarray(values, dtype=object)
    return np.array([_number(v) for v in entries.flat], dtype=float).reshape(entries.shape)


@dataclass(frozen=True)
class DiscreteMixture:
    """Finitely many agents: weights p_i (summing to 1) at rates r_i >= 0."""

    weights: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        try:
            w, r = _numbers(self.weights), _numbers(self.rates)
        except (TypeError, ValueError):
            raise DomainError("weights and rates must be numeric") from None
        if w.ndim != 1 or r.ndim != 1 or w.shape != r.shape or w.size == 0:
            raise DomainError("weights and rates must be 1-d arrays of equal length")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(r)):
            raise DomainError("weights and rates must be finite")
        if np.any(w <= 0.0):
            raise DomainError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}")
        if np.any(r < 0.0):
            raise DomainError("rates must be nonnegative")
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
        if _finite("shape", self.shape) <= 0.0:
            raise DomainError(f"shape must be positive, got {self.shape!r}")
        if _finite("mean rate", self.mean_rate) <= 0.0:
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


def _logsumexp_rows(
    a: np.ndarray, at_max: np.ndarray | None = None, terms: np.ndarray | None = None
) -> np.ndarray:
    """ln sum_j exp(a[i, j]) for each row i of a real 2-d array.

    Same arithmetic as ``scipy.special.logsumexp(a, axis=1)`` (scipy 1.17),
    the max-shifted form of Blanchard, Higham & Higham, "Accurately
    computing the log-sum-exp and softmax functions", IMA J. Numer. Anal.
    41(4), 2021: the ``count`` entries equal to the row maximum ``a_max``
    are taken out of the sum s of exp(a - a_max) over the rest, and
    ln sum = log1p(s / count) + ln(count) + a_max.  Rows where that is not
    finite (e.g. every entry -inf) fall back to ln(sum exp(a)).

    Two shortcuts leave every bit as it was.  A shifted term below
    ``_EXP_ZERO`` joins the maxima in the mask, whose lanes enter ``exp``
    as 0.0 and leave it as +0.0: that is exp(-inf) and exp of any such
    term, but numpy's SIMD ``exp`` takes a slow path for a whole vector
    when one lane underflows or is -inf (an AVX-512 host, numpy 2.4.6:
    13 ns an element where all underflow, 4.6 ns where a fifth are -inf,
    against 0.7-1.1 ns).  And ``count`` is the scalar 1.0 when no row has
    a tie at its maximum (a row holding a nan has none; its result is nan
    whatever the count).

    ``at_max`` (bool) and ``terms`` (float) are scratch arrays shaped like
    ``a``, new ones when None.
    """
    a_max = a.max(axis=1, keepdims=True)
    at_max = np.equal(a, a_max, out=at_max)
    if np.count_nonzero(at_max) == len(a) and not np.isnan(a_max).any():
        count = 1.0
    else:
        count = np.count_nonzero(at_max, axis=1, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.subtract(a, a_max, out=terms)
        at_max |= terms < _EXP_ZERO
        np.copyto(terms, 0.0, where=at_max)
        np.exp(terms, out=terms)
        np.copyto(terms, 0.0, where=at_max)
        s = terms.sum(axis=1, keepdims=True) / count
        out = (np.log1p(s) + np.log(count) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def log_aggregate_discount(mixture: RateMixture, t):
    """ln P(0, t); safe at horizons where the factor itself underflows.

    A discrete mixture's log-sum-exp over log p_i - r_i t runs in blocks
    of 2^16 // k horizons (at least one), so the temporaries stay
    O(block * k).  The blocks run on the workers of ``_in_blocks``, each
    worker reusing one set of three scratch arrays: one holds r_i t and
    then log p_i - r_i t (the IEEE operations of log_w - np.outer(t,
    rates)), the others the log-sum-exp's mask and terms.  Every row is
    computed on its own, so neither the blocks nor the worker count
    change a digit.  A term more than 746 below its row's maximum is
    summed as the exact +0.0 that ``exp`` gives it, without calling
    ``exp`` on it, which keeps numpy's SIMD ``exp`` off its slow
    underflow path (see ``_logsumexp_rows``).
    """
    tt = _check_time(t)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    if isinstance(mixture, DiscreteMixture):
        log_w = np.log(mixture.weights)
        rows = max(1, _BLOCK_ELEMS // log_w.size)
        shape = (min(rows, tt.size), log_w.size)
        out = np.empty(tt.size)

        def block(start: int, stop: int, scratch) -> None:
            buf, terms, at_max = (x[: stop - start] for x in scratch)
            np.multiply.outer(tt[start:stop], mixture.rates, out=buf)
            np.subtract(log_w, buf, out=buf)
            out[start:stop] = _logsumexp_rows(buf, at_max, terms)

        with np.errstate(over="ignore"):  # r_i t overflows to inf, an exact 0 term
            _in_blocks(tt.size, rows, block,
                       lambda: (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)))
    elif isinstance(mixture, GammaMixture):
        with np.errstate(over="ignore"):  # ln P overflows to -inf, P = 0
            out = -mixture.shape * np.log1p(mixture.mean_rate * tt / mixture.shape)
    else:
        raise DomainError(f"unknown mixture type {type(mixture).__name__}")
    return float(out[0]) if scalar else out


def aggregate_discount(mixture: RateMixture, t):
    """Aggregate discount factor P(0, t) = E[exp(-R t)] under the mixture."""
    out = np.exp(log_aggregate_discount(mixture, t))
    return float(out) if np.ndim(t) == 0 else out


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


def asymptotic_exponential_rate(mixture: RateMixture) -> AsymptoticRateEstimate:
    """Estimate the long-horizon exponential rate of the aggregate curve.

    The estimate at horizon t is -ln(P(0,t))/t over the long-rate horizons
    up to 1e6, evaluated in log space so that discrete mixtures remain
    computable at t = 1e6 where the factor itself underflows.
    """
    hs = termstructure.default_long_rate_horizons(1e6)
    est = -log_aggregate_discount(mixture, hs) / hs
    converged = abs(est[-1] - est[-2]) < termstructure._CONVERGENCE_TOL
    status = "CONVERGED" if converged else "UNCONVERGED"
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


def _atom_index(weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """u -> cdf.searchsorted(u, side="right") over uniforms u in [0, 1).

    ``cdf`` is the one ``Generator.choice(a, size, p=weights)`` builds
    (``p.cumsum()``, then divided by its last entry), so indexing ``a``
    with the result of the generator's ``random(size)`` is that draw.
    When no bucket [b, b + 1) / 2^12 of a Chen-Asau guide table ("On
    generating random variates from an empirical distribution", AIIE
    Trans. 6(2), 1974) spans more than _GUIDE_SPAN atoms, the search
    starts at its bucket's first candidate, guide[b] = (number of cdf
    entries <= b / 2^12), and steps at most _GUIDE_SPAN times; otherwise
    it is numpy's binary search.  u 2^12 and b / 2^12 are exact, so both
    give the same index.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    # u < 1 = cdf[-1], so no index passes the last atom
    guide = np.minimum(cdf.searchsorted(edges, side="right"), cdf.size - 1)
    span = int(np.diff(guide).max())
    if span > _GUIDE_SPAN:
        return lambda u: cdf.searchsorted(u, side="right")

    def index(u: np.ndarray) -> np.ndarray:
        idx = guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
        for _ in range(span):
            idx += cdf[idx] <= u
        return idx

    return index


def _rate_sampler(mixture: RateMixture) -> Callable[[np.random.Generator, int], np.ndarray]:
    """(rng, k) -> k rates drawn from the mixture, set up once per sample."""
    if isinstance(mixture, DiscreteMixture):
        index, rates = _atom_index(mixture.weights), mixture.rates
        return lambda rng, k: rates[index(rng.random(k))]
    if isinstance(mixture, GammaMixture):
        shape, scale = mixture.shape, mixture.mean_rate / mixture.shape
        return lambda rng, k: rng.gamma(shape=shape, scale=scale, size=k)
    raise DomainError(f"unknown mixture type {type(mixture).__name__}")


def sample_calamity_time(
    mixture: RateMixture, n: int, seed: int, cap: float = 1e4
) -> CalamityTimeSample:
    """Draw n calamity times tau = Z / R with Z ~ Exp(1) independent of R.

    Sampling is partitioned into fixed-size chunks of 2^14 draws with
    per-chunk derived seeds, so the result depends only on (mixture, n,
    seed, cap).  The chunks run on the workers of ``_in_blocks``, each
    writing its own slice of the times, so the worker count changes no
    draw.  Each chunk draws its k rates, then its k exponentials, straight
    into its slice (``rng.standard_exponential``, the draws of
    ``rng.exponential(1.0, k)``), and divides them there by the positive
    rates; a zero rate gives an infinite time.  A discrete mixture's rates
    are ``rng.choice(rates, size=k, p=weights)`` draw for draw: the call's
    cdf (``weights.cumsum()`` over its last entry) is built once per
    sample, and each ``rng.random(k)`` is looked up through a Chen-Asau
    guide table of 2^12 buckets instead of a binary search (see
    ``_atom_index``).  Censored times are clipped to ``cap`` in place.
    A size whose time array cannot be allocated raises a DomainError.
    """
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n!r}")
    if not (math.isfinite(cap) and cap > 0.0):
        raise DomainError(f"censoring cap must be positive and finite, got {cap!r}")
    seed = _check_seed(seed)
    draw_rates = _rate_sampler(mixture)
    try:
        times = np.empty(n)
    except MemoryError:
        raise DomainError(
            f"sample size {n} is too large: its {8 * n}-byte time array cannot be allocated"
        ) from None

    def chunk(start: int, stop: int, _) -> None:
        rng = _chunk_rng(seed, (), start // _CHUNK)
        rates = draw_rates(rng, stop - start)
        draws = rng.standard_exponential(out=times[start:stop])
        positive = rates > 0.0
        np.divide(draws, rates, out=draws, where=positive)
        draws[~positive] = np.inf

    _in_blocks(n, _CHUNK, chunk)
    censored = times > cap
    np.minimum(times, cap, out=times)
    return CalamityTimeSample(times, censored, float(cap), seed)


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
