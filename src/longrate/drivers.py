"""Martingale drivers for the factor models.

The only driver family is geometric Brownian motion without drift,
started at 1, with a piecewise-constant deterministic volatility
schedule:

    M_t = exp( -(1/2) * V(0, t) + int_0^t sigma(s) dW_s ),
    V(s, t) = int_s^t sigma(u)^2 du.

Because sigma is deterministic, log-increments over any interval are
exactly Gaussian with mean -V/2 and variance V, so stepping is exact in
distribution for any grid.  E[M_t] = 1 and E[M_t^2] = exp(V(0, t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, _number

__all__ = ["GBMDriver"]


@dataclass(frozen=True)
class GBMDriver:
    """Driftless geometric Brownian martingale with piecewise-constant volatility.

    ``times`` are the schedule breakpoints (starting at 0, strictly
    increasing); ``sigmas[k]`` applies on [times[k], times[k+1]), the last
    value extending to infinity.  Volatility 0 is allowed (the driver is
    then frozen at 1 on that stretch).
    """

    times: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        try:
            times = tuple(_number(t) for t in self.times)
            sigmas = tuple(_number(s) for s in self.sigmas)
        except (TypeError, ValueError):
            raise DomainError(
                f"volatility schedule times and sigmas must be numbers, got {self.times!r} "
                f"and {self.sigmas!r}"
            ) from None
        if len(times) != len(sigmas) or not times:
            raise DomainError("schedule needs matching, nonempty times and sigmas")
        if times[0] != 0.0:
            raise DomainError(f"volatility schedule must start at 0, got {times[0]!r}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("schedule times must be strictly increasing")
        if any(not math.isfinite(s) or s < 0.0 for s in sigmas):
            raise DomainError("volatilities must be finite and nonnegative")
        if any(not math.isfinite(t) for t in times):
            raise DomainError("schedule times must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def constant(cls, sigma: float) -> "GBMDriver":
        return cls((0.0,), (sigma,))

    @classmethod
    def from_schedule(cls, pairs: Iterable[Sequence[float]]) -> "GBMDriver":
        """Build from [(start_time, sigma), ...] pairs."""
        try:
            pts = [(_number(t), _number(s)) for t, s in pairs]
        except (TypeError, ValueError):
            raise DomainError(
                f"volatility schedule must be [start_time, sigma] pairs, got {pairs!r}"
            ) from None
        if not pts:
            raise DomainError("empty volatility schedule")
        pts.sort(key=lambda p: p[0])
        return cls(tuple(t for t, _ in pts), tuple(s for _, s in pts))

    def schedule(self) -> list[list[float]]:
        return [[t, s] for t, s in zip(self.times, self.sigmas)]

    def variance(self, t0: float, t1: float) -> float:
        """V(t0, t1) = int_{t0}^{t1} sigma(u)^2 du; a DomainError where it overflows.

        Path simulation and valuation draws both step with these
        variances, so an overflowing one is rejected here, before it can
        turn a log-step into nan.
        """
        a, b = float(t0), float(t1)
        if not 0.0 <= a <= b:
            raise DomainError(f"need 0 <= t0 <= t1, got ({t0!r}, {t1!r})")
        total = 0.0
        times = self.times
        for k, sig in enumerate(self.sigmas):
            lo = times[k]
            hi = times[k + 1] if k + 1 < len(times) else math.inf
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0.0:
                total += sig * sig * overlap
        if not math.isfinite(total):
            raise DomainError(f"the volatility schedule's variance over ({a!r}, {b!r}) overflows")
        return total

    def step_variances(self, grid: np.ndarray) -> np.ndarray:
        """Variances of the log-increments along a time grid.

        The whole span's variance is checked first, so the running sums
        of the log-increments, whose drifts add up to -V/2 over it, stay
        finite too.
        """
        g = np.asarray(grid, dtype=float)
        self.variance(g[0], g[-1])
        return np.array([self.variance(a, b) for a, b in zip(g[:-1], g[1:])])
