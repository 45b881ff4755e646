"""Rate conventions and the scalar conversions between them.

A discount factor P over a tenor (t, T) can be quoted under several
compounding conventions:

* exponential (continuous):           P = exp(-x * R)
* simple Libor-style:                 P = 1 / (1 + x * L)
* tail-Pareto with index lam > 0:     P = (1 + x * v / lam) ** -lam
* zero-coupon compounded kappa/year:  P = (1 + z / kappa) ** -(kappa * x)

where x = T - t.  Libor is the tail-Pareto convention at lam = 1.  All
conversions funnel through the log discount factor, which keeps round
trips accurate to a few ulps even for small rates.

Negative rates are admissible as long as the discount factor stays
positive, i.e. v > -lam / x for the simple conventions and z > -kappa
for zero-coupon quotes.

This module is scalar algebra on ``math`` alone and imports no numpy,
so ``longrate convert`` starts without it.  ``termstructure`` imports
the public names back; its array form of the conversion is
``rates_from_log_discount``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _finite

__all__ = [
    "Tenor",
    "RateConvention",
    "discount_from_rate",
    "rate_from_discount",
    "rate_from_log_discount",
    "log_discount_from_rate",
    "convert_rate",
]

_EXP = "exponential"
_LIBOR = "libor"
_PARETO = "tail_pareto"
_ZC = "zero_coupon"


@dataclass(frozen=True)
class Tenor:
    """A time interval (t, T) in years with 0 <= t < T."""

    t: float
    T: float

    def __post_init__(self):
        t = _finite("t", self.t)
        T = _finite("T", self.T)
        if t < 0.0:
            raise DomainError(f"t must be nonnegative, got {t!r}")
        if not T > t:
            raise DomainError(f"T must exceed t, got t={t!r}, T={T!r}")

    @property
    def length(self) -> float:
        return float(self.T) - float(self.t)


@dataclass(frozen=True)
class RateConvention:
    """Quoting convention for a rate over a tenor.

    ``kind`` is one of "exponential", "libor", "tail_pareto",
    "zero_coupon".  ``index`` carries the tail-Pareto index lam or the
    zero-coupon compounding frequency kappa; it is None for the other
    two kinds.
    """

    kind: str
    index: float | None = None

    def __post_init__(self):
        if self.kind in (_EXP, _LIBOR):
            if self.index is not None:
                raise DomainError(f"{self.kind} convention takes no index")
        elif self.kind in (_PARETO, _ZC):
            if self.index is None:
                raise DomainError(f"{self.kind} convention requires an index")
            ix = _finite("index", self.index)
            if ix <= 0.0:
                raise DomainError(f"{self.kind} index must be positive, got {ix!r}")
        else:
            raise DomainError(f"unknown rate convention kind {self.kind!r}")

    @classmethod
    def exponential(cls) -> "RateConvention":
        return cls(_EXP)

    @classmethod
    def libor(cls) -> "RateConvention":
        return cls(_LIBOR)

    @classmethod
    def tail_pareto(cls, lam: float) -> "RateConvention":
        return cls(_PARETO, float(lam))

    @classmethod
    def zero_coupon(cls, kappa: float) -> "RateConvention":
        return cls(_ZC, float(kappa))

    @classmethod
    def parse(cls, text: str) -> "RateConvention":
        """Parse the CLI spelling: exp | libor | pareto:<lam> | zc:<kappa>."""
        s = text.strip().lower()
        if s == "exp":
            return cls.exponential()
        if s == "libor":
            return cls.libor()
        for prefix, maker in (("pareto:", cls.tail_pareto), ("zc:", cls.zero_coupon)):
            if s.startswith(prefix):
                try:
                    value = float(s[len(prefix):])
                except ValueError:
                    raise DomainError(f"cannot parse convention {text!r}") from None
                return maker(value)
        raise DomainError(
            f"cannot parse convention {text!r} (expected exp, libor, pareto:<lam> or zc:<kappa>)"
        )

    def label(self) -> str:
        if self.kind == _EXP:
            return "exp"
        if self.kind == _LIBOR:
            return "libor"
        if self.kind == _PARETO:
            return f"pareto:{self.index:g}"
        return f"zc:{self.index:g}"

    @property
    def pareto_index(self) -> float | None:
        """Tail-Pareto index of the convention (1 for Libor), else None."""
        if self.kind == _LIBOR:
            return 1.0
        if self.kind == _PARETO:
            return float(self.index)
        return None


def _check_rate_domain(x: float, conv: RateConvention, value: float) -> None:
    lam = conv.pareto_index
    if lam is not None:
        lower = -lam / x
        if value <= lower:
            raise DomainError(
                f"{conv.label()} rate over tenor length {x:g} must exceed {lower!r}, "
                f"got {value!r}"
            )
    elif conv.kind == _ZC:
        kappa = float(conv.index)
        if value <= -kappa:
            raise DomainError(
                f"{conv.label()} rate must exceed {-kappa!r}, got {value!r}"
            )


def log_discount_from_rate(tenor: Tenor, conv: RateConvention, value: float) -> float:
    """ln P for a rate quote; exact in exponent space."""
    x = tenor.length
    v = _finite("rate", value)
    _check_rate_domain(x, conv, v)
    if conv.kind == _EXP:
        return -x * v
    lam = conv.pareto_index
    if lam is not None:
        return -lam * math.log1p(x * v / lam)
    kappa = float(conv.index)
    return -kappa * x * math.log1p(v / kappa)


def discount_from_rate(tenor: Tenor, conv: RateConvention, value: float) -> float:
    """Discount factor implied by ``value`` under ``conv`` over ``tenor``.

    Admissible but extreme quotes (a deeply negative exponential rate over
    a long tenor) can exceed float range; the factor is then inf.
    """
    try:
        return math.exp(log_discount_from_rate(tenor, conv, value))
    except OverflowError:
        return math.inf


def rate_from_log_discount(tenor: Tenor, conv: RateConvention, log_df: float) -> float:
    """Rate under ``conv`` implied by ln P over ``tenor``.

    Working from the log keeps the small-rate regime well conditioned
    (expm1 avoids the 1/P - 1 cancellation).
    """
    x = tenor.length
    ld = _finite("log discount factor", log_df)
    if conv.kind == _EXP:
        return -ld / x
    lam = conv.pareto_index
    if lam is not None:
        try:
            return lam * math.expm1(-ld / lam) / x
        except OverflowError:
            return math.inf
    kappa = float(conv.index)
    try:
        return kappa * math.expm1(-ld / (kappa * x))
    except OverflowError:
        return math.inf


def rate_from_discount(tenor: Tenor, conv: RateConvention, df: float) -> float:
    """Rate under ``conv`` implied by discount factor ``df`` over ``tenor``.

    ``df`` must be positive; values above 1 quote negative rates.
    """
    d = _finite("discount factor", df)
    if d <= 0.0:
        raise DomainError(f"discount factor must be positive, got {df!r}")
    return rate_from_log_discount(tenor, conv, math.log(d))


def convert_rate(
    tenor: Tenor, from_conv: RateConvention, to_conv: RateConvention, value: float
) -> float:
    """Re-quote ``value`` from one convention to another over the same tenor.

    Equivalent to pricing the discount factor and re-quoting it, but the
    exchange happens in log space so that from -> to -> from round trips
    are identical to round-off.
    """
    ld = log_discount_from_rate(tenor, from_conv, value)
    return rate_from_log_discount(tenor, to_conv, ld)
