"""Rational pricing-kernel models with power-law tails.

Every model is one ``Model``: a rational kernel over k positive
martingales X = (M, N, ...) with X_0 = 1,

    pi_t = c_0(t) + c_1(t) X^1_t + ... + c_k(t) X^k_t,

held as its coefficient vector (c_0, ..., c_k) and, for simulation, one
driver per factor.  The catalogue and the config format have k = 1 or 2.
The coefficients are strictly positive C1 functions (a, b[, c]) decaying
like t^-lam with finite tail limits C_i = lim t^lam c_i(t), not all zero.
Each quantity of the paper is the same left-to-right combination of a
coefficient vector with the factor vector (1, X):

    pi_t       kernel_value     coefficients c_i(t)
    E[pi_t]    expected_kernel  c_i(t) at X = 1
    P(t, T)    bond_price       (c_i(T) . X_t) / (c_i(t) . X_t)
    r_t        short_rate       -(c_i'(t) . X_t) / (c_i(t) . X_t)
    L_t        long_rate        ((c_i(t) . X_t) / (cbar_i . X_t)) ** (1/lam)
    theta_t    theta_value      C_i . X_t

where cbar_i = C_i lam^-lam (for lam = 1, L is the long simple rate).
The ``_1f``/``_2f`` names are aliases of these functions.

Operations tied to one factor count:

* one-factor only: the state inversions ``state_from_*_1f``, the
  attainable-rate intervals and the bond quotes ``bond_from_*_1f``.
  Both rates are Moebius maps of the factor,
  x = (p + q M) / (a(t) + b(t) M), with (p, q) = (-a'(t), -b'(t)) for
  x = r and (abar, bbar) for x = L^-lam.  One inversion serves both:
  M = (p - x a(t)) / (x b(t) - q), and P(t, T) is linear in x.
* two-factor only (tail index fixed at 1): the linear pricing
  decomposition P(t, T) = F + G * r_t + H / L_t, whose coefficients
  solve a 3x3 linear system; see ``fgh_coefficients``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .drivers import GBMDriver
from .errors import (
    DegenerateModelError,
    DomainError,
    UnattainableRateError,
    UnsupportedOperationError,
    _finite,
    _read_json,
)
from .termstructure import DiscountCurve, ParetoTail

__all__ = [
    "CoefficientFunction",
    "ModelState",
    "Model",
    "FGHCoefficients",
    "kernel_value",
    "expected_kernel",
    "theta_value",
    "bond_price",
    "bond_log_df",
    "short_rate",
    "long_rate",
    "BondEvaluator",
    "bond_evaluator",
    "bond_price_1f",
    "short_rate_1f",
    "long_libor_1f",
    "long_pareto_1f",
    "state_from_short_rate_1f",
    "state_from_long_rate_1f",
    "bond_from_short_rate_1f",
    "bond_from_long_rate_1f",
    "attainable_short_rates",
    "attainable_long_rates",
    "bond_price_2f",
    "short_rate_2f",
    "long_libor_2f",
    "fgh_coefficients",
    "fit_initial_curve",
    "model_from_config",
    "model_to_config",
    "load_model_config",
    "save_model_config",
]

# Rank-deficiency threshold for state inversions, relative to the size of
# the terms entering the determinant.
_DEGENERACY_RTOL = 1e-14

_POSITIVITY_PROBES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
_TAIL_PROBE = 1e6
_TAIL_RTOL = 1e-3


@dataclass(frozen=True)
class CoefficientFunction:
    """A strictly positive C1 coefficient with declared power-law tail.

    ``fn`` evaluates the coefficient (must broadcast over numpy arrays);
    ``deriv`` evaluates its derivative, or is None for sampled-curve
    coefficients, in which case short-rate operations are unsupported.
    ``lam`` is the tail index and ``tail_limit`` the declared value of
    lim t^lam fn(t) (0 is allowed, e.g. for exponentially damped terms).
    """

    fn: Callable
    deriv: Callable | None
    lam: float
    tail_limit: float
    family: str = "user"
    params: dict | None = None

    def __post_init__(self):
        lam = _finite("tail index", self.lam)
        if lam <= 0.0:
            raise DomainError(f"tail index must be positive, got {lam!r}")
        tl = _finite("tail limit", self.tail_limit)
        if tl < 0.0:
            raise DomainError(f"tail limit must be nonnegative, got {tl!r}")

    def __call__(self, t):
        return self.fn(t)

    def derivative(self, t):
        if self.deriv is None:
            raise UnsupportedOperationError(
                "coefficient has no derivative evaluator (sampled-curve variant); "
                "short-rate operations are unavailable"
            )
        return self.deriv(t)

    def validate(self) -> None:
        """Check positivity on probe points and the declared tail limit.

        The tail check compares t^lam * fn(t) at t = 1e6 against
        ``tail_limit`` with relative tolerance 1e-3 (floored at the same
        absolute level); it rejects e.g. constant coefficients, whose
        lim inf does not vanish.
        """
        for p in _POSITIVITY_PROBES:
            v = float(self.fn(p))
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(
                    f"coefficient must be strictly positive, got {v!r} at t={p!r}"
                )
            if self.deriv is not None and not math.isfinite(float(self.deriv(p))):
                raise DomainError(f"coefficient derivative not finite at t={p!r}")
        try:
            scaled = _TAIL_PROBE**self.lam * float(self.fn(_TAIL_PROBE))
        except OverflowError:
            raise DomainError(
                f"tail index {self.lam!r} too large: t^lam overflows at "
                f"t={_TAIL_PROBE:g}, so the declared tail limit cannot be checked"
            ) from None
        tol = _TAIL_RTOL * max(1.0, abs(self.tail_limit))
        if not math.isfinite(scaled) or abs(scaled - self.tail_limit) > tol:
            raise DomainError(
                f"declared tail limit {self.tail_limit!r} not matched: "
                f"t^lam * f(t) = {scaled!r} at t={_TAIL_PROBE:g}"
            )

    # -- catalogue ---------------------------------------------------------

    @classmethod
    def rational(
        cls, scale: float, shift: float, lam: float, power: float | None = None
    ) -> "CoefficientFunction":
        """f(t) = scale / (shift + t)**power, power >= lam (default power = lam)."""
        scale = _finite("scale", scale)
        shift = _finite("shift", shift)
        lam = _finite("lam", lam)
        power = lam if power is None else _finite("power", power)
        if scale <= 0.0 or shift <= 0.0 or power <= 0.0:
            raise DomainError("rational coefficient needs positive scale, shift, power")
        if power < lam:
            raise DomainError(
                f"decay power {power!r} below tail index {lam!r}: tail limit diverges"
            )
        tail = scale if power == lam else 0.0

        def fn(t, _s=scale, _h=shift, _p=power):
            return _s * (_h + np.asarray(t, dtype=float)) ** -_p

        def deriv(t, _s=scale, _h=shift, _p=power):
            return -_p * _s * (_h + np.asarray(t, dtype=float)) ** -(_p + 1.0)

        return cls(fn, deriv, lam, tail, "rational",
                   {"scale": scale, "shift": shift, "power": power})

    @classmethod
    def exp_rational(
        cls, scale: float, shift: float, power: float, decay: float, lam: float
    ) -> "CoefficientFunction":
        """f(t) = scale * exp(-decay t) / (shift + t)**power with decay > 0.

        The tail limit under any power-law index is 0, so such terms can
        only appear alongside a genuinely rational coefficient.
        """
        scale = _finite("scale", scale)
        shift = _finite("shift", shift)
        power = _finite("power", power)
        decay = _finite("decay", decay)
        lam = _finite("lam", lam)
        if scale <= 0.0 or shift <= 0.0 or power < 0.0 or decay <= 0.0:
            raise DomainError(
                "exp_rational coefficient needs positive scale, shift, decay and "
                "nonnegative power"
            )

        def fn(t, _s=scale, _h=shift, _p=power, _d=decay):
            tt = np.asarray(t, dtype=float)
            return _s * np.exp(-_d * tt) * (_h + tt) ** -_p

        def deriv(t, _s=scale, _h=shift, _p=power, _d=decay):
            tt = np.asarray(t, dtype=float)
            return -_s * np.exp(-_d * tt) * (_h + tt) ** -(_p + 1.0) * (
                _d * (_h + tt) + _p
            )

        return cls(fn, deriv, lam, 0.0, "exp_rational",
                   {"scale": scale, "shift": shift, "power": power, "decay": decay})


@dataclass(frozen=True)
class ModelState:
    """Factor values at a point in time.  ``n`` is None for one-factor models."""

    t: float
    m: float
    n: float | None = None

    def __post_init__(self):
        t = _finite("t", self.t)
        if t < 0.0:
            raise DomainError(f"state time must be nonnegative, got {t!r}")
        m = _finite("m", self.m)
        if m <= 0.0:
            raise DomainError(f"martingale factor m must be positive, got {m!r}")
        if self.n is not None:
            n = _finite("n", self.n)
            if n <= 0.0:
                raise DomainError(f"martingale factor n must be positive, got {n!r}")

    @cached_property
    def factor_values(self) -> tuple:
        """(M,) or (M, N), in factor order."""
        return (self.m,) if self.n is None else (self.m, self.n)


def _validate_coefficients(coeffs: Sequence[CoefficientFunction]) -> None:
    """One shared tail index (1 for two factors), positivity, declared tails."""
    lams = {c.lam for c in coeffs}
    if len(lams) != 1:
        raise DomainError(f"coefficients must share one tail index, got {sorted(lams)}")
    lam = lams.pop()
    if len(coeffs) == 3 and lam != 1.0:
        raise DomainError(f"two-factor models require tail index 1, got {lam!r}")
    for coef in coeffs:
        coef.validate()
    if not any(coef.tail_limit > 0.0 for coef in coeffs):
        raise DomainError(
            f"tail limits must satisfy {' + '.join('ABC'[: len(coeffs)])} > 0"
        )


@dataclass(frozen=True)
class Model:
    """pi_t = c_0(t) + c_1(t) X^1_t + ... + c_k(t) X^k_t over k positive martingales.

    ``coefficients`` is (c_0, ..., c_k), sharing one tail index ``lam``;
    ``drivers`` is None or one GBMDriver per factor.  Two-factor models
    have tail index 1.
    """

    coefficients: tuple[CoefficientFunction, ...]
    drivers: tuple[GBMDriver, ...] | None = None

    def __post_init__(self):
        k = len(self.coefficients) - 1
        if k < 1:
            raise DomainError(f"a kernel model needs at least one factor, got {k}")
        _validate_coefficients(self.coefficients)
        if self.drivers is not None and len(self.drivers) != k:
            raise DomainError(
                f"{k}-factor model needs one driver per factor, got {len(self.drivers)}"
            )

    @property
    def lam(self) -> float:
        return self.coefficients[0].lam

    @property
    def factors(self) -> int:
        return len(self.coefficients) - 1

    # Names of the first coefficients and the first driver, for callers that
    # write the paper's a, b, c and M.
    @property
    def a(self) -> CoefficientFunction:
        return self.coefficients[0]

    @property
    def b(self) -> CoefficientFunction:
        return self.coefficients[1]

    @property
    def c(self) -> CoefficientFunction:
        return self.coefficients[2]

    @property
    def driver(self) -> GBMDriver | None:
        return None if self.drivers is None else self.drivers[0]


def _combine(coefs, xs):
    """c_0 + c_1 X^1 + ... + c_k X^k, accumulated left to right.

    Serves Python floats and path arrays alike; the fixed order keeps
    every result bitwise reproducible.
    """
    v = coefs[0]
    i = 1
    for x in xs:
        v = v + coefs[i] * x
        i += 1
    return v


def _values_at(coefs, t) -> list[float]:
    # On every scalar kernel evaluation: c.fn skips CoefficientFunction's
    # call frame, and a plain loop is cheaper here than a comprehension.
    values = []
    for c in coefs:
        values.append(float(c.fn(t)))
    return values


def _require_factors(model: Model, count: int, what: str) -> None:
    if model.factors != count:
        raise DomainError(
            f"{what} needs a {count}-factor model, got a {model.factors}-factor model"
        )


def _factor_values(model: Model, holder) -> tuple:
    """A state's factor values or an ensemble's factor paths, checked against the model."""
    xs = holder.factor_values
    if len(xs) != len(model.coefficients) - 1:
        raise DomainError(
            f"{model.factors}-factor model cannot use {len(xs)} factor value(s)"
        )
    return xs


def kernel_value(model: Model, state: ModelState) -> float:
    """pi at the given state."""
    coefs = model.coefficients
    xs = _factor_values(model, state)
    return _combine(_values_at(coefs, state.t), xs)


def expected_kernel(model: Model, t: float) -> float:
    """E[pi_t] = a(t) + b(t) (+ c(t)); the martingales have unit mean."""
    return _combine(_values_at(model.coefficients, t), (1.0,) * model.factors)


def theta_value(model: Model, state: ModelState) -> float:
    """theta_t = lim inf_T E_t[T^lam pi_T], the benchmark dual to the long rate.

    For these rational models theta_t = lam^lam * (abar + bbar M_t)
    = A + B M_t (plus C N_t in the two-factor case), a positive
    martingale, so the supermartingale property holds with equality.
    """
    coefs = model.coefficients
    xs = _factor_values(model, state)
    return _combine([c.tail_limit for c in coefs], xs)


# ---------------------------------------------------------------------------
# Bond prices and rates
# ---------------------------------------------------------------------------


def _check_maturity(t: float, T: float) -> None:
    if not math.isfinite(float(T)) or float(T) < float(t):
        raise DomainError(f"maturity must satisfy T >= t, got t={t!r}, T={T!r}")


def bond_price(model: Model, state: ModelState, T: float) -> float:
    """P(t, T) = (a(T) + b(T) M_t (+ c(T) N_t)) / pi_t."""
    coefs = model.coefficients
    xs = _factor_values(model, state)
    _check_maturity(state.t, T)
    num = _combine(_values_at(coefs, T), xs)
    return num / _combine(_values_at(coefs, state.t), xs)


def bond_log_df(model: Model, state: ModelState, T: float) -> float:
    """ln P(t, T).

    Numerator and denominator are positive in exact arithmetic, but at
    extreme maturities the numerator can underflow to 0 (coefficients
    decaying like T^-lam with a large lam); ln P is then undefined and a
    ``DomainError`` is raised.
    """
    coefs = model.coefficients
    xs = _factor_values(model, state)
    _check_maturity(state.t, T)
    num = _combine(_values_at(coefs, T), xs)
    if not num > 0.0:
        raise DomainError(
            f"bond price underflows to {num!r} at T={T!r}; ln P(t, T) is undefined"
        )
    return math.log(num) - math.log(_combine(_values_at(coefs, state.t), xs))


@dataclass(frozen=True)
class BondEvaluator:
    """A model anchored at a state, pricing ln P(t, T) for the long-rate estimators.

    The estimators cache on the evaluator the last ln P trace they priced
    from it, read-only and matched by the value of (t, horizons), so
    every estimate and audit of one schedule reads one evaluator call.
    The cache is left out of ==, hash and repr.
    """

    model: Model
    state: ModelState
    _trace: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def log_df(self, t: float, T) -> np.ndarray:
        """ln P(t, T) over an array of maturities; -inf where P underflows to 0.

        Each coefficient is evaluated once on the whole array; pi_t is the
        scalar kernel value at the anchor state.
        """
        t0 = self.state.t
        if float(t) != float(t0):
            raise DomainError(f"evaluator is anchored at t={t0!r}, got t={t!r}")
        T = np.asarray(T, dtype=float)
        if not np.all(np.isfinite(T) & (T >= t0)):
            raise DomainError(f"maturities must be finite and at least t={t0!r}")
        coefs = self.model.coefficients
        xs = _factor_values(self.model, self.state)
        num = _combine([c.fn(T) for c in coefs], xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(num) - math.log(_combine(_values_at(coefs, t0), xs))


def bond_evaluator(model: Model, state: ModelState) -> BondEvaluator:
    """Anchor a model at a state for use with the long-rate estimators."""
    _factor_values(model, state)
    return BondEvaluator(model, state)


def short_rate(model: Model, state: ModelState) -> float:
    """r_t = -(a'(t) + b'(t) M_t (+ c'(t) N_t)) / pi_t."""
    coefs = model.coefficients
    xs = _factor_values(model, state)
    slope = _combine([float(c.derivative(state.t)) for c in coefs], xs)
    return -slope / _combine(_values_at(coefs, state.t), xs)


def long_rate(model: Model, state: ModelState) -> float:
    """Long tail-Pareto rate of the model's own index lam.

    L = (pi_t / (abar + bbar M_t (+ cbar N_t))) ** (1/lam); for lam = 1
    this is the long simple rate.
    """
    coefs = model.coefficients
    xs = _factor_values(model, state)
    scale = model.lam ** -model.lam  # cbar_i = C_i lam^-lam
    bench = _combine([c.tail_limit * scale for c in coefs], xs)
    return (_combine(_values_at(coefs, state.t), xs) / bench) ** (1.0 / model.lam)


def long_libor_1f(model: Model, state: ModelState) -> float:
    """Long simple (Libor) rate; defined for tail index 1 models only.

    For lam != 1 the simple long rate is degenerate (0 or infinite); use
    ``long_pareto_1f`` at the model's own index instead.
    """
    if model.lam != 1.0:
        raise DomainError(
            f"long simple rate needs tail index 1, model has lam={model.lam!r}; "
            "use long_pareto_1f"
        )
    return long_rate(model, state)


bond_price_1f = bond_price_2f = bond_price
short_rate_1f = short_rate_2f = short_rate
long_pareto_1f = long_rate
long_libor_2f = long_libor_1f


# ---------------------------------------------------------------------------
# State inversions and bond quotes against rates
# ---------------------------------------------------------------------------


_SHORT, _LONG = "short rate", "long rate"
# The determinant (up to sign) as each NO_INVERSE message names it.
_DETERMINANT = {_SHORT: "a'b - ab'", _LONG: "a bbar - b abar"}


def _inversion(model: Model, t: float, rate: str):
    """(a(t), b(t), p, q, det, attainable interval) of a one-factor rate at t.

    x = (p + q M) / (a(t) + b(t) M) (see the module docstring).  When
    det = a(t) q - b(t) p vanishes against its terms, x does not depend
    on M (NO_INVERSE).  The interval is the rate's image of M in
    (0, inf): (p/a, q/b) for r and ((a/abar)^(1/lam), (b/bbar)^(1/lam))
    for L, each sorted; an L end whose tail limit is 0 is +inf, its limit.
    """
    _require_factors(model, 1, f"{rate.replace(' ', '-')} inversion")
    a_t = float(model.a(t))
    b_t = float(model.b(t))
    if rate == _SHORT:
        p, q = -float(model.a.derivative(t)), -float(model.b.derivative(t))
    else:
        p, q = (c.tail_limit * model.lam ** -model.lam for c in model.coefficients)
    det = a_t * q - b_t * p
    if abs(det) <= _DEGENERACY_RTOL * (abs(a_t * q) + abs(b_t * p)):
        raise DegenerateModelError(
            "NO_INVERSE",
            f"{rate} at t={t:g} does not depend on the factor "
            f"({_DETERMINANT[rate]} vanishes); the state cannot be recovered",
        )
    if rate == _SHORT:
        ends = (p / a_t, q / b_t)
    else:
        ends = [(c_t / c) ** (1.0 / model.lam) if c else math.inf
                for c_t, c in ((a_t, p), (b_t, q))]
    return a_t, b_t, p, q, det, tuple(sorted(ends))


def _attained(model: Model, t: float, value: float, rate: str):
    """The inversion at t of an attainable ``value`` (x = r or y = L^-lam), then its interval."""
    *inversion, interval = _inversion(model, t, rate)
    if not interval[0] < value < interval[1]:
        raise UnattainableRateError(value, interval, rate)
    return *inversion, value if rate == _SHORT else value ** -model.lam, interval


def _state_from_rate(model: Model, t: float, value: float, rate: str) -> ModelState:
    a_t, b_t, p, q, _, x, interval = _attained(model, t, value, rate)
    numerator, denominator = p - x * a_t, x * b_t - q
    m = numerator / denominator if denominator else math.nan
    # Within an ulp or so of an interval end, rounding can put M at 0, below
    # it or at infinity: the rate is attainable in exact arithmetic only.
    if not 0.0 < m < math.inf:
        raise UnattainableRateError(value, interval, rate)
    return ModelState(t, m)


def _bond_from_rate(model: Model, t: float, T: float, value: float, rate: str) -> float:
    _check_maturity(t, T)
    a_t, b_t, p, q, det, x, _ = _attained(model, t, value, rate)
    a_T = float(model.a(T))
    b_T = float(model.b(T))
    return ((a_T * q - b_T * p) + (a_t * b_T - b_t * a_T) * x) / det


def _long_rate_value(L) -> float:
    L = _finite(_LONG, L)
    if L <= 0.0:
        raise DomainError(f"long rate must be positive, got {L!r}")
    return L


def attainable_short_rates(model: Model, t: float) -> tuple[float, float]:
    """Open interval of short rates the model can attain at time t."""
    return _inversion(model, t, _SHORT)[-1]


def attainable_long_rates(model: Model, t: float) -> tuple[float, float]:
    """Open interval of long rates (model's own index) attainable at time t."""
    return _inversion(model, t, _LONG)[-1]


def state_from_short_rate_1f(model: Model, t: float, r: float) -> ModelState:
    """Invert r_t for the factor: M = -(a'(t) + r a(t)) / (b'(t) + r b(t))."""
    return _state_from_rate(model, t, _finite(_SHORT, r), _SHORT)


def bond_from_short_rate_1f(model: Model, t: float, T: float, r: float) -> float:
    """Bond price linear in the short rate:

    P = ((a(T) b'(t) - b(T) a'(t)) + (a(T) b(t) - b(T) a(t)) r) / (a(t) b'(t) - b(t) a'(t)).
    """
    return _bond_from_rate(model, t, T, _finite(_SHORT, r), _SHORT)


def state_from_long_rate_1f(model: Model, t: float, L: float) -> ModelState:
    """Invert the long rate for the factor via y = L^-lam:

    M = (abar - y a(t)) / (y b(t) - bbar).
    """
    return _state_from_rate(model, t, _long_rate_value(L), _LONG)


def bond_from_long_rate_1f(model: Model, t: float, T: float, L: float) -> float:
    """Bond price inversely linear in the long rate (y = L^-lam):

    P = ((a(T) bbar - b(T) abar) + (a(t) b(T) - b(t) a(T)) y) / (a(t) bbar - b(t) abar).
    """
    return _bond_from_rate(model, t, T, _long_rate_value(L), _LONG)


@dataclass(frozen=True)
class FGHCoefficients:
    """Coefficients of P(t,T) = F + G * r_t + H / L_t for two-factor models."""

    f: float
    g: float
    h: float


def fgh_coefficients(model: Model, t: float, T: float) -> FGHCoefficients:
    """Solve the pricing decomposition P = F + G r + H / L at (t, T).

    Writing pi = a + bM + cN, each of P, r and 1/L is a ratio with
    denominator pi, so matching coefficients of (1, M, N) gives a 3x3
    linear system with determinant

        D = (b c~ - c b~) a' + (c a~ - a c~) b' + (a b~ - b a~) c'

    evaluated at t, where x~ denotes tail limits.  When D is far from
    zero the unique solution comes from a pivoted solve: Cramer's rule
    loses digits as t grows, where a, b and c can all approach C_i / t
    (ref2fx: relative error 1.5e-4 in P by t = 1e4).  A vanishing D
    means the coefficient rows are dependent; if two coefficient
    functions are globally proportional the system stays consistent and
    the decomposition still exists (just not uniquely), so the minimum
    norm solution is returned.  Only an inconsistent singular system
    (rank drop without a matching right-hand side) reports
    NO_DECOMPOSITION.
    """
    _require_factors(model, 2, "the (F, G, H) decomposition")
    _check_maturity(t, T)
    a_t, b_t, c_t = float(model.a(t)), float(model.b(t)), float(model.c(t))
    ap = float(model.a.derivative(t))
    bp = float(model.b.derivative(t))
    cp = float(model.c.derivative(t))
    A, B, C = model.a.tail_limit, model.b.tail_limit, model.c.tail_limit
    a_T, b_T, c_T = float(model.a(T)), float(model.b(T)), float(model.c(T))
    d_terms = (
        (b_t * C - c_t * B) * ap,
        (c_t * A - a_t * C) * bp,
        (a_t * B - b_t * A) * cp,
    )
    D = sum(d_terms)
    scale = sum(abs(x) for x in d_terms)
    mat = np.array([[a_t, -ap, A], [b_t, -bp, B], [c_t, -cp, C]])
    rhs = np.array([a_T, b_T, c_T])
    if scale > 0.0 and abs(D) > 1e-9 * scale:
        return FGHCoefficients(*(float(x) for x in np.linalg.solve(mat, rhs)))
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = float(np.max(np.abs(mat @ sol - rhs)))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise DegenerateModelError(
            "NO_DECOMPOSITION",
            f"pricing decomposition is rank-deficient at t={t:g} and the "
            f"coefficient system is inconsistent (residual {residual:.3g})",
        )
    return FGHCoefficients(float(sol[0]), float(sol[1]), float(sol[2]))


# ---------------------------------------------------------------------------
# Calibration from an initial discount curve
# ---------------------------------------------------------------------------


def fit_initial_curve(
    curve: DiscountCurve,
    weights: Sequence,
    drivers=None,
) -> Model:
    """Split an initial discount curve into kernel coefficients.

    Each coefficient is w_i(t) * P(0, t) for a weight w_i in (0, 1); the
    weights (constants or callables of t) must sum to 1, so the fitted
    model reproduces the input curve at time 0 exactly.  Two weights give
    a one-factor model, three a two-factor model (index 1); ``drivers`` is
    None or one GBMDriver per factor.

    The curve must carry a tail-Pareto asymptotic model: the coefficient
    tail limits are w_i * K with K = lim t^lam P(0, t), which a curve
    with an exponential (or no) tail does not have.  Coefficients built
    this way have no derivative evaluator, so short-rate operations on
    the fitted model report UNSUPPORTED.
    """
    if not isinstance(curve.tail, ParetoTail):
        raise DomainError(
            "fit_initial_curve needs a curve with a tail-Pareto asymptotic model "
            "(power-law tail limits do not exist otherwise)"
        )
    lam = curve.tail.lam
    n = len(weights)
    if n not in (2, 3):
        raise DomainError(f"need 2 or 3 weights, got {n}")
    if n == 3 and lam != 1.0:
        raise DomainError("two-factor fits require a curve with tail index 1")

    wfns = []
    for i, w in enumerate(weights):
        if callable(w):
            wfns.append(w)
        else:
            wv = _finite(f"weight {i}", w)
            wfns.append(lambda t, _w=wv: _w * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else _w)

    probes = list(_POSITIVITY_PROBES) + [1e4, _TAIL_PROBE]
    for p in probes:
        vals = [float(np.asarray(w(p))) for w in wfns]
        if any(not 0.0 < v < 1.0 for v in vals):
            raise DomainError(
                f"weights must lie strictly inside (0, 1); got {vals!r} at t={p!r}"
            )
        if abs(sum(vals) - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {sum(vals)!r} at t={p!r}")

    K = curve.tail.tail_constant(curve.horizon, curve.log_df(curve.horizon))
    coeffs = []
    for w in wfns:
        w_inf = float(np.asarray(w(_TAIL_PROBE)))

        def fn(t, _w=w, _c=curve):
            return np.asarray(_w(t)) * _c.df(t)

        coeffs.append(
            CoefficientFunction(fn, None, lam, w_inf * K, "curve_split", None)
        )
    return Model(tuple(coeffs), drivers)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _cfg_get(cfg: dict, path: str):
    node = cfg
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            raise DomainError(f"model config missing key {'.'.join(walked)!r}")
        node = node[key]
    return node


def _coefficient_from_config(cfg: dict, path: str, lam: float) -> CoefficientFunction:
    family = _cfg_get(cfg, f"{path}.family")
    params = _cfg_get(cfg, f"{path}.params")
    if family == "rational":
        coef = CoefficientFunction.rational(
            _cfg_get(cfg, f"{path}.params.scale"),
            _cfg_get(cfg, f"{path}.params.shift"),
            lam,
            params.get("power"),
        )
    elif family == "exp_rational":
        coef = CoefficientFunction.exp_rational(
            _cfg_get(cfg, f"{path}.params.scale"),
            _cfg_get(cfg, f"{path}.params.shift"),
            params.get("power", 0.0),
            _cfg_get(cfg, f"{path}.params.decay"),
            lam,
        )
    else:
        raise DomainError(f"model config {path}.family: unknown family {family!r}")
    node = _cfg_get(cfg, path)
    if "tail_limit" in node:
        declared = _finite(f"model config {path}.tail_limit", node["tail_limit"])
        if abs(declared - coef.tail_limit) > 1e-9 * max(1.0, abs(coef.tail_limit)):
            raise DomainError(
                f"model config {path}.tail_limit: declared {declared!r} but family "
                f"implies {coef.tail_limit!r}"
            )
    return coef


def _driver_from_config(cfg: dict, path: str) -> GBMDriver:
    kind = _cfg_get(cfg, f"{path}.type")
    if kind != "gbm":
        raise DomainError(f"model config {path}.type: unknown driver type {kind!r}")
    sched = _cfg_get(cfg, f"{path}.sigma")
    if isinstance(sched, (int, float)):
        return GBMDriver.constant(_finite(f"model config {path}.sigma", sched))
    return GBMDriver.from_schedule(sched)


_COEFFICIENT_NAMES = ("a", "b", "c")
_DRIVER_NAMES = ("m", "n")


def model_from_config(cfg: dict) -> Model:
    """Build a model from its JSON-style config dict.

    Layout::

        {"factors": 1, "lambda": 1.0,
         "coefficients": {"a": {"family": "rational",
                                "params": {"scale": 0.5, "shift": 1.0},
                                "tail_limit": 0.5},
                          "b": {...}},
         "drivers": {"m": {"type": "gbm", "sigma": [[0.0, 0.2]]}}}

    Two-factor configs use coefficients a, b, c and drivers m, n; the
    sigma entry may be a single number (constant volatility) or a list of
    [start_time, sigma] pairs.
    """
    factors = _cfg_get(cfg, "factors")
    lam = _finite("model config lambda", _cfg_get(cfg, "lambda"))
    if isinstance(factors, (bool, np.bool_)) or factors not in (1, 2):
        raise DomainError(f"model config factors: expected 1 or 2, got {factors!r}")
    k = int(factors)
    coefs = tuple(
        _coefficient_from_config(cfg, f"coefficients.{name}", lam)
        for name in _COEFFICIENT_NAMES[: k + 1]
    )
    drivers = None
    if "drivers" in cfg:
        drivers = tuple(
            _driver_from_config(cfg, f"drivers.{name}") for name in _DRIVER_NAMES[:k]
        )
    return Model(coefs, drivers)


def _coefficient_to_config(coef: CoefficientFunction) -> dict:
    if coef.params is None:
        raise DomainError(
            f"coefficient family {coef.family!r} has no JSON form "
            "(user-defined or curve-split evaluators are not serialisable)"
        )
    return {
        "family": coef.family,
        "params": dict(coef.params),
        "tail_limit": coef.tail_limit,
    }


def model_to_config(model: Model) -> dict:
    cfg: dict = {"factors": model.factors, "lambda": model.lam}
    cfg["coefficients"] = {
        name: _coefficient_to_config(coef)
        for name, coef in zip(_COEFFICIENT_NAMES, model.coefficients)
    }
    if model.drivers is not None:
        cfg["drivers"] = {
            name: {"type": "gbm", "sigma": driver.schedule()}
            for name, driver in zip(_DRIVER_NAMES, model.drivers)
        }
    return cfg


def load_model_config(path) -> Model:
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise DomainError(f"{path}: model config must be a JSON object")
    return model_from_config(cfg)


def save_model_config(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_config(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
