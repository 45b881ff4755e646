"""Bundled reference models and curves.

Every factory returns a fresh immutable object, so tests can mutate
nothing and the CLI can resolve names like ``ref1f`` without touching
the filesystem.  The catalogue deliberately spans the interesting
corners: a plain one-factor model, tail indices below and above 1, a
two-factor model, a degenerate (proportional-coefficient) model whose
state inversions must refuse, and deterministic curves of both tail
classes.
"""

from __future__ import annotations

import numpy as np

from .drivers import GBMDriver
from .errors import DomainError
from .kernel_models import CoefficientFunction, Model
from .termstructure import (
    DiscountCurve,
    default_curve_grid,
    flat_exponential_curve,
    tail_pareto_curve,
)

__all__ = [
    "reference_one_factor",
    "pareto_one_factor",
    "reference_two_factor",
    "staggered_two_factor",
    "degenerate_one_factor",
    "model_zoo",
    "zoo_model",
    "curve_zoo",
    "zoo_curve",
    "long_grid",
]

_ONE_DRIVER = (GBMDriver.constant(0.2),)
_TWO_DRIVERS = (GBMDriver.constant(0.2), GBMDriver.constant(0.15))


def _rational(*scale_shift, lam: float) -> tuple[CoefficientFunction, ...]:
    """scale / (shift + t)**lam for each (scale, shift) pair."""
    return tuple(CoefficientFunction.rational(s, h, lam) for s, h in scale_shift)


def reference_one_factor() -> Model:
    """a(t) = 0.5/(1+t), b(t) = 0.5/(2+t); tail index 1, sigma = 0.2."""
    return Model(_rational((0.5, 1.0), (0.5, 2.0), lam=1.0), _ONE_DRIVER)


def pareto_one_factor(lam: float) -> Model:
    """a(t) = 0.5/(1+t)**lam, b(t) = 0.5/(2+t)**lam at tail index lam."""
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError(f"tail index must be positive, got {lam!r}")
    return Model(_rational((0.5, 1.0), (0.5, 2.0), lam=lam), _ONE_DRIVER)


def reference_two_factor() -> Model:
    """a(t) = 0.4/(1+t), b(t) = 0.3/(1+t), c(t) = 0.3/(2+t); index 1.

    a and b are proportional, so the (F, G, H) pricing decomposition of
    this model is consistent but not unique; see staggered_two_factor
    for the generic case.
    """
    return Model(_rational((0.4, 1.0), (0.3, 1.0), (0.3, 2.0), lam=1.0), _TWO_DRIVERS)


def staggered_two_factor() -> Model:
    """a(t) = 0.4/(1+t), b(t) = 0.3/(2+t), c(t) = 0.3/(3+t); index 1.

    Distinct shifts keep the coefficient rows independent at every t, so
    the (F, G, H) decomposition is unique.
    """
    return Model(_rational((0.4, 1.0), (0.3, 2.0), (0.3, 3.0), lam=1.0), _TWO_DRIVERS)


def degenerate_one_factor() -> Model:
    """a(t) = b(t) = 0.5/(1+t): proportional coefficients.

    The short rate is 1/(1+t) for every factor value and the long simple
    rate is identically 1, so the state inversions have no solution and
    must report the degeneracy.
    """
    return Model(_rational((0.5, 1.0), (0.5, 1.0), lam=1.0), _ONE_DRIVER)


def model_zoo() -> dict[str, Model]:
    """Name -> model map for the bundled catalogue (seven entries)."""
    return {
        "ref1f": reference_one_factor(),
        "pareto05": pareto_one_factor(0.5),
        "pareto2": pareto_one_factor(2.0),
        "pareto3": pareto_one_factor(3.0),
        "ref2f": reference_two_factor(),
        "ref2fx": staggered_two_factor(),
        "degenerate1f": degenerate_one_factor(),
    }


def zoo_model(name: str) -> Model:
    zoo = model_zoo()
    if name not in zoo:
        raise DomainError(f"unknown zoo model {name!r}; have {sorted(zoo)}")
    return zoo[name]


def long_grid() -> np.ndarray:
    """Curve grid reaching 1e6, far enough for tail classification without a model."""
    base = default_curve_grid()
    extra = np.geomspace(base[-1], 1e6, 41)[1:]
    return np.concatenate([base, extra])


def curve_zoo() -> dict[str, DiscountCurve]:
    """Deterministic curves of known tail class for audits and examples."""
    return {
        "flat3": flat_exponential_curve(0.03),
        "hyperbolic2": tail_pareto_curve(1.0, 0.02, grid=long_grid()),
        "gamma2": tail_pareto_curve(2.0, 0.04, grid=long_grid()),
        "gamma3": tail_pareto_curve(3.0, 0.02, grid=long_grid()),
    }


def zoo_curve(name: str) -> DiscountCurve:
    zoo = curve_zoo()
    if name not in zoo:
        raise DomainError(f"unknown zoo curve {name!r}; have {sorted(zoo)}")
    return zoo[name]
