"""Bundled reference models and curves: the package's one catalogue.

One name -> factory table backs it: ``model_zoo()`` and ``curve_zoo()``
build every entry, ``zoo_model`` and ``zoo_curve`` only the one named.
Each factory returns a fresh immutable object, so tests can mutate
nothing.  The catalogue deliberately spans the interesting corners: a
plain one-factor model, tail indices below and above 1, a two-factor
model, a degenerate (proportional-coefficient) model whose state
inversions must refuse, and deterministic curves of both tail classes.
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


def long_grid() -> np.ndarray:
    """Curve grid reaching 1e6, far enough for tail classification without a model."""
    base = default_curve_grid()
    extra = np.geomspace(base[-1], 1e6, 41)[1:]
    return np.concatenate([base, extra])


# kind -> name -> factory; insertion order is the catalogue's order.
_CATALOGUE = {
    "model": {
        "ref1f": reference_one_factor,
        "pareto05": lambda: pareto_one_factor(0.5),
        "pareto2": lambda: pareto_one_factor(2.0),
        "pareto3": lambda: pareto_one_factor(3.0),
        "ref2f": reference_two_factor,
        "ref2fx": staggered_two_factor,
        "degenerate1f": degenerate_one_factor,
    },
    "curve": {
        "flat3": lambda: flat_exponential_curve(0.03),
        "hyperbolic2": lambda: tail_pareto_curve(1.0, 0.02, grid=long_grid()),
        "gamma2": lambda: tail_pareto_curve(2.0, 0.04, grid=long_grid()),
        "gamma3": lambda: tail_pareto_curve(3.0, 0.02, grid=long_grid()),
    },
}


def _build(kind: str, name: str):
    factories = _CATALOGUE[kind]
    if name not in factories:
        raise DomainError(f"unknown zoo {kind} {name!r}; have {sorted(factories)}")
    return factories[name]()


def model_zoo() -> dict[str, Model]:
    """Name -> model map for the bundled catalogue (seven entries)."""
    return {name: make() for name, make in _CATALOGUE["model"].items()}


def zoo_model(name: str) -> Model:
    return _build("model", name)


def curve_zoo() -> dict[str, DiscountCurve]:
    """Deterministic curves of known tail class for audits and examples."""
    return {name: make() for name, make in _CATALOGUE["curve"].items()}


def zoo_curve(name: str) -> DiscountCurve:
    return _build("curve", name)
