"""Exception types shared across the package.

Everything user-facing derives from ``LongrateError`` so callers (and the
CLI) can distinguish bad input from genuine bugs.  ``DomainError`` and its
subclasses mean "the request was outside the admissible domain"; the CLI
maps them to exit code 2.

The readers of outside input live here too, so every module checks it
the same way: ``_number`` and ``_finite`` read a number from a caller or
a config file, ``_numbers`` an array of them, and ``_read_json`` loads a
JSON file.
"""

from __future__ import annotations

import json
import math
import sys


class LongrateError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LongrateError, ValueError):
    """An input violated a documented domain restriction."""


class ExtrapolationError(DomainError):
    """A curve was queried beyond its grid with no asymptotic model attached."""


class InadmissibleCurveError(DomainError):
    """The discount data cannot come from an admissible pricing kernel.

    Typical trigger: discount factors that do not tend to zero along any
    horizon subsequence (for example the constant curve P == 1).
    """


class DegenerateModelError(DomainError):
    """A model-state inversion hit a rank-deficient configuration.

    ``code`` is one of ``"NO_INVERSE"`` (short-rate inversion impossible:
    the short rate does not depend on the factor) or ``"NO_DECOMPOSITION"``
    (the two-factor pricing decomposition has a singular coefficient
    system).
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class UnattainableRateError(DomainError):
    """A requested rate is not one the model can reach.

    It lies outside the attainable open interval, or so close to one of
    its ends that the state it implies rounds to 0 or infinity.
    """

    def __init__(self, value: float, interval: tuple[float, float], label: str = "rate"):
        self.value = value
        self.interval = interval
        lo, hi = interval
        super().__init__(
            f"{label} {value!r} is not attainable; the attainable open interval is ({lo!r}, {hi!r})"
        )


class UnsupportedOperationError(LongrateError):
    """The operation needs capabilities this model variant does not have.

    Raised e.g. for short-rate queries on models built from sampled curves
    without derivative evaluators.  The message always starts with
    ``UNSUPPORTED``.
    """

    def __init__(self, message: str):
        super().__init__(f"UNSUPPORTED: {message}")


def _number(value) -> float:
    """``float(value)``, but a ``TypeError`` for a boolean or a string, which are no numbers."""
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is imported
    if isinstance(value, (bool, str)) or (np is not None and isinstance(value, np.bool_)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _numbers(values):
    """``values`` as a new float array of the same shape, each entry a number as
    ``_number`` reads it; an array of numbers converts at once."""
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    entries = np.asarray(values, dtype=object)
    return np.array([_number(v) for v in entries.flat], dtype=float).reshape(entries.shape)


def _finite(name: str, value) -> float:
    """``value`` as a finite float, else a ``DomainError`` naming ``name``."""
    try:
        v = _number(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return v


def _read_json(path):
    """The JSON document in the UTF-8 file at ``path``; invalid JSON is a ``DomainError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON ({exc})") from None

