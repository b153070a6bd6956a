"""The validation boundary: tolerances, input domains, checks and Bloch directions.

Outcomes are labelled +1 / -1 and stored at array index 0 / 1 (``OUTCOMES``)
throughout the package. This module imports no numpy, so that the commands
that only do arithmetic on a few floats start on the standard library alone:
the checks that take arrays import numpy when called, and only array callers
reach them. The dense linear algebra lives in ``linalg``; the few names of it
that callers still read from here resolve through ``__getattr__``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by all validation checks.

    eq:    tolerance for equality comparisons (norms, Hermiticity, negative probabilities).
    psd:   slack allowed on the smallest eigenvalue of a PSD matrix.
    check: threshold for pass/fail style reports (no-signalling, oracle, independence).
    Sums of probabilities and of traces have their own slack, in ``unnormalized``.
    """

    eq: float = 1e-12
    psd: float = 1e-10
    check: float = 1e-9

    @classmethod
    def from_env(cls) -> "Tolerances":
        """Default tolerances, overridable via the MDSTEER_TOL env var."""
        raw = os.environ.get("MDSTEER_TOL")
        if raw is None:
            return cls()
        try:
            t = float(raw)
        except ValueError:
            raise ValidationError(f"MDSTEER_TOL must be a number, got {raw!r}") from None
        require_interval("MDSTEER_TOL", t, POSITIVE)
        return cls(eq=t, psd=t, check=t)


TOL = Tolerances()

OUTCOMES = (+1, -1)  # array index 0 <-> +1, index 1 <-> -1


def require_finite(what: str, *values: float | np.ndarray) -> None:
    """Reject NaN and infinities, scalar or array; range checks alone pass NaN."""
    np = sys.modules.get("numpy")  # no array exists before numpy is loaded
    for v in values:
        if np is not None and isinstance(v, np.ndarray):
            finite = np.isfinite(v)
            if not finite.all():
                idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), v.shape))
                raise ValidationError(f"{what} must be finite, got {v[idx]} at index {idx}")
        elif not math.isfinite(v):
            raise ValidationError(f"{what} must be finite, got {v}")


# An input domain (text as messages print it, lo, hi); "(" or ")" in text marks an open end.
# Each domain is written once, here; the comments name the inputs it bounds.
Interval = Tuple[str, float, float]
UNIT: Interval = ("[0, 1]", 0.0, 1.0)  # probabilities p(+|x), q; eta of a mixture; strategy p
OPEN_UNIT: Interval = ("(0, 1)", 0.0, 1.0)  # eta of the weight; p(x1)
POSITIVE: Interval = ("(0, inf)", 0.0, math.inf)  # eta ratio, tolerances
BIAS: Interval = ("[0, 0.5]", 0.0, 0.5)  # measurement dependence p, bias bound l
SWEEP_BIAS: Interval = ("(0, 0.5]", 0.0, 0.5)  # p of the oracle's sweep
RIGHT_ANGLE: Interval = ("[0, pi/2]", 0.0, math.pi / 2)  # state angle theta
OPEN_RIGHT_ANGLE: Interval = ("(0, pi/2)", 0.0, math.pi / 2)  # beta of md_operator, strategy beta
TILT: Interval = ("(0, pi/6]", 0.0, math.pi / 6)  # delta of the tilted behavior
GAMMA: Interval = ("[0, pi/12]", 0.0, math.pi / 12)  # gamma of the randomness behavior
STEPS: Interval = ("[1, 10000]", 1, 10000)  # points of a curve: --steps

_NORM_SLACK = 1e-10  # largest |sum - 1| of a normalized distribution, or of traces


def require_interval(what: str, value: float, domain: Interval) -> None:
    """Reject a scalar outside domain; NaN fails every comparison, so it is rejected too."""
    text, lo, hi = domain
    if lo < value < hi or (value == lo and text[0] == "[") or (value == hi and text[-1] == "]"):
        return
    raise ValidationError(f"{what} must be in {text}, got {value}")


def unnormalized(sums: float | np.ndarray) -> bool | np.ndarray:
    """Whether each sum of probabilities (or of traces) misses 1 by more than _NORM_SLACK."""
    return abs(sums - 1.0) > _NORM_SLACK


def require_distribution(what: str, probs, axis=None) -> np.ndarray:
    """probs as a float array: finite, >= -TOL.eq, summing to 1 over axis (None: all of it)."""
    import numpy as np

    p = np.asarray(probs, dtype=float)
    sums = p.sum(axis=axis)
    bad = unnormalized(sums)
    # NaN fails the >= test and an infinity puts its sum off 1, so these two
    # reductions screen every fault; the messages below name the first one.
    if not p.min(initial=0.0) >= -TOL.eq or bad.any():
        require_finite(what, p)
        if p.min(initial=0.0) < -TOL.eq:
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(p)), p.shape))
            raise ValidationError(f"{what} must be non-negative, got {p[idx]} at index {idx}")
        idx = tuple(int(i) for i in np.argwhere(bad)[0])  # () when axis is None
        where = f" at index {idx}" if idx else ""
        raise ValidationError(f"{what} must sum to 1, got {sums[idx]}{where}")
    return p


def frozen_copy(values, dtype) -> np.ndarray:
    """A read-only C-ordered copy of values: a validated array that no caller can change."""
    import numpy as np

    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def require_json_object(what: str, text: str) -> dict:
    """text parsed as a JSON object; anything else, or nesting too deep to parse, is refused."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ValidationError(f"malformed {what}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"malformed {what}: expected an object, got {type(data).__name__}")
    return data


def number_leaves(what: str, value) -> list:
    """Every leaf of a parsed JSON value, depth first, each checked to be a number.

    np.array would read the string "0.5", true and null as 0.5, 1.0 and nan; they are refused.
    """
    leaves = []

    def walk(v) -> None:
        if isinstance(v, list):
            for item in v:
                walk(item)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{what} must hold only numbers, got {v!r}")
        else:
            leaves.append(v)

    walk(value)
    return leaves


def require_numbers(what: str, value) -> np.ndarray:
    """A parsed JSON value as a float array, every leaf of it a number (number_leaves)."""
    import numpy as np

    number_leaves(what, value)
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged nesting; an int beyond float range
        raise ValidationError(f"{what} is not a numeric array: {exc}") from None


def require_count(what: str, value: int, least: int = 0) -> None:
    """Reject anything but an integer >= least; seeds use least = 0, as np.random.default_rng.

    A bool is an int to Python, but True is not a count: it is rejected too.
    """
    np = sys.modules.get("numpy")  # no numpy integer exists before numpy is loaded
    integer = int if np is None else (int, np.integer)
    if isinstance(value, bool) or not isinstance(value, integer) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Direction:
    """A unit vector on the Bloch sphere defining a dichotomic observable."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self) -> None:
        require_finite("direction", self.nx, self.ny, self.nz)
        norm2 = self.nx**2 + self.ny**2 + self.nz**2
        if abs(norm2 - 1.0) > TOL.eq:
            raise ValidationError(
                f"direction ({self.nx}, {self.ny}, {self.nz}) is not a unit vector"
            )

    @classmethod
    def planar(cls, angle: float) -> "Direction":
        """Direction in the x-z plane at ``angle`` measured from +z toward +x."""
        return cls(math.sin(angle), 0.0, math.cos(angle))


# Names of linalg that callers still read from kernel: the module loads numpy on first use.
_LINALG = ("expectation", "pauli_observable", "projector", "pure_state", "tensor")


def __getattr__(name: str):
    if name not in _LINALG:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.linalg"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
