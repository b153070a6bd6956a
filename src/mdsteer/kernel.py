"""The validation boundary: tolerances, input domains, checks and Bloch directions.

Outcomes are labelled +1 / -1 and stored at array index 0 / 1 (``OUTCOMES``)
throughout the package. This module imports no numpy, so that the commands
that only do arithmetic on a few floats start on the standard library alone.
Its checks take Python floats: a table of probabilities is checked as its
flat entries and shape by ``require_distribution``, the one check that
``Behavior``, the CLI's ``eval`` and ``MdLhsModel`` share. Its only numpy code
is ``frozen_copy`` and the dtype check ``numeric_array`` it runs, which import
numpy when called, and only array callers reach them. The dense linear algebra lives in ``linalg``; the few names of it
that callers still read from here resolve through ``__getattr__``.

The records of the standard-library modules (this one, ``inequality``,
``table``, ``oracle`` and ``adversary``) are ``typing.NamedTuple``s, not
dataclasses, so that no numpy-free command imports ``dataclasses`` and the
``inspect`` it loads. A record that checks its fields is a NamedTuple base
and a subclass whose ``__new__`` runs the checks (``_make`` and ``_replace``
skip them; the package calls neither). The modules that load numpy
(``behaviors``, ``linalg``, ``optimize``, ``steering``) keep dataclasses:
their types hold arrays, most compare by identity, and numpy costs them more
than ``dataclasses`` does.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class Tolerances(NamedTuple):
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


def require_finite(what: str, *values: float) -> None:
    """Reject NaN and infinities; range checks alone pass NaN."""
    for v in values:
        if not math.isfinite(v):
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


def _unravel(i: int, shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """The index in a C-ordered array of the given shape of its flat entry i."""
    idx = []
    for n in reversed(shape):
        i, r = divmod(i, n)
        idx.append(r)
    return tuple(reversed(idx))


def require_distribution(
    what: str, values: Sequence[float], shape: Tuple[int, ...], lead: int = 0
) -> None:
    """Each entry finite and >= -TOL.eq, and each row summing to 1.

    values are the entries of a C-ordered array of the given shape, as Python
    floats; a row is the run of entries that share their first lead indices
    (lead = 0: all of them). The first fault is named: the first non-finite
    entry, else the first smallest entry, with its index; else the first row
    whose sum misses 1, with the row's index (none when lead = 0). A row is
    summed left to right from 0.0, as numpy sums fewer than 8 contiguous floats;
    builtin sum() compensates its rounding from Python 3.12 on.
    """
    size = math.prod(shape[lead:])
    # A NaN fails one of these two tests and an infinity puts its row's sum off 1,
    # so together they screen every fault; the messages below name the first one.
    if min(values, default=0.0) >= -TOL.eq:
        for row in range(math.prod(shape[:lead])):
            s = 0.0
            for v in values[row * size : row * size + size]:
                s += v
            if not abs(s - 1.0) <= _NORM_SLACK:
                break
        else:
            return
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValidationError(f"{what} must be finite, got {v} at index {_unravel(i, shape)}")
    least = min(values, default=0.0)
    if least < -TOL.eq:
        where = _unravel(values.index(least), shape)
        raise ValidationError(f"{what} must be non-negative, got {least} at index {where}")
    # Every entry is finite and none is negative, so the screen broke off at the first
    # row whose sum s misses 1.
    where = f" at index {_unravel(row, shape[:lead])}" if lead else ""
    raise ValidationError(f"{what} must sum to 1, got {s}{where}")


def numeric_array(values) -> np.ndarray:
    """values as an array of integers, floats or complex numbers; strings, bools and objects
    are refused, since casting would read the string "0.25" as 0.25."""
    import numpy as np

    out = np.asarray(values)
    if out.dtype.kind not in "iufc":
        raise ValidationError(f"expected an array of numbers, got dtype {out.dtype}")
    return out


def frozen_copy(values, dtype) -> np.ndarray:
    """A read-only C-ordered copy of values: a validated array that no caller can change."""
    import numpy as np

    out = np.array(numeric_array(values), dtype=dtype, order="C")
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


def require_count(what: str, value: int, least: int = 0) -> None:
    """Reject anything but an integer >= least; seeds use least = 0, as np.random.default_rng.

    A bool is an int to Python, but True is not a count: it is rejected too.
    """
    np = sys.modules.get("numpy")  # no numpy integer exists before numpy is loaded
    integer = int if np is None else (int, np.integer)
    if isinstance(value, bool) or not isinstance(value, integer) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")


class _Direction(NamedTuple):
    nx: float
    ny: float
    nz: float


class Direction(_Direction):
    """A unit vector on the Bloch sphere defining a dichotomic observable."""

    __slots__ = ()

    def __new__(cls, nx: float, ny: float, nz: float) -> "Direction":
        self = super().__new__(cls, nx, ny, nz)
        require_finite("direction", self.nx, self.ny, self.nz)
        norm2 = self.nx**2 + self.ny**2 + self.nz**2
        if abs(norm2 - 1.0) > TOL.eq:
            raise ValidationError(
                f"direction ({self.nx}, {self.ny}, {self.nz}) is not a unit vector"
            )
        return self

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
