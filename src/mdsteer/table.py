"""A behavior's 16 probabilities as plain floats: their one route for checks and sums.

A table is the tuple of p(ab|xy) in [x][y][a][b] order, so that entry
8x + 4y + 2a + b is p(ab|xy), with index 0 standing for setting 1 and outcome
+1. Reading one from a behavior file, checking it, and taking its correlators
and its no-signalling deviation need no numpy: ``Behavior`` and the CLI's
``eval`` share this route. Each result equals the array route it replaced bit
for bit, error messages included: the sums add their terms in the order
numpy's reductions do (tests/test_contractions.py checks this against numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .inequality import CorrelatorVector
from .kernel import (
    TOL,
    ValidationError,
    number_leaves,
    require_json_object,
    require_numbers,
    unnormalized,
)

Table = Tuple[float, ...]

SHAPE = (2, 2, 2, 2)


def _index(i: int) -> Tuple[int, int, int, int]:
    """The [x][y][a][b] index of table entry i."""
    return (i >> 3, i >> 2 & 1, i >> 1 & 1, i & 1)


def require_shape(shape: tuple) -> None:
    if shape != SHAPE:
        raise ValidationError(f"probabilities must have shape (2,2,2,2), got {shape}")


def _is_nesting(value, depth: int = len(SHAPE)) -> bool:
    """Whether value is a list of two lists of two ... (depth levels) of non-lists."""
    if depth == 0:
        return not isinstance(value, list)
    return (isinstance(value, list) and len(value) == 2
            and _is_nesting(value[0], depth - 1) and _is_nesting(value[1], depth - 1))


def table_of(value) -> Optional[Table]:
    """The entries of a parsed JSON value that nests 2x2x2x2 numbers, as floats; else None.

    Every leaf is checked to be a number first, as the array route checks it. None
    also stands for an int beyond float range: numpy words that fault, as before.
    """
    leaves = number_leaves("probabilities", value)
    if not _is_nesting(value):
        return None
    try:
        return tuple(map(float, leaves))
    except OverflowError:
        return None


def read_table(text: str) -> Table:
    """The checked table of a behavior file, {"probabilities": [[[[...]]]]}."""
    data = require_json_object("behavior JSON", text)
    if "probabilities" not in data:
        raise ValidationError('behavior JSON must be {"probabilities": [[[[...]]]]}')
    value = data["probabilities"]
    t = table_of(value)
    if t is None:  # numpy's array and the shape check word the fault, as they always have
        p = require_numbers("probabilities", value)
        require_shape(p.shape)
        t = tuple(p.ravel().tolist())
    require_table("p(ab|xy)", t)
    return t


def require_table(what: str, t: Table) -> None:
    """Each entry finite and >= -TOL.eq, and each p(.|xy) summing to 1.

    The first fault is named as require_distribution(what, p, (2, 3)) names it:
    the first non-finite entry, else the first smallest entry, else the first
    setting pair whose sum misses 1.
    """
    if not all(map(math.isfinite, t)):
        i = next(i for i, v in enumerate(t) if not math.isfinite(v))
        raise ValidationError(f"{what} must be finite, got {t[i]} at index {_index(i)}")
    least = min(t)
    if least < -TOL.eq:
        raise ValidationError(
            f"{what} must be non-negative, got {least} at index {_index(t.index(least))}"
        )
    for i in range(0, 16, 4):
        # numpy's sum of four contiguous floats starts from 0.0 and adds them in order.
        s = 0.0 + t[i] + t[i + 1] + t[i + 2] + t[i + 3]
        if unnormalized(s):
            raise ValidationError(f"{what} must sum to 1, got {s} at index {_index(i)[:2]}")


def correlators(t: Table) -> CorrelatorVector:
    """Two-point correlators <xy> = sum_ab a*b*p(ab|xy).

    Summed as einsum("xyab,ab->xy", p, a*b) does: (p++ - p-+) + (p-- - p+-),
    added to 0.0.
    """
    e = [0.0 + ((t[i] - t[i + 2]) + (t[i + 3] - t[i + 1])) for i in range(0, 16, 4)]
    return CorrelatorVector(*e)


@dataclass(frozen=True)
class NoSignallingReport:
    max_deviation: float
    passed: bool


def no_signalling_check(t: Table, tol: float = TOL.check) -> NoSignallingReport:
    """Check that each party's marginals are independent of the other's setting.

    The deviation is the largest |p(a|x, y1) - p(a|x, y2)| and |p(b|x1, y) - p(b|x2, y)|.
    """
    alice = [t[i] + t[i + 1] for i in range(0, 16, 2)]  # p(a|x, y) at index 4x + 2y + a
    bob = [t[i] + t[i + 2] for i in (0, 1, 4, 5, 8, 9, 12, 13)]  # p(b|x, y) at 4x + 2y + b
    dev = max(
        *(abs(alice[i] - alice[i + 2]) for i in (0, 1, 4, 5)),
        *(abs(bob[i] - bob[i + 4]) for i in (0, 1, 2, 3)),
    )
    return NoSignallingReport(max_deviation=dev, passed=dev <= tol)
