"""A behavior's 16 probabilities as plain floats: their one route for checks and sums.

A table is the tuple of p(ab|xy) in [x][y][a][b] order, so that entry
8x + 4y + 2a + b is p(ab|xy), with index 0 standing for setting 1 and outcome
+1. Reading one from a behavior file, checking it, and taking its correlators
and its no-signalling deviation need no numpy: ``Behavior`` and the CLI's
``eval`` share this route. So does building the two fixed behaviors on
(|00> + |11>)/sqrt(2), the tilted and the randomness-tuned one. Each result
equals the array route it replaced bit for bit, error messages included: the
sums add their terms in the order numpy's reductions do
(tests/test_contractions.py checks this against numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .inequality import CorrelatorVector
from .kernel import (
    GAMMA,
    TILT,
    TOL,
    Direction,
    ValidationError,
    number_leaves,
    require_json_object,
    require_interval,
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


# Each of the four nonzero entries of linalg.bell_phi_plus's density, (1/sqrt 2)^2 rounded.
_PHI_PLUS = (1.0 / math.sqrt(2.0)) * (1.0 / math.sqrt(2.0))


def _projector(n: Direction, sign: float) -> Tuple[float, float, float, float]:
    """Entries [00, 01, 10, 11] of (I + sign n.sigma)/2 for n in the x-z plane, as in projectors."""
    half = 0.5 * sign
    return (0.5 + half * n.nz, half * n.nx, half * n.nx, 0.5 - half * n.nz)


def _phi_plus_table(x_dirs, y_dirs) -> Table:
    """p(ab|xy) = Tr[(P_a^x (x) P_b^y) rho] on (|00> + |11>)/sqrt(2), directions in the x-z plane.

    Only the |00>, |11> block of rho is nonzero, so each entry is
    sum_ij P_a^x[i, j] P_b^y[i, j] rho_00,00, added to 0.0 in i-major order as
    behavior_from_quantum's einsum adds them, then clipped at 0.
    """
    t = []
    for x in x_dirs:
        for y in y_dirs:
            for pa in (_projector(x, 1.0), _projector(x, -1.0)):
                for pb in (_projector(y, 1.0), _projector(y, -1.0)):
                    p = 0.0
                    for u, v in zip(pa, pb):
                        p += u * v * _PHI_PLUS
                    t.append(max(p, 0.0))
    return tuple(t)


def tilted_table(delta: float) -> Table:
    """The quantum-extremal behavior on (|00> + |11>)/sqrt(2) at tilt delta in TILT, (0, pi/6].

    Alice measures sigma_z and -sin(delta) sigma_z + cos(delta) sigma_x;
    Bob measures sigma_x and cos(delta) sigma_z - sin(delta) sigma_x.
    Its CHSH value is 2 cos(delta) (1 + sin(delta)).
    """
    require_interval("delta", delta, TILT)
    x_dirs = (Direction(0.0, 0.0, 1.0), Direction(math.cos(delta), 0.0, -math.sin(delta)))
    y_dirs = (Direction(1.0, 0.0, 0.0), Direction(-math.sin(delta), 0.0, math.cos(delta)))
    return _phi_plus_table(x_dirs, y_dirs)


def randomness_table(gamma: float) -> Table:
    """The behavior on (|00> + |11>)/sqrt(2) tuned for randomness certification; gamma in GAMMA.

    Alice: sigma_z and the planar observable at angle 2pi/3 - 2 gamma;
    Bob: sin(3 gamma) sigma_z + cos(3 gamma) sigma_x and
    cos(pi/6 + gamma) sigma_z - sin(pi/6 + gamma) sigma_x.
    """
    require_interval("gamma", gamma, GAMMA)
    a2 = 2 * math.pi / 3 - 2 * gamma
    b2 = math.pi / 6 + gamma
    x_dirs = (Direction(0.0, 0.0, 1.0), Direction(math.sin(a2), 0.0, math.cos(a2)))
    y_dirs = (
        Direction(math.cos(3 * gamma), 0.0, math.sin(3 * gamma)),
        Direction(-math.sin(b2), 0.0, math.cos(b2)),
    )
    return _phi_plus_table(x_dirs, y_dirs)
