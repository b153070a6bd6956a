"""Behaviors p(ab|xy): quantum constructions, PR box, and closed-form families.

A behavior is the full conditional distribution over joint outcomes (a, b)
given binary settings (x, y) for each party. Probabilities are stored as a
(2, 2, 2, 2) array indexed [x][y][a][b], with index 0 standing for setting 1
and outcome +1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# OUTCOMES is re-exported. projector and tensor are no longer called here, but
# perfbench/tracing.py looks them up in this module by name.
from .kernel import (  # noqa: F401
    GAMMA,
    OUTCOME_SIGNS,
    OUTCOMES,
    TILT,
    TOL,
    Direction,
    TwoQubitState,
    ValidationError,
    bell_phi_plus,
    frozen_copy,
    projector,
    projectors,
    require_distribution,
    require_interval,
    require_json_object,
    require_numbers,
    tensor,
)

_AB_SIGNS = np.outer(OUTCOME_SIGNS, OUTCOME_SIGNS)  # a * b, indexed [a][b]


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional distribution p(ab|xy), validated for normalization; compared by identity."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = frozen_copy(self.probabilities, float)
        if p.shape != (2, 2, 2, 2):
            raise ValidationError(f"probabilities must have shape (2,2,2,2), got {p.shape}")
        object.__setattr__(self, "probabilities", require_distribution("p(ab|xy)", p, (2, 3)))

    def to_json(self) -> str:
        return json.dumps({"probabilities": self.probabilities.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Behavior":
        data = require_json_object("behavior JSON", text)
        if "probabilities" not in data:
            raise ValidationError('behavior JSON must be {"probabilities": [[[[...]]]]}')
        return cls(require_numbers("probabilities", data["probabilities"]))


@dataclass(frozen=True)
class CorrelatorVector:
    """The four two-point correlators (<x1y1>, <x1y2>, <x2y1>, <x2y2>).

    Correlators of valid behaviors lie in [-1, 1]; vectors produced by
    measurement-dependent reweighting of extremal strategies may reach
    magnitude 2 and are handled by the same type.
    """

    e11: float
    e12: float
    e21: float
    e22: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e11, self.e12, self.e21, self.e22])


def behavior_from_quantum(
    state: TwoQubitState,
    x_dirs: Sequence[Direction],
    y_dirs: Sequence[Direction],
) -> Behavior:
    """Projective-measurement behavior p(ab|xy) = Tr[(P_a^x (x) P_b^y) rho]."""
    if len(x_dirs) != 2 or len(y_dirs) != 2:
        raise ValidationError("exactly two measurement directions per party required")
    # rho[(i, k), (j, l)] with Alice's indices i, j first.
    rho = state.density.reshape(2, 2, 2, 2)
    p = np.einsum("xaij,ybkl,jlik->xyab", projectors(x_dirs), projectors(y_dirs), rho)
    return Behavior(np.maximum(p.real, 0.0))


def correlators(b: Behavior) -> CorrelatorVector:
    """Two-point correlators <xy> = sum_ab a*b*p(ab|xy)."""
    e = np.einsum("xyab,ab->xy", b.probabilities, _AB_SIGNS)
    return CorrelatorVector(e[0, 0], e[0, 1], e[1, 0], e[1, 1])


def pr_box() -> Behavior:
    """The PR box: perfectly correlated except anti-correlated at x=y=2."""
    target = np.array([[+1.0, +1.0], [+1.0, -1.0]])  # required a*b per (x, y)
    return Behavior((1.0 + np.einsum("xy,ab->xyab", target, _AB_SIGNS)) / 4.0)


def tilted_behavior(delta: float) -> Behavior:
    """Quantum-extremal behavior on (|00> + |11>)/sqrt(2).

    Alice measures sigma_z and -sin(delta) sigma_z + cos(delta) sigma_x;
    Bob measures sigma_x and cos(delta) sigma_z - sin(delta) sigma_x.
    Its CHSH value is 2 cos(delta) (1 + sin(delta)).
    """
    require_interval("delta", delta, TILT)
    x_dirs = (
        Direction(0.0, 0.0, 1.0),
        Direction(math.cos(delta), 0.0, -math.sin(delta)),
    )
    y_dirs = (
        Direction(1.0, 0.0, 0.0),
        Direction(-math.sin(delta), 0.0, math.cos(delta)),
    )
    return behavior_from_quantum(bell_phi_plus(), x_dirs, y_dirs)


def randomness_behavior(gamma: float) -> Behavior:
    """Behavior on (|00> + |11>)/sqrt(2) tuned for randomness certification.

    Alice: sigma_z and the planar observable at angle 2pi/3 - 2 gamma;
    Bob: sin(3 gamma) sigma_z + cos(3 gamma) sigma_x and
    cos(pi/6 + gamma) sigma_z - sin(pi/6 + gamma) sigma_x.
    """
    require_interval("gamma", gamma, GAMMA)
    a2 = 2 * math.pi / 3 - 2 * gamma
    b2 = math.pi / 6 + gamma
    x_dirs = (
        Direction(0.0, 0.0, 1.0),
        Direction(math.sin(a2), 0.0, math.cos(a2)),
    )
    y_dirs = (
        Direction(math.cos(3 * gamma), 0.0, math.sin(3 * gamma)),
        Direction(-math.sin(b2), 0.0, math.cos(b2)),
    )
    return behavior_from_quantum(bell_phi_plus(), x_dirs, y_dirs)


@dataclass(frozen=True)
class NoSignallingReport:
    max_deviation: float
    passed: bool


def no_signalling_check(b: Behavior, tol: float = TOL.check) -> NoSignallingReport:
    """Check that each party's marginals are independent of the other's setting."""
    p = b.probabilities
    alice = p.sum(axis=3)  # p(a|x, y) indexed [x][y][a]
    bob = p.sum(axis=2)  # p(b|x, y) indexed [x][y][b]
    diffs = np.concatenate([alice[:, 0, :] - alice[:, 1, :], bob[0, :, :] - bob[1, :, :]])
    dev = float(np.abs(diffs).max())
    return NoSignallingReport(max_deviation=dev, passed=dev <= tol)


def chsh_value(b: Behavior) -> float:
    """CHSH combination <x1y1> + <x1y2> + <x2y1> - <x2y2>."""
    c = correlators(b)
    return c.e11 + c.e12 + c.e21 - c.e22
