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
    OUTCOME_SIGNS,
    OUTCOMES,
    TOL,
    Direction,
    TwoQubitState,
    ValidationError,
    bell_phi_plus,
    projector,
    projectors,
    require_finite,
    tensor,
)

_AB_SIGNS = np.outer(OUTCOME_SIGNS, OUTCOME_SIGNS)  # a * b, indexed [a][b]


@dataclass(frozen=True)
class Behavior:
    """Conditional distribution p(ab|xy), validated for normalization."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2, 2, 2, 2):
            raise ValidationError(f"probabilities must have shape (2,2,2,2), got {p.shape}")
        require_finite("probabilities", p)
        if np.min(p) < -TOL.eq:
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(p)), p.shape))
            raise ValidationError(f"negative probability at [x,y,a,b]={idx}: {p[idx]}")
        sums = p.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            bad = tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape))
            raise ValidationError(f"p(ab|xy) does not sum to 1 for (x,y)={bad}: {sums[bad]}")
        object.__setattr__(self, "probabilities", p)

    def to_json(self) -> str:
        return json.dumps({"probabilities": self.probabilities.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Behavior":
        data = json.loads(text)
        if not isinstance(data, dict) or "probabilities" not in data:
            raise ValidationError('behavior JSON must be {"probabilities": [[[[...]]]]}')
        return cls(np.array(data["probabilities"], dtype=float))


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
    return Behavior(np.clip(p.real, 0.0, None))


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
    if not 0.0 < delta <= math.pi / 6:
        raise ValidationError(f"delta must be in (0, pi/6], got {delta}")
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
    if not 0.0 <= gamma <= math.pi / 12:
        raise ValidationError(f"gamma must be in [0, pi/12], got {gamma}")
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
    dev_alice = np.max(np.abs(alice[:, 0, :] - alice[:, 1, :]))
    dev_bob = np.max(np.abs(bob[0, :, :] - bob[1, :, :]))
    dev = float(max(dev_alice, dev_bob))
    return NoSignallingReport(max_deviation=dev, passed=dev <= tol)


def chsh_value(b: Behavior) -> float:
    """CHSH combination <x1y1> + <x1y2> + <x2y1> - <x2y2>."""
    c = correlators(b)
    return c.e11 + c.e12 + c.e21 - c.e22
