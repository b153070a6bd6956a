"""Behaviors p(ab|xy): quantum constructions, PR box, and closed-form families.

A behavior is the full conditional distribution over joint outcomes (a, b)
given binary settings (x, y) for each party. Probabilities are stored as a
(2, 2, 2, 2) array indexed [x][y][a][b], with index 0 standing for setting 1
and outcome +1, and as the same 16 numbers in a plain-float table, through
which every check and sum of them runs (``table``). The tilted and the
randomness-tuned behavior are built as such tables too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import table

# CorrelatorVector and OUTCOMES are re-exported. bell_phi_plus, projector and tensor are
# no longer called here, but perfbench/tracing.py looks them up in this module by name.
from .inequality import CorrelatorVector  # noqa: F401
from .kernel import (  # noqa: F401
    OUTCOMES,
    Direction,
    ValidationError,
    frozen_copy,
    require_distribution,
)
from .linalg import (  # noqa: F401
    TwoQubitState,
    bell_phi_plus,
    born,
    pauli_coefficients,
    projector,
    projector_rows,
    tensor,
)
from .table import NoSignallingReport, Table


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional distribution p(ab|xy), validated for normalization; compared by identity.

    ``entries`` holds the same 16 numbers as a ``table.Table`` of Python floats.
    """

    probabilities: np.ndarray
    entries: Table = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = frozen_copy(self.probabilities, float)
        table.require_shape(p.shape)
        t = tuple(p.ravel().tolist())
        require_distribution("p(ab|xy)", t, table.SHAPE, 2)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "entries", t)

    def to_json(self) -> str:
        return json.dumps({"probabilities": self.probabilities.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Behavior":
        return cls(np.reshape(table.read_table(text), table.SHAPE))


def behavior_from_quantum(
    state: TwoQubitState,
    x_dirs: Sequence[Direction],
    y_dirs: Sequence[Direction],
) -> Behavior:
    """Projective-measurement behavior p(ab|xy) = Tr[(P_a^x (x) P_b^y) rho].

    linalg.born on the Bloch rows Q C of Bob's states after Alice's outcomes, for her
    projector_rows Q and the state's pauli_coefficients C, and Bob's projector_rows.
    """
    if len(x_dirs) != 2 or len(y_dirs) != 2:
        raise ValidationError("exactly two measurement directions per party required")
    rows = projector_rows(x_dirs) @ pauli_coefficients(state)
    return Behavior(born(rows, projector_rows(y_dirs)))


def correlators(b: Behavior) -> CorrelatorVector:
    """Two-point correlators <xy> = sum_ab a*b*p(ab|xy)."""
    return table.correlators(b.entries)


def pr_box() -> Behavior:
    """The PR box: perfectly correlated except anti-correlated at x=y=2."""
    return Behavior(np.reshape([0.5, 0.0, 0.0, 0.5] * 3 + [0.0, 0.5, 0.5, 0.0], table.SHAPE))


def tilted_behavior(delta: float) -> Behavior:
    """The quantum-extremal behavior at tilt delta, table.tilted_table(delta), as a Behavior."""
    return Behavior(np.reshape(table.tilted_table(delta), table.SHAPE))


def randomness_behavior(gamma: float) -> Behavior:
    """The randomness-tuned behavior, table.randomness_table(gamma), as a Behavior."""
    return Behavior(np.reshape(table.randomness_table(gamma), table.SHAPE))


def no_signalling_check(b: Behavior) -> NoSignallingReport:
    """Check that each party's marginals are independent of the other's setting."""
    return table.no_signalling_check(b.entries)

