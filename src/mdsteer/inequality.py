"""The measurement-dependent steering inequality and its closed forms.

The central quantity is the operator value sqrt(alpha1) + sqrt(alpha2) built
from reweighted correlators, bounded by 4 p (1 - p) for any hidden-variable
model whose setting bias is limited by the measurement-dependence parameter
p in [0, 0.5] (p = 0.5 means fully free choice). The correlators it reads are
a CorrelatorVector, and curve tabulates it over a grid of p for the figures.
This module imports no numpy; curve loads the optimizer, which does, for the
quantum kind only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from .kernel import (
    BIAS,
    GAMMA,
    OPEN_RIGHT_ANGLE,
    TILT,
    UNIT,
    ValidationError,
    require_interval,
)

if TYPE_CHECKING:
    import numpy as np

    from .optimize import QuantumAnsatz

# Figure curves over p: curve computes them and the CLI offers them.
CURVE_KINDS = ("local", "prbox", "quantum", "tilted", "randomness")


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
        import numpy as np

        return np.array([self.e11, self.e12, self.e21, self.e22])


def operator_value(e11, e12, e21, e22, p: float, beta: float = math.pi / 4):
    """md_operator for Bob's measurement-overlap angle beta, elementwise, unvalidated.

    Each alpha = A^2 + B^2 gains a -2 A B cos(2 beta) cross-term that vanishes
    at beta = pi/4; it is summed as (A - B cos 2beta)^2 + (B sin 2beta)^2 so
    that rounding never makes it negative. Takes floats or numpy arrays.
    """
    c2b, s2b = math.cos(2.0 * beta), math.sin(2.0 * beta)
    q = 1.0 - p
    x1y1, x1y2, x2y1, x2y2 = p * e11, p * e12, q * e21, q * e22
    a1, b1 = x1y1 + x2y1, x1y2 + x2y2
    a2, b2 = x1y1 - x2y1, x1y2 - x2y2
    alpha1 = (a1 - c2b * b1) ** 2 + (s2b * b1) ** 2
    alpha2 = (a2 - c2b * b2) ** 2 + (s2b * b2) ** 2
    return alpha1**0.5 + alpha2**0.5


def md_operator(c: CorrelatorVector, p: float, beta: float = math.pi / 4) -> float:
    """sqrt(alpha1) + sqrt(alpha2) for the given correlators and overlap angle beta in (0, pi/2).

    At beta = pi/4, where the bound 4 p (1 - p) of local_bound holds,
    alpha1 = (p<x1y1> + (1-p)<x2y1>)^2 + (p<x1y2> + (1-p)<x2y2>)^2
    alpha2 = (p<x1y1> - (1-p)<x2y1>)^2 + (p<x1y2> - (1-p)<x2y2>)^2
    Any other beta adds the -2 A B cos(2 beta) cross-term of operator_value to each alpha.
    """
    require_interval("p", p, BIAS)
    require_interval("beta", beta, OPEN_RIGHT_ANGLE)
    return operator_value(c.e11, c.e12, c.e21, c.e22, p, beta)


def local_bound(p: float) -> float:
    """Hidden-variable bound 4 p (1 - p); equals 1 at p = 0.5, 0 at p = 0."""
    require_interval("p", p, BIAS)
    return 4.0 * p * (1.0 - p)


def violation(c: CorrelatorVector, p: float) -> float:
    """Signed excess of the operator over the local bound.

    Positive values certify that no measurement-dependent hidden-variable
    model with parameter p reproduces the correlators.
    """
    return md_operator(c, p) - local_bound(p)


def pr_closed_form(p: float) -> float:
    """Operator value for PR box correlators: 2 sqrt(2 - 4 p (1 - p))."""
    require_interval("p", p, BIAS)
    return 2.0 * math.sqrt(2.0 - 4.0 * p * (1.0 - p))


def tilted_closed_form(delta: float, p: float) -> float:
    """Operator value for the tilted quantum-extremal behavior at angle delta."""
    require_interval("delta", delta, TILT)
    require_interval("p", p, BIAS)
    c2 = math.cos(delta) ** 2
    s = math.sin(delta)
    term1 = math.sqrt(c2 * ((2.0 * (p - 1.0) * s + p) ** 2 + (p - 1.0) ** 2))
    term2 = math.sqrt(c2 * ((p - 2.0 * (p - 1.0) * s) ** 2 + (p - 1.0) ** 2))
    return term1 + term2


def binary_entropy(q: float) -> float:
    """H_b(q) in bits; 0 at the endpoints."""
    require_interval("binary entropy argument", q, UNIT)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def randomness_rate(gamma: float) -> float:
    """Certified random bits per round for the randomness-tuned behavior.

    r = 1 + H_b[1/2 + s/2 - (3/sqrt(2)) cos((1/3) arccos(-s / (2 sqrt(2))))]
    with s = sin(3 gamma) + 3 cos(gamma + pi/6).
    """
    require_interval("gamma", gamma, GAMMA)
    s = math.sin(3.0 * gamma) + 3.0 * math.cos(gamma + math.pi / 6.0)
    # s rises monotonically to 2 sqrt(2) at gamma = pi/12, so u < -1 only by rounding.
    u = max(-s / (2.0 * math.sqrt(2.0)), -1.0)
    q = 0.5 + s / 2.0 - (3.0 / math.sqrt(2.0)) * math.cos(math.acos(u) / 3.0)
    return 1.0 + binary_entropy(q)


@dataclass(frozen=True)
class CurvePoint:
    p: float
    value: float
    delta: Optional[float] = None
    rate: Optional[float] = None
    argmax: Optional[QuantumAnsatz] = None


def curve(
    kind: str,
    p_grid: Sequence[float],
    delta: Optional[float] = None,
    gamma: Optional[float] = None,
) -> List[CurvePoint]:
    """Per-p values for figure emission.

    local / prbox use the closed forms; quantum runs the optimizer; tilted
    and randomness evaluate the corresponding fixed behavior and report the
    signed violation (and, for randomness, the certified rate). delta is read
    by the tilted curve only and gamma by the randomness curve only; either
    one given to another kind is refused. Those two read their correlators
    from the behavior's plain-float table; the optimizer, which loads numpy,
    is imported only once the quantum curve has passed its own checks.
    """
    if kind not in CURVE_KINDS:
        raise ValidationError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")
    for name, value, reader in (("delta", delta, "tilted"), ("gamma", gamma, "randomness")):
        if value is not None and kind != reader:
            raise ValidationError(f"{kind} curve takes no {name}, got {value}")
    for p in p_grid:
        require_interval("grid value", p, BIAS)

    if kind == "local":
        return [CurvePoint(p=p, value=local_bound(p)) for p in p_grid]
    if kind == "prbox":
        return [CurvePoint(p=p, value=pr_closed_form(p)) for p in p_grid]
    if kind == "quantum":
        from .optimize import quantum_max

        return [quantum_max(p) for p in p_grid]
    from .table import correlators, randomness_table, tilted_table  # table imports this module

    if kind == "tilted":
        if delta is None:
            raise ValidationError("tilted curve requires delta")
        c = correlators(tilted_table(delta))
        return [
            CurvePoint(p=p, value=md_operator(c, p), delta=violation(c, p))
            for p in p_grid
        ]
    if gamma is None:
        raise ValidationError("randomness curve requires gamma")
    c = correlators(randomness_table(gamma))
    rate = randomness_rate(gamma)
    return [
        CurvePoint(p=p, value=md_operator(c, p), delta=violation(c, p), rate=rate)
        for p in p_grid
    ]
