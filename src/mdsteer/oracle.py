"""Exact oracle for the measurement-dependent steering bound.

Hidden-variable strategies are parametrized by a deterministic response type
chi in {1, 2, 3, 4} for Alice and a state parameter xi for Bob, whose outcome
probabilities for the two measurements trace an ellipse:

    2 p_plus(y1) - 1 = cos(xi + beta),   2 p_plus(y2) - 1 = cos(xi - beta),

with beta the measurement-overlap angle (pi/4 by default). Alice picks x1
with probability 1 - p and x2 with probability p, so the reweighted
correlators reach magnitude 2 and are handled as abstract vectors rather
than embedded in normalized behaviors. A mixture of strategies has no type
of its own: its correlators are the weighted sum of its strategies'
extremal_correlators. The operator is convex in the correlators, so no
mixture exceeds its best extremal strategy. The oracle therefore evaluates
the 4 x XI_GRID_POINTS grid vertices once and reports their exact maximum
with a vertex that attains it; it draws no random number. It runs on Python
floats alone and rounds as numpy's array operations do, bit for bit: the
array code is the reference in tests/test_contractions.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple

from .inequality import CorrelatorVector, local_bound
from .kernel import (
    OPEN_RIGHT_ANGLE,
    SWEEP_BIAS,
    TOL,
    UNIT,
    ValidationError,
    require_count,
    require_finite,
    require_interval,
)

# Sign of Alice's response to settings x1 and x2, indexed [chi - 1].
_CHI_SIGNS = ((+1.0, +1.0), (-1.0, -1.0), (+1.0, -1.0), (-1.0, +1.0))

XI_GRID_POINTS = 720


@dataclass(frozen=True)
class ExtremalStrategy:
    """Response type chi and state parameter xi; Alice picks x1 with 1 - p and x2 with p."""

    chi: int
    xi: float
    p: float = 0.5
    beta: float = math.pi / 4

    def __post_init__(self) -> None:
        require_count("chi", self.chi, 1)
        if self.chi > 4:
            raise ValidationError(f"chi must be in {{1,2,3,4}}, got {self.chi}")
        require_finite("xi", self.xi)
        require_interval("p", self.p, UNIT)
        require_interval("beta", self.beta, OPEN_RIGHT_ANGLE)


def extremal_correlators(s: ExtremalStrategy) -> CorrelatorVector:
    """Reweighted correlator vector of a single extremal strategy.

    Entry (x, y) is sign_x(chi) * 2 p(x) * cos(xi +- beta), with p(x1) = 1 - p
    and p(x2) = p; each sign multiplies its weight exactly.
    """
    sign1, sign2 = _CHI_SIGNS[s.chi - 1]
    f1, f2 = sign1 * (2.0 * (1.0 - s.p)), sign2 * (2.0 * s.p)
    c_plus, c_minus = math.cos(s.xi + s.beta), math.cos(s.xi - s.beta)
    return CorrelatorVector(c_plus * f1, c_minus * f1, c_plus * f2, c_minus * f2)


@dataclass(frozen=True)
class SweepReport:
    p: float
    samples: int
    max_operator: float
    bound: float
    passed: bool
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "samples": self.samples,
                "maxI": self.max_operator,
                "bound": self.bound,
                "pass": self.passed,
                "seed": self.seed,
            },
            allow_nan=False,
        )


def vertex_maximum(p: float) -> Tuple[float, ExtremalStrategy]:
    """Largest operator value over the grid vertices at beta = pi/4, and a vertex attaining it.

    The vertices are every response type chi in {1..4} at each of the
    XI_GRID_POINTS values of xi evenly spaced over [-pi, pi). By convexity the
    value is also the maximum over all mixtures of these vertices. At beta =
    pi/4 every vertex sits on the bound 4 p (1 - p), to rounding, for p above
    about 1e-150; below that, the squares underflow.

    At each xi the four types give one value, bit for bit: chi = 2 and 4 negate
    every correlator of chi = 1 and 3, and chi = 3 swaps chi = 1's alpha1 and
    alpha2, whose roots add the same either way. So only chi = 1 is evaluated,
    and its first maximum is the first over all 4 x XI_GRID_POINTS vertices in
    (chi, xi) order. Each value is operator_value's as it rounds on numpy
    arrays: squares are products and roots math.sqrt.
    """
    require_interval("p", p, SWEEP_BIAS)
    q, step = 1.0 - p, 2.0 * math.pi / XI_GRID_POINTS
    f1, f2 = 2.0 * q, 2.0 * p
    beta = math.pi / 4
    c2b = math.cos(2.0 * beta)  # not quite 0, and kept as operator_value keeps it
    best, best_xi = -math.inf, 0.0
    for i in range(XI_GRID_POINTS):
        xi = i * step - math.pi  # np.linspace(-pi, pi, XI_GRID_POINTS, endpoint=False)[i]
        c_plus, c_minus = math.cos(xi + beta), math.cos(xi - beta)
        x1y1, x1y2 = p * (c_plus * f1), p * (c_minus * f1)
        x2y1, x2y2 = q * (c_plus * f2), q * (c_minus * f2)
        a1, b1, a2, b2 = x1y1 + x2y1, x1y2 + x2y2, x1y1 - x2y1, x1y2 - x2y2
        u1, u2 = a1 - c2b * b1, a2 - c2b * b2
        value = math.sqrt(u1 * u1 + b1 * b1) + math.sqrt(u2 * u2 + b2 * b2)
        if value > best:
            best, best_xi = value, xi
    return best, ExtremalStrategy(1, best_xi, p)


def bound_sweep(p: float, samples: int, seed: int) -> SweepReport:
    """Report the exact vertex maximum of the operator against the bound 4 p (1 - p).

    max_operator is vertex_maximum(p)[0], which no mixture exceeds. samples
    and seed are validated and echoed in the report but change nothing: no
    random number is drawn. They stay while the benchmark's record check
    fixes the record's fields.
    """
    max_operator = vertex_maximum(p)[0]  # checks p first
    require_count("samples", samples, 1)
    require_count("seed", seed)
    bound = local_bound(p)
    return SweepReport(
        p=p,
        samples=samples,
        max_operator=max_operator,
        bound=bound,
        passed=max_operator <= bound + TOL.check,
        seed=seed,
    )
