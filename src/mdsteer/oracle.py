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
with a vertex that attains it; it draws no random number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .inequality import CorrelatorVector, local_bound, operator_value
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

# Sign of Alice's response, indexed [setting][chi - 1]: rows x1, x2; columns chi = 1..4.
_CHI_SIGNS = np.array([[+1.0, -1.0, +1.0, -1.0], [+1.0, -1.0, -1.0, +1.0]])

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
    """Reweighted correlator vector of a single extremal strategy."""
    return CorrelatorVector(*_component_correlators(s.chi, s.xi, s.p, s.beta))


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


def _component_correlators(
    chi: np.ndarray, xi: np.ndarray, p: float, beta: float = math.pi / 4
) -> np.ndarray:
    """Reweighted correlators (e11, e12, e21, e22) of extremal strategies; shape (4,) + chi.shape.

    chi and xi have one shape. Entry (x, y) is sign_x(chi) * 2 p(x) * cos(xi +- beta),
    with p(x1) = 1 - p and p(x2) = p.
    """
    factors = np.take(_CHI_SIGNS * [[2.0 * (1.0 - p)], [2.0 * p]], np.asarray(chi) - 1, axis=1)
    cosines = np.cos([xi + beta, xi - beta])
    return np.concatenate([cosines * factors[0], cosines * factors[1]])


def vertex_maximum(p: float) -> Tuple[float, ExtremalStrategy]:
    """Largest operator value over the grid vertices at beta = pi/4, and a vertex attaining it.

    The vertices are every response type chi in {1..4} at each of the
    XI_GRID_POINTS values of xi evenly spaced over [-pi, pi). By convexity the
    value is also the maximum over all mixtures of these vertices. At beta =
    pi/4 every vertex sits on the bound 4 p (1 - p), to rounding, for p above
    about 1e-150; below that, operator_value's squares underflow.
    """
    require_interval("p", p, SWEEP_BIAS)
    xi_grid = np.linspace(-math.pi, math.pi, XI_GRID_POINTS, endpoint=False)
    chi = np.repeat(np.arange(1, 5), XI_GRID_POINTS)
    values = operator_value(*_component_correlators(chi, np.tile(xi_grid, 4), p), p)
    best = int(np.argmax(values))
    witness = ExtremalStrategy(int(chi[best]), float(xi_grid[best % XI_GRID_POINTS]), p)
    return float(values[best]), witness


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
