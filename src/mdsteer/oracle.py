"""Brute-force oracle for the measurement-dependent steering bound.

Hidden-variable strategies are parametrized by a deterministic response type
chi in {1, 2, 3, 4} for Alice and a state parameter xi for Bob, whose outcome
probabilities for the two measurements trace an ellipse:

    2 p_plus(y1) - 1 = cos(xi + beta),   2 p_plus(y2) - 1 = cos(xi - beta),

with beta the measurement-overlap angle (pi/4 by default). Alice picks x1
with probability 1 - p and x2 with probability p, so the reweighted
correlators reach magnitude 2 and are handled as abstract vectors rather
than embedded in normalized behaviors. The oracle samples convex mixtures of
these extremal strategies and confirms the operator never exceeds the bound.
The mixtures are drawn and evaluated EVAL_BLOCK samples at a time from one
generator, so memory is that of one block's draws whatever the number of
samples. At beta = pi/4 every extremal strategy reaches the bound and the
mixtures stay on or below it, so the printed maximum is that of the xi grid,
or a few ulps above it, however the mixtures are drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .behaviors import CorrelatorVector
from .inequality import local_bound, operator_value
from .kernel import (
    OPEN_RIGHT_ANGLE,
    SWEEP_BIAS,
    TOL,
    UNIT,
    ValidationError,
    require_count,
    require_distribution,
    require_finite,
    require_interval,
)

# Sign of Alice's response, indexed [setting][chi - 1]: rows x1, x2; columns chi = 1..4.
_CHI_SIGNS = np.array([[+1.0, -1.0, +1.0, -1.0], [+1.0, -1.0, -1.0, +1.0]])

XI_GRID_POINTS = 720
# Samples drawn and evaluated at once: sets bound_sweep's memory (one block's
# draws) and the layout of its random stream, which moves the printed maximum
# by rounding at most (see bound_sweep).
EVAL_BLOCK = 1 << 12
# Extremal strategies mixed in each sample of bound_sweep.
SWEEP_COMPONENTS = 4


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


@dataclass(frozen=True)
class StrategyMixture:
    weights: List[Tuple[ExtremalStrategy, float]]

    def __post_init__(self) -> None:
        require_distribution("mixture weights", [w for _, w in self.weights])


def extremal_correlators(s: ExtremalStrategy) -> CorrelatorVector:
    """Reweighted correlator vector of a single extremal strategy."""
    return CorrelatorVector(*_component_correlators(s.chi, s.xi, s.p, s.beta))


def mixture_correlators(m: StrategyMixture) -> CorrelatorVector:
    total = np.zeros(4)
    for s, w in m.weights:
        total += w * extremal_correlators(s).as_array()
    return CorrelatorVector(*total)


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

    Entry (x, y) is sign_x(chi) * 2 p(x) * cos(xi +- beta), with p(x1) = 1 - p
    and p(x2) = p. The cosines are written into the output and scaled in place
    by the signed factors sign_x(chi) * 2 p(x); scaling by +-2 is exact, so every
    entry equals sign * 2.0 * p(x) * cos(...) evaluated left to right, bit for bit.
    """
    factors = np.take(_CHI_SIGNS * [[2.0 * (1.0 - p)], [2.0 * p]], np.asarray(chi) - 1, axis=1)
    out = np.empty((4,) + np.broadcast_shapes(np.shape(chi), np.shape(xi)))
    cosines, x2 = out[:2], out[2:]
    np.add(xi, beta, out=out[0, ...])
    np.subtract(xi, beta, out=out[1, ...])
    np.cos(cosines, out=cosines)
    np.multiply(cosines, factors[1], out=x2)
    np.multiply(cosines, factors[0], out=cosines)
    return out


def bound_sweep(p: float, samples: int, seed: int) -> SweepReport:
    """Sample random strategy mixtures and report the largest operator value.

    Every sample mixes SWEEP_COMPONENTS extremal strategies with Dirichlet
    weights; response types are uniform over {1..4} and xi is drawn half the
    time from a uniform 720-point grid and half the time uniformly from
    [-pi, pi). All pure grid strategies are also evaluated as singleton
    mixtures, so the reported maximum approaches the bound. The samples are
    drawn from one generator of the given seed, EVAL_BLOCK at a time: each
    block draws chi, the grid mask, the grid index, the uniform xi and the
    weights in turn. Peak memory is thus one block's draws, not ``samples``:
    1.4 MB under tracemalloc for 20 000 and for 500 000 samples. At beta =
    pi/4 every grid singleton sits on the bound, to rounding. A mixture
    reaches the bound only if its components of chi in {1, 2} coincide and so
    do those of chi in {3, 4}; rounding then puts it at most a few ulps above
    the grid's maximum. So max_operator is the grid's maximum, or a few ulps
    above it, whatever the stream's layout (for p above about 1e-150; below
    that, operator_value's squares underflow).
    """
    require_interval("p", p, SWEEP_BIAS)
    require_count("samples", samples, 1)
    require_count("seed", seed)
    rng = np.random.default_rng(seed)
    xi_grid = np.linspace(-math.pi, math.pi, XI_GRID_POINTS, endpoint=False)
    max_mixture = -math.inf
    for start in range(0, samples, EVAL_BLOCK):
        shape = (min(EVAL_BLOCK, samples - start), SWEEP_COMPONENTS)
        chi = rng.integers(1, 5, size=shape)
        use_grid = rng.uniform(size=shape) < 0.5
        on_grid = xi_grid[rng.integers(0, XI_GRID_POINTS, size=shape)]
        xi = np.where(use_grid, on_grid, rng.uniform(-math.pi, math.pi, size=shape))
        weights = rng.dirichlet(np.ones(SWEEP_COMPONENTS), size=shape[0])
        mixed = np.einsum("sc,esc->es", weights, _component_correlators(chi, xi, p))
        max_mixture = max(max_mixture, float(np.max(operator_value(*mixed, p))))

    # Pure grid strategies over every response type.
    grid_chi = np.repeat(np.arange(1, 5), XI_GRID_POINTS)
    grid_xi = np.tile(xi_grid, 4)
    grid = _component_correlators(grid_chi, grid_xi, p)
    max_grid = float(np.max(operator_value(*grid, p)))

    max_operator = max(max_mixture, max_grid)
    bound = local_bound(p)
    return SweepReport(
        p=p,
        samples=samples,
        max_operator=max_operator,
        bound=bound,
        passed=max_operator <= bound + TOL.check,
        seed=seed,
    )
