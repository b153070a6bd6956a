"""Brute-force oracle for the measurement-dependent steering bound.

Hidden-variable strategies are parametrized by a deterministic response type
chi in {1, 2, 3, 4} for Alice and a state parameter xi for Bob, whose outcome
probabilities for the two measurements trace an ellipse:

    2 p_plus(y1) - 1 = cos(xi + beta),   2 p_plus(y2) - 1 = cos(xi - beta),

with beta the measurement-overlap angle (pi/4 by default). Alice's setting
probabilities are fixed to (p1, p2) = (1 - p, p), so the reweighted
correlators reach magnitude 2 and are handled as abstract vectors rather
than embedded in normalized behaviors. The oracle samples convex mixtures of
these extremal strategies and confirms the operator never exceeds the bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .behaviors import CorrelatorVector
from .inequality import local_bound, operator_value
from .kernel import ValidationError, require_seed

# Sign of Alice's response, indexed [setting][chi - 1]: rows x1, x2; columns chi = 1..4.
_CHI_SIGNS = np.array([[+1.0, -1.0, +1.0, -1.0], [+1.0, -1.0, -1.0, +1.0]])

XI_GRID_POINTS = 720
# Samples drawn and evaluated at once by bound_sweep; bounds its memory.
SWEEP_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExtremalStrategy:
    chi: int
    xi: float
    beta: float = math.pi / 4
    p1: float = 0.5
    p2: float = 0.5

    def __post_init__(self) -> None:
        if self.chi not in (1, 2, 3, 4):
            raise ValidationError(f"chi must be in {{1,2,3,4}}, got {self.chi}")
        if not 0.0 <= self.beta <= math.pi / 2:
            raise ValidationError(f"beta must be in [0, pi/2], got {self.beta}")
        if abs(self.p1 + self.p2 - 1.0) > 1e-12:
            raise ValidationError(f"p1 + p2 must equal 1, got {self.p1 + self.p2}")

    @classmethod
    def from_md_parameter(cls, chi: int, xi: float, p: float, beta: float = math.pi / 4):
        """Strategy with the standard assignment p1 = 1 - p, p2 = p."""
        return cls(chi=chi, xi=xi, beta=beta, p1=1.0 - p, p2=p)


@dataclass(frozen=True)
class StrategyMixture:
    weights: List[Tuple[ExtremalStrategy, float]]

    def __post_init__(self) -> None:
        ws = [w for _, w in self.weights]
        if any(w < 0 for w in ws):
            raise ValidationError("mixture weights must be non-negative")
        if abs(sum(ws) - 1.0) > 1e-10:
            raise ValidationError(f"mixture weights must sum to 1, got {sum(ws)}")


def extremal_correlators(s: ExtremalStrategy) -> CorrelatorVector:
    """Reweighted correlator vector of a single extremal strategy."""
    return CorrelatorVector(*_component_correlators(s.chi, s.xi, s.p1, s.p2, s.beta))


def mixture_correlators(m: StrategyMixture) -> CorrelatorVector:
    total = np.zeros(4)
    for s, w in m.weights:
        total += w * extremal_correlators(s).as_array()
    return CorrelatorVector(*total)


def saturating_mixture(p: float) -> StrategyMixture:
    """Equal mixture of chi=1 and chi=3 at xi = -pi/4 attaining 4 p (1 - p)."""
    s1 = ExtremalStrategy.from_md_parameter(1, -math.pi / 4, p)
    s3 = ExtremalStrategy.from_md_parameter(3, -math.pi / 4, p)
    return StrategyMixture([(s1, 0.5), (s3, 0.5)])


def general_beta_operator(c: CorrelatorVector, p1: float, p2: float, beta: float) -> float:
    """Operator value for arbitrary measurement overlap beta.

    The quadratics pick up a -2 A B cos(2 beta) cross-term and the
    hidden-variable bound becomes 4 p1 p2 sin(2 beta); at beta = pi/4 this
    reduces to md_operator with (p1, p2) = (1 - p, p).
    """
    if abs(p1 + p2 - 1.0) > 1e-12:
        raise ValidationError(f"p1 + p2 must equal 1, got {p1 + p2}")
    if not 0.0 < beta < math.pi / 2:
        raise ValidationError(f"beta must be in (0, pi/2), got {beta}")
    return operator_value(c.e11, c.e12, c.e21, c.e22, p2, beta)


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
    chi: np.ndarray, xi: np.ndarray, p1: float, p2: float, beta: float = math.pi / 4
) -> np.ndarray:
    """Reweighted correlators (e11, e12, e21, e22) of extremal strategies; shape (4,) + chi.shape.

    Entry (x, y) is sign_x(chi) * 2 p_x * cos(xi +- beta). The cosines are
    written into the output and scaled in place by the signed factors
    sign_x(chi) * 2 p_x; scaling by +-2 is exact, so every entry equals
    sign * 2.0 * p_x * cos(...) evaluated left to right, bit for bit.
    """
    factors = np.take(_CHI_SIGNS * np.array([[2.0 * p1], [2.0 * p2]]), np.asarray(chi) - 1, axis=1)
    out = np.empty((4,) + np.broadcast_shapes(np.shape(chi), np.shape(xi)))
    cosines, x2 = out[:2], out[2:]
    np.add(xi, beta, out=out[0, ...])
    np.subtract(xi, beta, out=out[1, ...])
    np.cos(cosines, out=cosines)
    np.multiply(cosines, factors[1], out=x2)
    np.multiply(cosines, factors[0], out=cosines)
    return out


def bound_sweep(p: float, samples: int, seed: int, components: int = 4) -> SweepReport:
    """Sample random strategy mixtures and report the largest operator value.

    Every sample mixes ``components`` extremal strategies with Dirichlet
    weights; response types are uniform over {1..4} and xi is drawn half the
    time from a uniform 720-point grid and half the time uniformly from
    [-pi, pi). All pure grid strategies are also evaluated as singleton
    mixtures, so the reported maximum approaches the bound. Samples are drawn
    from one generator of the given seed in chunks of at most SWEEP_CHUNK, so
    memory is bounded by the chunk size whatever ``samples`` is; a run of at
    most SWEEP_CHUNK samples is a single chunk.
    """
    if not 0.0 < p <= 0.5:
        raise ValidationError(f"p must be in (0, 0.5], got {p}")
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    xi_grid = np.linspace(-math.pi, math.pi, XI_GRID_POINTS, endpoint=False)
    p1, p2 = 1.0 - p, p

    max_mixture = -math.inf
    for start in range(0, samples, SWEEP_CHUNK):
        n = min(SWEEP_CHUNK, samples - start)
        chi = rng.integers(1, 5, size=(n, components))
        use_grid = rng.uniform(size=(n, components)) < 0.5
        xi = np.where(
            use_grid,
            xi_grid[rng.integers(0, XI_GRID_POINTS, size=(n, components))],
            rng.uniform(-math.pi, math.pi, size=(n, components)),
        )
        weights = rng.dirichlet(np.ones(components), size=n)
        mixed = np.einsum("sc,esc->es", weights, _component_correlators(chi, xi, p1, p2))
        max_mixture = max(max_mixture, float(np.max(operator_value(*mixed, p))))

    # Pure grid strategies over every response type.
    grid_chi = np.repeat(np.arange(1, 5), XI_GRID_POINTS)
    grid_xi = np.tile(xi_grid, 4)
    grid = _component_correlators(grid_chi, grid_xi, p1, p2)
    max_grid = float(np.max(operator_value(*grid, p)))

    max_operator = max(max_mixture, max_grid)
    bound = local_bound(p)
    return SweepReport(
        p=p,
        samples=samples,
        max_operator=max_operator,
        bound=bound,
        passed=max_operator <= bound + 1e-9,
        seed=seed,
    )
