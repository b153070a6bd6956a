"""Maximization of the steering operator over two-qubit quantum models.

The ansatz is the pure-state family cos(theta)|00> - sin(theta)|11> with two
measurement directions per party, all in the x-z plane (every explicit
construction in this problem is planar and the state family is real;
tests/test_optimize.py checks that off-plane directions gain nothing). The
search is a coarse grid followed by Nelder-Mead refinement from the best grid
points, deterministic for a fixed config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

# behavior_from_quantum and pure_state are not called here, but
# perfbench/tracing.py looks them up in this module by name.
from .behaviors import (  # noqa: F401
    CorrelatorVector,
    behavior_from_quantum,
    correlators,
    randomness_behavior,
    tilted_behavior,
)
from .inequality import (
    CURVE_KINDS,
    local_bound,
    md_operator,
    pr_closed_form,
    randomness_rate,
    violation,
)
from .kernel import (  # noqa: F401
    BIAS,
    RIGHT_ANGLE,
    Direction,
    ValidationError,
    pure_state,
    require_count,
    require_interval,
)


@dataclass(frozen=True)
class QuantumAnsatz:
    """State angle plus the four measurement directions (n1, n2, m1, m2)."""

    theta: float
    directions: Sequence[Direction]

    def __post_init__(self) -> None:
        require_interval("theta", self.theta, RIGHT_ANGLE)
        if len(self.directions) != 4:
            raise ValidationError("exactly four measurement directions required")


@dataclass(frozen=True)
class CurvePoint:
    p: float
    value: float
    delta: Optional[float] = None
    rate: Optional[float] = None
    argmax: Optional[QuantumAnsatz] = None


# Nelder-Mead's xatol and fatol.
NM_TOL = 1e-7


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 20
    grid_density: int = 6
    max_iterations: int = 400

    def __post_init__(self) -> None:
        for name, least in (("restarts", 0), ("grid_density", 1), ("max_iterations", 1)):
            require_count(name, getattr(self, name), least)


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    Every command but the quantum curve runs without scipy, so the import is
    paid only when a Nelder-Mead run starts. quantum_max calls this through
    the module-global name, which instrumentation may replace.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def quantum_value(ansatz: QuantumAnsatz, p: float) -> float:
    """Steering operator value of the behavior produced by the ansatz.

    The state cos(theta)|00> - sin(theta)|11> has correlation matrix
    T = diag(-sin 2theta, sin 2theta, 1), so E(n, m) = n^T T m; no behavior is
    built. tests/test_contractions.py checks this against the Born rule.
    """
    s = math.sin(2.0 * ansatz.theta)
    n1, n2, m1, m2 = ansatz.directions

    def e(n: Direction, m: Direction) -> float:
        return -s * n.nx * m.nx + s * n.ny * m.ny + n.nz * m.nz

    return md_operator(CorrelatorVector(e(n1, m1), e(n1, m2), e(n2, m1), e(n2, m2)), p)


def _ansatz(params: np.ndarray) -> QuantumAnsatz:
    """Ansatz of a search vector: theta, then the four planar angles."""
    theta = float(min(max(params[0], 0.0), math.pi / 2))
    return QuantumAnsatz(theta, tuple(Direction.planar(a) for a in params[1:]))


def quantum_max(p: float, config: SearchConfig = SearchConfig()) -> CurvePoint:
    """Best operator value found over the pure-state ansatz family."""
    require_interval("p", p, BIAS)

    def objective(params: np.ndarray) -> float:
        return -quantum_value(_ansatz(params), p)

    # Coarse grid: thetas over [0, pi/2], measurement angles over [0, 2pi).
    thetas = np.linspace(0.0, math.pi / 2, config.grid_density + 1)
    angles = np.linspace(0.0, 2.0 * math.pi, config.grid_density, endpoint=False)
    grids = [thetas] + [angles] * 4
    mesh = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=-1)
    values = np.array([-objective(row) for row in mesh])

    order = np.argsort(values)[::-1]
    best_params = mesh[order[0]]
    best_value = float(values[order[0]])
    for i in order[: config.restarts]:
        result = minimize(
            objective,
            mesh[i],
            method="Nelder-Mead",
            options={"xatol": NM_TOL, "fatol": NM_TOL, "maxiter": config.max_iterations},
        )
        if -result.fun > best_value:
            best_value = float(-result.fun)
            best_params = result.x
    return CurvePoint(p=p, value=best_value, argmax=_ansatz(best_params))


def curve(
    kind: str,
    p_grid: Sequence[float],
    delta: Optional[float] = None,
    gamma: Optional[float] = None,
) -> List[CurvePoint]:
    """Per-p values for figure emission.

    local / prbox use the closed forms; quantum runs the optimizer; tilted
    and randomness evaluate the corresponding fixed behavior and report the
    signed violation (and, for randomness, the certified rate).
    """
    if kind not in CURVE_KINDS:
        raise ValidationError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")
    for p in p_grid:
        require_interval("grid value", p, BIAS)

    if kind == "local":
        return [CurvePoint(p=p, value=local_bound(p)) for p in p_grid]
    if kind == "prbox":
        return [CurvePoint(p=p, value=pr_closed_form(p)) for p in p_grid]
    if kind == "quantum":
        return [quantum_max(p) for p in p_grid]
    if kind == "tilted":
        if delta is None:
            raise ValidationError("tilted curve requires delta")
        c = correlators(tilted_behavior(delta))
        return [
            CurvePoint(p=p, value=md_operator(c, p), delta=violation(c, p))
            for p in p_grid
        ]
    if gamma is None:
        raise ValidationError("randomness curve requires gamma")
    c = correlators(randomness_behavior(gamma))
    rate = randomness_rate(gamma)
    return [
        CurvePoint(p=p, value=md_operator(c, p), delta=violation(c, p), rate=rate)
        for p in p_grid
    ]
