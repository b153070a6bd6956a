"""Maximization of the steering operator over two-qubit quantum models.

The ansatz is the pure-state family cos(theta)|00> - sin(theta)|11> with two
measurement directions per party. The default search is restricted to the
x-z plane (all explicit constructions in this problem are planar and the
state family is real); a full-sphere flag lifts that restriction. The search
is a coarse grid followed by Nelder-Mead refinement from the best grid
points, deterministic for a fixed config and seed.
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
    Direction,
    ValidationError,
    pure_state,
    require_finite,
    require_seed,
)


@dataclass(frozen=True)
class QuantumAnsatz:
    """State angle plus the four measurement directions (n1, n2, m1, m2)."""

    theta: float
    directions: Sequence[Direction]

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValidationError(f"theta must be in [0, pi/2], got {self.theta}")
        if len(self.directions) != 4:
            raise ValidationError("exactly four measurement directions required")


@dataclass(frozen=True)
class CurvePoint:
    p: float
    value: float
    delta: Optional[float] = None
    rate: Optional[float] = None
    argmax: Optional[QuantumAnsatz] = None


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 20
    grid_density: int = 6
    tol: float = 1e-7
    seed: int = 0
    full_sphere: bool = False
    max_iterations: int = 400

    def __post_init__(self) -> None:
        require_seed(self.seed)
        for name, least in (("restarts", 0), ("grid_density", 1), ("max_iterations", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
        require_finite("tol", self.tol)
        if self.tol <= 0:
            raise ValidationError(f"tol must be positive, got {self.tol!r}")


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


def _planar_ansatz(params: np.ndarray) -> QuantumAnsatz:
    theta = float(np.clip(params[0], 0.0, math.pi / 2))
    return QuantumAnsatz(theta, tuple(Direction.planar(a) for a in params[1:5]))


def _sphere_ansatz(params: np.ndarray) -> QuantumAnsatz:
    theta = float(np.clip(params[0], 0.0, math.pi / 2))
    dirs = tuple(
        Direction.spherical(params[1 + 2 * i], params[2 + 2 * i]) for i in range(4)
    )
    return QuantumAnsatz(theta, dirs)


def quantum_max(p: float, config: SearchConfig = SearchConfig()) -> CurvePoint:
    """Best operator value found over the pure-state ansatz family."""
    if not 0.0 <= p <= 0.5:
        raise ValidationError(f"p must be in [0, 0.5], got {p}")
    to_ansatz = _sphere_ansatz if config.full_sphere else _planar_ansatz
    n_angle_params = 8 if config.full_sphere else 4

    def objective(params: np.ndarray) -> float:
        return -quantum_value(to_ansatz(params), p)

    # Coarse grid in the planar parametrization: thetas over [0, pi/2],
    # measurement angles over [0, 2pi). Planar angle a embeds in the sphere
    # as (azimuth, polar) = (0, a), so the grid seeds both search modes.
    thetas = np.linspace(0.0, math.pi / 2, config.grid_density + 1)
    angles = np.linspace(0.0, 2.0 * math.pi, config.grid_density, endpoint=False)
    grids = [thetas] + [angles] * 4
    mesh = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=-1)
    if config.full_sphere:
        lifted = np.zeros((mesh.shape[0], 9))
        lifted[:, 0] = mesh[:, 0]
        lifted[:, 2::2] = mesh[:, 1:]  # polar angles; azimuths stay 0
        mesh = lifted
    values = np.array([-objective(row) for row in mesh])

    order = np.argsort(values)[::-1]
    starts = [mesh[i] for i in order[: config.restarts]]
    rng = np.random.default_rng(config.seed)
    if config.full_sphere:
        for _ in range(config.restarts):
            starts.append(
                np.concatenate(
                    [
                        [rng.uniform(0.0, math.pi / 2)],
                        rng.uniform(0.0, 2 * math.pi, n_angle_params),
                    ]
                )
            )

    best_params = mesh[order[0]]
    best_value = float(values[order[0]])
    for start in starts:
        result = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "xatol": config.tol,
                "fatol": config.tol,
                "maxiter": config.max_iterations,
            },
        )
        if -result.fun > best_value:
            best_value = float(-result.fun)
            best_params = result.x
    return CurvePoint(p=p, value=best_value, argmax=to_ansatz(best_params))


def curve(
    kind: str,
    p_grid: Sequence[float],
    delta: Optional[float] = None,
    gamma: Optional[float] = None,
    config: SearchConfig = SearchConfig(),
) -> List[CurvePoint]:
    """Per-p values for figure emission.

    local / prbox use the closed forms; quantum runs the optimizer; tilted
    and randomness evaluate the corresponding fixed behavior and report the
    signed violation (and, for randomness, the certified rate).
    """
    if kind not in CURVE_KINDS:
        raise ValidationError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")
    for p in p_grid:
        if not 0.0 <= p <= 0.5:
            raise ValidationError(f"grid value {p} outside [0, 0.5]")

    if kind == "local":
        return [CurvePoint(p=p, value=local_bound(p)) for p in p_grid]
    if kind == "prbox":
        return [CurvePoint(p=p, value=pr_closed_form(p)) for p in p_grid]
    if kind == "quantum":
        return [quantum_max(p, config) for p in p_grid]
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
