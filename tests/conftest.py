"""Helpers shared by the test modules."""

import math

import numpy as np

from mdsteer.behaviors import Behavior, CorrelatorVector, correlators
from mdsteer.kernel import OUTCOMES, Direction, ValidationError
from mdsteer.oracle import ExtremalStrategy, extremal_correlators
from mdsteer.steering import SETTINGS, MdLhsModel


def spherical(azimuth: float, polar: float) -> Direction:
    """The unit vector at the given azimuth about +z and polar angle from +z."""
    return Direction(
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    )


def assemblage_stack(asm) -> np.ndarray:
    """An assemblage's elements as one stack sigma[x][a] of shape (2, 2, 2, 2)."""
    return np.array([[asm.elements[(a, x)] for a in OUTCOMES] for x in SETTINGS])


def random_mdlhs_model(seed: int, n_lambdas: int = 4) -> MdLhsModel:
    """Deterministic random model for property testing; qubit states drawn
    from random pure-state mixtures so every rho_{lambda|x} is a valid density."""
    if not 1 <= n_lambdas <= 16:
        raise ValidationError(f"n_lambdas must be in [1, 16], got {n_lambdas}")
    rng = np.random.default_rng(seed)
    plx = rng.dirichlet(np.ones(n_lambdas), size=2)
    pax_plus = rng.uniform(size=(2, n_lambdas))
    pax = np.stack([pax_plus, 1.0 - pax_plus], axis=2)
    states = np.empty((n_lambdas, 2, 2, 2), dtype=complex)
    for lam in range(n_lambdas):
        for ix in range(2):
            vec = rng.normal(size=2) + 1j * rng.normal(size=2)
            vec /= np.linalg.norm(vec)
            mix = rng.uniform()
            states[lam, ix] = mix * np.outer(vec, vec.conj()) + (1 - mix) * np.eye(2) / 2
    return MdLhsModel(plx, pax, states)


def chsh(b: Behavior) -> float:
    """CHSH combination <x1y1> + <x1y2> + <x2y1> - <x2y2> of a behavior's correlators."""
    c = correlators(b)
    return c.e11 + c.e12 + c.e21 - c.e22


def nested_json(key: str, depth: int = 5000) -> str:
    """{key: [[...]]} with depth nested arrays: deeper than json.loads can parse."""
    return f'{{"{key}": ' + "[" * depth + "]" * depth + "}"


def mixed_correlators(parts) -> CorrelatorVector:
    """Correlators of a mixture: the weighted sum of its (strategy, weight) parts' correlators."""
    return CorrelatorVector(*sum(w * extremal_correlators(s).as_array() for s, w in parts))


def saturating_mixture(p: float) -> CorrelatorVector:
    """Correlators of the equal mixture of chi=1 and chi=3 at xi = -pi/4, attaining 4 p (1 - p)."""
    s1 = ExtremalStrategy(1, -math.pi / 4, p)
    s3 = ExtremalStrategy(3, -math.pi / 4, p)
    return mixed_correlators([(s1, 0.5), (s3, 0.5)])


def array_operator(e11, e12, e21, e22, p, beta=math.pi / 4) -> np.ndarray:
    """inequality.operator_value elementwise on numpy arrays: the same products and np.sqrt."""
    c2b, s2b = math.cos(2.0 * beta), math.sin(2.0 * beta)
    q = 1.0 - p
    x1y1, x1y2, x2y1, x2y2 = p * e11, p * e12, q * e21, q * e22
    a1, b1 = x1y1 + x2y1, x1y2 + x2y2
    a2, b2 = x1y1 - x2y1, x1y2 - x2y2
    u1, v1, u2, v2 = a1 - c2b * b1, s2b * b1, a2 - c2b * b2, s2b * b2
    return np.sqrt(u1 * u1 + v1 * v1) + np.sqrt(u2 * u2 + v2 * v2)
