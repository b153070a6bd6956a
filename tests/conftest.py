"""Helpers shared by the test modules."""

import numpy as np

from mdsteer.kernel import ValidationError
from mdsteer.steering import MdLhsModel


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
