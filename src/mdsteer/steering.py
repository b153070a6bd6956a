"""Assemblages and measurement-dependent local-hidden-state (MD-LHS) models.

An assemblage maps Alice's outcome/setting pair (a, x) to the unnormalized
post-measurement state of Bob. An MD-LHS model explains an assemblage via a
hidden variable whose distribution may depend on Alice's setting. This module
also provides the measurement-dependent weight md_weight(eta) = 1 - r, a ratio
of mixing weights that no hidden-variable distribution enters, its limiting
values, and the steerability bound on that weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .behaviors import Behavior
from .kernel import (
    BIAS,
    OPEN_UNIT,
    OUTCOMES,
    POSITIVE,
    UNIT,
    Direction,
    Interval,
    ValidationError,
    frozen_copy,
    require_distribution,
    require_interval,
    unnormalized,
)

# projector, tensor and partial_trace_alice are no longer called here, but
# perfbench/tracing.py looks them up in this module by name.
from .linalg import (  # noqa: F401
    TwoQubitState,
    is_psd,
    partial_trace_alice,
    projector,
    projectors,
    tensor,
)

SETTINGS = (1, 2)

AssemblageKey = Tuple[int, int]  # (a, x) with a in {+1,-1}, x in {1,2}


# Key (a, x) of each matrix of a stack sigma[x][a], in flat order: the one map between the two.
_KEYS = tuple((a, x) for x in SETTINGS for a in OUTCOMES)


def _keyed(sigma: np.ndarray) -> Dict[AssemblageKey, np.ndarray]:
    """The matrices of a stack sigma[x][a] as views keyed by (a, x)."""
    return dict(zip(_KEYS, sigma.reshape(len(_KEYS), 2, 2)))


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Map (a, x) -> unnormalized 2x2 PSD matrix sigma_{a|x}.

    Built from that map, or from a stack sigma[x][a] of shape (2, 2, 2, 2), which the
    producers pass. Stored once, as a read-only stack; ``elements`` holds views of it.
    Invariants: every element is PSD and each setting's traces sum to 1. Compared by identity.
    """

    elements: Dict[AssemblageKey, np.ndarray] | np.ndarray
    _sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.elements, np.ndarray):
            if self.elements.shape != (2, 2, 2, 2):
                raise ValidationError(
                    f"assemblage stack must have shape (2, 2, 2, 2), got {self.elements.shape}"
                )
            flat = frozen_copy(self.elements, complex).reshape(len(_KEYS), 2, 2)
        else:
            for a, x in _KEYS:
                if (a, x) not in self.elements:
                    raise ValidationError(f"missing assemblage element for (a={a}, x={x})")
                if np.asarray(self.elements[(a, x)]).shape != (2, 2):
                    raise ValidationError(f"element (a={a}, x={x}) must be 2x2")
            flat = frozen_copy([self.elements[k] for k in _KEYS], complex)
        # One verdict and one trace per element, as Python bools and floats.
        psd = is_psd(flat).tolist()
        traces = [re_a + re_d for re_a, re_d in flat.real.diagonal(0, -2, -1).tolist()]
        # Faults are reported in _KEYS order; a setting's traces are summed at its last element.
        for i, (a, x) in enumerate(_KEYS):
            if not psd[i]:
                raise ValidationError(f"element (a={a}, x={x}) is not PSD")
            if a == OUTCOMES[-1] and unnormalized(trace_sum := traces[i - 1] + traces[i]):
                raise ValidationError(f"traces for x={x} sum to {trace_sum}, expected 1")
        object.__setattr__(self, "elements", _keyed(flat))
        object.__setattr__(self, "_sigma", flat.reshape(2, 2, 2, 2))

    def outcome_probability(self, a: int, x: int) -> float:
        """p(a|x) = Tr sigma_{a|x}, for a in OUTCOMES and x in SETTINGS."""
        if a not in OUTCOMES or x not in SETTINGS:
            raise ValidationError(f"no assemblage element for (a={a}, x={x})")
        return float(np.trace(self.elements[(a, x)]).real)


@dataclass(frozen=True, eq=False)
class MdLhsModel:
    """Discrete hidden-variable model {lambda, p(lambda|x), p(a|x,lambda), rho_{lambda|x}}.

    Arrays are indexed as:
      p_lambda_given_x[x][lam]   shape (2, n)
      p_a_given_x_lambda[x][lam][a]  shape (2, n, 2), a index 0 <-> +1
      states[lam][x]             shape (n, 2, 2, 2) complex densities
    The model keeps read-only C-ordered copies of them. Compared by identity.
    """

    p_lambda_given_x: np.ndarray
    p_a_given_x_lambda: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        plx = frozen_copy(self.p_lambda_given_x, float)
        pax = frozen_copy(self.p_a_given_x_lambda, float)
        states = frozen_copy(self.states, complex)
        n = plx.shape[1] if plx.ndim == 2 else 0
        if plx.shape != (2, n) or n == 0:
            raise ValidationError("p_lambda_given_x must have shape (2, n), n >= 1")
        if pax.shape != (2, n, 2):
            raise ValidationError(f"p_a_given_x_lambda must have shape (2, {n}, 2)")
        if states.shape != (n, 2, 2, 2):
            raise ValidationError(f"states must have shape ({n}, 2, 2, 2)")
        require_distribution("p(lambda|x)", plx.ravel().tolist(), plx.shape, 1)
        require_distribution("p(a|x,lambda)", pax.ravel().tolist(), pax.shape, 2)
        invalid = ~is_psd(states) | unnormalized(np.trace(states, axis1=-2, axis2=-1).real)
        if invalid.any():
            lam, ix = np.argwhere(invalid)[0]  # the first in (lambda, x) order
            raise ValidationError(f"states[{lam}][{ix}] is not a valid density matrix")
        object.__setattr__(self, "p_lambda_given_x", plx)
        object.__setattr__(self, "p_a_given_x_lambda", pax)
        object.__setattr__(self, "states", states)

    @property
    def n_lambdas(self) -> int:
        return self.p_lambda_given_x.shape[1]


def _require_eta(eta: Dict[AssemblageKey, float], domain: Interval) -> None:
    """Every eta^{a|x} in domain, in (x, a) order; a missing one reads as NaN, which fails."""
    for a, x in _KEYS:
        require_interval(f"eta[(a={a}, x={x})]", eta.get((a, x), np.nan), domain)


def _mdlhs_stack(model: MdLhsModel) -> np.ndarray:
    """The stack sigma[x][a] = sum_lambda p(lambda|x) p(a|x,lambda) rho_{lambda|x}."""
    plx, pax = model.p_lambda_given_x, model.p_a_given_x_lambda
    return np.einsum("xn,xna,nxij->xaij", plx, pax, model.states)


def _born(bob: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """p[x][y][a][b] = Tr[P_b^y sigma_{a|x}] for projectors bob[y][b] and a stack sigma[x][a]."""
    return np.maximum(np.einsum("ybkl,xalk->xyab", bob, sigma).real, 0.0)


def assemblage_from_state(state: TwoQubitState, alice_dirs: Sequence[Direction]) -> Assemblage:
    """sigma_{a|x} = Tr_A[(P_a^x (x) I) rho] for projective measurements."""
    if len(alice_dirs) != 2:
        raise ValidationError("exactly two Alice directions required")
    # rho[(i, k), (j, l)] with Alice's indices i, j first.
    rho = state.density.reshape(2, 2, 2, 2)
    return Assemblage(np.einsum("xaij,jkil->xakl", projectors(alice_dirs), rho))


def assemblage_from_mdlhs(model: MdLhsModel) -> Assemblage:
    """sigma_{a|x} = sum_lambda p(lambda|x) p(a|x,lambda) rho_{lambda|x}, a new one per call."""
    return Assemblage(_mdlhs_stack(model))


def behavior_from_assemblage(asm: Assemblage, bob_dirs: Sequence[Direction]) -> Behavior:
    """p(ab|xy) = Tr[P_b^y sigma_{a|x}] for Bob's projective measurements."""
    if len(bob_dirs) != 2:
        raise ValidationError("exactly two Bob directions required")
    return Behavior(_born(projectors(bob_dirs), asm._sigma))


def mdlhv_decomposition_check(model: MdLhsModel, bob_dirs: Sequence[Direction]) -> float:
    """Max |difference| between the assemblage route and the explicit hidden-variable sum.

    Computes p(ab|xy) once by Bob's Born rule on the model's stack sigma[x][a], as
    behavior_from_assemblage(assemblage_from_mdlhs(model)) does but validating neither, and
    once as sum_lambda p(lambda|x) p(a|x,lambda) Tr[P_b^y rho_{lambda|x}]; they agree by linearity.
    """
    if len(bob_dirs) != 2:
        raise ValidationError("exactly two Bob directions required")
    bob = projectors(bob_dirs)
    plx, pax = model.p_lambda_given_x, model.p_a_given_x_lambda
    direct = np.einsum("xn,xna,ybkl,nxlk->xyab", plx, pax, bob, model.states).real
    return float(np.max(np.abs(_born(bob, _mdlhs_stack(model)) - direct)))


def mix_assemblages(
    steerable: Assemblage,
    mdlhs: Assemblage,
    eta: Dict[AssemblageKey, float],
) -> Assemblage:
    """Convex mixture (1 - eta^{a|x}) steerable + eta^{a|x} mdlhs, elementwise.

    With outcome-dependent eta the per-setting trace normalization can break;
    Assemblage then raises rather than silently renormalizing.
    """
    _require_eta(eta, UNIT)
    w = np.array([eta[k] for k in _KEYS]).reshape(2, 2, 1, 1)
    return Assemblage((1.0 - w) * steerable._sigma + w * mdlhs._sigma)


def md_weight(eta: Dict[AssemblageKey, float]) -> float:
    """Signed measurement-dependent weight 1 - r, with r = eta^{-|x2} / eta^{-|x1}.

    The paper's weight is sum_lambda (p(lambda|x1) - r p(lambda|x2)). Both
    distributions sum to 1, so the sum telescopes to 1 - r whatever they are,
    and they are not inputs. The paper may have lost a term here that keeps
    the hidden variable in the weight; an exact LP for the critical bias of a
    mixed assemblage would decide. The value may be negative; no clamping is
    applied.
    """
    _require_eta(eta, OPEN_UNIT)
    return 1.0 - eta[(-1, 2)] / eta[(-1, 1)]


def weight_limit_values(l: float, p_x1: float, eta_ratio: float) -> Tuple[float, float]:
    """Weight values at the two extremes p(x1|lambda) = l and 1 - l."""
    require_interval("l", l, BIAS)
    require_interval("p(x1)", p_x1, OPEN_UNIT)
    require_interval("eta ratio", eta_ratio, POSITIVE)
    case_low = l / p_x1 - eta_ratio * (1.0 - l) / (1.0 - p_x1)
    case_high = (1.0 - l) / p_x1 - eta_ratio * l / (1.0 - p_x1)
    return case_low, case_high


def weight_bound(
    p_plus_x1: float, p_plus_x2: float, eta: Dict[AssemblageKey, float]
) -> float:
    """Upper bound on the weight for the mixed assemblage to remain steerable.

    (1/eta^{-|x1}) [p(+|x2)(eta^{+|x2} + eta^{-|x2}) - p(+|x1)(eta^{+|x1} + eta^{-|x1})].
    With all eta equal this is 2 [p(+|x2) - p(+|x1)].
    """
    require_interval("p(+|x1)", p_plus_x1, UNIT)
    require_interval("p(+|x2)", p_plus_x2, UNIT)
    _require_eta(eta, OPEN_UNIT)
    return (
        p_plus_x2 * (eta[(+1, 2)] + eta[(-1, 2)])
        - p_plus_x1 * (eta[(+1, 1)] + eta[(-1, 1)])
    ) / eta[(-1, 1)]
