"""Assemblages and measurement-dependent local-hidden-state (MD-LHS) models.

An assemblage maps Alice's outcome/setting pair (a, x) to the unnormalized
post-measurement state of Bob. An MD-LHS model explains an assemblage via a
hidden variable whose distribution may depend on Alice's setting. This module
also provides the measurement-dependent weight, its limiting values, and the
steerability bound on that weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .behaviors import Behavior

# projector, tensor and partial_trace_alice are no longer called here, but
# perfbench/tracing.py looks them up in this module by name.
from .kernel import (  # noqa: F401
    OUTCOMES,
    TOL,
    Direction,
    TwoQubitState,
    ValidationError,
    is_psd,
    partial_trace_alice,
    projector,
    projectors,
    tensor,
)

SETTINGS = (1, 2)

AssemblageKey = Tuple[int, int]  # (a, x) with a in {+1,-1}, x in {1,2}


@dataclass(frozen=True)
class Assemblage:
    """Map (a, x) -> unnormalized 2x2 PSD matrix sigma_{a|x}.

    Invariants: every element is PSD and the traces sum to 1 for each setting.
    """

    elements: Dict[AssemblageKey, np.ndarray]

    def __post_init__(self) -> None:
        elems = {}
        for x in SETTINGS:
            for a in OUTCOMES:
                if (a, x) not in self.elements:
                    raise ValidationError(f"missing assemblage element for (a={a}, x={x})")
                m = np.asarray(self.elements[(a, x)], dtype=complex)
                if m.shape != (2, 2):
                    raise ValidationError(f"element (a={a}, x={x}) must be 2x2")
                elems[(a, x)] = m
        # PSD and trace checks run on the stack sigma[x][a], after every element is
        # present and 2x2; their faults are reported in the (x, a) order of the loop.
        sigma = np.array(list(elems.values())).reshape(2, 2, 2, 2)
        psd = is_psd(sigma)
        traces = np.trace(sigma, axis1=-2, axis2=-1).real
        for ix, x in enumerate(SETTINGS):
            for ia, a in enumerate(OUTCOMES):
                if not psd[ix, ia]:
                    raise ValidationError(f"element (a={a}, x={x}) is not PSD")
            trace_sum = traces[ix, 0] + traces[ix, 1]
            if abs(trace_sum - 1.0) > 1e-10:
                raise ValidationError(
                    f"traces for x={x} sum to {trace_sum}, expected 1"
                )
        object.__setattr__(self, "elements", elems)

    def outcome_probability(self, a: int, x: int) -> float:
        """p(a|x) = Tr sigma_{a|x}."""
        return float(np.trace(self.elements[(a, x)]).real)


@dataclass(frozen=True)
class MdLhsModel:
    """Discrete hidden-variable model {lambda, p(lambda|x), p(a|x,lambda), rho_{lambda|x}}.

    Arrays are indexed as:
      p_lambda_given_x[x][lam]   shape (2, n)
      p_a_given_x_lambda[x][lam][a]  shape (2, n, 2), a index 0 <-> +1
      states[lam][x]             shape (n, 2, 2, 2) complex densities
    """

    p_lambda_given_x: np.ndarray
    p_a_given_x_lambda: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        plx = np.asarray(self.p_lambda_given_x, dtype=float)
        pax = np.asarray(self.p_a_given_x_lambda, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        n = plx.shape[1] if plx.ndim == 2 else 0
        if plx.shape != (2, n) or n == 0:
            raise ValidationError("p_lambda_given_x must have shape (2, n), n >= 1")
        if pax.shape != (2, n, 2):
            raise ValidationError(f"p_a_given_x_lambda must have shape (2, {n}, 2)")
        if states.shape != (n, 2, 2, 2):
            raise ValidationError(f"states must have shape ({n}, 2, 2, 2)")
        if np.min(plx) < -TOL.eq or np.min(pax) < -TOL.eq:
            raise ValidationError("model probabilities must be non-negative")
        if np.max(np.abs(plx.sum(axis=1) - 1.0)) > 1e-10:
            raise ValidationError("p(lambda|x) must sum to 1 for each x")
        if np.max(np.abs(pax.sum(axis=2) - 1.0)) > 1e-10:
            raise ValidationError("p(a|x,lambda) must sum to 1 for each (x, lambda)")
        traces = np.trace(states, axis1=-2, axis2=-1).real
        invalid = ~is_psd(states) | (np.abs(traces - 1.0) > 1e-10)
        if invalid.any():
            lam, ix = np.argwhere(invalid)[0]  # the first in (lambda, x) order
            raise ValidationError(f"states[{lam}][{ix}] is not a valid density matrix")
        object.__setattr__(self, "p_lambda_given_x", plx)
        object.__setattr__(self, "p_a_given_x_lambda", pax)
        object.__setattr__(self, "states", states)

    @property
    def n_lambdas(self) -> int:
        return self.p_lambda_given_x.shape[1]

    def to_json(self) -> str:
        states = [
            [
                [[z.real, z.imag] for z in self.states[lam, ix].reshape(4)]
                for ix in range(2)
            ]
            for lam in range(self.n_lambdas)
        ]
        return json.dumps(
            {
                "lambdas": self.n_lambdas,
                "pLambdaGivenX": self.p_lambda_given_x.tolist(),
                "pAGivenXLambda": self.p_a_given_x_lambda.tolist(),
                "states": states,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MdLhsModel":
        data = json.loads(text)
        try:
            n = int(data["lambdas"])
            plx = np.array(data["pLambdaGivenX"], dtype=float)
            pax = np.array(data["pAGivenXLambda"], dtype=float)
            raw_states = data["states"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed MD-LHS model JSON: {exc}") from exc
        states = np.empty((n, 2, 2, 2), dtype=complex)
        for lam in range(n):
            for ix in range(2):
                flat = [complex(re, im) for re, im in raw_states[lam][ix]]
                states[lam, ix] = np.array(flat).reshape(2, 2)
        return cls(plx, pax, states)


@dataclass(frozen=True)
class WeightParams:
    """Inputs to the measurement-dependent weight.

    eta maps (a, x) to the mixing weight of the MD-unsteerable component;
    the two distributions are p(lambda|x1) and p(lambda|x2).
    """

    eta: Dict[AssemblageKey, float]
    p_lambda_x1: np.ndarray
    p_lambda_x2: np.ndarray

    def __post_init__(self) -> None:
        for x in SETTINGS:
            for a in OUTCOMES:
                v = self.eta.get((a, x))
                if v is None or not 0.0 < v < 1.0:
                    raise ValidationError(f"eta[(a={a}, x={x})] must lie strictly in (0, 1)")
        for name, dist in (("p_lambda_x1", self.p_lambda_x1), ("p_lambda_x2", self.p_lambda_x2)):
            d = np.asarray(dist, dtype=float)
            if np.min(d) < -TOL.eq or abs(d.sum() - 1.0) > 1e-10:
                raise ValidationError(f"{name} is not a normalized distribution")
        if len(self.p_lambda_x1) != len(self.p_lambda_x2):
            raise ValidationError("the two hidden-variable distributions must share an alphabet")


def _assemblage(sigma: np.ndarray) -> Assemblage:
    """Assemblage from a stack sigma[x][a] of 2x2 matrices in array order."""
    return Assemblage(
        {(a, x): sigma[ix, ia] for ix, x in enumerate(SETTINGS) for ia, a in enumerate(OUTCOMES)}
    )


def _stack(asm: Assemblage) -> np.ndarray:
    """The elements of an assemblage as a stack sigma[x][a] in array order."""
    return np.array([[asm.elements[(a, x)] for a in OUTCOMES] for x in SETTINGS])


def assemblage_from_state(state: TwoQubitState, alice_dirs: Sequence[Direction]) -> Assemblage:
    """sigma_{a|x} = Tr_A[(P_a^x (x) I) rho] for projective measurements."""
    if len(alice_dirs) != 2:
        raise ValidationError("exactly two Alice directions required")
    # rho[(i, k), (j, l)] with Alice's indices i, j first.
    rho = state.density.reshape(2, 2, 2, 2)
    return _assemblage(np.einsum("xaij,jkil->xakl", projectors(alice_dirs), rho))


def assemblage_from_mdlhs(model: MdLhsModel) -> Assemblage:
    """sigma_{a|x} = sum_lambda p(lambda|x) p(a|x,lambda) rho_{lambda|x}."""
    return _assemblage(
        np.einsum(
            "xn,xna,nxij->xaij", model.p_lambda_given_x, model.p_a_given_x_lambda, model.states
        )
    )


def behavior_from_assemblage(asm: Assemblage, bob_dirs: Sequence[Direction]) -> Behavior:
    """p(ab|xy) = Tr[P_b^y sigma_{a|x}] for Bob's projective measurements."""
    if len(bob_dirs) != 2:
        raise ValidationError("exactly two Bob directions required")
    p = np.einsum("ybkl,xalk->xyab", projectors(bob_dirs), _stack(asm))
    return Behavior(np.clip(p.real, 0.0, None))


def mdlhv_decomposition_check(model: MdLhsModel, bob_dirs: Sequence[Direction]) -> float:
    """Max |difference| between the assemblage route and the explicit hidden-variable sum.

    Builds p(ab|xy) once via behavior_from_assemblage(assemblage_from_mdlhs(model))
    and once as sum_lambda p(lambda|x) p(a|x,lambda) Tr[P_b^y rho_{lambda|x}];
    the two agree by linearity of the trace.
    """
    via_assemblage = behavior_from_assemblage(assemblage_from_mdlhs(model), bob_dirs)
    direct = np.einsum(
        "xn,xna,ybkl,nxlk->xyab",
        model.p_lambda_given_x,
        model.p_a_given_x_lambda,
        projectors(bob_dirs),
        model.states,
    ).real
    return float(np.max(np.abs(via_assemblage.probabilities - direct)))


def mix_assemblages(
    steerable: Assemblage,
    mdlhs: Assemblage,
    eta: Dict[AssemblageKey, float],
) -> Assemblage:
    """Convex mixture (1 - eta^{a|x}) steerable + eta^{a|x} mdlhs, elementwise.

    With outcome-dependent eta the per-setting trace normalization can break;
    that case raises rather than silently renormalizing.
    """
    elements = {}
    for x in SETTINGS:
        trace_sum = 0.0
        for a in OUTCOMES:
            w = eta.get((a, x))
            if w is None or not 0.0 <= w <= 1.0:
                raise ValidationError(f"eta[(a={a}, x={x})] must lie in [0, 1]")
            m = (1.0 - w) * steerable.elements[(a, x)] + w * mdlhs.elements[(a, x)]
            elements[(a, x)] = m
            trace_sum += np.trace(m).real
        if abs(trace_sum - 1.0) > 1e-10:
            raise ValidationError(
                f"mixture violates normalization for x={x}: traces sum to {trace_sum}"
            )
    return Assemblage(elements)


def md_weight(params: WeightParams) -> float:
    """Signed weight sum_lambda (p(lambda|x1) - ratio * p(lambda|x2)).

    The ratio is eta^{-|x2} / eta^{-|x1}. With identical distributions this
    reduces to 1 - ratio. The value may be negative; no clamping is applied.
    """
    ratio = params.eta[(-1, 2)] / params.eta[(-1, 1)]
    return float(np.sum(params.p_lambda_x1 - ratio * params.p_lambda_x2))


def weight_limit_values(l: float, p_x1: float, eta_ratio: float) -> Tuple[float, float]:
    """Weight values at the two extremes p(x1|lambda) = l and 1 - l."""
    if not 0.0 <= l <= 0.5:
        raise ValidationError(f"l must be in [0, 0.5], got {l}")
    if not 0.0 < p_x1 < 1.0:
        raise ValidationError(f"p(x1) must lie strictly in (0, 1), got {p_x1}")
    if eta_ratio <= 0.0:
        raise ValidationError(f"eta ratio must be positive, got {eta_ratio}")
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
    for name, v in (("p(+|x1)", p_plus_x1), ("p(+|x2)", p_plus_x2)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {v}")
    for key in ((+1, 1), (-1, 1), (+1, 2), (-1, 2)):
        v = eta.get(key)
        if v is None or not 0.0 < v < 1.0:
            raise ValidationError(f"eta[{key}] must lie strictly in (0, 1)")
    return (
        p_plus_x2 * (eta[(+1, 2)] + eta[(-1, 2)])
        - p_plus_x1 * (eta[(+1, 1)] + eta[(-1, 1)])
    ) / eta[(-1, 1)]
