"""Assemblages and measurement-dependent local-hidden-state (MD-LHS) models.

An assemblage maps Alice's outcome/setting pair (a, x) to the unnormalized
post-measurement state of Bob. An MD-LHS model explains an assemblage via a
hidden variable whose distribution may depend on Alice's setting. This module
also provides the measurement-dependent weight md_weight(eta) = 1 - r, a ratio
of mixing weights that no hidden-variable distribution enters, its limiting
values, and the steerability bound on that weight.

Every operator here is held as its Bloch row (t, x, y, z), sigma = (t I +
x sigma_x + y sigma_y + z sigma_z)/2 (see ``linalg``), and every producer is a
real matmul of such rows. With N the Bloch rows (1, +/-n) of Alice's
projectors and C the state's ``pauli_coefficients``:
  assemblage_from_state      V = N C / 2
  assemblage_from_mdlhs      V[x][a] = sum_lambda p(lambda|x) p(a|x,lambda) v_{lambda|x}
  mix_assemblages            V = (1 - eta) V_steerable + eta V_mdlhs
and behavior_from_assemblage is ``linalg.born`` on V. Each derived array is computed once,
by the object that owns it: a state holds C, an MD-LHS model its assemblage's V
(``_rows``). One PSD criterion,
``linalg.bloch_psd``, checks every row: a producer's rows directly, an
assemblage given as complex matrices and an MD-LHS model's complex states
through ``linalg.bloch_screen``, which reads them on Python floats; each
setting's traces t must sum to 1.
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
    numeric_array,
    require_distribution,
    require_interval,
    unnormalized,
)

# projector, tensor, partial_trace_alice and is_psd are no longer called here, but
# perfbench/tracing.py looks them up in this module by name.
from .linalg import (  # noqa: F401
    TwoQubitState,
    bloch_psd,
    bloch_screen,
    born,
    is_psd,
    partial_trace_alice,
    pauli_coefficients,
    pauli_matrices,
    projector,
    projector_rows,
    tensor,
    xyab,
)

SETTINGS = (1, 2)

AssemblageKey = Tuple[int, int]  # (a, x) with a in {+1,-1}, x in {1,2}


# Key (a, x) of each matrix of a stack sigma[x][a], in flat order: the one map between the two.
_KEYS = tuple((a, x) for x in SETTINGS for a in OUTCOMES)


def _keyed(sigma: np.ndarray) -> Dict[AssemblageKey, np.ndarray]:
    """The matrices of a stack sigma[x][a] as views keyed by (a, x)."""
    return dict(zip(_KEYS, sigma.reshape(len(_KEYS), 2, 2)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check(psd: Sequence[bool], traces: Sequence[float]) -> None:
    """Raise for the first element, in _KEYS order, that is not PSD, or whose setting's traces,
    summed at its last element, miss 1."""
    for i, (a, x) in enumerate(_KEYS):
        if not psd[i]:
            raise ValidationError(f"element (a={a}, x={x}) is not PSD")
        if a == OUTCOMES[-1] and unnormalized(trace_sum := traces[i - 1] + traces[i]):
            raise ValidationError(f"traces for x={x} sum to {trace_sum}, expected 1")


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Map (a, x) -> unnormalized 2x2 PSD matrix sigma_{a|x}.

    Built from that map, or from a stack sigma[x][a] of shape (2, 2, 2, 2). Stored once, as
    a read-only stack; ``elements`` holds views of it. Every element is also held as its
    Bloch row (t, x, y, z), sigma = (t I + x sigma_x + y sigma_y + z sigma_z)/2, in the
    read-only (4, 4) array ``_bloch`` in _KEYS order, which the Born rule, mixtures and
    outcome probabilities read. Invariants: every element is PSD by linalg.bloch_psd and each
    setting's traces sum to 1. Compared by identity.

    The producers build an Assemblage from Bloch rows (``_from_bloch``): the rows are checked
    as rows and the stack is derived from them.
    """

    elements: Dict[AssemblageKey, np.ndarray] | np.ndarray
    _bloch: np.ndarray = field(init=False, repr=False)

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
                if numeric_array(self.elements[(a, x)]).shape != (2, 2):
                    raise ValidationError(f"element (a={a}, x={x}) must be 2x2")
            flat = frozen_copy([self.elements[k] for k in _KEYS], complex)
        rows, psd = bloch_screen(flat)
        _check(psd, rows[:, 0].tolist())
        object.__setattr__(self, "elements", _keyed(flat))
        object.__setattr__(self, "_bloch", _read_only(rows))

    @classmethod
    def _from_bloch(cls, rows: np.ndarray) -> "Assemblage":
        """The assemblage of Bloch rows (4, 4) in _KEYS order, checked as rows; it keeps the
        array it is given, made read-only."""
        flat = rows.tolist()
        _check(bloch_psd(flat), [row[0] for row in flat])
        sigma = _read_only(pauli_matrices(0.5 * rows))
        asm = object.__new__(cls)
        object.__setattr__(asm, "elements", _keyed(sigma))
        object.__setattr__(asm, "_bloch", _read_only(rows))
        return asm

    def outcome_probability(self, a: int, x: int) -> float:
        """p(a|x) = Tr sigma_{a|x}, the trace t of its Bloch row, for a in OUTCOMES and x in
        SETTINGS."""
        if a not in OUTCOMES or x not in SETTINGS:
            raise ValidationError(f"no assemblage element for (a={a}, x={x})")
        return float(self._bloch[_KEYS.index((a, x)), 0])


@dataclass(frozen=True, eq=False)
class MdLhsModel:
    """Discrete hidden-variable model {lambda, p(lambda|x), p(a|x,lambda), rho_{lambda|x}}.

    Arrays are indexed as:
      p_lambda_given_x[x][lam]   shape (2, n)
      p_a_given_x_lambda[x][lam][a]  shape (2, n, 2), a index 0 <-> +1
      states[lam][x]             shape (n, 2, 2, 2) complex densities
    The model keeps read-only C-ordered copies of them, the Bloch rows of the states,
    indexed [x][lam], in ``_bloch``, and the (4, 4) Bloch rows of its assemblage, in _KEYS
    order, in ``_rows``. Compared by identity.
    """

    p_lambda_given_x: np.ndarray
    p_a_given_x_lambda: np.ndarray
    states: np.ndarray
    _bloch: np.ndarray = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)

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
        rows, psd = bloch_screen(states)
        # The first fault in (lambda, x) order, from one verdict and one trace per state.
        for i, (ok, trace) in enumerate(zip(psd, rows[..., 0].ravel().tolist())):
            if not ok or unnormalized(trace):
                raise ValidationError(f"states[{i // 2}][{i % 2}] is not a valid density matrix")
        object.__setattr__(self, "p_lambda_given_x", plx)
        object.__setattr__(self, "p_a_given_x_lambda", pax)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_bloch", _read_only(rows.transpose(1, 0, 2)))
        object.__setattr__(self, "_rows", _read_only((_weights(self) @ self._bloch).reshape(4, 4)))


def _require_eta(eta: Dict[AssemblageKey, float], domain: Interval) -> None:
    """Every eta^{a|x} in domain, in (x, a) order; a missing one reads as NaN, which fails."""
    for a, x in _KEYS:
        require_interval(f"eta[(a={a}, x={x})]", eta.get((a, x), np.nan), domain)


def _require_two(dirs: Sequence[Direction], party: str) -> None:
    if len(dirs) != 2:
        raise ValidationError(f"exactly two {party} directions required")


def _weights(model: MdLhsModel) -> np.ndarray:
    """w[x][a][lambda] = p(lambda|x) p(a|x,lambda)."""
    return model.p_a_given_x_lambda.transpose(0, 2, 1) * model.p_lambda_given_x[:, None, :]


def assemblage_from_state(state: TwoQubitState, alice_dirs: Sequence[Direction]) -> Assemblage:
    """sigma_{a|x} = Tr_A[(P_a^x (x) I) rho] for projective measurements.

    In Bloch rows: N C / 2 for the Bloch rows N of Alice's projectors and the state's
    pauli_coefficients C, taken as Q C with her projector_rows Q = N/2.
    """
    _require_two(alice_dirs, "Alice")
    return Assemblage._from_bloch(projector_rows(alice_dirs) @ pauli_coefficients(state))


def assemblage_from_mdlhs(model: MdLhsModel) -> Assemblage:
    """sigma_{a|x} = sum_lambda p(lambda|x) p(a|x,lambda) rho_{lambda|x}, a new one per call.

    In Bloch rows: the model's ``_rows``, one batched matmul of the weights w[x][a][lambda]
    with the states' rows, computed when the model was built.
    """
    return Assemblage._from_bloch(model._rows)


def behavior_from_assemblage(asm: Assemblage, bob_dirs: Sequence[Direction]) -> Behavior:
    """p(ab|xy) = Tr[P_b^y sigma_{a|x}] for Bob's projective measurements: linalg.born on
    the assemblage's Bloch rows and Bob's projector_rows."""
    _require_two(bob_dirs, "Bob")
    return Behavior(born(asm._bloch, projector_rows(bob_dirs)))


def mdlhv_decomposition_check(model: MdLhsModel, bob_dirs: Sequence[Direction]) -> float:
    """Max |difference| between the assemblage route and the explicit hidden-variable sum.

    Computes p(ab|xy) once by Bob's Born rule on the model's assemblage rows, as
    behavior_from_assemblage(assemblage_from_mdlhs(model)) does but validating neither, and
    once as sum_lambda p(lambda|x) p(a|x,lambda) Tr[P_b^y rho_{lambda|x}]; they agree by linearity.
    """
    _require_two(bob_dirs, "Bob")
    bob = projector_rows(bob_dirs)
    via = born(model._rows, bob)
    direct = xyab(_weights(model) @ (model._bloch @ bob.T))
    return max(map(abs, (via - direct).ravel().tolist()))


def mix_assemblages(
    steerable: Assemblage,
    mdlhs: Assemblage,
    eta: Dict[AssemblageKey, float],
) -> Assemblage:
    """Convex mixture (1 - eta^{a|x}) steerable + eta^{a|x} mdlhs, elementwise, of their
    Bloch rows.

    With outcome-dependent eta the per-setting trace normalization can break;
    Assemblage then raises rather than silently renormalizing.
    """
    _require_eta(eta, UNIT)
    w = np.array([eta[k] for k in _KEYS])[:, None]
    return Assemblage._from_bloch((1.0 - w) * steerable._bloch + w * mdlhs._bloch)


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
