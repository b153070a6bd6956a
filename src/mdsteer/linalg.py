"""Dense two-qubit linear algebra: Pauli observables, projectors, states, expectations.

Basis ordering is |00>, |01>, |10>, |11> with Alice's qubit first, so tracing
out Alice acts on the leading tensor factor. Outcomes are stored in OUTCOMES
order: array index 0 <-> +1, index 1 <-> -1, and ``projectors`` builds every
projector stack in that order. All matrices are plain complex ``numpy``
arrays; the validation on top of them comes from ``kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import (
    OUTCOMES,
    RIGHT_ANGLE,
    TOL,
    Direction,
    ValidationError,
    frozen_copy,
    require_interval,
    unnormalized,
)

OUTCOME_SIGNS = np.array(OUTCOMES, dtype=float)

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _verdict(ok: np.ndarray) -> bool | np.ndarray:
    return bool(ok) if ok.ndim == 0 else ok


def is_hermitian(m: np.ndarray, tol: float = TOL.eq) -> bool | np.ndarray:
    """Whether m equals its conjugate transpose within tol.

    m is one matrix (returns a bool) or a stack (..., n, n) (returns one bool
    per matrix); non-square input, 0-D and 1-D arrays included, is never Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        return False
    if m.shape[-1] != m.shape[-2]:
        return _verdict(np.zeros(m.shape[:-2], dtype=bool))
    return _verdict(np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol)


# The linear part of the 2x2 screen. A row per float of [[a, b], [c, d]]; the columns are
# four (re, im) pairs, b - conj(c), 2 Im a + 0j, 2 Im d + 0j and c, then (Re a - Re d)/2
# and (Re a + Re d)/2. A column sums at most two nonzero terms with weights +/-1, +/-1/2
# or 2, so it rounds once, as the formula written out does.
_SCREEN_2X2 = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0.5, 0.5],  # Re a
        [0, 0, 2, 0, 0, 0, 0, 0, 0.0, 0.0],  # Im a
        [1, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0],  # Re b
        [0, 1, 0, 0, 0, 0, 0, 0, 0.0, 0.0],  # Im b
        [-1, 0, 0, 0, 0, 0, 1, 0, 0.0, 0.0],  # Re c
        [0, 1, 0, 0, 0, 0, 0, 1, 0.0, 0.0],  # Im c
        [0, 0, 0, 0, 0, 0, 0, 0, -0.5, 0.5],  # Re d
        [0, 0, 0, 0, 2, 0, 0, 0, 0.0, 0.0],  # Im d
    ]
)


def _is_psd_2x2(m: np.ndarray, tol: float) -> np.ndarray:
    """is_psd for a stack (..., 2, 2) of complex matrices, in closed form."""
    entries = np.ascontiguousarray(m).reshape(m.shape[:-2] + (4,)).view(float)
    lin = entries @ _SCREEN_2X2
    # |b - conj(c)|, |2 Im a|, |2 Im d|: is_hermitian's deviations, bit for bit; then |c|.
    mods = np.abs(lin[..., :8].view(complex))
    smallest = lin[..., 9] - np.hypot(lin[..., 8], mods[..., 3])
    return (mods[..., :3].max(axis=-1) <= max(tol, TOL.eq)) & (smallest >= -tol)


def is_psd(m: np.ndarray, tol: float = TOL.psd) -> bool | np.ndarray:
    """Whether m is Hermitian with smallest eigenvalue >= -tol; stacks as is_hermitian.

    A stack of 2x2 matrices [[a, b], [c, d]] is screened in closed form, with a few
    ufunc calls over the whole stack. The Hermitian deviation is
    max(|2 Im a|, |2 Im d|, |b - conj(c)|), the value is_hermitian computes, and it
    gates the smallest eigenvalue (Re a + Re d)/2 - hypot((Re a - Re d)/2, |c|), which
    reads the lower triangle only, as eigvalsh does. The tolerance semantics are those
    of the general path: deviation <= max(tol, TOL.eq) and eigenvalue >= -tol. A NaN or
    an infinite entry fails both. Other sizes take is_hermitian and eigvalsh.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] == (2, 2):
        return _verdict(_is_psd_2x2(m, tol))
    hermitian = is_hermitian(m, tol=max(tol, TOL.eq))
    if not np.any(hermitian):  # also covers non-square input, which eigvalsh rejects
        return hermitian
    # eigvalsh reads one triangle only, so the Hermitian verdict must gate it.
    return _verdict(hermitian & (np.linalg.eigvalsh(m).min(axis=-1) >= -tol))


def pauli_observable(n: Direction) -> np.ndarray:
    """The observable n . sigma: Hermitian, traceless, eigenvalues +/-1."""
    return n.nx * SIGMA_X + n.ny * SIGMA_Y + n.nz * SIGMA_Z


def projector(n: Direction, outcome: int) -> np.ndarray:
    """Projector onto the ``outcome`` (+1 or -1) eigenspace of n . sigma."""
    if outcome not in OUTCOMES:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome}")
    return projectors([n])[0, OUTCOMES.index(outcome)]


# Row r holds the coefficient matrices of (1, nx, ny, nz)[r] in P[k] = (I + s_k n . sigma)/2,
# both outcomes k flattened; every entry is 0 or +/-1/2 (times 1 or i).
_PROJECTOR_BASIS = (
    np.array([[I2, I2]] + [[k * s for k in OUTCOME_SIGNS] for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
    .reshape(4, 8)
    / 2.0
)


def projectors(dirs: Sequence[Direction]) -> np.ndarray:
    """Stack P[s, k] of projectors onto the OUTCOMES[k] eigenspace of dirs[s] . sigma.

    One matmul of (1, nx, ny, nz) rows with _PROJECTOR_BASIS. Each entry sums at
    most two nonzero terms scaled by exact halves, so it equals (I +/- n . sigma)/2
    bit for bit.
    """
    coeffs = np.array([(1.0, n.nx, n.ny, n.nz) for n in dirs])
    return (coeffs @ _PROJECTOR_BASIS).reshape(len(coeffs), 2, 2, 2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, Alice's factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated 4x4 density matrix (Hermitian, unit trace, PSD); compared by identity."""

    density: np.ndarray

    def __post_init__(self) -> None:
        rho = frozen_copy(self.density, complex)
        if rho.shape != (4, 4):
            raise ValidationError(f"density must be 4x4, got shape {rho.shape}")
        if not is_hermitian(rho):
            raise ValidationError("density matrix is not Hermitian")
        trace = np.trace(rho).real
        if unnormalized(trace):
            raise ValidationError(f"density trace is {trace}, expected 1")
        if float(np.linalg.eigvalsh(rho).min()) < -TOL.psd:
            raise ValidationError("density matrix is not positive semidefinite")
        object.__setattr__(self, "density", rho)


def pure_state(theta: float) -> TwoQubitState:
    """The pure two-qubit family cos(theta)|00> - sin(theta)|11>.

    theta must lie in [0, pi/2]; theta = pi/4 is maximally entangled.

    The one construction here that skips TwoQubitState.__post_init__. The density
    np.outer(psi, psi*) is Hermitian as built, and its one nonzero block, on |00>, |11>,
    is [[cc, cs], [cs, ss]], so the trace and smallest-eigenvalue checks run on that
    block in closed form, as _is_psd_2x2 does, with the general path's messages.
    """
    require_interval("theta", theta, RIGHT_ANGLE)
    c, s = math.cos(theta), -math.sin(theta)
    psi = np.zeros(4, dtype=complex)
    psi[0] = c
    psi[3] = s
    rho = np.outer(psi, psi.conj())
    cc, ss, cs = c * c, s * s, c * s  # rho[0, 0], rho[3, 3], rho[0, 3], bit for bit
    if unnormalized(cc + ss):
        raise ValidationError(f"density trace is {cc + ss}, expected 1")
    if (cc + ss) / 2 - math.hypot((cc - ss) / 2, cs) < -TOL.psd:
        raise ValidationError("density matrix is not positive semidefinite")
    rho.setflags(write=False)
    state = object.__new__(TwoQubitState)
    object.__setattr__(state, "density", rho)
    return state


def bell_phi_plus() -> TwoQubitState:
    """The maximally entangled state (|00> + |11>)/sqrt(2)."""
    psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return TwoQubitState(np.outer(psi, psi.conj()))


def expectation(state: TwoQubitState, obs: np.ndarray) -> float:
    """Tr[obs . rho] for a Hermitian 4x4 observable."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (4, 4):
        raise ValidationError(f"observable must be 4x4, got shape {obs.shape}")
    if not is_hermitian(obs):
        raise ValidationError("observable is not Hermitian")
    value = np.trace(obs @ state.density)
    return float(value.real)


def partial_trace_alice(m: np.ndarray) -> np.ndarray:
    """Trace out the first (Alice's) qubit of a 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected 4x4 matrix, got shape {m.shape}")
    blocks = m.reshape(2, 2, 2, 2)
    return blocks[0, :, 0, :] + blocks[1, :, 1, :]
