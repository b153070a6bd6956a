"""Dense two-qubit linear algebra: Pauli observables, projectors, states, expectations.

Basis ordering is |00>, |01>, |10>, |11> with Alice's qubit first, so tracing
out Alice acts on the leading tensor factor. Outcomes are stored in OUTCOMES
order: array index 0 <-> +1, index 1 <-> -1, and ``projectors`` builds every
projector stack in that order. All matrices are plain complex ``numpy``
arrays; the validation on top of them comes from ``kernel``.

The Born rules run in Pauli coordinates, with sigma_0 = I. A qubit operator
A is its Bloch row v_j = Tr[A sigma_j], so A = (t I + x sigma_x + y sigma_y +
z sigma_z)/2 for v = (t, x, y, z): its trace is t, and it is PSD exactly when
|(x, y, z)| <= t. A projector (I +/- n . sigma)/2 is its coefficient row
q = (1, +/-n)/2 (``projector_rows``), so Tr[P A] = q . v; a two-qubit state
is its real 4x4 ``pauli_coefficients`` C[i, j] = Tr[rho sigma_i (x) sigma_j].
``bloch_screen`` reads complex 2x2 input as Bloch rows with its PSD verdicts.
``projectors`` and ``tensor`` build the complex matrices that the reference
definitions use; no Born rule goes through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .kernel import (
    OUTCOMES,
    RIGHT_ANGLE,
    TOL,
    Direction,
    ValidationError,
    frozen_copy,
    numeric_array,
    require_interval,
    unnormalized,
)

OUTCOME_SIGNS = np.array(OUTCOMES, dtype=float)

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.array([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])  # sigma_0 = I, then sigma_x, sigma_y, sigma_z


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


# The linear part of the 2x2 screen. A row per float of [[a, b], [c, d]]. The columns are the
# Bloch row (t, x, y, z) = (Re a + Re d, 2 Re c, 2 Im c, Re a - Re d) of the lower triangle;
# four (re, im) pairs, b - conj(c), 2 Im a + 0j, 2 Im d + 0j and c; then (Re a - Re d)/2 and
# (Re a + Re d)/2. A column sums at most two nonzero terms with weights +/-1, +/-1/2 or 2, so
# it rounds once, as the formula written out does.
_SCREEN_2X2 = np.array(
    [
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, 0.5],  # Re a
        [0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0.0, 0.0],  # Im a
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0],  # Re b
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0.0, 0.0],  # Im b
        [0, 2, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0.0, 0.0],  # Re c
        [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0.0, 0.0],  # Im c
        [1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, -0.5, 0.5],  # Re d
        [0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0.0, 0.0],  # Im d
    ]
)


def bloch_screen(m: np.ndarray, tol: float = TOL.psd) -> Tuple[np.ndarray, np.ndarray]:
    """(Bloch rows, PSD verdicts) of a C-ordered complex stack m (..., 2, 2), in one matmul.

    A matrix [[a, b], [c, d]] is read as its lower triangle, as eigvalsh reads it: its Bloch
    row is (t, x, y, z) = (Re a + Re d, 2 Re c, 2 Im c, Re a - Re d). It is PSD when its
    Hermitian deviation max(|2 Im a|, |2 Im d|, |b - conj(c)|), is_hermitian's value bit for
    bit, is <= max(tol, TOL.eq) and its smallest eigenvalue (Re a + Re d)/2 -
    hypot((Re a - Re d)/2, |c|) is >= -tol. A matrix with a NaN or an infinite entry is
    screened as the zero matrix and fails, so no operation sees the entry and none warns.
    """
    entries = m.reshape(m.shape[:-2] + (4,)).view(float)
    finite = None
    if not np.isfinite(entries).all():
        finite = np.isfinite(entries).all(axis=-1)
        entries = np.where(finite[..., None], entries, 0.0)
    lin = entries @ _SCREEN_2X2
    mods = np.abs(lin[..., 4:12].view(complex))
    smallest = lin[..., 13] - np.hypot(lin[..., 12], mods[..., 3])
    psd = (mods[..., :3].max(axis=-1) <= max(tol, TOL.eq)) & (smallest >= -tol)
    return lin[..., :4], psd if finite is None else psd & finite


def is_psd(m: np.ndarray, tol: float = TOL.psd) -> bool | np.ndarray:
    """Whether m is Hermitian with smallest eigenvalue >= -tol: one bool for one 2x2
    matrix, one per matrix for a stack (..., 2, 2); any other shape, and any array
    that does not hold numbers, is a ValidationError.

    Each matrix is screened in closed form by bloch_screen, with a few ufunc calls over
    the whole stack: its Hermitian deviation, the value is_hermitian computes, gates
    the smallest eigenvalue of its lower triangle. A matrix with a NaN or an infinite
    entry fails, without a warning.
    """
    m = np.asarray(numeric_array(m), dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValidationError(f"is_psd takes 2x2 matrices, got shape {m.shape}")
    return _verdict(bloch_screen(np.ascontiguousarray(m), tol)[1])


def pauli_observable(n: Direction) -> np.ndarray:
    """The observable n . sigma: Hermitian, traceless, eigenvalues +/-1."""
    return n.nx * SIGMA_X + n.ny * SIGMA_Y + n.nz * SIGMA_Z


def projector(n: Direction, outcome: int) -> np.ndarray:
    """Projector onto the ``outcome`` (+1 or -1) eigenspace of n . sigma."""
    if outcome not in OUTCOMES:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome}")
    return projectors([n])[0, OUTCOMES.index(outcome)]


# Row j: the 8 floats (re, im of each entry, row-major) of PAULIS[j]. Every entry is 0 or
# +/-1, and each entry of a matrix sums at most two nonzero terms.
_PAULI_FLOATS = PAULIS.reshape(4, 4).view(float)


def pauli_matrices(coeffs: np.ndarray) -> np.ndarray:
    """The matrices sum_j q_j sigma_j of coefficient rows q (..., 4), as a complex stack
    (..., 2, 2): exactly Hermitian. A Bloch row v gives its matrix as pauli_matrices(v / 2)."""
    return (coeffs @ _PAULI_FLOATS).view(complex).reshape(coeffs.shape[:-1] + (2, 2))


def projector_rows(dirs: Sequence[Direction]) -> np.ndarray:
    """Coefficient rows q = (1, +/-n)/2 of the projectors (I +/- n . sigma)/2 = sum_j q_j
    sigma_j, one per (direction, outcome) in OUTCOMES order: row 2 s + k for dirs[s] and
    OUTCOMES[k]. They are half the projectors' Bloch rows (1, +/-n), so Bob's Born rule on
    an operator with Bloch row v is the dot product Tr[P A] = q . v."""
    rows = []
    for n in dirs:
        x, y, z = 0.5 * n.nx, 0.5 * n.ny, 0.5 * n.nz
        rows += ((0.5, x, y, z), (0.5, -x, -y, -z))
    return np.array(rows)


def projectors(dirs: Sequence[Direction]) -> np.ndarray:
    """Stack P[s, k] of projectors onto the OUTCOMES[k] eigenspace of dirs[s] . sigma.

    The pauli_matrices of the projector_rows. Each entry sums at most two nonzero terms,
    so it equals (I +/- n . sigma)/2 bit for bit.
    """
    return pauli_matrices(projector_rows(dirs)).reshape(len(dirs), 2, 2, 2)


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


# Column 4 i + j: the 32 floats (re, im of each entry, row-major) of conj(S^T) for
# S = sigma_i (x) sigma_j, so that a density's 32 floats times it give Re Tr[rho S]. Each
# column has four nonzero entries, each 1 or -1.
_PAIR_BASIS = np.ascontiguousarray(
    np.array([np.kron(a, b).T.conj() for a in PAULIS for b in PAULIS]).reshape(16, 16).view(float).T
)


def pauli_coefficients(state: TwoQubitState) -> np.ndarray:
    """C[i, j] = Tr[rho sigma_i (x) sigma_j], with sigma_0 = I, as a real 4x4 array.

    rho = sum_ij C[i, j] sigma_i (x) sigma_j / 4: C[0, 0] = 1, row 0 holds Bob's Bloch
    vector, column 0 Alice's and C[1:, 1:] the correlation matrix. With the projector_rows
    Q and R of the two parties (half their Bloch rows N and M), p(ab|xy) = (Q C R^T)[xa, yb],
    N C M^T / 4, and Bob's unnormalized state after Alice's outcome a of setting x has the
    Bloch row (Q C)[xa], N C / 2.
    """
    return (state.density.reshape(16).view(float) @ _PAIR_BASIS).reshape(4, 4)


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
