"""Dense two-qubit linear algebra: Pauli observables, projectors, states, expectations.

Basis ordering is |00>, |01>, |10>, |11> with Alice's qubit first, so tracing
out Alice acts on the leading tensor factor. Outcomes are stored in OUTCOMES
order: array index 0 <-> +1, index 1 <-> -1, and ``projectors`` builds every
projector stack in that order. All matrices are plain complex ``numpy``
arrays; the validation on top of them comes from ``kernel``.

The Born rules run in Pauli coordinates, with sigma_0 = I. A qubit operator
A is its Bloch row v_j = Tr[A sigma_j], so A = (t I + x sigma_x + y sigma_y +
z sigma_z)/2 for v = (t, x, y, z), with trace t. A projector is its
coefficient row (``projector_rows``) and a two-qubit state its real 4x4
``pauli_coefficients``. Bob's Born rule on Bloch rows is ``born`` and the
qubit PSD test is ``bloch_psd``: every behavior and every PSD verdict of the
package goes through them, and ``bloch_screen`` reads complex 2x2 input as
Bloch rows for them, on Python floats, with the one Hermitian deviation that
``is_hermitian`` computes. ``projectors`` and ``tensor`` build the complex matrices
that the reference definitions use; no Born rule goes through them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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


def _deviation(u: complex, v: complex) -> float:
    """|u - conj(v)|, the Hermitian deviation of the entries m_ij = u and m_ji = v, on Python
    floats: math.hypot gives inf where the difference overflows, and nothing warns."""
    return math.hypot(u.real - v.real, u.imag + v.imag)


def is_hermitian(m: np.ndarray) -> bool:
    """Whether one matrix m equals its conjugate transpose within TOL.eq: every _deviation
    of m_ij and m_ji, i <= j, on m.tolist(); a NaN fails. Non-square input, 0-D and 1-D
    arrays included, is never Hermitian; a stack (ndim > 2) is a ValidationError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim > 2:
        raise ValidationError(f"is_hermitian takes one matrix, got shape {m.shape}")
    if m.ndim < 2 or m.shape[0] != m.shape[1]:
        return False
    rows = m.tolist()
    n = len(rows)
    return all(_deviation(rows[i][j], rows[j][i]) <= TOL.eq for i in range(n) for j in range(i, n))


def bloch_psd(rows: Sequence[Sequence[float]]) -> list:
    """Whether each Bloch row (t, x, y, z) is PSD, one bool per row: t - hypot(x, y, z) >=
    -2 TOL.psd, its operator's smallest eigenvalue (t - |(x, y, z)|)/2 >= -TOL.psd. The rows
    are Python floats, such as an (n, 4) array's tolist(): on a few rows numpy costs more."""
    slack = -2.0 * TOL.psd
    return [t - math.hypot(x, y, z) >= slack for t, x, y, z in rows]


def xyab(p: np.ndarray) -> np.ndarray:
    """The 16 Born values p[xa, yb], rows in Alice's (setting, outcome) order and columns in
    Bob's (in any shape with those 16 entries in C order), as the view p[x][y][a][b]."""
    return p.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)


def born(rows: np.ndarray, bob_rows: np.ndarray) -> np.ndarray:
    """Bob's Born rule p[x][y][a][b] = Tr[P_b^y sigma_{a|x}] = q . v, clipped at 0, for the
    Bloch row v = rows[xa] of Bob's unnormalized state after Alice's outcome a of setting x
    and the projector_rows q = bob_rows[yb] of his measurements; one (4, 4) matmul."""
    return np.maximum(xyab(rows @ bob_rows.T), 0.0)


def bloch_screen(m: np.ndarray) -> Tuple[np.ndarray, list]:
    """(Bloch rows, PSD verdicts) of a C-ordered complex stack m (..., 2, 2), on Python
    floats: the rows (..., 4), the verdicts one bool per matrix, in C order.

    A matrix [[a, b], [c, d]] is read as its lower triangle, as eigvalsh reads it: its Bloch
    row is (t, x, y, z) = (Re a + Re d, 2 Re c, 2 Im c, Re a - Re d). It is PSD when its four
    entries are finite, its Hermitian deviations |2 Im a|, |2 Im d| and |b - conj(c)|, each a
    _deviation as is_hermitian computes it, are <= max(TOL.psd, TOL.eq), and bloch_psd
    passes its row. No caller reads the row of a matrix that fails. No entry, however large,
    makes a warning.
    """
    tol = max(TOL.psd, TOL.eq)
    isfinite = cmath.isfinite
    flat, hermitian = [], []
    for a, b, c, d in m.reshape(-1, 4).tolist():
        flat += (a.real + d.real, 2.0 * c.real, 2.0 * c.imag, a.real - d.real)
        hermitian.append(
            isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)
            and _deviation(a, a) <= tol
            and _deviation(d, d) <= tol
            and _deviation(b, c) <= tol
        )
    values = iter(flat)  # zip takes them four at a time, one Bloch row each
    psd = bloch_psd(zip(values, values, values, values))
    screened = np.array(flat).reshape(m.shape[:-2] + (4,))
    return screened, [h and ok for h, ok in zip(hermitian, psd)]


def is_psd(m: np.ndarray) -> bool | np.ndarray:
    """bloch_screen's verdict: one bool for one 2x2 matrix, one per matrix for a stack
    (..., 2, 2); any other shape, and any array that does not hold numbers, is a
    ValidationError. A matrix with a NaN or an infinite entry fails, without a warning.
    """
    m = np.asarray(numeric_array(m), dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValidationError(f"is_psd takes 2x2 matrices, got shape {m.shape}")
    psd = bloch_screen(np.ascontiguousarray(m))[1]
    return _verdict(np.array(psd, dtype=bool).reshape(m.shape[:-2]))


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
    OUTCOMES[k]: half the projectors' Bloch rows (1, +/-n), as born takes them."""
    flat = []
    for n in dirs:
        x, y, z = 0.5 * n.nx, 0.5 * n.ny, 0.5 * n.nz
        flat += (0.5, x, y, z, 0.5, -x, -y, -z)
    return np.array(flat).reshape(-1, 4)


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
    """A validated 4x4 density matrix (Hermitian, unit trace, PSD); compared by identity.

    It holds its pauli_coefficients, read-only, in ``_pauli``, computed once when it is built.
    """

    density: np.ndarray
    _pauli: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rho = frozen_copy(self.density, complex)
        if rho.shape != (4, 4):
            raise ValidationError(f"density must be 4x4, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValidationError("density matrix must be finite")
        if not is_hermitian(rho):
            raise ValidationError("density matrix is not Hermitian")
        # np.trace's bits, on Python floats, which overflow to inf without a warning: it adds
        # the four diagonal entries in pairs, then the pairs, to an initial 0.0.
        d0, d1, d2, d3 = rho.diagonal().real.tolist()
        trace = 0.0 + ((d0 + d1) + (d2 + d3))
        if unnormalized(trace):
            raise ValidationError(f"density trace is {trace}, expected 1")
        if float(np.linalg.eigvalsh(rho).min()) < -TOL.psd:
            raise ValidationError("density matrix is not positive semidefinite")
        object.__setattr__(self, "density", rho)
        object.__setattr__(self, "_pauli", _coefficients(rho))


def pure_state(theta: float) -> TwoQubitState:
    """The pure two-qubit family cos(theta)|00> - sin(theta)|11>.

    theta must lie in [0, pi/2]; theta = pi/4 is maximally entangled.

    The one construction here that skips TwoQubitState.__post_init__: the density
    psi psi^dagger, the multiply np.outer runs, is Hermitian as built, its one nonzero block,
    on |00>, |11>, has rank one, and its trace cos^2 + sin^2 is within a few ulps of 1, so no
    check could fail. It sets _pauli as __post_init__ does.
    """
    require_interval("theta", theta, RIGHT_ANGLE)
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(theta)
    psi[3] = -math.sin(theta)
    rho = psi[:, None] * psi.conj()
    rho.setflags(write=False)
    state = object.__new__(TwoQubitState)
    object.__setattr__(state, "density", rho)
    object.__setattr__(state, "_pauli", _coefficients(rho))
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


def _coefficients(rho: np.ndarray) -> np.ndarray:
    """The pauli_coefficients of a C-ordered density rho, read-only: one (32,) @ (32, 16)."""
    c = (rho.reshape(16).view(float) @ _PAIR_BASIS).reshape(4, 4)
    c.setflags(write=False)
    return c


def pauli_coefficients(state: TwoQubitState) -> np.ndarray:
    """C[i, j] = Tr[rho sigma_i (x) sigma_j], with sigma_0 = I, as a real 4x4 array.

    rho = sum_ij C[i, j] sigma_i (x) sigma_j / 4: C[0, 0] = 1, row 0 holds Bob's Bloch
    vector, column 0 Alice's and C[1:, 1:] the correlation matrix. With Alice's
    projector_rows Q, Bob's unnormalized state after her outcome a of setting x has the Bloch
    row (Q C)[xa], which born takes. The state's own read-only array, the same on every call.
    """
    return state._pauli


def expectation(state: TwoQubitState, obs: np.ndarray) -> float:
    """Tr[obs . rho] for a Hermitian 4x4 observable: sum_ij Re(obs_ij rho_ji) on Python floats,
    which overflow to inf without a warning; a value that is not finite is refused."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (4, 4):
        raise ValidationError(f"observable must be 4x4, got shape {obs.shape}")
    if not is_hermitian(obs):
        raise ValidationError("observable is not Hermitian")
    value = 0.0
    for o_row, rho_col in zip(obs.tolist(), state.density.T.tolist()):
        for o, r in zip(o_row, rho_col):
            value += o.real * r.real - o.imag * r.imag
    if not math.isfinite(value):
        raise ValidationError(f"expectation value is {value}, not finite")
    return value


def partial_trace_alice(m: np.ndarray) -> np.ndarray:
    """Trace out the first (Alice's) qubit of a 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected 4x4 matrix, got shape {m.shape}")
    blocks = m.reshape(2, 2, 2, 2)
    return blocks[0, :, 0, :] + blocks[1, :, 1, :]
