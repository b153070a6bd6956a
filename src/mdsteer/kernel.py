"""Dense two-qubit linear algebra: Pauli observables, pure states, expectations.

Conventions used throughout the package:

- Basis ordering is |00>, |01>, |10>, |11> with Alice's qubit first, so
  tracing out Alice acts on the leading tensor factor.
- Outcomes are labelled +1 / -1 and stored at array index 0 / 1
  (``OUTCOMES``); ``projectors`` builds every projector stack in that order.
- All matrices are plain complex ``numpy`` arrays; this module only adds
  validation on top.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by all validation checks.

    eq:    tolerance for equality comparisons (traces, norms).
    psd:   slack allowed on the smallest eigenvalue of a PSD matrix.
    check: threshold for pass/fail style reports (e.g. no-signalling).
    """

    eq: float = 1e-12
    psd: float = 1e-10
    check: float = 1e-9

    @classmethod
    def from_env(cls) -> "Tolerances":
        """Default tolerances, overridable via the MDSTEER_TOL env var."""
        raw = os.environ.get("MDSTEER_TOL")
        if raw is None:
            return cls()
        try:
            t = float(raw)
        except ValueError:
            raise ValidationError(f"MDSTEER_TOL must be a number, got {raw!r}") from None
        require_finite("MDSTEER_TOL", t)
        if t <= 0:
            raise ValidationError(f"MDSTEER_TOL must be positive, got {raw!r}")
        return cls(eq=t, psd=t, check=t)


TOL = Tolerances()

OUTCOMES = (+1, -1)  # array index 0 <-> +1, index 1 <-> -1
OUTCOME_SIGNS = np.array(OUTCOMES, dtype=float)


def require_finite(what: str, *values: float | np.ndarray) -> None:
    """Reject NaN and infinities, scalar or array; range checks alone pass NaN."""
    for v in values:
        if isinstance(v, np.ndarray):
            finite = np.isfinite(v)
            if not finite.all():
                idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), v.shape))
                raise ValidationError(f"{what} must be finite, got {v[idx]} at index {idx}")
        elif not math.isfinite(v):
            raise ValidationError(f"{what} must be finite, got {v}")


def require_seed(seed: int) -> None:
    """Reject seeds that np.random.default_rng would refuse: non-integers and negatives."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Direction:
    """A unit vector on the Bloch sphere defining a dichotomic observable."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self) -> None:
        require_finite("direction", self.nx, self.ny, self.nz)
        norm2 = self.nx**2 + self.ny**2 + self.nz**2
        if abs(norm2 - 1.0) > 1e-12:
            raise ValidationError(
                f"direction ({self.nx}, {self.ny}, {self.nz}) is not a unit vector"
            )

    @classmethod
    def planar(cls, angle: float) -> "Direction":
        """Direction in the x-z plane at ``angle`` measured from +z toward +x."""
        return cls(math.sin(angle), 0.0, math.cos(angle))

    @classmethod
    def spherical(cls, azimuth: float, polar: float) -> "Direction":
        return cls(
            math.sin(polar) * math.cos(azimuth),
            math.sin(polar) * math.sin(azimuth),
            math.cos(polar),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])


def is_hermitian(m: np.ndarray, tol: float = TOL.eq) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def is_psd(m: np.ndarray, tol: float = TOL.psd) -> bool:
    if not is_hermitian(m, tol=max(tol, TOL.eq)):
        return False
    return float(np.linalg.eigvalsh(m).min()) >= -tol


def pauli_observable(n: Direction) -> np.ndarray:
    """The observable n . sigma: Hermitian, traceless, eigenvalues +/-1."""
    return n.nx * SIGMA_X + n.ny * SIGMA_Y + n.nz * SIGMA_Z


def projector(n: Direction, outcome: int) -> np.ndarray:
    """Projector onto the ``outcome`` (+1 or -1) eigenspace of n . sigma."""
    if outcome not in OUTCOMES:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome}")
    return projectors([n])[0, OUTCOMES.index(outcome)]


def projectors(dirs: Sequence[Direction]) -> np.ndarray:
    """Stack P[s, k] of projectors onto the OUTCOMES[k] eigenspace of dirs[s] . sigma."""
    obs = np.array([pauli_observable(n) for n in dirs])
    return (I2 + OUTCOME_SIGNS[:, None, None] * obs[:, None]) / 2.0


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, Alice's factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class TwoQubitState:
    """A validated 4x4 density matrix (Hermitian, unit trace, PSD)."""

    density: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.density, dtype=complex)
        if rho.shape != (4, 4):
            raise ValidationError(f"density must be 4x4, got shape {rho.shape}")
        if not is_hermitian(rho):
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TOL.eq:
            raise ValidationError(f"density trace is {np.trace(rho).real}, expected 1")
        if float(np.linalg.eigvalsh(rho).min()) < -TOL.psd:
            raise ValidationError("density matrix is not positive semidefinite")
        object.__setattr__(self, "density", rho)

    def purity(self) -> float:
        return float(np.trace(self.density @ self.density).real)


def pure_state(theta: float) -> TwoQubitState:
    """The pure two-qubit family cos(theta)|00> - sin(theta)|11>.

    theta must lie in [0, pi/2]; theta = pi/4 is maximally entangled.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValidationError(f"theta must be in [0, pi/2], got {theta}")
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(theta)
    psi[3] = -math.sin(theta)
    return TwoQubitState(np.outer(psi, psi.conj()))


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
