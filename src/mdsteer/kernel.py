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

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by all validation checks.

    eq:    tolerance for equality comparisons (norms, Hermiticity, negative probabilities).
    psd:   slack allowed on the smallest eigenvalue of a PSD matrix.
    check: threshold for pass/fail style reports (no-signalling, oracle, independence).
    Sums of probabilities and of traces have their own slack, in ``unnormalized``.
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
        require_interval("MDSTEER_TOL", t, POSITIVE)
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


# An input domain (text as messages print it, lo, hi); "(" or ")" in text marks an open end.
# Each domain is written once, here; the comments name the inputs it bounds.
Interval = Tuple[str, float, float]
UNIT: Interval = ("[0, 1]", 0.0, 1.0)  # probabilities p(+|x), q; eta of a mixture; strategy p
OPEN_UNIT: Interval = ("(0, 1)", 0.0, 1.0)  # eta of the weight; p(x1)
POSITIVE: Interval = ("(0, inf)", 0.0, math.inf)  # eta ratio, tolerances
BIAS: Interval = ("[0, 0.5]", 0.0, 0.5)  # measurement dependence p, bias bound l
SWEEP_BIAS: Interval = ("(0, 0.5]", 0.0, 0.5)  # p of the oracle's sweep
RIGHT_ANGLE: Interval = ("[0, pi/2]", 0.0, math.pi / 2)  # state angle theta
OPEN_RIGHT_ANGLE: Interval = ("(0, pi/2)", 0.0, math.pi / 2)  # beta of md_operator, strategy beta
TILT: Interval = ("(0, pi/6]", 0.0, math.pi / 6)  # delta of the tilted behavior
GAMMA: Interval = ("[0, pi/12]", 0.0, math.pi / 12)  # gamma of the randomness behavior
STEPS: Interval = ("[1, 10000]", 1, 10000)  # points of a curve: --steps

_NORM_SLACK = 1e-10  # largest |sum - 1| of a normalized distribution, or of traces


def require_interval(what: str, value: float, domain: Interval) -> None:
    """Reject a scalar outside domain; NaN fails every comparison, so it is rejected too."""
    text, lo, hi = domain
    if lo < value < hi or (value == lo and text[0] == "[") or (value == hi and text[-1] == "]"):
        return
    raise ValidationError(f"{what} must be in {text}, got {value}")


def unnormalized(sums: float | np.ndarray) -> bool | np.ndarray:
    """Whether each sum of probabilities (or of traces) misses 1 by more than _NORM_SLACK."""
    return abs(sums - 1.0) > _NORM_SLACK


def require_distribution(what: str, probs, axis=None) -> np.ndarray:
    """probs as a float array: finite, >= -TOL.eq, summing to 1 over axis (None: all of it)."""
    p = np.asarray(probs, dtype=float)
    sums = p.sum(axis=axis)
    bad = unnormalized(sums)
    # NaN fails the >= test and an infinity puts its sum off 1, so these two
    # reductions screen every fault; the messages below name the first one.
    if not p.min(initial=0.0) >= -TOL.eq or bad.any():
        require_finite(what, p)
        if p.min(initial=0.0) < -TOL.eq:
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(p)), p.shape))
            raise ValidationError(f"{what} must be non-negative, got {p[idx]} at index {idx}")
        idx = tuple(int(i) for i in np.argwhere(bad)[0])  # () when axis is None
        where = f" at index {idx}" if idx else ""
        raise ValidationError(f"{what} must sum to 1, got {sums[idx]}{where}")
    return p


def frozen_copy(values, dtype) -> np.ndarray:
    """A read-only C-ordered copy of values: a validated array that no caller can change."""
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def require_json_object(what: str, text: str) -> dict:
    """text parsed as a JSON object; anything else, or nesting too deep to parse, is refused."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ValidationError(f"malformed {what}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"malformed {what}: expected an object, got {type(data).__name__}")
    return data


def require_numbers(what: str, value) -> np.ndarray:
    """A parsed JSON value as a float array, every leaf of it a number.

    np.array would read the string "0.5", true and null as 0.5, 1.0 and nan; they are refused.
    """

    def check(v) -> None:
        if isinstance(v, list):
            for item in v:
                check(item)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{what} must hold only numbers, got {v!r}")

    check(value)
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged nesting; an int beyond float range
        raise ValidationError(f"{what} is not a numeric array: {exc}") from None


def require_count(what: str, value: int, least: int = 0) -> None:
    """Reject anything but an integer >= least; seeds use least = 0, as np.random.default_rng.

    A bool is an int to Python, but True is not a count: it is rejected too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")


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
        if abs(norm2 - 1.0) > TOL.eq:
            raise ValidationError(
                f"direction ({self.nx}, {self.ny}, {self.nz}) is not a unit vector"
            )

    @classmethod
    def planar(cls, angle: float) -> "Direction":
        """Direction in the x-z plane at ``angle`` measured from +z toward +x."""
        return cls(math.sin(angle), 0.0, math.cos(angle))


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

    Kernel's one construction that skips TwoQubitState.__post_init__. The density
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
