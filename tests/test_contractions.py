"""The einsum contractions and closed forms checked against their definitions.

The reference functions below spell out each definition with the kernel's
``tensor``, ``projector`` and ``partial_trace_alice``, one (setting, outcome)
pair at a time; the projector stack itself is checked against
``pauli_observable``, and the optimizer's closed-form correlators against the
Born rule. States are complex and mixed and directions leave the x-z plane,
so a transposed index in a contraction changes the result. ``pure_state``,
which checks its density in closed form, is checked against the general
``TwoQubitState`` construction it replaced.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spherical

from mdsteer.behaviors import OUTCOMES, behavior_from_quantum, correlators
from mdsteer.inequality import md_operator
from mdsteer import kernel
from mdsteer.kernel import (
    Direction,
    Tolerances,
    TwoQubitState,
    ValidationError,
    partial_trace_alice,
    pauli_observable,
    projector,
    projectors,
    pure_state,
    tensor,
)
from mdsteer.optimize import QuantumAnsatz, quantum_value
from mdsteer.steering import SETTINGS, assemblage_from_state, behavior_from_assemblage

directions = st.builds(
    spherical,
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, math.pi),
)
direction_pairs = st.tuples(directions, directions)
seeds = st.integers(0, 2**32 - 1)


def random_mixed_state(seed: int) -> TwoQubitState:
    """G G^dagger / Tr for a complex Gaussian G: full rank, complex entries."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return TwoQubitState(rho / np.trace(rho).real)


def reference_pure_density(theta: float) -> np.ndarray:
    """pure_state's density as TwoQubitState(np.outer(psi, psi*)) built it, all checks run."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(theta)
    psi[3] = -math.sin(theta)
    return TwoQubitState(np.outer(psi, psi.conj())).density


def reference_behavior(state, x_dirs, y_dirs):
    p = np.empty((2, 2, 2, 2))
    for ix, nx in enumerate(x_dirs):
        for iy, ny in enumerate(y_dirs):
            for ia, a in enumerate(OUTCOMES):
                for ib, b in enumerate(OUTCOMES):
                    op = tensor(projector(nx, a), projector(ny, b))
                    p[ix, iy, ia, ib] = np.trace(op @ state.density).real
    return np.clip(p, 0.0, None)


def reference_assemblage(state, alice_dirs):
    return {
        (a, x): partial_trace_alice(tensor(projector(n, a), np.eye(2)) @ state.density)
        for x, n in zip(SETTINGS, alice_dirs)
        for a in OUTCOMES
    }


def reference_behavior_from_assemblage(elements, bob_dirs):
    p = np.empty((2, 2, 2, 2))
    for ix, x in enumerate(SETTINGS):
        for iy, m in enumerate(bob_dirs):
            for ia, a in enumerate(OUTCOMES):
                for ib, b in enumerate(OUTCOMES):
                    p[ix, iy, ia, ib] = np.trace(projector(m, b) @ elements[(a, x)]).real
    return np.clip(p, 0.0, None)


@given(dirs=st.lists(directions, min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_projector_stack_is_spectral_decomposition(dirs):
    stack = projectors(dirs)
    assert stack.shape == (len(dirs), 2, 2, 2)
    for s, n in enumerate(dirs):
        plus, minus = stack[s, OUTCOMES.index(+1)], stack[s, OUTCOMES.index(-1)]
        np.testing.assert_allclose(plus - minus, pauli_observable(n), atol=1e-15)
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-15)


@given(dirs=st.lists(directions, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_projector_stack_is_bit_identical_to_definition(dirs):
    want = np.array([[(np.eye(2) + a * pauli_observable(n)) / 2 for a in OUTCOMES] for n in dirs])
    assert np.array_equal(projectors(dirs), want)


@given(
    theta=st.floats(0.0, math.pi / 2),
    dirs=st.tuples(directions, directions, directions, directions),
    p=st.floats(0.0, 0.5),
)
@settings(max_examples=200, deadline=None)
def test_quantum_value_matches_born_rule(theta, dirs, p):
    got = quantum_value(QuantumAnsatz(theta, dirs), p)
    behavior = behavior_from_quantum(pure_state(theta), dirs[:2], dirs[2:])
    assert abs(got - md_operator(correlators(behavior), p)) <= 1e-12


@pytest.mark.parametrize("p", [-1e-9, 0.5 + 1e-9, 1.0, math.nan])
def test_quantum_value_rejects_p_outside_range(p):
    ansatz = QuantumAnsatz(math.pi / 4, tuple(Direction.planar(a) for a in (0.0, 1.0, 2.0, 3.0)))
    with pytest.raises(ValidationError):
        quantum_value(ansatz, p)


@given(seed=seeds, x_dirs=direction_pairs, y_dirs=direction_pairs)
@settings(max_examples=100, deadline=None)
def test_behavior_from_quantum_matches_definition(seed, x_dirs, y_dirs):
    state = random_mixed_state(seed)
    got = behavior_from_quantum(state, x_dirs, y_dirs).probabilities
    np.testing.assert_allclose(got, reference_behavior(state, x_dirs, y_dirs), rtol=0, atol=1e-14)


@given(seed=seeds, alice_dirs=direction_pairs)
@settings(max_examples=100, deadline=None)
def test_assemblage_from_state_matches_definition(seed, alice_dirs):
    state = random_mixed_state(seed)
    got = assemblage_from_state(state, alice_dirs).elements
    want = reference_assemblage(state, alice_dirs)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-14)


@given(seed=seeds, alice_dirs=direction_pairs, bob_dirs=direction_pairs)
@settings(max_examples=100, deadline=None)
def test_behavior_from_assemblage_matches_definition(seed, alice_dirs, bob_dirs):
    state = random_mixed_state(seed)
    asm = assemblage_from_state(state, alice_dirs)
    got = behavior_from_assemblage(asm, bob_dirs).probabilities
    want = reference_behavior_from_assemblage(asm.elements, bob_dirs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # Bob measuring his half of the assemblage is measuring the shared state.
    np.testing.assert_allclose(
        got, reference_behavior(state, alice_dirs, bob_dirs), rtol=0, atol=1e-14
    )


PURE_THETAS = [0.0, math.pi / 4, math.pi / 2, *np.linspace(0.0, math.pi / 2, 33).tolist()]


def check_pure_state(theta: float) -> None:
    density = pure_state(theta).density
    assert density.tobytes() == reference_pure_density(theta).tobytes()
    assert density.dtype == complex and density.flags.c_contiguous
    assert not density.flags.writeable
    assert np.array_equal(TwoQubitState(density).density, density)


@pytest.mark.parametrize("theta", PURE_THETAS)
def test_pure_state_is_bit_identical_to_the_general_construction(theta):
    check_pure_state(theta)


@given(theta=st.floats(0.0, math.pi / 2))
@settings(max_examples=200, deadline=None)
def test_pure_state_matches_the_general_construction_on_draws(theta):
    check_pure_state(theta)


@pytest.mark.parametrize("theta", [-1e-12, math.pi / 2 + 1e-12, 4.0, -math.inf, math.nan])
def test_pure_state_rejects_theta_as_before(theta):
    with pytest.raises(ValidationError, match=re.escape(f"theta must be in [0, pi/2], got {theta}")):
        pure_state(theta)


# Tolerances no density can meet: each closed-form check must then fail as the general one does.
IMPOSSIBLE = [
    ("_NORM_SLACK", -1.0, "density trace is 1.0, expected 1"),
    ("TOL", Tolerances(psd=-1.0), "density matrix is not positive semidefinite"),
]


@pytest.mark.parametrize("name, value, message", IMPOSSIBLE)
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
def test_pure_state_checks_run_with_the_general_messages(monkeypatch, name, value, message, theta):
    monkeypatch.setattr(kernel, name, value)
    for build in (pure_state, reference_pure_density):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(theta)
