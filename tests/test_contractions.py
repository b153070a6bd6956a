"""The einsum contractions and closed forms checked against their definitions.

The reference functions below spell out each definition with linalg's
``tensor``, ``projector`` and ``partial_trace_alice``, one (setting, outcome)
pair at a time; the projector stack itself is checked against
``pauli_observable``, and the optimizer's closed-form correlators against the
Born rule. States are complex and mixed and directions leave the x-z plane,
so a transposed index in a contraction changes the result. ``pure_state``,
which checks its density in closed form, is checked against the general
``TwoQubitState`` construction it replaced. The plain-float routes that run
without numpy (a behavior's table, the CLI's p grid, the oracle's vertex
maximum, the adversary's report and the tables of the two behaviors on
(|00> + |11>)/sqrt(2)) are checked bit for bit against numpy copies of the
array code they replaced; tests/test_oracle.py and the acceptance suite use
the oracle's copy too.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import spherical

from mdsteer import kernel, linalg, table
from mdsteer.adversary import BiasModel, constraint_report
from mdsteer.behaviors import (
    OUTCOMES,
    behavior_from_quantum,
    correlators,
    randomness_behavior,
    tilted_behavior,
)
from mdsteer.cli import _linspace
from mdsteer.inequality import md_operator, operator_value
from mdsteer.kernel import GAMMA, TILT, TOL, Direction, Tolerances, ValidationError
from mdsteer.linalg import (
    TwoQubitState,
    bell_phi_plus,
    partial_trace_alice,
    pauli_observable,
    projector,
    projectors,
    pure_state,
    tensor,
)
from mdsteer.optimize import QuantumAnsatz, quantum_value
from mdsteer.oracle import XI_GRID_POINTS, ExtremalStrategy, extremal_correlators, vertex_maximum
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
    for module in (kernel, linalg):  # linalg runs the checks with the TOL it imported
        if hasattr(module, name):
            monkeypatch.setattr(module, name, value)
    for build in (pure_state, reference_pure_density):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(theta)


# ------------------------------------------------ plain-float routes against numpy


def same_bits(got, want) -> bool:
    """Equal float for float, signed zeros told apart and every NaN equal to every NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    return got.shape == want.shape and np.array_equal(
        np.where(both_nan, 0.0, got).view(np.int64), np.where(both_nan, 0.0, want).view(np.int64)
    )


def reference_linspace(start, stop, num):
    """The CLI's p grid as numpy built it; an overflowing span only warns there."""
    with np.errstate(all="ignore"):
        return np.linspace(start, stop, num)


@given(
    start=st.floats(allow_nan=False, allow_infinity=False),
    stop=st.floats(allow_nan=False, allow_infinity=False),
    num=st.integers(1, 10_000),
)
@example(start=0.0, stop=0.5, num=26)
@example(start=0.2, stop=0.2, num=7)  # p_min == p_max
@example(start=-0.0, stop=-0.0, num=1)
@example(start=-0.0, stop=0.0, num=3)
@example(start=0.0, stop=-0.0, num=2)
@example(start=0.0, stop=1.5e-323, num=8)  # the step underflows to 0
@example(start=0.0, stop=1e-320, num=3)  # a subnormal step
@example(start=-1e308, stop=1e308, num=3)  # stop - start overflows
@example(start=1.7976931348623157e308, stop=-1.7976931348623157e308, num=1)
@settings(max_examples=300, deadline=None)
def test_p_grid_is_numpy_linspace(start, stop, num):
    assert same_bits(_linspace(start, stop, num), reference_linspace(start, stop, num))


SIGNS_AB = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a * b, indexed [a][b]


def reference_correlators(t):
    with np.errstate(all="ignore"):
        return np.einsum("xyab,ab->xy", np.reshape(t, (2, 2, 2, 2)), SIGNS_AB).ravel()


def reference_no_signalling(t):
    p = np.reshape(t, (2, 2, 2, 2))
    alice = p.sum(axis=3)  # p(a|x, y) indexed [x][y][a]
    bob = p.sum(axis=2)  # p(b|x, y) indexed [x][y][b]
    diffs = np.concatenate([alice[:, 0, :] - alice[:, 1, :], bob[0, :, :] - bob[1, :, :]])
    return float(np.abs(diffs).max())


def reference_check(t) -> str:
    """The behavior check as require_distribution(p, (2, 3)) ran it: "" or its message."""
    try:
        with np.errstate(all="ignore"):
            kernel.require_distribution("p(ab|xy)", np.reshape(t, (2, 2, 2, 2)), (2, 3))
    except ValidationError as exc:
        return str(exc)
    return ""


def table_check(t) -> str:
    try:
        table.require_table("p(ab|xy)", t)
    except ValidationError as exc:
        return str(exc)
    return ""


SPECIAL = [0.0, -0.0, 0.25, 0.5, 1.0, 1e-300, -1e-13, -2e-12, -0.05, 1.5, 1e308,
           math.nan, math.inf, -math.inf]
entries = st.one_of(st.floats(-0.1, 1.1), st.sampled_from(SPECIAL), st.floats())


@st.composite
def blocks(draw):
    """p(ab|xy) for one (x, y): normalized up to rounding, or four free entries."""
    if draw(st.booleans()):
        a, b, c = (draw(st.floats(0.0, 1.0)) for _ in range(3))
        total = a + b + c or 1.0
        a, b, c = a / total / 2, b / total / 2, c / total / 2
        return [a, b, c, 1.0 - a - b - c]
    return [draw(entries) for _ in range(4)]


@st.composite
def tables(draw):
    """16 entries from four blocks, then a few entries replaced by special values."""
    t = [v for _ in range(4) for v in draw(blocks())]
    for i in draw(st.lists(st.integers(0, 15), max_size=3)):
        t[i] = draw(st.sampled_from(SPECIAL))
    return tuple(t)


finite_tables = st.lists(
    st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, -0.0, 0.25, 0.5])),
    min_size=16, max_size=16,
).map(tuple)


@given(t=st.one_of(tables(), st.lists(st.floats(), min_size=16, max_size=16).map(tuple)))
@example(t=(-0.0, 0.0, 0.0, -0.0) * 4)  # a zero sum that einsum returns as +0.0
@settings(max_examples=500, deadline=None)
def test_table_correlators_are_the_einsum(t):
    c = table.correlators(t)
    assert same_bits([c.e11, c.e12, c.e21, c.e22], reference_correlators(t))


@given(t=st.one_of(tables(), finite_tables))
@settings(max_examples=500, deadline=None)
def test_table_no_signalling_is_the_marginal_sum_form(t):
    # It runs on checked behaviors: finite entries near [0, 1], whose sums cannot overflow.
    t = tuple(v if abs(v) <= 2.0 else 0.5 for v in t)
    assert same_bits(table.no_signalling_check(t).max_deviation, reference_no_signalling(t))


@given(t=tables())
@example(t=(0.25,) * 16)
@example(t=(-0.0,) * 16)
@example(t=(math.nan,) * 16)
@example(t=(0.25,) * 15 + (math.inf,))
@example(t=(0.25, 0.25, 0.25, -math.inf) + (0.25,) * 12)
@example(t=(0.25,) * 8 + (0.55, -0.05, 0.25, 0.25) + (0.25,) * 4)
@example(t=(0.6, -0.1, 0.25, 0.25) * 4)  # the first of equal smallest entries is named
@example(t=(0.3,) * 16)
@example(t=(0.25 + 5e-11, 0.25, 0.25, 0.25 - 1e-12) * 4)
@settings(max_examples=1000, deadline=None)
def test_table_check_is_require_distribution(t):
    assert table_check(t) == reference_check(t)


# ------------------------------------ the oracle, the adversary and the Phi+ tables against numpy

# Sign of Alice's response, indexed [setting][chi - 1]: rows x1, x2; columns chi = 1..4.
CHI_SIGNS = np.array([[+1.0, -1.0, +1.0, -1.0], [+1.0, -1.0, -1.0, +1.0]])

XI_GRID = np.linspace(-math.pi, math.pi, XI_GRID_POINTS, endpoint=False)


def component_correlators(chi, xi, p, beta=math.pi / 4):
    """Reweighted correlators (e11, e12, e21, e22) of extremal strategies; shape (4,) + chi.shape.

    The oracle's array kernel: chi and xi have one shape. Entry (x, y) is
    sign_x(chi) * 2 p(x) * cos(xi +- beta), with p(x1) = 1 - p and p(x2) = p.
    """
    factors = np.take(CHI_SIGNS * [[2.0 * (1.0 - p)], [2.0 * p]], np.asarray(chi) - 1, axis=1)
    cosines = np.cos([xi + beta, xi - beta])
    return np.concatenate([cosines * factors[0], cosines * factors[1]])


def reference_vertex_maximum(p):
    """(value, chi, xi) of the first maximum of the array operator over all 4 x 720 vertices."""
    chi = np.repeat(np.arange(1, 5), XI_GRID_POINTS)
    values = operator_value(*component_correlators(chi, np.tile(XI_GRID, 4), p), p)
    best = int(np.argmax(values))
    return float(values[best]), int(chi[best]), float(XI_GRID[best % XI_GRID_POINTS])


# p uniform on (0, 0.5] and log-uniform down to 1e-150, where operator_value's squares still hold.
sweep_biases = st.one_of(
    st.floats(0.0, 0.5, exclude_min=True),
    st.floats(-150.0, math.log10(0.5)).map(lambda e: 10.0**e),
)


@given(p=sweep_biases)
@example(p=0.5)
@example(p=0.35)
@example(p=0.3264)
@example(p=1e-100)
@example(p=1e-150)
@example(p=1e-160)  # the squares underflow; the bits still agree
@example(p=5e-324)
@settings(max_examples=300, deadline=None)
def test_vertex_maximum_is_the_array_grid(p):
    value, witness = vertex_maximum(p)
    want, chi, xi = reference_vertex_maximum(p)
    assert same_bits(value, want)
    assert (witness.chi, witness.xi, witness.p, witness.beta) == (chi, xi, p, math.pi / 4)


@given(
    chi=st.integers(1, 4),
    xi=st.floats(-1e6, 1e6),
    p=st.floats(0.0, 1.0),
    beta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
)
@settings(max_examples=500, deadline=None)
def test_extremal_correlators_are_the_array_kernel(chi, xi, p, beta):
    c = extremal_correlators(ExtremalStrategy(chi, xi, p, beta))
    assert all(type(e) is float for e in (c.e11, c.e12, c.e21, c.e22))
    assert same_bits([c.e11, c.e12, c.e21, c.e22], component_correlators(chi, xi, p, beta))


def reference_report_json(model) -> str:
    """constraint_report's record as the numpy code built it, with numpy's BLAS dot."""
    p_lambda = np.array([math.sin(model.delta) ** 2, math.cos(model.delta) ** 2])
    c1, c2 = math.cos(model.theta) ** 2, math.cos(model.phi) ** 2
    rows = np.array([[c1, 1.0 - c1], [c2, 1.0 - c2]])
    return json.dumps({
        "pX1": float(p_lambda @ np.array([c1, c2])),
        "pLambda": p_lambda.tolist(),
        "pXGivenLambda": rows.tolist(),
        "maxL": float(rows.min()),
        "independent": bool(np.abs(rows[0] - rows[1]).max() <= TOL.check),
    })


angles = st.floats(allow_nan=False, allow_infinity=False)


@given(theta=angles, phi=angles, delta=angles)
@example(theta=0.3, phi=2.051, delta=2.447)  # the README's example
@example(theta=math.pi / 4, phi=math.pi / 4, delta=1.0)  # a fair coin
@example(theta=0.0, phi=math.pi / 2, delta=0.0)
@example(theta=-1e-3, phi=2.051, delta=2.447)
@example(theta=1e308, phi=-1e308, delta=5e-324)
@settings(max_examples=1000, deadline=None)
def test_constraint_report_is_the_array_route(theta, phi, delta):
    model = BiasModel(theta, phi, delta)
    report = constraint_report(model)
    want = json.loads(reference_report_json(model))
    assert report.to_json() == reference_report_json(model)
    assert same_bits(report.p_x1, want["pX1"])
    assert same_bits(report.p_lambda, want["pLambda"])
    assert same_bits(report.p_x_given_lambda, want["pXGivenLambda"])
    assert same_bits(report.max_l, want["maxL"])
    assert report.measurement_independent is want["independent"]


def reference_phi_plus(x_dirs, y_dirs):
    """behavior_from_quantum's einsum on bell_phi_plus, clipped at 0."""
    rho = bell_phi_plus().density.reshape(2, 2, 2, 2)
    p = np.einsum("xaij,ybkl,jlik->xyab", projectors(x_dirs), projectors(y_dirs), rho)
    return np.maximum(p.real, 0.0)


def reference_tilted(delta):
    x_dirs = (Direction(0.0, 0.0, 1.0), Direction(math.cos(delta), 0.0, -math.sin(delta)))
    y_dirs = (Direction(1.0, 0.0, 0.0), Direction(-math.sin(delta), 0.0, math.cos(delta)))
    return reference_phi_plus(x_dirs, y_dirs)


def reference_randomness(gamma):
    a2, b2 = 2 * math.pi / 3 - 2 * gamma, math.pi / 6 + gamma
    x_dirs = (Direction(0.0, 0.0, 1.0), Direction(math.sin(a2), 0.0, math.cos(a2)))
    y_dirs = (
        Direction(math.cos(3 * gamma), 0.0, math.sin(3 * gamma)),
        Direction(-math.sin(b2), 0.0, math.cos(b2)),
    )
    return reference_phi_plus(x_dirs, y_dirs)


def check_phi_plus_table(t, behavior, want) -> None:
    assert same_bits(t, want.ravel())
    assert same_bits(behavior.probabilities, want)
    c = table.correlators(t)
    assert same_bits([c.e11, c.e12, c.e21, c.e22], reference_correlators(want.ravel()))


@given(delta=st.floats(TILT[1], TILT[2], exclude_min=True))
@example(delta=TILT[2])
@example(delta=5e-324)
@example(delta=0.5235)
@settings(max_examples=300, deadline=None)
def test_tilted_table_is_the_einsum(delta):
    check_phi_plus_table(table.tilted_table(delta), tilted_behavior(delta), reference_tilted(delta))


@given(gamma=st.floats(GAMMA[1], GAMMA[2]))
@example(gamma=GAMMA[1])
@example(gamma=GAMMA[2])
@example(gamma=0.2617)
@settings(max_examples=300, deadline=None)
def test_randomness_table_is_the_einsum(gamma):
    check_phi_plus_table(
        table.randomness_table(gamma), randomness_behavior(gamma), reference_randomness(gamma)
    )
