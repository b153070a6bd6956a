"""The Bloch-row contractions and closed forms checked against their definitions.

The reference functions below spell out each definition with linalg's
``tensor``, ``projector`` and ``partial_trace_alice``, one (setting, outcome)
pair at a time; the projector stack itself is checked against
``pauli_observable``, and the optimizer's closed-form correlators against the
Born rule. The complex einsums that the Bloch route replaced are kept as
references too: every producer of a behavior or an assemblage agrees with them
to 1e-15, and the Pauli coefficients of ``pure_state`` are the block of the
optimizer's closed form. States are complex and mixed and directions leave the x-z plane,
so a transposed index in a contraction changes the result; on them the two
public routes from a state to a behavior agree bit for bit. ``pure_state``,
which builds its density without checks, is checked against the general
``TwoQubitState`` construction it replaced. The plain-float routes that run
without numpy (the distribution check, a behavior's table, the CLI's p grid,
the oracle's vertex maximum, the adversary's report and the tables of the two
behaviors on (|00> + |11>)/sqrt(2)) are checked bit for bit against numpy
copies of the array code they replaced; the vertex maximum's grid is
evaluated with conftest.array_operator, and the acceptance suite uses the
oracle's array kernel too.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import array_operator, assemblage_stack, random_mdlhs_model, spherical

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
from mdsteer.inequality import md_operator
from mdsteer.kernel import GAMMA, TILT, TOL, Direction, ValidationError
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
from mdsteer.steering import (
    SETTINGS,
    assemblage_from_mdlhs,
    assemblage_from_state,
    behavior_from_assemblage,
    mdlhv_decomposition_check,
    mix_assemblages,
)

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


# ------------------------------------------------ the Bloch route against the complex einsums

# The contractions behavior_from_quantum and the steering layer ran on complex matrices before
# they took Bloch rows. Every output of the Bloch route agrees with them to 1e-15.
BLOCH_TOL = 1e-15


def einsum_behavior_from_quantum(state, x_dirs, y_dirs):
    rho = state.density.reshape(2, 2, 2, 2)  # rho[(i, k), (j, l)] with Alice's i, j first
    p = np.einsum("xaij,ybkl,jlik->xyab", projectors(x_dirs), projectors(y_dirs), rho)
    return np.maximum(p.real, 0.0)


def einsum_assemblage_from_state(state, alice_dirs):
    rho = state.density.reshape(2, 2, 2, 2)
    return np.einsum("xaij,jkil->xakl", projectors(alice_dirs), rho)


def einsum_mdlhs_stack(model):
    plx, pax = model.p_lambda_given_x, model.p_a_given_x_lambda
    return np.einsum("xn,xna,nxij->xaij", plx, pax, model.states)


def einsum_born(bob_dirs, sigma):
    return np.maximum(np.einsum("ybkl,xalk->xyab", projectors(bob_dirs), sigma).real, 0.0)


def einsum_decomposition_check(model, bob_dirs):
    plx, pax = model.p_lambda_given_x, model.p_a_given_x_lambda
    direct = np.einsum("xn,xna,ybkl,nxlk->xyab", plx, pax, projectors(bob_dirs), model.states)
    return float(np.max(np.abs(einsum_born(bob_dirs, einsum_mdlhs_stack(model)) - direct.real)))


def within(got, want, tol=BLOCH_TOL) -> bool:
    return np.shape(got) == np.shape(want) and float(np.max(np.abs(got - want))) <= tol


@given(seed=seeds, x_dirs=direction_pairs, y_dirs=direction_pairs)
@settings(max_examples=100, deadline=None)
def test_state_routes_are_the_einsums(seed, x_dirs, y_dirs):
    state = random_mixed_state(seed)
    behavior = behavior_from_quantum(state, x_dirs, y_dirs).probabilities
    assert within(behavior, einsum_behavior_from_quantum(state, x_dirs, y_dirs))
    asm = assemblage_from_state(state, x_dirs)
    sigma = einsum_assemblage_from_state(state, x_dirs)
    assert within(assemblage_stack(asm), sigma)
    assert within(behavior_from_assemblage(asm, y_dirs).probabilities, einsum_born(y_dirs, sigma))


@given(
    seed=seeds,
    n=st.integers(1, 16),
    bob_dirs=direction_pairs,
    weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=100, deadline=None)
def test_model_routes_are_the_einsums(seed, n, bob_dirs, weights):
    model = random_mdlhs_model(seed % 2**32, n_lambdas=n)
    lhs = assemblage_from_mdlhs(model)
    sigma = einsum_mdlhs_stack(model)
    assert within(assemblage_stack(lhs), sigma)
    check = mdlhv_decomposition_check(model, bob_dirs)
    assert 0.0 <= check <= BLOCH_TOL
    assert abs(check - einsum_decomposition_check(model, bob_dirs)) <= BLOCH_TOL
    # A mixture with one eta per setting keeps each setting's traces summing to 1.
    steerable = assemblage_from_state(random_mixed_state(seed), bob_dirs)
    w = np.repeat(weights, 2).reshape(2, 2, 1, 1)
    eta = {(a, x): weights[ix] for ix, x in enumerate(SETTINGS) for a in OUTCOMES}
    mixed = mix_assemblages(steerable, lhs, eta)
    assert within(assemblage_stack(mixed), (1.0 - w) * assemblage_stack(steerable) + w * sigma)


@given(seed=seeds, x_dirs=direction_pairs, y_dirs=direction_pairs)
@settings(max_examples=200, deadline=None)
def test_the_two_state_routes_agree_bit_for_bit(seed, x_dirs, y_dirs):
    # Both are linalg.born on the same rows Q C: directly, and through the assemblage's rows.
    state = random_mixed_state(seed)
    direct = behavior_from_quantum(state, x_dirs, y_dirs).probabilities
    via = behavior_from_assemblage(assemblage_from_state(state, x_dirs), y_dirs).probabilities
    assert direct.tobytes() == via.tobytes()


def check_pure_state_coefficients(theta: float) -> None:
    # rho = sum_ij C[i, j] sigma_i (x) sigma_j / 4: unit trace, both marginals cos 2 theta along
    # z, and the block T = diag(-sin 2 theta, sin 2 theta, 1) of quantum_value's closed form.
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    want = np.diag([1.0, -s, s, 1.0])
    want[0, 3] = want[3, 0] = c
    assert within(linalg.pauli_coefficients(pure_state(theta)), want)


@pytest.mark.parametrize("theta", PURE_THETAS)
def test_pure_state_coefficients_are_the_closed_form(theta):
    check_pure_state_coefficients(theta)


@given(theta=st.floats(0.0, math.pi / 2))
@settings(max_examples=100, deadline=None)
def test_pure_state_coefficients_are_the_closed_form_on_draws(theta):
    check_pure_state_coefficients(theta)


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


def reference_distribution(what, p, axis=None):
    """The distribution check as it ran on numpy arrays, summing over axis (None: all of p)."""
    p = np.asarray(p, dtype=float)
    sums = p.sum(axis=axis)
    bad = kernel.unnormalized(sums)
    if not p.min(initial=0.0) >= -TOL.eq or bad.any():
        finite = np.isfinite(p)
        if not finite.all():
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), p.shape))
            raise ValidationError(f"{what} must be finite, got {p[idx]} at index {idx}")
        if p.min(initial=0.0) < -TOL.eq:
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(p)), p.shape))
            raise ValidationError(f"{what} must be non-negative, got {p[idx]} at index {idx}")
        idx = tuple(int(i) for i in np.argwhere(bad)[0])  # () when axis is None
        where = f" at index {idx}" if idx else ""
        raise ValidationError(f"{what} must sum to 1, got {sums[idx]}{where}")


def message(check) -> str:
    """"" if check() passes, else its ValidationError's message."""
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return ""


def reference_check(values, shape, lead) -> str:
    axis = tuple(range(lead, len(shape))) if lead else None
    with np.errstate(all="ignore"):
        return message(lambda: reference_distribution("p", np.reshape(values, shape), axis))


def plain_check(values, shape, lead) -> str:
    return message(lambda: kernel.require_distribution("p", values, shape, lead))


SPECIAL = [0.0, -0.0, 0.25, 0.5, 1.0, 1e-300, -1e-13, -2e-12, -0.05, 1.5, 1e308,
           math.nan, math.inf, -math.inf]
entries = st.one_of(st.floats(-0.1, 1.1), st.sampled_from(SPECIAL), st.floats())


@st.composite
def rows(draw, size=4):
    """One row of size entries: normalized up to rounding, or free entries."""
    if draw(st.booleans()):
        weights = [draw(st.floats(0.0, 1.0)) for _ in range(size - 1)]
        total = sum(weights) or 1.0
        head = [w / total / 2 for w in weights]
        last = 1.0
        for h in head:
            last -= h
        return head + [last]
    return [draw(entries) for _ in range(size)]


@st.composite
def tables(draw):
    """16 entries from four rows p(.|xy), then a few entries replaced by special values."""
    t = [v for _ in range(4) for v in draw(rows())]
    for i in draw(st.lists(st.integers(0, 15), max_size=3)):
        t[i] = draw(st.sampled_from(SPECIAL))
    return tuple(t)


@st.composite
def layouts(draw):
    """(values, shape, lead) of MdLhsModel's p(lambda|x), (2, n) by rows, of its
    p(a|x,lambda), (2, n, 2) by rows of 2, or of n entries as one whole, with a few
    entries replaced by special values."""
    n = draw(st.integers(1, 12))
    shape, lead, size = draw(st.sampled_from([((2, n), 1, n), ((2, n, 2), 2, 2), ((n,), 0, n)]))
    values = [v for _ in range(math.prod(shape) // size) for v in draw(rows(size))]
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[i] = draw(st.sampled_from(SPECIAL))
    return values, shape, lead


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


def without_long_sums(text: str, shape, lead) -> str:
    """text with the printed sum cut out where rows hold 8 or more entries.

    numpy sums such a row with 8 accumulators, not left to right, so the last
    digit of the sum may differ; the verdict and the row index may not.
    """
    if math.prod(shape[lead:]) < 8:
        return text
    return re.sub(r"must sum to 1, got \S+", "must sum to 1, got <sum>", text)


BEHAVIOR = ((2, 2, 2, 2), 2)  # a behavior's shape and its rows p(.|xy)


@given(case=st.one_of(tables().map(lambda t: (t, *BEHAVIOR)), layouts()))
@example(case=((0.25,) * 16, *BEHAVIOR))
@example(case=((-0.0,) * 16, *BEHAVIOR))
@example(case=((math.nan,) * 16, *BEHAVIOR))
@example(case=((0.25,) * 15 + (math.inf,), *BEHAVIOR))
@example(case=((0.25, 0.25, 0.25, -math.inf) + (0.25,) * 12, *BEHAVIOR))
@example(case=((0.25,) * 8 + (0.55, -0.05, 0.25, 0.25) + (0.25,) * 4, *BEHAVIOR))
@example(case=((0.6, -0.1, 0.25, 0.25) * 4, *BEHAVIOR))  # the first of equal smallest entries
@example(case=((0.3,) * 16, *BEHAVIOR))
@example(case=((0.25 + 5e-11, 0.25, 0.25, 0.25 - 1e-12) * 4, *BEHAVIOR))
@example(case=([0.1] * 10 + [0.1] * 9 + [0.2], (2, 10), 1))  # rows of 10 summing to 1 and 1.1
@example(case=([0.5, 0.5, 0.9, 0.2], (2, 2), 1))
@example(case=([], (0,), 0))  # an empty whole: its sum is 0.0
@example(case=([0.5, 0.6], (2,), 0))  # a whole sum, printed without an index
@settings(max_examples=1000, deadline=None)
def test_table_check_is_require_distribution(case):
    values, shape, lead = case
    want = without_long_sums(reference_check(values, shape, lead), shape, lead)
    assert without_long_sums(plain_check(values, shape, lead), shape, lead) == want


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
    values = array_operator(*component_correlators(chi, np.tile(XI_GRID, 4), p), p)
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
    """constraint_report's record as the numpy code built it; pX1 is s * c1 + c * c2."""
    p_lambda = np.array([math.sin(model.delta) ** 2, math.cos(model.delta) ** 2])
    c1, c2 = math.cos(model.theta) ** 2, math.cos(model.phi) ** 2
    rows = np.array([[c1, 1.0 - c1], [c2, 1.0 - c2]])
    s, c = p_lambda.tolist()
    return json.dumps({
        "pX1": s * c1 + c * c2,
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
    # Within 2 ulps of the exact marginal of the rounded inputs.
    (c1, _), (c2, _) = report.p_x_given_lambda
    s, c = report.p_lambda
    exact = Fraction(s) * Fraction(c1) + Fraction(c) * Fraction(c2)
    assert abs(Fraction(report.p_x1) - exact) <= 2 * Fraction(math.ulp(report.p_x1))


def reference_phi_plus(x_dirs, y_dirs):
    """behavior_from_quantum's einsum on bell_phi_plus, clipped at 0."""
    return einsum_behavior_from_quantum(bell_phi_plus(), x_dirs, y_dirs)


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
