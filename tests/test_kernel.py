import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mdsteer.kernel import TOL, Direction, Tolerances, ValidationError, require_finite
from mdsteer.linalg import (
    TwoQubitState,
    bell_phi_plus,
    expectation,
    is_hermitian,
    is_psd,
    partial_trace_alice,
    pauli_observable,
    pure_state,
    tensor,
)

SQ2 = math.sqrt(2)


class TestDirection:
    def test_unit_ok(self):
        Direction(0.0, 0.0, 1.0)
        Direction(1 / SQ2, 0.0, 1 / SQ2)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            Direction(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # abs(nan - 1) > tol is False, so the norm check alone accepts NaN
        with pytest.raises(ValidationError, match="finite"):
            Direction(bad, 0.0, 1.0)

    def test_planar(self):
        d = Direction.planar(math.pi / 2)
        assert d.nx == pytest.approx(1.0)
        assert d.nz == pytest.approx(0.0, abs=1e-15)


class TestPauliObservable:
    def test_z(self):
        np.testing.assert_allclose(
            pauli_observable(Direction(0, 0, 1)), np.diag([1, -1]).astype(complex)
        )

    def test_x(self):
        np.testing.assert_allclose(
            pauli_observable(Direction(1, 0, 0)), np.array([[0, 1], [1, 0]], dtype=complex)
        )

    def test_diagonal_direction_eigenvalues(self):
        # oracle: eigen-solve of the explicit 2x2 matrix
        obs = pauli_observable(Direction(1 / SQ2, 0, 1 / SQ2))
        np.testing.assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_squares_to_identity(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        obs = pauli_observable(Direction(*v))
        np.testing.assert_allclose(obs @ obs, np.eye(2), atol=1e-12)


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz(self):
        zz = tensor(np.diag([1, -1]), np.diag([1, -1]))
        np.testing.assert_allclose(zz, np.diag([1, -1, -1, 1]).astype(complex))

    def test_x_times_identity(self):
        xi = tensor(np.array([[0, 1], [1, 0]]), np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        np.testing.assert_allclose(xi, expected)


class TestPureState:
    def test_theta_zero_is_00(self):
        rho = pure_state(0.0).density
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        np.testing.assert_allclose(rho, expected)

    def test_maximally_entangled_reduced_state(self):
        rho = pure_state(math.pi / 4).density
        np.testing.assert_allclose(partial_trace_alice(rho), np.eye(2) / 2, atol=1e-12)

    def test_theta_pi_over_6_correlators(self):
        state = pure_state(math.pi / 6)
        zz = tensor(np.diag([1, -1]), np.diag([1, -1]))
        xx = tensor(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        assert expectation(state, zz) == pytest.approx(1.0, abs=1e-12)
        assert expectation(state, xx) == pytest.approx(-math.sin(math.pi / 3), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            pure_state(-0.1)
        with pytest.raises(ValidationError):
            pure_state(math.pi / 2 + 0.1)

    @pytest.mark.parametrize("theta", np.linspace(0, math.pi / 2, 9))
    def test_purity(self, theta):
        rho = pure_state(theta).density
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


class TestExpectation:
    def test_bell_state_zz(self):
        zz = tensor(np.diag([1, -1]), np.diag([1, -1]))
        assert expectation(pure_state(math.pi / 4), zz) == pytest.approx(1.0)

    def test_bell_state_xx_sign(self):
        xx = tensor(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        assert expectation(pure_state(math.pi / 4), xx) == pytest.approx(-1.0)
        assert expectation(bell_phi_plus(), xx) == pytest.approx(1.0)

    def test_identity_gives_trace(self):
        assert expectation(pure_state(0.3), np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValidationError):
            expectation(pure_state(0.3), bad)

    def test_linearity_in_observable(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        a = a + a.T
        b = b + b.T
        state = pure_state(0.4)
        lhs = expectation(state, 2.0 * a + 3.0 * b)
        rhs = 2.0 * expectation(state, a) + 3.0 * expectation(state, b)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_linearity_in_state_mixture(self):
        obs = tensor(np.diag([1, -1]), np.diag([1, -1]))
        rho = 0.25 * pure_state(0.2).density + 0.75 * pure_state(1.1).density
        mixed = TwoQubitState(rho)
        expected = 0.25 * expectation(pure_state(0.2), obs) + 0.75 * expectation(
            pure_state(1.1), obs
        )
        assert expectation(mixed, obs) == pytest.approx(expected, abs=1e-12)


class TestTwoQubitState:
    def test_trace_validated(self):
        with pytest.raises(ValidationError):
            TwoQubitState(np.eye(4))

    def test_trace_slack_is_that_of_probability_sums(self):
        # unnormalized's 1e-10, as for MdLhsModel states, Assemblage traces and Behavior sums.
        TwoQubitState(np.eye(4) / 4 * (1 + 5e-11))
        with pytest.raises(ValidationError, match="^density trace is 1.0000000002, expected 1$"):
            TwoQubitState(np.eye(4) / 4 * (1 + 2e-10))

    def test_psd_validated(self):
        bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(ValidationError):
            TwoQubitState(bad)


class TestTolerancesFromEnv:
    def test_override_applies_to_every_tolerance(self, monkeypatch):
        monkeypatch.setenv("MDSTEER_TOL", "1e-6")
        assert Tolerances.from_env() == Tolerances(eq=1e-6, psd=1e-6, check=1e-6)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "abc", "", "0", "-1"])
    def test_invalid_override_rejected(self, raw, monkeypatch):
        monkeypatch.setenv("MDSTEER_TOL", raw)
        with pytest.raises(ValidationError, match="MDSTEER_TOL"):
            Tolerances.from_env()


class TestRequireFinite:
    def test_finite_scalars_and_arrays_pass(self):
        require_finite("x", 0.0, -1e300, np.zeros((2, 3)))

    def test_scalar_rejected(self):
        with pytest.raises(ValidationError, match="angle must be finite, got nan"):
            require_finite("angle", 1.0, math.nan)

    def test_array_entry_located(self):
        a = np.ones((2, 2))
        a[1, 0] = math.inf
        with pytest.raises(ValidationError, match=r"got inf at index \(1, 0\)"):
            require_finite("table", a)


def reference_is_hermitian(m, tol=TOL.eq):
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def reference_is_psd(m, tol=TOL.psd):
    return reference_is_hermitian(m, max(tol, TOL.eq)) and np.linalg.eigvalsh(m).min() >= -tol


def mixed_stack(rng, shape, dim):
    """Stack of PSD, indefinite, near-boundary and non-Hermitian dim x dim matrices."""
    count = int(np.prod(shape))
    kinds = rng.permutation(np.arange(count) % 5)
    out = np.empty((count, dim, dim), dtype=complex)
    for i, kind in enumerate(kinds):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        eig = rng.uniform(0.0, 1.0, dim)
        # kinds 0 and 4 are PSD, 1 indefinite, 2 and 3 just inside and outside the slack
        if kind == 1:
            eig[0] = -rng.uniform(0.01, 1.0)
        elif kind in (2, 3):
            eig[0] = (-0.5 if kind == 2 else -2.0) * TOL.psd
        out[i] = q @ np.diag(eig) @ q.conj().T
        if kind == 4:  # eigvalsh reads one triangle and would call this PSD
            out[i, 0, 1] += 1e-6
    return out.reshape(shape + (dim, dim))


class TestStackedChecks:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape, dim", [((20,), 2), ((3, 4, 2), 2), ((10,), 4)])
    def test_stack_verdicts_match_per_matrix_loop(self, seed, shape, dim):
        stack = mixed_stack(np.random.default_rng(seed), shape, dim)
        psd, hermitian = is_psd(stack), is_hermitian(stack)
        assert psd.shape == hermitian.shape == shape
        for idx in np.ndindex(*shape):
            assert psd[idx] == reference_is_psd(stack[idx])
            assert hermitian[idx] == reference_is_hermitian(stack[idx])
        assert psd.any() and not psd.all()

    def test_single_matrix_gives_bool(self):
        assert is_psd(np.eye(2)) is True
        assert is_psd(np.diag([1.0, -1.0])) is False
        assert is_hermitian(np.array([[0, 1], [0, 0]])) is False

    def test_non_square_never_hermitian(self):
        assert is_hermitian(np.ones((2, 3))) is False
        assert is_psd(np.ones((2, 3))) is False
        assert not is_psd(np.ones((4, 2, 3))).any()
        for m in (np.float64(1.0), np.ones(1), np.ones(2), np.ones(3)):
            assert is_hermitian(m) is False
            assert is_psd(m) is False

    @pytest.mark.parametrize("seed", range(5))
    def test_2x2_smallest_eigenvalue_at_the_slack(self, seed):
        # One part in 1e3 of TOL.psd either side of the edge; rounding moves ~1e-16.
        rng = np.random.default_rng(seed)
        stack = np.empty((8, 2, 2), dtype=complex)
        for i, scale in enumerate([0.999, 1.001] * 4):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            stack[i] = q @ np.diag([-scale * TOL.psd, rng.uniform(0.0, 1.0)]) @ q.conj().T
        expected = [True, False] * 4
        assert is_psd(stack).tolist() == expected
        assert [reference_is_psd(m) for m in stack] == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_2x2_deviation_is_is_hermitians_bit_for_bit(self, seed):
        # With tol at the exact deviation the matrix passes, one ulp below it fails; an
        # imaginary diagonal part counts twice, as in m - m^H.
        rng = np.random.default_rng(seed)
        for _ in range(50):
            m = np.diag(rng.uniform(0.5, 1.0, 2)).astype(complex)
            m += 1e-3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            dev = float(np.abs(m - m.conj().T).max())
            assert is_psd(m, tol=dev) is True
            assert is_psd(m, tol=math.nextafter(dev, 0.0)) is False

    def test_2x2_reads_the_lower_triangle_gated_by_hermiticity(self):
        lower_psd = np.array([[1.0, 5.0], [0.5, 1.0]], dtype=complex)  # lower triangle PSD
        lower_indefinite = np.array([[1.0, 0.5], [5.0, 1.0]], dtype=complex)
        assert np.linalg.eigvalsh(lower_psd).min() >= 0  # eigvalsh alone would pass it
        assert is_psd(np.stack([lower_psd, lower_indefinite])).tolist() == [False, False]
        assert not reference_is_psd(lower_psd)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2, 2), (0, 4, 4)])
    def test_zero_size_stack(self, shape):
        psd = is_psd(np.zeros(shape, dtype=complex))
        assert isinstance(psd, np.ndarray) and psd.shape == shape[:-2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_2x2_non_finite_entry_fails(self, bad, entry):
        m = np.eye(2, dtype=complex) / 2
        m[entry] = bad
        with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf: the general path warns too
            assert is_psd(m) is False

    @settings(max_examples=200, deadline=None)
    @given(
        floats=hnp.arrays(
            float, st.tuples(st.integers(0, 6), st.just(8)), elements=st.floats(-2.0, 2.0)
        ),
        hermitian=st.booleans(),
        shift=st.floats(0.0, 3.0),
    )
    def test_2x2_closed_form_matches_eigvalsh(self, floats, hermitian, shift):
        stack = floats.view(complex).reshape(-1, 2, 2)
        if hermitian:  # Hermitian, pushed towards PSD by shift * I
            stack = (stack + stack.conj().swapaxes(-1, -2)) / 2 + shift * np.eye(2)
        psd = is_psd(stack)
        assert psd.shape == stack.shape[:1]
        for verdict, m in zip(psd, stack):
            if reference_is_hermitian(m, max(TOL.psd, TOL.eq)):
                smallest = np.linalg.eigvalsh(m).min()
                if abs(smallest + TOL.psd) < 1e-14:  # the verdict there is a rounding
                    continue
            assert verdict == reference_is_psd(m)
