import math

import numpy as np
import pytest

from mdsteer.kernel import (
    TOL,
    Direction,
    Tolerances,
    TwoQubitState,
    ValidationError,
    bell_phi_plus,
    expectation,
    is_hermitian,
    is_psd,
    partial_trace_alice,
    pauli_observable,
    pure_state,
    require_finite,
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
        assert pure_state(theta).purity() == pytest.approx(1.0, abs=1e-12)


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
