import math

import numpy as np
import pytest

from mdsteer.behaviors import CorrelatorVector, correlators, tilted_behavior
from mdsteer.inequality import (
    binary_entropy,
    local_bound,
    md_operator,
    operator_value,
    pr_closed_form,
    randomness_rate,
    tilted_closed_form,
    violation,
)
from mdsteer.kernel import ValidationError

PR = CorrelatorVector(1.0, 1.0, 1.0, -1.0)
ZERO = CorrelatorVector(0.0, 0.0, 0.0, 0.0)


class TestMdOperator:
    def test_pr_at_half(self):
        assert md_operator(PR, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_zero_correlators(self):
        for p in (0.0, 0.2, 0.5):
            assert md_operator(ZERO, p) == 0.0

    def test_pr_quarter_matches_closed_form(self):
        assert md_operator(PR, 0.25) == pytest.approx(2 * math.sqrt(1.25), abs=1e-12)

    def test_p_out_of_range(self):
        with pytest.raises(ValidationError):
            md_operator(PR, 0.6)
        with pytest.raises(ValidationError):
            md_operator(PR, -0.1)

    @pytest.mark.parametrize("beta", [math.pi / 4, 0.3, 1.2, 1e-9])
    def test_beta_is_operator_values_bit_for_bit(self, beta):
        rng = np.random.default_rng(8)
        for e in rng.uniform(-2.0, 2.0, size=(50, 4)).tolist():
            for p in (0.0, 0.3264, 0.5):
                assert md_operator(CorrelatorVector(*e), p, beta) == operator_value(*e, p, beta)

    @pytest.mark.parametrize("beta", [0.0, math.pi / 2, -0.1, math.inf])  # NaN: test_validation
    def test_beta_outside_open_right_angle_rejected(self, beta):
        with pytest.raises(ValidationError, match=r"^beta must be in \(0, pi/2\), got "):
            md_operator(PR, 0.5, beta)


class TestOperatorValue:
    def test_scalar_path_returns_float(self):
        assert type(operator_value(1.0, 1.0, 1.0, -1.0, 0.5)) is float

    def test_array_path_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(-2.0, 2.0, size=(50, 4))
        for beta in (math.pi / 4, 0.3, 1.2):
            got = operator_value(*e.T, 0.3, beta)
            assert got.shape == (50,)
            want = [operator_value(*row.tolist(), 0.3, beta) for row in e]
            np.testing.assert_array_equal(got, want)

    def test_default_beta_is_md_operator(self):
        assert operator_value(PR.e11, PR.e12, PR.e21, PR.e22, 0.25) == md_operator(PR, 0.25)

    def test_aligned_measurements_never_negative_under_root(self):
        # at beta near 0 alpha = (A - B)^2 exactly; rounding must not make it negative
        value = operator_value(0.1, 0.1, 0.3, 0.3, 0.2, 1e-9)
        assert value >= 0.0 and not math.isnan(value)


class TestLocalBound:
    def test_endpoints(self):
        assert local_bound(0.5) == 1.0
        assert local_bound(0.0) == 0.0

    def test_quarter(self):
        assert local_bound(0.25) == 0.75

    def test_monotone_on_range(self):
        grid = np.linspace(0, 0.5, 51)
        vals = [local_bound(p) for p in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestViolation:
    def test_pr_at_half(self):
        assert violation(PR, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_zero_correlators(self):
        assert violation(ZERO, 0.5) == -1.0

    def test_pr_at_point_one(self):
        expected = 2 * math.sqrt(2 - 0.36) - 0.36
        assert violation(PR, 0.1) == pytest.approx(expected, abs=1e-12)

    def test_pr_violates_everywhere(self):
        for p in np.linspace(0.001, 0.5, 100):
            assert violation(PR, p) > 0


class TestPrClosedForm:
    def test_endpoints(self):
        assert pr_closed_form(0.5) == pytest.approx(2.0, abs=1e-15)
        assert pr_closed_form(0.0) == pytest.approx(2 * math.sqrt(2), abs=1e-15)

    def test_quarter(self):
        assert pr_closed_form(0.25) == pytest.approx(2 * math.sqrt(1.25), abs=1e-15)

    def test_matches_operator_on_grid(self):
        for p in np.linspace(0, 0.5, 101):
            assert md_operator(PR, p) == pytest.approx(pr_closed_form(p), abs=1e-12)


class TestTiltedClosedForm:
    def test_value_at_pi_over_6_half(self):
        expected = math.sqrt(0.75 * 0.25) + math.sqrt(0.75 * 1.25)
        assert tilted_closed_form(math.pi / 6, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_small_delta_limit(self):
        got = tilted_closed_form(1e-9, 0.5)
        assert got == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_matches_operator_on_grid(self):
        for delta in np.linspace(0.01, math.pi / 6, 20):
            c = correlators(tilted_behavior(delta))
            for p in np.linspace(0, 0.5, 20):
                assert md_operator(c, p) == pytest.approx(
                    tilted_closed_form(delta, p), abs=1e-9
                )

    def test_range_guard(self):
        with pytest.raises(ValidationError):
            tilted_closed_form(0.0, 0.5)
        with pytest.raises(ValidationError):
            tilted_closed_form(0.1, 0.7)


class TestRandomnessRate:
    def test_endpoint_max_gamma(self):
        assert randomness_rate(math.pi / 12) == pytest.approx(1.601, abs=1e-3)

    def test_endpoint_zero(self):
        assert randomness_rate(0.0) == pytest.approx(2.0, abs=1e-3)

    def test_entropy_argument_in_range_on_grid(self):
        # implicitly exercised: binary_entropy raises outside [0, 1]
        for gamma in np.linspace(0, math.pi / 12, 101):
            r = randomness_rate(gamma)
            assert 0.0 <= r <= 2.0

    def test_monotone_non_increasing(self):
        grid = np.linspace(0, math.pi / 12, 101)
        vals = [randomness_rate(g) for g in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_range_guard(self):
        with pytest.raises(ValidationError):
            randomness_rate(-0.01)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for q in np.linspace(0.01, 0.5, 25):
            assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q), abs=1e-12)
