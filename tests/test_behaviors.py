import math

import numpy as np
import pytest

from conftest import chsh

from mdsteer.behaviors import (
    Behavior,
    behavior_from_quantum,
    correlators,
    no_signalling_check,
    pr_box,
    randomness_behavior,
    tilted_behavior,
)
from mdsteer.kernel import (
    Direction,
    ValidationError,
    expectation,
    pauli_observable,
    pure_state,
    tensor,
)


def uniform_behavior():
    return Behavior(np.full((2, 2, 2, 2), 0.25))


CHSH_DIRS = dict(
    x_dirs=(Direction.planar(0.0), Direction.planar(math.pi / 2)),
    y_dirs=(Direction.planar(-math.pi / 4), Direction.planar(math.pi / 4)),
)


class TestBehaviorValidation:
    def test_negative_rejected(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = -0.1
        p[0, 0, 1, 1] = 0.6
        with pytest.raises(ValidationError):
            Behavior(p)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            Behavior(np.full((2, 2, 2, 2), 0.3))

    def test_all_nan_rejected(self):
        # every comparison with NaN is false, so the range checks alone pass it
        with pytest.raises(ValidationError, match="finite"):
            Behavior(np.full((2, 2, 2, 2), np.nan))

    def test_json_round_trip_exact(self):
        b = tilted_behavior(0.37)
        again = Behavior.from_json(b.to_json())
        assert np.array_equal(b.probabilities, again.probabilities)


class TestBehaviorFromQuantum:
    def test_perfect_zz_correlation(self):
        b = behavior_from_quantum(
            pure_state(math.pi / 4),
            (Direction(0, 0, 1), Direction(1, 0, 0)),
            (Direction(0, 0, 1), Direction(1, 0, 0)),
        )
        assert b.probabilities[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert b.probabilities[0, 0, 1, 1] == pytest.approx(0.5, abs=1e-12)
        assert b.probabilities[0, 0, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        dirs = []
        for _ in range(4):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            dirs.append(Direction(*v))
        b = behavior_from_quantum(pure_state(0.0), dirs[:2], dirs[2:])
        p = b.probabilities
        pa = p.sum(axis=3)
        pb = p.sum(axis=2)
        for ix in range(2):
            for iy in range(2):
                for ia in range(2):
                    for ib in range(2):
                        assert p[ix, iy, ia, ib] == pytest.approx(
                            pa[ix, iy, ia] * pb[ix, iy, ib], abs=1e-10
                        )

    def test_tsirelson_configuration(self):
        b = behavior_from_quantum(pure_state(math.pi / 4), **CHSH_DIRS)
        assert chsh(b) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_output_invariants(self, seed):
        rng = np.random.default_rng(seed)
        dirs = []
        for _ in range(4):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            dirs.append(Direction(*v))
        b = behavior_from_quantum(pure_state(rng.uniform(0, math.pi / 2)), dirs[:2], dirs[2:])
        assert np.min(b.probabilities) >= -1e-12
        assert no_signalling_check(b).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_correlators_match_direct_expectation(self, seed):
        rng = np.random.default_rng(100 + seed)
        dirs = []
        for _ in range(4):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            dirs.append(Direction(*v))
        state = pure_state(rng.uniform(0, math.pi / 2))
        b = behavior_from_quantum(state, dirs[:2], dirs[2:])
        c = correlators(b).as_array().reshape(2, 2)
        for ix in range(2):
            for iy in range(2):
                obs = tensor(pauli_observable(dirs[ix]), pauli_observable(dirs[2 + iy]))
                assert c[ix, iy] == pytest.approx(expectation(state, obs), abs=1e-10)


class TestCorrelators:
    def test_uniform_is_zero(self):
        c = correlators(uniform_behavior())
        np.testing.assert_allclose(c.as_array(), 0.0, atol=1e-15)

    def test_pr_box(self):
        c = correlators(pr_box())
        np.testing.assert_allclose(c.as_array(), [1, 1, 1, -1], atol=1e-15)

    def test_perfect_correlation(self):
        b = behavior_from_quantum(
            pure_state(math.pi / 4),
            (Direction(0, 0, 1), Direction(1, 0, 0)),
            (Direction(0, 0, 1), Direction(1, 0, 0)),
        )
        assert correlators(b).e11 == pytest.approx(1.0, abs=1e-12)


class TestPrBox:
    def test_chsh_is_algebraic_maximum(self):
        assert chsh(pr_box()) == pytest.approx(4.0, abs=1e-15)

    def test_no_signalling(self):
        report = no_signalling_check(pr_box())
        assert report.passed and report.max_deviation == 0.0


class TestTiltedBehavior:
    def test_chsh_closed_form_at_pi_over_6(self):
        expected = 2 * math.cos(math.pi / 6) * 1.5  # = 3 sqrt(3) / 2
        assert chsh(tilted_behavior(math.pi / 6)) == pytest.approx(expected, abs=1e-9)

    def test_chsh_closed_form_on_grid(self):
        for delta in np.linspace(1e-6, math.pi / 6, 50):
            got = chsh(tilted_behavior(delta))
            want = 2 * math.cos(delta) * (1 + math.sin(delta))
            assert got == pytest.approx(want, abs=1e-9)

    def test_correlators_at_pi_over_6(self):
        d = math.pi / 6
        c = correlators(tilted_behavior(d))
        want = [0.0, math.cos(d), math.cos(d), -math.sin(2 * d)]
        np.testing.assert_allclose(c.as_array(), want, atol=1e-12)

    def test_no_signalling(self):
        assert no_signalling_check(tilted_behavior(math.pi / 6)).passed

    def test_range_guard(self):
        with pytest.raises(ValidationError):
            tilted_behavior(0.0)
        with pytest.raises(ValidationError):
            tilted_behavior(math.pi / 6 + 0.01)


class TestRandomnessBehavior:
    def test_valid_at_zero(self):
        b = randomness_behavior(0.0)
        assert no_signalling_check(b).passed

    def test_uniform_alice_marginals_at_zero(self):
        p = randomness_behavior(0.0).probabilities
        marg = p.sum(axis=3)  # p(a|x, y)
        np.testing.assert_allclose(marg, 0.5, atol=1e-10)

    def test_endpoint_bob_direction(self):
        # at gamma = pi/12 Bob's second observable sits at planar angle -pi/4
        b = randomness_behavior(math.pi / 12)
        assert no_signalling_check(b).passed

    def test_range_guard(self):
        with pytest.raises(ValidationError):
            randomness_behavior(-0.01)
        with pytest.raises(ValidationError):
            randomness_behavior(math.pi / 12 + 0.01)


class TestNoSignallingCheck:
    def test_signalling_behavior_fails(self):
        p = np.full((2, 2, 2, 2), 0.25)
        # Alice's marginal for x1 flips with Bob's setting
        p[0, 0] = np.array([[0.5, 0.5], [0.0, 0.0]])
        p[0, 1] = np.array([[0.0, 0.0], [0.5, 0.5]])
        report = no_signalling_check(Behavior(p))
        assert not report.passed
        assert report.max_deviation == pytest.approx(1.0)


class TestChshValue:
    def test_uniform_zero(self):
        assert chsh(uniform_behavior()) == 0.0

    def test_tilted(self):
        got = chsh(tilted_behavior(math.pi / 6))
        assert got == pytest.approx(2.5980762113533156, abs=1e-6)
