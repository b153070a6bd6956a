import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsteer.behaviors import CorrelatorVector
from mdsteer.inequality import local_bound, md_operator, operator_value
from mdsteer.kernel import ValidationError
from mdsteer.oracle import (
    _CHI_SIGNS,
    SWEEP_CHUNK,
    XI_GRID_POINTS,
    ExtremalStrategy,
    StrategyMixture,
    SweepReport,
    _component_correlators,
    bound_sweep,
    extremal_correlators,
    general_beta_operator,
    mixture_correlators,
    saturating_mixture,
)


def sign_gather_correlators(chi, xi, p1, p2, beta=math.pi / 4):
    """The chunk kernel as first written: gather +-1 signs, multiply, stack four arrays."""
    c_plus = np.cos(xi + beta)
    c_minus = np.cos(xi - beta)
    sa, sb = _CHI_SIGNS[:, chi - 1]
    return np.stack(
        [
            sa * 2.0 * p1 * c_plus,
            sa * 2.0 * p1 * c_minus,
            sb * 2.0 * p2 * c_plus,
            sb * 2.0 * p2 * c_minus,
        ],
        axis=0,
    )


def one_shot_sweep_maxima(p, samples, seed, components=4):
    """(mixture maximum, overall maximum) of the sweep as first written: every sample at once."""
    rng = np.random.default_rng(seed)
    chi = rng.integers(1, 5, size=(samples, components))
    xi_grid = np.linspace(-math.pi, math.pi, XI_GRID_POINTS, endpoint=False)
    use_grid = rng.uniform(size=(samples, components)) < 0.5
    xi = np.where(
        use_grid,
        xi_grid[rng.integers(0, XI_GRID_POINTS, size=(samples, components))],
        rng.uniform(-math.pi, math.pi, size=(samples, components)),
    )
    weights = rng.dirichlet(np.ones(components), size=samples)
    p1, p2 = 1.0 - p, p
    mixed = np.einsum("sc,esc->es", weights, sign_gather_correlators(chi, xi, p1, p2))
    max_mixture = float(np.max(operator_value(*mixed, p)))
    grid_chi = np.repeat(np.arange(1, 5), XI_GRID_POINTS)
    grid_xi = np.tile(xi_grid, 4)
    grid = sign_gather_correlators(grid_chi, grid_xi, p1, p2)
    return max_mixture, max(max_mixture, float(np.max(operator_value(*grid, p))))


class TestExtremalStrategy:
    def test_invalid_chi(self):
        with pytest.raises(ValidationError):
            ExtremalStrategy(chi=5, xi=0.0)

    def test_unnormalized_setting_probs(self):
        with pytest.raises(ValidationError):
            ExtremalStrategy(chi=1, xi=0.0, p1=0.6, p2=0.6)


class TestExtremalCorrelators:
    def test_worked_example(self):
        s = ExtremalStrategy.from_md_parameter(1, -math.pi / 4, 0.3)
        c = extremal_correlators(s)
        np.testing.assert_allclose(c.as_array(), [1.4, 0.0, 0.6, 0.0], atol=1e-12)

    @given(
        xi=st.floats(-math.pi, math.pi),
        beta=st.floats(0.0, math.pi / 2),
        p=st.floats(0.0, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, xi, beta, p):
        pairs = [(1, 2), (3, 4)]
        for chi_a, chi_b in pairs:
            ca = extremal_correlators(ExtremalStrategy.from_md_parameter(chi_a, xi, p, beta))
            cb = extremal_correlators(ExtremalStrategy.from_md_parameter(chi_b, xi, p, beta))
            np.testing.assert_array_equal(ca.as_array(), -cb.as_array())

    def test_entries_bounded_by_two(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = ExtremalStrategy.from_md_parameter(
                int(rng.integers(1, 5)), rng.uniform(-math.pi, math.pi), rng.uniform(0, 0.5)
            )
            assert np.max(np.abs(extremal_correlators(s).as_array())) <= 2.0


class TestComponentCorrelators:
    @pytest.mark.parametrize("beta", [math.pi / 4, 0.3, 1.2])
    @pytest.mark.parametrize("p", [0.5, 0.35, 0.3264, 1e-3])
    def test_arrays_equal_sign_gather(self, beta, p):
        rng = np.random.default_rng(5)
        chi = rng.integers(1, 5, size=(1000, 4))
        xi = rng.uniform(-math.pi, math.pi, size=(1000, 4))
        got = _component_correlators(chi, xi, 1.0 - p, p, beta)
        assert np.array_equal(got, sign_gather_correlators(chi, xi, 1.0 - p, p, beta))
        grid_chi = np.repeat(np.arange(1, 5), 7)
        grid_xi = np.tile(np.linspace(-math.pi, math.pi, 7, endpoint=False), 4)
        got = _component_correlators(grid_chi, grid_xi, 1.0 - p, p, beta)
        assert np.array_equal(got, sign_gather_correlators(grid_chi, grid_xi, 1.0 - p, p, beta))

    @given(
        chi=st.integers(1, 4),
        xi=st.floats(-4.0, 4.0),
        p=st.floats(0.0, 0.5),
        beta=st.floats(0.0, math.pi / 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalars_equal_sign_gather(self, chi, xi, p, beta):
        got = _component_correlators(chi, xi, 1.0 - p, p, beta)
        want = sign_gather_correlators(chi, xi, 1.0 - p, p, beta)
        assert got.shape == want.shape == (4,)
        assert np.array_equal(got, want)


class TestMixtureCorrelators:
    def test_singleton(self):
        s = ExtremalStrategy.from_md_parameter(2, 0.7, 0.2)
        m = StrategyMixture([(s, 1.0)])
        np.testing.assert_array_equal(
            mixture_correlators(m).as_array(), extremal_correlators(s).as_array()
        )

    def test_opposite_types_cancel(self):
        s1 = ExtremalStrategy.from_md_parameter(1, 0.3, 0.4)
        s2 = ExtremalStrategy.from_md_parameter(2, 0.3, 0.4)
        m = StrategyMixture([(s1, 0.5), (s2, 0.5)])
        np.testing.assert_allclose(mixture_correlators(m).as_array(), 0.0, atol=1e-15)

    def test_weights_validated(self):
        s = ExtremalStrategy.from_md_parameter(1, 0.0, 0.3)
        with pytest.raises(ValidationError):
            StrategyMixture([(s, 0.7)])
        with pytest.raises(ValidationError):
            StrategyMixture([(s, -0.5), (s, 1.5)])

    def test_random_mixtures_respect_bound(self):
        rng = np.random.default_rng(123)
        p = 0.3
        for _ in range(200):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            parts = [
                (
                    ExtremalStrategy.from_md_parameter(
                        int(rng.integers(1, 5)), rng.uniform(-math.pi, math.pi), p
                    ),
                    float(w),
                )
                for w in weights
            ]
            c = mixture_correlators(StrategyMixture(parts))
            assert md_operator(c, p) <= local_bound(p) + 1e-9


class TestBoundSweep:
    def test_bound_respected_and_approached_at_half(self):
        report = bound_sweep(0.5, 10_000, seed=7)
        assert report.passed
        assert report.max_operator <= 1.0 + 1e-9
        assert report.max_operator >= 1.0 - 1e-3

    def test_saturating_fixture(self):
        c = mixture_correlators(saturating_mixture(0.3))
        assert md_operator(c, 0.3) == pytest.approx(0.84, abs=1e-12)

    def test_bound_vanishes_with_p(self):
        report = bound_sweep(1e-6, 1_000, seed=3)
        assert report.bound < 1e-5
        assert report.max_operator <= report.bound + 1e-9

    def test_deterministic(self):
        a = bound_sweep(0.4, 5_000, seed=11)
        b = bound_sweep(0.4, 5_000, seed=11)
        assert a == b

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            bound_sweep(0.6, 10, seed=0)
        with pytest.raises(ValidationError):
            bound_sweep(0.3, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 0.5, "3"])
    def test_seed_validated(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            bound_sweep(0.3, 10, seed=seed)

    @pytest.mark.parametrize("samples", [1, 777, SWEEP_CHUNK])
    def test_single_chunk_matches_one_shot_stream(self, samples, monkeypatch):
        import mdsteer.oracle as oracle

        # The grid singletons usually set max_operator, so the mixtures' own
        # maximum is compared too; it is the first operator_value call.
        seen = []
        real = oracle.operator_value

        def recording(*args):
            values = real(*args)
            seen.append(values)
            return values

        monkeypatch.setattr(oracle, "operator_value", recording)
        report = bound_sweep(0.3, samples, seed=17)
        assert len(seen) == 2  # one chunk, then the grid
        max_mixture, max_operator = one_shot_sweep_maxima(0.3, samples, 17)
        assert float(np.max(seen[0])) == max_mixture
        assert report.max_operator == max_operator

    def test_several_chunks_deterministic_and_sound(self):
        a = bound_sweep(0.35, 2 * SWEEP_CHUNK + 5, seed=8)
        assert a == bound_sweep(0.35, 2 * SWEEP_CHUNK + 5, seed=8)
        assert a.passed and a.samples == 2 * SWEEP_CHUNK + 5
        # The value of the sign-gather kernel, bit for bit.
        assert a.max_operator == 0.9100000000000004

    def test_peak_memory_bounded_by_chunk(self):
        # The one-shot sweep peaked at 230.8 MB here; chunks keep it flat in samples.
        tracemalloc.start()
        try:
            bound_sweep(0.3264, 500_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_report_json_keys(self):
        import json

        report = bound_sweep(0.2, 100, seed=1)
        data = json.loads(report.to_json())
        assert set(data) == {"p", "samples", "maxI", "bound", "pass", "seed"}

    def test_report_json_rejects_nan(self):
        report = SweepReport(p=0.3, samples=1, max_operator=math.nan, bound=0.84,
                             passed=False, seed=0)
        with pytest.raises(ValueError):
            report.to_json()


class TestGeneralBetaOperator:
    def test_reduces_to_md_operator_at_quarter_pi(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            c = CorrelatorVector(*rng.uniform(-2, 2, size=4))
            p = rng.uniform(0.01, 0.5)
            got = general_beta_operator(c, 1 - p, p, math.pi / 4)
            assert got == pytest.approx(md_operator(c, p), abs=1e-12)

    def test_zero_correlators(self):
        assert general_beta_operator(CorrelatorVector(0, 0, 0, 0), 0.5, 0.5, 1.0) == 0.0

    def test_regression_fixture(self):
        # frozen: PR correlators, p1 = p2 = 0.5, beta = pi/3 evaluate to 2
        pr = CorrelatorVector(1, 1, 1, -1)
        assert general_beta_operator(pr, 0.5, 0.5, math.pi / 3) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_mixtures_respect_general_bound(self, beta):
        rng = np.random.default_rng(int(beta * 1000))
        p = 0.35
        bound = 4 * (1 - p) * p * math.sin(2 * beta)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            parts = [
                (
                    ExtremalStrategy.from_md_parameter(
                        int(rng.integers(1, 5)), rng.uniform(-math.pi, math.pi), p, beta
                    ),
                    float(w),
                )
                for w in weights
            ]
            c = mixture_correlators(StrategyMixture(parts))
            assert general_beta_operator(c, 1 - p, p, beta) <= bound + 1e-9


class TestEllipseIdentity:
    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_outcome_curve_identity(self, beta):
        # (2p1(y1)-1)^2 + (2p1(y2)-1)^2 - 2(...)(...) cos 2b = sin^2 2b
        for xi in np.linspace(-math.pi, math.pi, 361):
            u = math.cos(xi + beta)
            v = math.cos(xi - beta)
            lhs = u * u + v * v - 2 * u * v * math.cos(2 * beta)
            assert lhs == pytest.approx(math.sin(2 * beta) ** 2, abs=1e-12)
