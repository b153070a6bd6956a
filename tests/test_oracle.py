import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mixed_correlators, saturating_mixture
from test_contractions import XI_GRID

from mdsteer.behaviors import CorrelatorVector
from mdsteer.inequality import local_bound, md_operator
from mdsteer.kernel import ValidationError
from mdsteer.oracle import (
    ExtremalStrategy,
    SweepReport,
    bound_sweep,
    extremal_correlators,
    vertex_maximum,
)


class TestExtremalStrategy:
    def test_invalid_chi(self):
        # True and 2.0 compare equal to a valid chi but are not integers.
        for chi in (5, 0, True, 2.0):
            with pytest.raises(ValidationError, match="chi"):
                ExtremalStrategy(chi=chi, xi=0.0)

    def test_bias_outside_unit_rejected(self):
        # Alice's setting probabilities are (1 - p, p); p = 1.5 is the pair (-0.5, 1.5).
        for p in (-0.5, 1.5, -1e-300, 1.0000000000000002, math.nan, math.inf):
            with pytest.raises(ValidationError, match=r"^p must be in \[0, 1\], got "):
                ExtremalStrategy(chi=1, xi=0.0, p=p)

    def test_unnormalized_setting_probs(self):
        # (1 - p, p) always sums to 1, so a setting pair that is no distribution
        # has an entry below 0: p = 1.2 is the pair (-0.2, 1.2).
        with pytest.raises(ValidationError):
            ExtremalStrategy(chi=1, xi=0.0, p=1.2)

    def test_bias_endpoints_accepted(self):
        for p in (0.0, 1.0):
            assert ExtremalStrategy(chi=1, xi=0.0, p=p).p == p

    def test_fields_in_positional_order(self):
        assert list(ExtremalStrategy._fields) == ["chi", "xi", "p", "beta"]


class TestExtremalCorrelators:
    def test_worked_example(self):
        s = ExtremalStrategy(1, -math.pi / 4, 0.3)
        c = extremal_correlators(s)
        np.testing.assert_allclose(c.as_array(), [1.4, 0.0, 0.6, 0.0], atol=1e-12)

    @given(
        xi=st.floats(-math.pi, math.pi),
        beta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
        p=st.floats(0.0, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, xi, beta, p):
        pairs = [(1, 2), (3, 4)]
        for chi_a, chi_b in pairs:
            ca = extremal_correlators(ExtremalStrategy(chi_a, xi, p, beta))
            cb = extremal_correlators(ExtremalStrategy(chi_b, xi, p, beta))
            np.testing.assert_array_equal(ca.as_array(), -cb.as_array())

    def test_entries_bounded_by_two(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = ExtremalStrategy(
                int(rng.integers(1, 5)), rng.uniform(-math.pi, math.pi), rng.uniform(0, 0.5)
            )
            assert np.max(np.abs(extremal_correlators(s).as_array())) <= 2.0


class TestMixtureCorrelators:
    """A mixture's correlators: the weighted sum of its strategies' correlator vectors."""

    def test_singleton(self):
        s = ExtremalStrategy(2, 0.7, 0.2)
        np.testing.assert_array_equal(
            mixed_correlators([(s, 1.0)]).as_array(), extremal_correlators(s).as_array()
        )

    def test_opposite_types_cancel(self):
        s1 = ExtremalStrategy(1, 0.3, 0.4)
        s2 = ExtremalStrategy(2, 0.3, 0.4)
        c = mixed_correlators([(s1, 0.5), (s2, 0.5)])
        np.testing.assert_allclose(c.as_array(), 0.0, atol=1e-15)

    def test_random_mixtures_respect_bound(self):
        rng = np.random.default_rng(123)
        p = 0.3
        for _ in range(200):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            parts = [
                (
                    ExtremalStrategy(int(rng.integers(1, 5)), rng.uniform(-math.pi, math.pi), p),
                    float(w),
                )
                for w in weights
            ]
            assert md_operator(mixed_correlators(parts), p) <= local_bound(p) + 1e-9


class TestFairMarginalBiases:
    """Strategies whose bias t = p(x1|lambda) varies within [p, 1 - p] under a fair marginal."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: opposite biases t = p and 1 - p reach 2(1 - p) > 4p(1 - p)",
    )
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
    def test_opposite_biases_respect_bound(self, p):
        # ExtremalStrategy's p is p(x2), so the two biases are t = 1 - p and t = p.
        c = mixed_correlators(
            [(ExtremalStrategy(1, -math.pi / 4, p), 0.5),
             (ExtremalStrategy(1, -math.pi / 4, 1.0 - p), 0.5)]
        )
        assert md_operator(c, p) <= local_bound(p) + 1e-9


class TestBoundSweep:
    def test_bound_respected_and_approached_at_half(self):
        report = bound_sweep(0.5, 10_000, seed=7)
        assert report.passed
        assert report.max_operator <= 1.0 + 1e-9
        assert report.max_operator >= 1.0 - 1e-3

    def test_saturating_fixture(self):
        assert md_operator(saturating_mixture(0.3), 0.3) == pytest.approx(0.84, abs=1e-12)

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

    def test_bools_are_not_counts(self):
        # True == 1 to Python; as a count it once printed "samples": true.
        with pytest.raises(ValidationError, match="samples must be an integer >= 1, got True"):
            bound_sweep(0.3, True, seed=1)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0, got False"):
            bound_sweep(0.3, 10, seed=False)

    @pytest.mark.parametrize("samples", [4095, 4097, 65537, 196615])
    @pytest.mark.parametrize(
        "p, seed, printed",
        [
            (0.05, 0, 0.19000000000000009),
            (0.3, 17, 0.8400000000000001),
            (0.35, 8, 0.9100000000000004),
            (0.5, 3, 1.0),
            (0.3, 6, 0.8400000000000001),
        ],
        ids=["0.05-0", "0.3-17", "0.35-8", "0.5-3", "0.3-6"],
    )
    def test_blocks_match_whole_chunks(self, samples, p, seed, printed):
        # The maxima the sampled sweep printed when it drew 65536-sample chunks whole
        # (and later 4096-sample blocks); the exact vertex maximum keeps their bits.
        assert bound_sweep(p, samples, seed).max_operator == printed

    @pytest.mark.parametrize(
        "p, samples, seed, printed",
        [
            (0.3, 1000, 1, '"maxI": 0.8400000000000001, "bound": 0.84'),
            (0.35, 131077, 8, '"maxI": 0.9100000000000004, "bound": 0.9099999999999999'),
            (0.3, 131077, 6, '"maxI": 0.8400000000000001, "bound": 0.84'),
            (0.3, 100000, 42, '"maxI": 0.8400000000000001, "bound": 0.84'),
            (0.3264, 500000, 1, '"maxI": 0.8794521600000003, "bound": 0.87945216'),
            (0.5, 1000, 42, '"maxI": 1.0, "bound": 1.0'),
            # The sampled sweep printed a mixture's 4.0000000000000016e-100 here.
            (1e-100, 3000, 10, '"maxI": 4.0000000000000006e-100, "bound": 4e-100'),
        ],
    )
    def test_printed_record_pinned(self, p, samples, seed, printed):
        record = f'{{"p": {p}, "samples": {samples}, {printed}, "pass": true, "seed": {seed}}}'
        assert bound_sweep(p, samples, seed).to_json() == record

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-150, 0.5), st.integers(1, 2**40), st.integers(0, 2**32 - 1))
    def test_printed_maximum_is_the_grids(self, p, samples, seed):
        assert bound_sweep(p, samples, seed).max_operator == vertex_maximum(p)[0]

    @pytest.mark.parametrize("samples", [20_000, 500_000])
    def test_peak_memory_independent_of_samples(self, samples):
        # A few floats at a time, under 1 KB, whatever the number of samples.
        tracemalloc.start()
        try:
            bound_sweep(0.3264, samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**10

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


class TestVertexMaximum:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-150, 0.5))
    @example(0.3788644226541457)  # a root of libm's pow, which ** 0.5 once called, missed by 1 ulp
    def test_witness_attains_value(self, p):
        value, witness = vertex_maximum(p)
        assert (witness.p, witness.beta) == (p, math.pi / 4)
        assert witness.xi in XI_GRID
        assert md_operator(extremal_correlators(witness), p) == value

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-150, 0.5),
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.one_of(st.sampled_from(XI_GRID.tolist()), st.floats(-math.pi, math.pi)),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_mixtures_never_exceed(self, p, vertices, seed):
        # I is convex in the correlators, so no mixture beats its best vertex but by rounding.
        value = vertex_maximum(p)[0]
        weights = np.random.default_rng(seed).dirichlet(np.ones(len(vertices)))
        mixture = mixed_correlators(
            [(ExtremalStrategy(chi, xi, p), float(w)) for (chi, xi), w in zip(vertices, weights)]
        )
        assert md_operator(mixture, p) <= value + 8 * np.spacing(value)

    @pytest.mark.xfail(strict=True, reason="operator_value's squares underflow below p ~ 1e-154")
    def test_tiny_bias_reaches_bound(self):
        assert math.isclose(vertex_maximum(1e-200)[0], local_bound(1e-200), rel_tol=1e-12)

    def test_bias_validated(self):
        for p in (0.0, 0.6, math.nan):
            with pytest.raises(ValidationError, match="p must be in"):
                vertex_maximum(p)


class TestGeneralBetaOperator:
    """md_operator at a measurement overlap beta other than pi/4."""

    def test_reduces_to_md_operator_at_quarter_pi(self):
        # At pi/4 the cross-term vanishes and alpha1, alpha2 are md_operator's docstring sums.
        rng = np.random.default_rng(21)
        for _ in range(100):
            c = CorrelatorVector(*rng.uniform(-2, 2, size=4))
            p = rng.uniform(0.01, 0.5)
            x1y1, x1y2, x2y1, x2y2 = p * c.e11, p * c.e12, (1 - p) * c.e21, (1 - p) * c.e22
            alpha1 = (x1y1 + x2y1) ** 2 + (x1y2 + x2y2) ** 2
            alpha2 = (x1y1 - x2y1) ** 2 + (x1y2 - x2y2) ** 2
            got = md_operator(c, p, math.pi / 4)
            assert got == md_operator(c, p)
            assert got == pytest.approx(math.sqrt(alpha1) + math.sqrt(alpha2), abs=1e-12)

    def test_zero_correlators(self):
        assert md_operator(CorrelatorVector(0, 0, 0, 0), 0.5, 1.0) == 0.0

    def test_regression_fixture(self):
        # frozen: PR correlators, p = 0.5, beta = pi/3 evaluate to 2
        pr = CorrelatorVector(1, 1, 1, -1)
        assert md_operator(pr, 0.5, math.pi / 3) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_mixtures_respect_general_bound(self, beta):
        rng = np.random.default_rng(int(beta * 1000))
        p = 0.35
        bound = 4 * (1 - p) * p * math.sin(2 * beta)  # the hidden-variable bound at beta
        for _ in range(300):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            parts = [
                (
                    ExtremalStrategy(
                        int(rng.integers(1, 5)), rng.uniform(-math.pi, math.pi), p, beta
                    ),
                    float(w),
                )
                for w in weights
            ]
            assert md_operator(mixed_correlators(parts), p, beta) <= bound + 1e-9


class TestEllipseIdentity:
    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_outcome_curve_identity(self, beta):
        # (2p_plus(y1)-1)^2 + (2p_plus(y2)-1)^2 - 2(...)(...) cos 2b = sin^2 2b
        for xi in np.linspace(-math.pi, math.pi, 361):
            u = math.cos(xi + beta)
            v = math.cos(xi - beta)
            lhs = u * u + v * v - 2 * u * v * math.cos(2 * beta)
            assert lhs == pytest.approx(math.sin(2 * beta) ** 2, abs=1e-12)
