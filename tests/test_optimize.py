import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsteer.inequality import local_bound, pr_closed_form, tilted_closed_form
from mdsteer.kernel import Direction, ValidationError
from mdsteer.optimize import (
    QuantumAnsatz,
    SearchConfig,
    curve,
    quantum_max,
    quantum_value,
)

FAST = SearchConfig(restarts=6, grid_density=5, max_iterations=200)
DIRECTIONS = st.builds(Direction.spherical, st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi))


@functools.lru_cache(maxsize=None)
def planar_max(p):
    return quantum_max(p, FAST).value


def random_planar_ansatz(rng, theta=None):
    t = rng.uniform(0, math.pi / 2) if theta is None else theta
    return QuantumAnsatz(t, tuple(Direction.planar(a) for a in rng.uniform(0, 2 * math.pi, 4)))


class TestQuantumValue:
    def test_product_state_never_violates(self):
        # the hidden-variable bound assumes Bob's pair is mutually unbiased
        # (overlap angle pi/4); aligned pairs fall outside the derivation
        rng = np.random.default_rng(17)
        for _ in range(100):
            a1, a2, b1 = rng.uniform(0, 2 * math.pi, 3)
            dirs = (
                Direction.planar(a1),
                Direction.planar(a2),
                Direction.planar(b1),
                Direction.planar(b1 + math.pi / 2),
            )
            assert quantum_value(QuantumAnsatz(0.0, dirs), 0.5) <= 1.0 + 1e-9

    def test_chsh_optimal_configuration(self):
        dirs = (
            Direction.planar(0.0),
            Direction.planar(math.pi / 2),
            Direction.planar(-math.pi / 4),
            Direction.planar(math.pi / 4),
        )
        value = quantum_value(QuantumAnsatz(math.pi / 4, dirs), 0.5)
        assert value == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_p_zero_bound_is_zero(self):
        rng = np.random.default_rng(4)
        ansatz = random_planar_ansatz(rng)
        assert local_bound(0.0) == 0.0
        assert quantum_value(ansatz, 0.0) >= 0.0


class TestQuantumMax:
    def test_half_reaches_sqrt2(self):
        point = quantum_max(0.5, FAST)
        assert point.value == pytest.approx(math.sqrt(2), abs=1e-3)
        assert point.value > local_bound(0.5)

    def test_dominates_tilted_constructions(self):
        point = quantum_max(0.5, FAST)
        for delta in np.linspace(0.05, math.pi / 6, 5):
            assert point.value >= tilted_closed_form(delta, 0.5) - 1e-6

    def test_below_pr_curve(self):
        for p in (0.2, 0.5):
            assert quantum_max(p, FAST).value <= pr_closed_form(p) + 1e-6

    def test_deterministic(self):
        a = quantum_max(0.4, FAST)
        b = quantum_max(0.4, FAST)
        assert a.value == b.value
        assert a.argmax.theta == b.argmax.theta

    def test_pinned_bit_for_bit(self):
        # The theta clamp is min(max(t, 0), pi/2), which returns exactly what np.clip did;
        # the search must end on the same bits (pinned with numpy 2.4 / scipy 1.17, x86-64).
        point = quantum_max(0.5, FAST)
        assert point.value.hex() == "0x1.6a09e667f3bcep+0"
        assert point.argmax.theta.hex() == "0x1.41b3224e60726p+0"
        pinned = [
            ("-0x1.8ddf16c554163p-42", "0x1.0000000000000p+0"),
            ("-0x1.2cf3007bfb82fp-1", "-0x1.9e36e273ff594p-1"),
            ("0x1.d5b4e0efb5c4cp-43", "0x1.0000000000000p+0"),
            ("0x1.c9f551d42522fp-42", "0x1.0000000000000p+0"),
        ]
        assert [(n.nx.hex(), n.nz.hex()) for n in point.argmax.directions] == pinned
        assert all(n.ny == 0.0 for n in point.argmax.directions)

    def test_minimize_looked_up_per_restart(self, monkeypatch):
        # Instrumentation counts Nelder-Mead runs by replacing the module-global
        # mdsteer.optimize.minimize; quantum_max must call it through that name.
        import mdsteer.optimize as optimize

        plain = quantum_max(0.25, FAST)
        calls = []
        real = optimize.minimize

        def counting(fun, x0, **kwargs):
            calls.append(kwargs["method"])
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(optimize, "minimize", counting)
        patched = quantum_max(0.25, FAST)
        assert calls == ["Nelder-Mead"] * FAST.restarts
        assert patched == plain

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("grid_density", 0),
            ("grid_density", 2.0),
            ("restarts", -1),
            ("restarts", 1.5),
            ("max_iterations", 0),
        ],
    )
    def test_search_fields_validated(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            SearchConfig(**{field: bad})

    def test_config_holds_only_the_search_size(self):
        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "restarts", "grid_density", "max_iterations"
        ]
        assert "config" not in inspect.signature(curve).parameters

    def test_smallest_search_runs(self):
        # one grid angle, no restarts: the best grid point is the answer
        point = quantum_max(0.5, SearchConfig(restarts=0, grid_density=1, max_iterations=1))
        assert point.value == pytest.approx(quantum_value(point.argmax, 0.5), abs=1e-15)

    @given(
        p=st.sampled_from([0.1, 0.3, 0.5]),
        theta=st.floats(0.0, math.pi / 2),
        directions=st.lists(DIRECTIONS, min_size=4, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_off_plane_never_beats_planar_max(self, p, theta, directions):
        # The search stays in the x-z plane; an ansatz off it gains nothing.
        value = quantum_value(QuantumAnsatz(theta, directions), p)
        assert value <= planar_max(p) + 1e-9


class TestCurve:
    def test_local_endpoints(self):
        pts = curve("local", [0.0, 0.25, 0.5])
        assert [pt.value for pt in pts] == [0.0, 0.75, 1.0]

    def test_prbox_endpoints(self):
        pts = curve("prbox", [0.0, 0.5])
        assert pts[0].value == pytest.approx(2 * math.sqrt(2), abs=1e-15)
        assert pts[1].value == pytest.approx(2.0, abs=1e-15)

    def test_tilted_violation_at_half(self):
        pts = curve("tilted", [0.5], delta=math.pi / 6)
        assert pts[0].delta == pytest.approx(0.4012585384440734, abs=1e-3)

    def test_tilted_matches_closed_form(self):
        pts = curve("tilted", [0.1, 0.3, 0.5], delta=0.2)
        for pt in pts:
            assert pt.value == pytest.approx(tilted_closed_form(0.2, pt.p), abs=1e-9)

    def test_randomness_annotates_rate(self):
        pts = curve("randomness", [0.25, 0.5], gamma=math.pi / 24)
        for pt in pts:
            assert pt.rate is not None and 1.0 <= pt.rate <= 2.0
            assert pt.delta == pytest.approx(pt.value - local_bound(pt.p), abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            curve("bogus", [0.5])

    def test_grid_range_checked(self):
        with pytest.raises(ValidationError):
            curve("local", [0.7])

    def test_missing_parameter(self):
        with pytest.raises(ValidationError):
            curve("tilted", [0.5])
        with pytest.raises(ValidationError):
            curve("randomness", [0.5])


class TestMonotonicity:
    def test_quantum_max_non_increasing(self):
        # empirical property of the optimizer's curve (it tracks the PR-box
        # curve 2 sqrt(2 - 4p(1-p)), which decreases on [0, 1/2]);
        # coarse grid for speed
        cfg = SearchConfig(restarts=3, grid_density=4, max_iterations=150)
        grid = np.linspace(0.05, 0.5, 6)
        values = [quantum_max(p, cfg).value for p in grid]
        assert all(b <= a + 1e-4 for a, b in zip(values, values[1:]))
