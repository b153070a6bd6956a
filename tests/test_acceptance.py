"""End-to-end acceptance suite; prints one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math

import numpy as np

from conftest import array_operator, chsh, random_mdlhs_model, saturating_mixture
from test_contractions import component_correlators

from mdsteer.adversary import BiasModel, constraint_report
from mdsteer.behaviors import CorrelatorVector, correlators, tilted_behavior
from mdsteer.inequality import (
    local_bound,
    md_operator,
    pr_closed_form,
    randomness_rate,
    tilted_closed_form,
)
from mdsteer.kernel import Direction
from mdsteer.optimize import SearchConfig, quantum_max
from mdsteer.oracle import XI_GRID_POINTS, bound_sweep
from mdsteer.steering import (
    OUTCOMES,
    SETTINGS,
    assemblage_from_mdlhs,
    mdlhv_decomposition_check,
    weight_bound,
    weight_limit_values,
)

PR = CorrelatorVector(1.0, 1.0, 1.0, -1.0)


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_local_bound_endpoints():
    ok = local_bound(0.5) == 1.0 and local_bound(0.0) == 0.0
    ok = ok and abs(local_bound(1e-9)) < 5e-9  # limit toward zero
    report(1, "local bound endpoints 1 at p=0.5 and 0 as p->0", ok)


def test_criterion_2_pr_box_consistency():
    grid = np.linspace(0.0, 0.5, 101)
    ok = all(abs(md_operator(PR, p) - pr_closed_form(p)) <= 1e-12 for p in grid)
    ok = ok and abs(md_operator(PR, 0.5) - 2.0) <= 1e-12
    ok = ok and abs(md_operator(PR, 0.0) - 2.0 * math.sqrt(2.0)) <= 1e-12
    report(2, "PR-box operator matches 2 sqrt(2 - 4p(1-p)) on 101-point grid", ok)


def random_mixtures(rng, n, p):
    """Reweighted correlators, shape (4, n), of n Dirichlet mixtures of four extremal strategies.

    Each component has a uniform response type; its xi is, with probability
    1/2, a point of the oracle's xi grid and otherwise uniform on [-pi, pi).
    """
    shape = (n, 4)
    chi = rng.integers(1, 5, size=shape)
    use_grid = rng.uniform(size=shape) < 0.5
    xi_grid = np.linspace(-math.pi, math.pi, XI_GRID_POINTS, endpoint=False)
    on_grid = xi_grid[rng.integers(0, XI_GRID_POINTS, size=shape)]
    xi = np.where(use_grid, on_grid, rng.uniform(-math.pi, math.pi, size=shape))
    weights = rng.dirichlet(np.ones(4), size=n)
    return np.einsum("sc,esc->es", weights, component_correlators(chi, xi, p))


def test_criterion_3_oracle_soundness():
    ok = True
    for i, p in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
        rep = bound_sweep(p, 100_000, seed=1000 + i)
        ok = ok and rep.max_operator <= rep.bound + 1e-9
        mixed = random_mixtures(np.random.default_rng(1000 + i), 100_000, p)
        max_mixed = float(np.max(array_operator(*mixed, p)))
        ok = ok and max_mixed <= rep.bound + 1e-9
        # Convexity: no mixture beats the vertex maximum but by rounding.
        ok = ok and max_mixed <= rep.max_operator + 8 * np.spacing(rep.max_operator)
    sat = md_operator(saturating_mixture(0.3), 0.3)
    ok = ok and abs(sat - local_bound(0.3)) <= 1e-12
    report(3, "1e5 random strategy mixtures and the exact vertex maximum stay within 4p(1-p); "
              "fixture saturates", ok)


def test_criterion_4_quantum_violation():
    point = quantum_max(0.5, SearchConfig(restarts=8, grid_density=5))
    ok = point.value >= 1.41
    ok = ok and abs(point.value - math.sqrt(2.0)) <= 1e-3
    ok = ok and point.value > local_bound(0.5)
    report(4, "optimizer at p=0.5 reaches sqrt(2) > local bound 1", ok)


def test_criterion_5_tilted_closed_form_equivalence():
    ok = True
    for delta in np.linspace(0.01, math.pi / 6, 20):
        behavior = tilted_behavior(delta)
        c = correlators(behavior)
        for p in np.linspace(0.0, 0.5, 20):
            ok = ok and abs(md_operator(c, p) - tilted_closed_form(delta, p)) <= 1e-9
        expected_chsh = 2.0 * math.cos(delta) * (1.0 + math.sin(delta))
        ok = ok and abs(chsh(behavior) - expected_chsh) <= 1e-9
    report(5, "tilted operator and CHSH match closed forms on 20x20 grid", ok)


def test_criterion_6_decomposition_property_suite():
    bob = (Direction(0, 0, 1), Direction(1, 0, 0))
    ok = True
    for seed in range(1000):
        model = random_mdlhs_model(seed, n_lambdas=1 + seed % 8)
        ok = ok and mdlhv_decomposition_check(model, bob) <= 1e-12
        asm = assemblage_from_mdlhs(model)  # constructor enforces PSD + normalization
        for x in SETTINGS:
            total = sum(asm.outcome_probability(a, x) for a in OUTCOMES)
            ok = ok and abs(total - 1.0) <= 1e-10
    report(6, "1000 random hidden-variable models decompose consistently", ok)


def test_criterion_7_weight_consistency():
    eta = {(a, x): 0.37 for a in OUTCOMES for x in SETTINGS}
    ok = True
    for p1, p2 in ((0.5, 0.8), (0.1, 0.9), (0.33, 0.33)):
        ok = ok and abs(weight_bound(p1, p2, eta) - 2.0 * (p2 - p1)) <= 1e-15
    ok = ok and weight_limit_values(0.5, 0.5, 1.0) == (0.0, 0.0)
    report(7, "equal-eta weight bound is 2[p(+|x2)-p(+|x1)]; limits vanish at l=0.5", ok)


def test_criterion_8_adversary_examples():
    a = constraint_report(BiasModel(0.3, 2.051, 2.447)).p_x1
    b = constraint_report(BiasModel(0.7, 2.179, 0.96)).p_x1
    ok = abs(a - 0.5) <= 0.01 and abs(b - 0.5) <= 0.01
    report(8, "both bias-model parameter sets masquerade as p(x)=0.5", ok)


def test_criterion_9_randomness_formula():
    ok = abs(randomness_rate(math.pi / 12) - 1.601) <= 1e-3
    ok = ok and abs(randomness_rate(0.0) - 2.0) <= 1e-3
    report(9, "randomness rate endpoints r(pi/12)=1.601 and r(0)=2.000", ok)
