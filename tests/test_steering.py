import math
import re

import numpy as np
import pytest

from conftest import random_mdlhs_model

from mdsteer.behaviors import OUTCOMES
from mdsteer.kernel import Direction, ValidationError, pure_state
from mdsteer.steering import (
    SETTINGS,
    Assemblage,
    MdLhsModel,
    WeightParams,
    assemblage_from_mdlhs,
    assemblage_from_state,
    behavior_from_assemblage,
    md_weight,
    mdlhv_decomposition_check,
    mix_assemblages,
    weight_bound,
    weight_limit_values,
)

Z = Direction(0, 0, 1)
X = Direction(1, 0, 0)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)


def maximally_mixed_assemblage():
    return Assemblage({(a, x): np.eye(2, dtype=complex) / 4 for a in OUTCOMES for x in SETTINGS})


def random_directions(rng, n):
    out = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        out.append(Direction(*v))
    return out


class TestAssemblageFromState:
    def test_bell_state_z_measurement(self):
        asm = assemblage_from_state(pure_state(math.pi / 4), (Z, X))
        np.testing.assert_allclose(asm.elements[(+1, 1)], KET0 / 2, atol=1e-12)

    def test_product_state_unsteerable_form(self):
        rng = np.random.default_rng(5)
        asm = assemblage_from_state(pure_state(0.0), random_directions(rng, 2))
        for x in SETTINGS:
            for a in OUTCOMES:
                p = asm.outcome_probability(a, x)
                np.testing.assert_allclose(asm.elements[(a, x)], p * KET0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_normalization_identity(self, seed):
        rng = np.random.default_rng(seed)
        asm = assemblage_from_state(
            pure_state(rng.uniform(0, math.pi / 2)), random_directions(rng, 2)
        )
        for x in SETTINGS:
            total = sum(asm.outcome_probability(a, x) for a in OUTCOMES)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestAssemblageFromMdlhs:
    def test_single_lambda_maximally_mixed(self):
        model = MdLhsModel(
            np.ones((2, 1)),
            np.full((2, 1, 2), 0.5),
            np.broadcast_to(np.eye(2) / 2, (1, 2, 2, 2)).astype(complex),
        )
        asm = assemblage_from_mdlhs(model)
        for key, m in asm.elements.items():
            np.testing.assert_allclose(m, np.eye(2) / 4, atol=1e-15)

    def test_reduces_to_setting_independent_sum(self):
        rng = np.random.default_rng(11)
        n = 3
        p_lambda = rng.dirichlet(np.ones(n))
        plx = np.stack([p_lambda, p_lambda])
        pax_plus = rng.uniform(size=(2, n))
        pax = np.stack([pax_plus, 1 - pax_plus], axis=2)
        base_states = np.empty((n, 2, 2), dtype=complex)
        for lam in range(n):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            base_states[lam] = np.outer(v, v.conj())
        states = np.stack([base_states, base_states], axis=1)
        asm = assemblage_from_mdlhs(MdLhsModel(plx, pax, states))
        for ix, x in enumerate(SETTINGS):
            for ia, a in enumerate(OUTCOMES):
                expected = sum(
                    p_lambda[lam] * pax[ix, lam, ia] * base_states[lam] for lam in range(n)
                )
                np.testing.assert_allclose(asm.elements[(a, x)], expected, atol=1e-12)

    def test_setting_dependent_distribution_still_normalized(self):
        model = random_mdlhs_model(99)
        assert not np.allclose(model.p_lambda_given_x[0], model.p_lambda_given_x[1])
        asm = assemblage_from_mdlhs(model)
        for x in SETTINGS:
            total = sum(asm.outcome_probability(a, x) for a in OUTCOMES)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_model_rejected(self):
        with pytest.raises(ValidationError):
            MdLhsModel(
                np.full((2, 2), 0.6),
                np.full((2, 2, 2), 0.5),
                np.broadcast_to(np.eye(2) / 2, (2, 2, 2, 2)).astype(complex),
            )


class TestBehaviorFromAssemblage:
    def test_bell_assemblage_bob_z(self):
        asm = assemblage_from_state(pure_state(math.pi / 4), (Z, X))
        b = behavior_from_assemblage(asm, (Z, X))
        assert b.probabilities[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_uniform_from_maximally_mixed(self):
        b = behavior_from_assemblage(maximally_mixed_assemblage(), (Z, X))
        np.testing.assert_allclose(b.probabilities, 0.25, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_alice_marginal_is_element_trace(self, seed):
        rng = np.random.default_rng(seed)
        asm = assemblage_from_state(
            pure_state(rng.uniform(0, math.pi / 2)), random_directions(rng, 2)
        )
        b = behavior_from_assemblage(asm, random_directions(rng, 2))
        for ix, x in enumerate(SETTINGS):
            for iy in range(2):
                for ia, a in enumerate(OUTCOMES):
                    marg = b.probabilities[ix, iy, ia].sum()
                    assert marg == pytest.approx(asm.outcome_probability(a, x), abs=1e-10)


class TestDecompositionCheck:
    def test_single_lambda_exact(self):
        model = MdLhsModel(
            np.ones((2, 1)),
            np.full((2, 1, 2), 0.5),
            np.broadcast_to(np.eye(2) / 2, (1, 2, 2, 2)).astype(complex),
        )
        assert mdlhv_decomposition_check(model, (Z, X)) == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_models(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = random_mdlhs_model(seed, n_lambdas=int(rng.integers(1, 9)))
        assert mdlhv_decomposition_check(model, random_directions(rng, 2)) <= 1e-12


class TestMixAssemblages:
    def test_eta_one_returns_mdlhs(self):
        steerable = assemblage_from_state(pure_state(math.pi / 4), (Z, X))
        mdlhs = maximally_mixed_assemblage()
        eta = {(a, x): 1.0 for a in OUTCOMES for x in SETTINGS}
        mixed = mix_assemblages(steerable, mdlhs, eta)
        for key in mixed.elements:
            np.testing.assert_allclose(mixed.elements[key], mdlhs.elements[key], atol=1e-15)

    def test_eta_zero_returns_steerable(self):
        steerable = assemblage_from_state(pure_state(math.pi / 4), (Z, X))
        mdlhs = maximally_mixed_assemblage()
        eta = {(a, x): 0.0 for a in OUTCOMES for x in SETTINGS}
        mixed = mix_assemblages(steerable, mdlhs, eta)
        for key in mixed.elements:
            np.testing.assert_allclose(mixed.elements[key], steerable.elements[key], atol=1e-15)

    def test_fixed_point(self):
        asm = maximally_mixed_assemblage()
        eta = {(a, x): 0.5 for a in OUTCOMES for x in SETTINGS}
        mixed = mix_assemblages(asm, asm, eta)
        for m in mixed.elements.values():
            np.testing.assert_allclose(m, np.eye(2) / 4, atol=1e-15)

    def test_outcome_dependent_eta_can_violate_normalization(self):
        steerable = assemblage_from_state(pure_state(0.0), (Z, X))  # p(+|x1) = 1
        model = MdLhsModel(
            np.ones((2, 1)),
            np.array([[[0.8, 0.2]], [[0.8, 0.2]]]),
            np.broadcast_to(np.eye(2) / 2, (1, 2, 2, 2)).astype(complex),
        )
        mdlhs = assemblage_from_mdlhs(model)
        eta = {(+1, 1): 0.9, (-1, 1): 0.1, (+1, 2): 0.9, (-1, 2): 0.1}
        with pytest.raises(ValidationError, match="x="):
            mix_assemblages(steerable, mdlhs, eta)


class TestMdWeight:
    def test_equal_distributions_unit_ratio(self):
        eta = {(a, x): 0.4 for a in OUTCOMES for x in SETTINGS}
        params = WeightParams(eta, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert md_weight(params) == 0.0

    def test_equal_distributions_general_ratio(self):
        eta = {(+1, 1): 0.5, (-1, 1): 0.6, (+1, 2): 0.5, (-1, 2): 0.3}
        params = WeightParams(eta, np.array([0.2, 0.8]), np.array([0.2, 0.8]))
        assert md_weight(params) == pytest.approx(0.5, abs=1e-15)

    def test_different_distributions_telescope(self):
        eta = {(a, x): 0.4 for a in OUTCOMES for x in SETTINGS}
        params = WeightParams(eta, np.array([0.7, 0.3]), np.array([0.4, 0.6]))
        assert md_weight(params) == pytest.approx(0.0, abs=1e-15)

    def test_signed_no_clamping(self):
        eta = {(+1, 1): 0.5, (-1, 1): 0.3, (+1, 2): 0.5, (-1, 2): 0.6}
        params = WeightParams(eta, np.array([1.0]), np.array([1.0]))
        assert md_weight(params) == pytest.approx(1.0 - 2.0, abs=1e-15)


class TestWeightLimitValues:
    def test_full_independence(self):
        assert weight_limit_values(0.5, 0.5, 1.0) == (0.0, 0.0)

    def test_quarter(self):
        low, high = weight_limit_values(0.25, 0.5, 1.0)
        assert low == pytest.approx(-1.0, abs=1e-15)
        assert high == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_settings(self):
        low, high = weight_limit_values(0.0, 0.5, 1.0)
        assert low == pytest.approx(-2.0, abs=1e-15)
        assert high == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValidationError):
            weight_limit_values(0.25, 1.0, 1.0)


class TestWeightBound:
    def test_equal_eta_reduction(self):
        eta = {(a, x): 0.5 for a in OUTCOMES for x in SETTINGS}
        assert weight_bound(0.5, 0.8, eta) == pytest.approx(0.6, abs=1e-15)

    def test_symmetric_marginals(self):
        eta = {(a, x): 0.37 for a in OUTCOMES for x in SETTINGS}
        assert weight_bound(0.42, 0.42, eta) == pytest.approx(0.0, abs=1e-15)

    def test_general_arithmetic(self):
        eta = {(+1, 2): 0.4, (-1, 2): 0.2, (+1, 1): 0.3, (-1, 1): 0.5}
        got = weight_bound(0.4, 0.7, eta)
        assert got == pytest.approx((0.7 * 0.6 - 0.4 * 0.8) / 0.5, abs=1e-15)


class TestMarginalInequalityChain:
    """The mixture construction forces p(a|x) >= eta * (model marginal)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_chain_holds_for_feasible_mixtures(self, seed):
        rng = np.random.default_rng(2000 + seed)
        model = random_mdlhs_model(seed)
        mdlhs = assemblage_from_mdlhs(model)
        steerable = assemblage_from_state(
            pure_state(rng.uniform(0, math.pi / 2)), random_directions(rng, 2)
        )
        # constant eta per setting keeps the mixture normalized
        eta = {}
        for x in SETTINGS:
            w = rng.uniform(0.05, 0.95)
            for a in OUTCOMES:
                eta[(a, x)] = w
        mixed = mix_assemblages(steerable, mdlhs, eta)
        for ix, x in enumerate(SETTINGS):
            for ia, a in enumerate(OUTCOMES):
                model_marginal = float(
                    np.sum(model.p_lambda_given_x[ix] * model.p_a_given_x_lambda[ix, :, ia])
                )
                assert mixed.outcome_probability(a, x) >= eta[(a, x)] * model_marginal - 1e-12


class TestModelJson:
    def test_round_trip(self):
        model = random_mdlhs_model(42, n_lambdas=3)
        again = MdLhsModel.from_json(model.to_json())
        np.testing.assert_array_equal(model.p_lambda_given_x, again.p_lambda_given_x)
        np.testing.assert_array_equal(model.p_a_given_x_lambda, again.p_a_given_x_lambda)
        np.testing.assert_array_equal(model.states, again.states)


# Each bad element keeps its setting's traces summing to 1, so only the PSD
# check (Assemblage) or the density check (MdLhsModel) can fail.
BAD_QUARTER = {
    "indefinite": np.diag([0.5, -0.25]).astype(complex),
    "non-hermitian": np.array([[0.125, 0.1], [0.0, 0.125]], dtype=complex),
}
BAD_DENSITY = {
    "indefinite": np.diag([1.5, -0.5]).astype(complex),
    "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),
    "trace": np.eye(2, dtype=complex) * 0.6,
}


def exactly(message):
    return f"^{re.escape(message)}$"


class TestStackedValidation:
    @pytest.mark.parametrize("kind", sorted(BAD_QUARTER))
    @pytest.mark.parametrize("a", OUTCOMES)
    @pytest.mark.parametrize("x", SETTINGS)
    def test_assemblage_names_bad_element(self, x, a, kind):
        elements = {(b, y): np.eye(2, dtype=complex) / 4 for b in OUTCOMES for y in SETTINGS}
        elements[(a, x)] = BAD_QUARTER[kind]
        with pytest.raises(ValidationError, match=exactly(f"element (a={a}, x={x}) is not PSD")):
            Assemblage(elements)

    def test_assemblage_first_fault_in_loop_order(self):
        elements = {(b, y): np.eye(2, dtype=complex) / 4 for b in OUTCOMES for y in SETTINGS}
        elements[(-1, 2)] = BAD_QUARTER["indefinite"]
        elements[(+1, 1)] = np.eye(2, dtype=complex) / 2  # x=1 traces now sum to 1.5
        with pytest.raises(ValidationError, match=exactly("traces for x=1 sum to 1.5, expected 1")):
            Assemblage(elements)

    @pytest.mark.parametrize("kind", sorted(BAD_DENSITY))
    @pytest.mark.parametrize("lam", range(3))
    @pytest.mark.parametrize("ix", range(2))
    def test_model_names_bad_state(self, lam, ix, kind):
        model = random_mdlhs_model(5, n_lambdas=3)
        states = model.states.copy()
        states[lam, ix] = BAD_DENSITY[kind]
        message = f"states[{lam}][{ix}] is not a valid density matrix"
        with pytest.raises(ValidationError, match=exactly(message)):
            MdLhsModel(model.p_lambda_given_x, model.p_a_given_x_lambda, states)

    def test_model_first_fault_in_loop_order(self):
        model = random_mdlhs_model(6, n_lambdas=3)
        states = model.states.copy()
        states[2, 0] = BAD_DENSITY["indefinite"]
        states[1, 1] = BAD_DENSITY["trace"]
        message = "states[1][1] is not a valid density matrix"
        with pytest.raises(ValidationError, match=exactly(message)):
            MdLhsModel(model.p_lambda_given_x, model.p_a_given_x_lambda, states)
