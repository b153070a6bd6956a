import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assemblage_stack, random_mdlhs_model

from mdsteer.behaviors import OUTCOMES, Behavior, behavior_from_quantum, correlators, pr_box
from mdsteer.inequality import local_bound, md_operator
from mdsteer.kernel import TOL, Direction, ValidationError
from mdsteer.linalg import (
    TwoQubitState,
    bell_phi_plus,
    bloch_psd,
    is_psd,
    pauli_matrices,
    projector_rows,
    pure_state,
)
from mdsteer.steering import (
    SETTINGS,
    Assemblage,
    MdLhsModel,
    _KEYS,
    _keyed,
    _weights,
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

    def test_each_call_builds_a_new_assemblage(self):
        model = random_mdlhs_model(7)
        first, second = assemblage_from_mdlhs(model), assemblage_from_mdlhs(model)
        assert first is not second
        assert np.array_equal(assemblage_stack(first), assemblage_stack(second))
        for asm in (first, second):
            for a in asm.elements.values():
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 7.0

    def test_leaves_the_models_repr_and_arrays_alone(self):
        model = random_mdlhs_model(7)
        names = ("p_lambda_given_x", "p_a_given_x_lambda", "states")
        before = repr(model), [getattr(model, name).copy() for name in names]
        assemblage_from_mdlhs(model)
        assert repr(model) == before[0]
        for name, array in zip(names, before[1]):
            np.testing.assert_array_equal(getattr(model, name), array)
        assert "_assemblage" not in repr(model)

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

    def test_equals_the_route_through_validated_objects(self):
        # The check's assemblage route is the one through an Assemblage and a Behavior, bit for
        # bit; its hidden-variable sum is sum_lambda w[x][a][lambda] (v_lambda|x . q_yb) over
        # the states' Bloch rows v and Bob's projector rows q. tests/test_contractions.py checks
        # both routes against the complex contractions.
        rng = np.random.default_rng(2024)
        for seed in range(200):
            model = random_mdlhs_model(seed, n_lambdas=int(rng.integers(1, 17)))
            dirs = random_directions(rng, 2)
            via = behavior_from_assemblage(assemblage_from_mdlhs(model), dirs).probabilities
            w = model.p_a_given_x_lambda.transpose(0, 2, 1) * model.p_lambda_given_x[:, None, :]
            born = model._bloch @ projector_rows(dirs).T  # [x][lambda][yb]
            direct = (w @ born).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
            expected = float(np.max(np.abs(via - direct)))
            assert mdlhv_decomposition_check(model, dirs) == expected, seed

    @pytest.mark.parametrize("n_dirs", [1, 3])
    def test_needs_two_bob_directions(self, n_dirs):
        message = exactly("exactly two Bob directions required")
        with pytest.raises(ValidationError, match=message):
            mdlhv_decomposition_check(random_mdlhs_model(1), [Z, X, Z][:n_dirs])


def phi_plus_model():
    """Two lambdas with p(lambda|x) = 1/2, a = +1 under lambda1 and -1 under lambda2, and
    states[lambda][x] Bob's normalised conditional state of Phi+ for that a at Alice's z/x."""
    asm = assemblage_from_state(bell_phi_plus(), (Z, X))
    states = [
        [asm.elements[(a, x)] / asm.outcome_probability(a, x) for x in SETTINGS] for a in OUTCOMES
    ]
    pax = np.broadcast_to(np.eye(2), (2, 2, 2))  # p(a|x, lambda)[x][lambda][a]
    return MdLhsModel(np.full((2, 2), 0.5), pax, np.array(states)), asm


class TestSettingDependentStates:
    """states[lambda][x] may depend on Alice's setting, so a model can hold Phi+'s own states."""

    def test_phi_plus_reproduced(self):
        model, asm = phi_plus_model()
        got = assemblage_stack(assemblage_from_mdlhs(model))
        assert np.max(np.abs(got - assemblage_stack(asm))) <= 1e-15

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 8: Bob's state depends on x, so the model reaches sqrt(2) > 1",
    )
    def test_model_respects_local_bound(self):
        model, _ = phi_plus_model()
        c = correlators(behavior_from_assemblage(assemblage_from_mdlhs(model), (Z, X)))
        assert md_operator(c, 0.5) <= local_bound(0.5) + 1e-9


class TestSteeringRouteSoundness:
    """A model in every MD-LHS class, taken through assemblage, behavior and correlators."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: with no measurement dependence it reaches 2(1 - p) > 4p(1 - p)",
    )
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
    def test_model_respects_local_bound(self, p):
        # One lambda, p(lambda|x) = 1, Alice always +1 and Bob in |0><0| whatever x is.
        model = MdLhsModel(np.ones((2, 1)), [[[1.0, 0.0]], [[1.0, 0.0]]], [[KET0, KET0]])
        c = correlators(behavior_from_assemblage(assemblage_from_mdlhs(model), (Z, X)))
        assert md_operator(c, p) <= local_bound(p) + 1e-9


def slack_state():
    """A state with trace 1 + 0.9e-10 and an eigenvalue -0.9e-10, each within its slack."""
    return TwoQubitState(np.diag([0.5 + 1.8e-10, -0.9e-10, 0.0, 0.5]))


def slack_model():
    """A one-lambda model whose state has the same trace and eigenvalue as slack_state's."""
    rho = np.diag([1 + 1.8e-10, -0.9e-10])
    return MdLhsModel(np.ones((2, 1)), np.array([[[1.0, 0.0]], [[1.0, 0.0]]]), [[rho, rho]])


class TestToleranceComposition:
    """Inputs that pass their own checks give rows summing to 1 + 1.8e-10 once born clips the
    negative eigenvalue's outcome at 0: past Behavior's 1e-10 row-sum slack."""

    def test_inputs_pass_their_own_checks(self):
        slack_state()
        assemblage_from_mdlhs(slack_model())

    @pytest.mark.xfail(
        strict=True, raises=ValidationError, reason="ROADMAP item 25: the tolerances do not compose"
    )
    def test_state_at_the_slack_gives_a_behavior(self):
        behavior_from_quantum(slack_state(), (Z, X), (Z, X))

    @pytest.mark.xfail(
        strict=True, raises=ValidationError, reason="ROADMAP item 25: the tolerances do not compose"
    )
    def test_model_at_the_slack_gives_a_behavior(self):
        behavior_from_assemblage(assemblage_from_mdlhs(slack_model()), (Z, X))


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
        assert md_weight(eta) == 0.0

    def test_equal_distributions_general_ratio(self):
        eta = {(+1, 1): 0.5, (-1, 1): 0.6, (+1, 2): 0.5, (-1, 2): 0.3}
        assert md_weight(eta) == pytest.approx(0.5, abs=1e-15)

    def test_different_distributions_telescope(self):
        # sum_lambda (p(lambda|x1) - r p(lambda|x2)) is 1 - r for any two distributions.
        eta = {(+1, 1): 0.5, (-1, 1): 0.6, (+1, 2): 0.5, (-1, 2): 0.3}
        rng = np.random.default_rng(14)
        for n in (1, 3, 8):
            d1, d2 = rng.dirichlet(np.ones(n), size=2)
            assert np.sum(d1 - 0.5 * d2) == pytest.approx(md_weight(eta), abs=1e-15)

    def test_signed_no_clamping(self):
        eta = {(+1, 1): 0.5, (-1, 1): 0.3, (+1, 2): 0.5, (-1, 2): 0.6}
        assert md_weight(eta) == pytest.approx(1.0 - 2.0, abs=1e-15)

    @pytest.mark.parametrize("value", [0.0, 1.0, math.nan])
    def test_eta_validated(self, value):
        eta = {(a, x): 0.4 for a in OUTCOMES for x in SETTINGS}
        with pytest.raises(ValidationError, match=r"^eta\[\(a=-1, x=1\)\] must be in \(0, 1\)"):
            md_weight({**eta, (-1, 1): value})


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


def owned_arrays(kind):
    """(the caller's input arrays, the arrays the validated object exposes) for one type."""
    if kind == "TwoQubitState":
        rho = pure_state(0.3).density.copy()
        return [rho], [TwoQubitState(rho).density]
    if kind == "Behavior":
        p = pr_box().probabilities.copy()
        return [p], [Behavior(p).probabilities]
    if kind == "Assemblage":
        elements = {k: m.copy() for k, m in maximally_mixed_assemblage().elements.items()}
        return [*elements.values()], [*Assemblage(elements).elements.values()]
    model = random_mdlhs_model(3, n_lambdas=2)
    inputs = [model.p_lambda_given_x.copy(), model.p_a_given_x_lambda.copy(), model.states.copy()]
    again = MdLhsModel(*inputs)
    return inputs, [again.p_lambda_given_x, again.p_a_given_x_lambda, again.states]


OWNERS = ["TwoQubitState", "Behavior", "Assemblage", "MdLhsModel"]

BUILDERS = {
    "TwoQubitState": lambda: pure_state(0.3),
    "Behavior": pr_box,
    "Assemblage": maximally_mixed_assemblage,
    "MdLhsModel": lambda: random_mdlhs_model(3, n_lambdas=2),
}


@pytest.mark.parametrize("kind", OWNERS)
def test_array_holders_compare_by_identity(kind):
    first, second = BUILDERS[kind](), BUILDERS[kind]()
    assert (first == second) is False
    assert (first != second) is True
    assert first == first
    assert len({first, second, first}) == 2


class TestOwnedArrays:
    """Each validated type keeps its own read-only copy of what it was given."""

    @pytest.mark.parametrize("kind", OWNERS)
    def test_writes_to_the_input_do_not_reach_the_object(self, kind):
        inputs, stored = owned_arrays(kind)
        before = [a.copy() for a in stored]
        for a in inputs:
            a[...] = -5.0
        for a, b in zip(stored, before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", OWNERS)
    def test_stored_arrays_are_read_only(self, kind):
        _, stored = owned_arrays(kind)
        for a in stored:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 7.0

    @pytest.mark.parametrize("seed", range(5))
    def test_elements_rebuild_the_same_assemblage(self, seed):
        rng = np.random.default_rng(seed)
        state = pure_state(rng.uniform(0, math.pi / 2))
        for asm in (
            assemblage_from_state(state, random_directions(rng, 2)),
            assemblage_from_mdlhs(random_mdlhs_model(seed)),
        ):
            again = Assemblage(asm.elements).elements
            assert again.keys() == asm.elements.keys()
            assert all(np.array_equal(again[k], asm.elements[k]) for k in asm.elements)


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

    @pytest.mark.parametrize(
        "elements",
        [
            np.broadcast_to(np.eye(2, dtype=complex) / 4, (2, 2, 2, 2)),
            [np.eye(2, dtype=complex) / 4] * 4,
            (np.eye(2, dtype=complex) / 4,) * 4,
        ],
        ids=["ndarray", "list", "tuple"],
    )
    def test_assemblage_refuses_a_non_dict_by_name(self, elements):
        message = f"assemblage elements must be a dict keyed by (a, x), got {type(elements).__name__}"
        with pytest.raises(ValidationError, match=exactly(message)):
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


def verdict(build):
    """'PSD' if build() succeeds, else the message of its ValidationError."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return "PSD"


class TestOnePsdCriterion:
    """A Bloch row given as a row or as its complex matrix, to an Assemblage or to an MdLhsModel,
    gets one verdict: linalg.bloch_psd's."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [0.999, 1.001])
    def test_rows_and_matrices_agree_at_the_slack(self, seed, scale):
        # Unit-trace rows (1, r) with 1 - |r| = -scale 2 TOL.psd, one part in 1e3 of the slack
        # either side of the edge as in test_kernel's 2x2 slack test; rounding moves ~1e-16.
        rng = np.random.default_rng(seed)
        r = rng.normal(size=(4, 3))
        r *= (1.0 + scale * 2.0 * TOL.psd) / np.linalg.norm(r, axis=1, keepdims=True)
        edge = np.hstack([np.ones((4, 1)), r])
        passes = scale < 1.0
        assert bloch_psd(edge.tolist()) == [passes] * 4
        assert is_psd(pauli_matrices(edge / 2)).tolist() == [passes] * 4
        half = np.array([1.0, 0.0, 0.0, 0.0])  # I/2, well inside the ball
        for k, (a, x) in enumerate((a, x) for x in SETTINGS for a in OUTCOMES):
            # Element k on the edge, its partner in setting x the zero operator (trace 0, PSD),
            # the other setting I/2 and the zero operator: every trace sum is 1.
            rows = np.zeros((4, 4))
            rows[k] = edge[k]
            rows[2 * (1 - k // 2)] = half
            expected = "PSD" if passes else f"element (a={a}, x={x}) is not PSD"
            assert verdict(lambda: Assemblage._from_bloch(rows.copy())) == expected
            stack = pauli_matrices(rows / 2).reshape(2, 2, 2, 2)
            assert verdict(lambda: Assemblage(_keyed(stack))) == expected
            # The same operator as the state of a one-lambda model, next to I/2.
            states = np.array([pauli_matrices(np.array([half, half]) / 2)])
            states[0, x - 1] = pauli_matrices(edge[k] / 2)
            expected = "PSD" if passes else f"states[0][{x - 1}] is not a valid density matrix"
            plx, pax = np.ones((2, 1)), np.full((2, 1, 2), 0.5)
            assert verdict(lambda: MdLhsModel(plx, pax, states)) == expected


def lower_triangle_rows(m):
    """The Bloch rows (Re a + Re d, 2 Re c, 2 Im c, Re a - Re d) of a stack (..., 2, 2) of
    [[a, b], [c, d]], with numpy elementwise."""
    a, c, d = m[..., 0, 0].real, m[..., 1, 0], m[..., 1, 1].real
    return np.stack([a + d, 2 * c.real, 2 * c.imag, a - d], axis=-1)


def near_hermitian(weights, bloch, noise):
    """weights[k] (I + n_k . sigma)/2 for the Bloch vectors n_k = bloch[k], with noise[k] added
    to the upper entry and, as an imaginary part, to the diagonal: within the Hermitian gate."""
    w, (nx, ny, nz) = weights[:, None, None], np.moveaxis(bloch, -1, 0)
    m = np.empty(bloch.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = (1 + nz) / 2 + 0.5j * noise
    m[..., 1, 0] = (nx + 1j * ny) / 2
    m[..., 0, 1] = (nx - 1j * ny) / 2 + noise * (1 + 1j)
    m[..., 1, 1] = (1 - nz) / 2 - 0.5j * noise
    return w * m


# Bloch vector components in [-0.57, 0.57]: |n| < 0.99, so every operator is well inside PSD.
BLOCH = hnp.arrays(float, (4, 3), elements=st.floats(-0.57, 0.57))
NOISE = hnp.arrays(float, 4, elements=st.floats(-1e-12, 1e-12))


class TestCallerBuiltRows:
    """A caller's complex matrices are held as the Bloch rows of their lower triangles."""

    @settings(max_examples=20, deadline=None)
    @given(w=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0), bloch=BLOCH, noise=NOISE)
    def test_assemblage_rows(self, w, v, bloch, noise):
        flat = near_hermitian(np.array([w, 1 - w, v, 1 - v]), bloch, noise)
        asm = Assemblage(dict(zip(((a, x) for x in SETTINGS for a in OUTCOMES), flat)))
        assert asm._bloch.tobytes() == lower_triangle_rows(flat).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(bloch=BLOCH, noise=NOISE)
    def test_model_rows(self, bloch, noise):
        states = near_hermitian(np.ones(4), bloch, noise).reshape(2, 2, 2, 2)
        model = MdLhsModel(np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5), states)
        expected = lower_triangle_rows(states).transpose(1, 0, 2)
        assert model._bloch.tobytes() == np.ascontiguousarray(expected).tobytes()


def quarter_dict():
    return {(a, x): np.eye(2, dtype=complex) / 4 for a in OUTCOMES for x in SETTINGS}


class TestAssemblageFromDict:
    """Assemblage(dict) rebuilds a producer's matrices, and names a missing or misshapen
    element before it judges any element's positivity."""

    @pytest.mark.parametrize("index", range(3))
    def test_producer_elements_build_the_same(self, index):
        produced = producer_assemblages(21)[index]
        rebuilt = Assemblage(dict(produced.elements))
        assert rebuilt.elements.keys() == produced.elements.keys()
        assert assemblage_stack(rebuilt).tobytes() == assemblage_stack(produced).tobytes()

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 3), (3, 3), (1, 2, 2), (2, 2, 1)])
    def test_element_of_wrong_shape_rejected(self, shape):
        elements = quarter_dict()
        elements[(-1, 2)] = np.zeros(shape, dtype=complex)
        with pytest.raises(ValidationError, match=exactly("element (a=-1, x=2) must be 2x2")):
            Assemblage(elements)

    @pytest.mark.parametrize("a, x", _KEYS)
    def test_missing_element_named(self, a, x):
        elements = quarter_dict()
        del elements[(a, x)]
        message = f"missing assemblage element for (a={a}, x={x})"
        with pytest.raises(ValidationError, match=exactly(message)):
            Assemblage(elements)

    @pytest.mark.parametrize(
        "first, message",
        [
            (np.zeros(2, dtype=complex), "element (a=1, x=1) must be 2x2"),
            (BAD_QUARTER["indefinite"], "missing assemblage element for (a=-1, x=2)"),
        ],
        ids=["shape-before-missing", "missing-before-psd"],
    )
    def test_first_fault_in_loop_order(self, first, message):
        elements = quarter_dict()
        elements[(1, 1)] = first
        del elements[(-1, 2)]
        with pytest.raises(ValidationError, match=exactly(message)):
            Assemblage(elements)


class TestOutcomeProbability:
    @pytest.mark.parametrize("a, x", [(0, 1), (1, 3), (-1, 0), (2, 2), (math.nan, 1), ("+", 1)])
    def test_unknown_key_is_a_validation_error(self, a, x):
        asm = maximally_mixed_assemblage()
        with pytest.raises(ValidationError, match=exactly(f"no assemblage element for (a={a}, x={x})")):
            asm.outcome_probability(a, x)

    def test_known_keys_are_traces(self):
        asm = assemblage_from_state(pure_state(0.0), (Z, X))
        assert [asm.outcome_probability(a, x) for x in SETTINGS for a in OUTCOMES] == [
            1.0, 0.0, 0.5, 0.5
        ]


def producer_assemblages(seed):
    """One assemblage from each producer: a state's, an MD-LHS model's and their mixture."""
    rng = np.random.default_rng(seed)
    state = pure_state(rng.uniform(0, math.pi / 2))
    steerable = assemblage_from_state(state, random_directions(rng, 2))
    lhs = assemblage_from_mdlhs(random_mdlhs_model(seed))
    return steerable, lhs, mix_assemblages(steerable, lhs, {k: 0.5 for k in _KEYS})


class TestDerivedArraysBuiltOnce:
    """Each derived array is computed once, by the object that owns it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_producer_elements_are_the_rows_matrices(self, seed):
        for asm in producer_assemblages(seed):
            assert list(asm.elements) == list(_KEYS)
            expected = pauli_matrices(0.5 * asm._bloch).reshape(len(_KEYS), 2, 2)
            for k, m in zip(_KEYS, expected):
                assert asm.elements[k].tobytes() == m.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    asm.elements[k][0, 0] = 7.0

    @pytest.mark.parametrize("seed", range(3))
    def test_outcome_probability_is_the_validated_trace(self, seed):
        produced = producer_assemblages(seed)
        for asm in (*produced, Assemblage(_keyed(assemblage_stack(produced[0])))):
            for i, (a, x) in enumerate(_KEYS):
                assert asm.outcome_probability(a, x) == asm._bloch[i, 0]

    def test_caller_built_outcome_probability_equals_the_matrix_trace(self):
        stack = assemblage_stack(assemblage_from_mdlhs(random_mdlhs_model(5)))
        asm = Assemblage(_keyed(stack))
        for a, x in _KEYS:
            assert asm.outcome_probability(a, x) == float(np.trace(asm.elements[(a, x)]).real)

    @pytest.mark.parametrize("seed", range(3))
    def test_model_rows_are_its_assemblages(self, seed):
        model = random_mdlhs_model(seed)
        expected = (_weights(model) @ model._bloch).reshape(4, 4)
        assert model._rows.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            model._rows[0, 0] = 7.0
        assert assemblage_from_mdlhs(model)._bloch.tobytes() == expected.tobytes()
        assert "_rows" not in repr(model)
