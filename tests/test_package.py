"""The lazy ``mdsteer`` namespace: the same public names as eager imports gave."""

import sys

import pytest

import mdsteer

PUBLIC_NAMES = {
    "Assemblage", "Behavior", "CorrelatorVector", "CurvePoint", "Direction",
    "ExtremalStrategy", "MdLhsModel", "QuantumAnsatz", "SearchConfig", "StrategyMixture",
    "Tolerances", "TwoQubitState", "ValidationError", "WeightParams",
    "assemblage_from_mdlhs", "assemblage_from_state", "behavior_from_assemblage",
    "behavior_from_quantum", "bell_phi_plus", "binary_entropy", "bound_sweep", "chsh_value",
    "correlators", "curve", "expectation", "extremal_correlators", "general_beta_operator",
    "local_bound", "md_operator", "md_weight", "mdlhv_decomposition_check", "mix_assemblages",
    "mixture_correlators", "no_signalling_check", "pauli_observable", "pr_box",
    "pr_closed_form", "pure_state", "quantum_max", "quantum_value", "randomness_behavior",
    "randomness_rate", "tensor", "tilted_behavior", "tilted_bell_value", "tilted_closed_form",
    "violation", "weight_bound", "weight_limit_values",
}


def test_all_lists_the_public_names():
    assert len(mdsteer.__all__) == len(PUBLIC_NAMES) == 49
    assert set(mdsteer.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(mdsteer))


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_name_is_the_submodules_own_object(name):
    value = getattr(mdsteer, name)
    home = value.__module__
    assert home.startswith("mdsteer.")
    assert value is getattr(sys.modules[home], name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from mdsteer import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert namespace["md_operator"] is mdsteer.md_operator


def test_submodules_import_through_the_package():
    from mdsteer import adversary, oracle

    assert oracle.bound_sweep is mdsteer.bound_sweep
    assert adversary.__name__ == "mdsteer.adversary"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mdsteer.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from mdsteer import no_such_name  # noqa: F401


def test_version_is_a_plain_attribute():
    assert mdsteer.__dict__["__version__"] == "0.1.0"
