"""The lazy ``mdsteer`` namespace (the same public names as eager imports gave) and its sources."""

import sys
import tokenize
from pathlib import Path

import pytest

import mdsteer

PUBLIC_NAMES = {
    "Assemblage", "Behavior", "CorrelatorVector", "CurvePoint", "Direction",
    "ExtremalStrategy", "MdLhsModel", "QuantumAnsatz", "SearchConfig", "Tolerances",
    "TwoQubitState", "ValidationError",
    "assemblage_from_mdlhs", "assemblage_from_state", "behavior_from_assemblage",
    "behavior_from_quantum", "bell_phi_plus", "binary_entropy", "bound_sweep", "chsh_value",
    "correlators", "curve", "expectation", "extremal_correlators", "local_bound",
    "md_operator", "md_weight", "mdlhv_decomposition_check", "mix_assemblages",
    "no_signalling_check", "pauli_observable", "pr_box",
    "pr_closed_form", "pure_state", "quantum_max", "quantum_value", "randomness_behavior",
    "randomness_rate", "tensor", "tilted_behavior", "tilted_bell_value", "tilted_closed_form",
    "violation", "weight_bound", "weight_limit_values",
}


def test_all_lists_the_public_names():
    assert len(mdsteer.__all__) == len(PUBLIC_NAMES) == 45
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


def test_tolerances_live_in_kernel():
    """No float literal below 1e-8 outside kernel.py: tolerances are written once, there."""
    src = Path(mdsteer.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "kernel.py":
            continue
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
                    continue
                if 0.0 < float(tok.string.replace("_", "")) < 1e-8:
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, found
