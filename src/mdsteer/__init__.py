"""Measurement-dependent quantum steering toolkit.

The public names are loaded from their submodules on first access (PEP 562),
so ``import mdsteer`` imports no submodule and a CLI command loads only the
layers it runs. ``from mdsteer import X``, ``mdsteer.X`` and
``from mdsteer import *`` work as with eager imports.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("Behavior", "behavior_from_quantum", "correlators",
         "no_signalling_check", "pr_box", "randomness_behavior", "tilted_behavior"),
        "behaviors",
    ),
    **dict.fromkeys(
        ("CorrelatorVector", "CurvePoint", "binary_entropy", "curve", "local_bound",
         "md_operator", "pr_closed_form", "randomness_rate", "tilted_closed_form", "violation"),
        "inequality",
    ),
    **dict.fromkeys(("Direction", "Tolerances", "ValidationError"), "kernel"),
    **dict.fromkeys(("TwoQubitState", "bell_phi_plus", "pure_state"), "linalg"),
    **dict.fromkeys(
        ("ExtremalStrategy", "bound_sweep", "extremal_correlators"),
        "oracle",
    ),
    **dict.fromkeys(
        ("QuantumAnsatz", "SearchConfig", "quantum_max", "quantum_value"),
        "optimize",
    ),
    **dict.fromkeys(
        ("Assemblage", "MdLhsModel", "assemblage_from_mdlhs",
         "assemblage_from_state", "behavior_from_assemblage", "md_weight",
         "mdlhv_decomposition_check", "mix_assemblages", "weight_bound", "weight_limit_values"),
        "steering",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
