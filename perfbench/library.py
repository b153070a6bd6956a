"""One library_batch item: in-process calls into every library layer.

The calls go through an ``api`` namespace so that the traced run can hand in
wrapped functions while the untraced run calls mdsteer directly.
"""

from __future__ import annotations

import importlib
import types

import numpy as np

import plans
import tracing

# Public functions an item calls, by the layer that owns them.
API_LAYERS = {
    "kernel": ("Direction", "pure_state"),
    "behaviors": ("behavior_from_quantum", "Behavior", "correlators", "no_signalling_check"),
    "inequality": ("md_operator", "violation"),
    "optimize": ("QuantumAnsatz", "quantum_value"),
    "steering": ("assemblage_from_state", "behavior_from_assemblage", "MdLhsModel",
                 "assemblage_from_mdlhs", "mdlhv_decomposition_check"),
    "adversary": ("BiasModel", "constraint_report"),
}


def api(tracer: tracing.Tracer | None = None) -> types.SimpleNamespace:
    fns = {}
    for layer, names in API_LAYERS.items():
        module = importlib.import_module(f"mdsteer.{layer}")
        for name in names:
            fn = getattr(module, name)
            fns[name] = fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn)
    return types.SimpleNamespace(**fns)


def prepare(item: dict) -> dict:
    """Arrays the item's calls take, built before the timed region."""
    model = item["model"]
    return {
        "theta": item["theta"], "dirs": item["dirs"], "p": item["p"], "bias": item["bias"],
        "plx": np.asarray(model["plx"]), "pax": np.asarray(model["pax"]),
        "states": np.asarray(model["states_re"]) + 1j * np.asarray(model["states_im"]),
    }


def run_item(ready: dict, lib) -> tuple:
    dirs = [lib.Direction(*v) for v in ready["dirs"]]
    state = lib.pure_state(ready["theta"])
    behavior = lib.behavior_from_quantum(state, dirs[:2], dirs[2:])
    revalidated = lib.Behavior(behavior.probabilities)
    c = lib.correlators(revalidated)
    value = lib.md_operator(c, ready["p"])
    excess = lib.violation(c, ready["p"])
    ns = lib.no_signalling_check(behavior)
    objective = lib.quantum_value(lib.QuantumAnsatz(ready["theta"], tuple(dirs)), ready["p"])
    assemblage = lib.assemblage_from_state(state, dirs[:2])
    via_assemblage = lib.behavior_from_assemblage(assemblage, dirs[2:])
    model = lib.MdLhsModel(ready["plx"], ready["pax"], ready["states"])
    lhs = lib.assemblage_from_mdlhs(model)
    decomposition = lib.mdlhv_decomposition_check(model, dirs[2:])
    report = lib.constraint_report(lib.BiasModel(*ready["bias"]))
    return (behavior, revalidated, c, value, excess, ns, objective, assemblage, via_assemblage,
            lhs, decomposition, report)


def _stack(assemblage) -> np.ndarray:
    return np.array([[assemblage.elements[(a, x)] for a in (1, -1)] for x in (1, 2)])


def outputs(raw: tuple) -> dict:
    """The item's results as plain arrays for the checker, built after timing."""
    (behavior, revalidated, c, value, excess, ns, objective, assemblage, via_assemblage, lhs,
     decomposition, report) = raw
    return {
        "behavior": behavior.probabilities, "revalidated": revalidated.probabilities,
        "correlators": c.as_array(), "I": value, "violation": excess,
        "ns_deviation": ns.max_deviation, "ns_passed": ns.passed, "objective": objective,
        "state_assemblage": _stack(assemblage),
        "assemblage_behavior": via_assemblage.probabilities,
        "mdlhs_assemblage": _stack(lhs), "decomposition_error": decomposition,
        "bias_px1": report.p_x1, "bias_maxl": report.max_l,
        "bias_independent": report.measurement_independent,
    }


def warm_up() -> None:
    """Import the library and run one item, as a run does before timing."""
    run_item(prepare(plans.library_item(np.random.default_rng(0))), api())
