"""Per-layer probes: each module's public functions timed from outside.

Every traced run reports all of them, whatever the workload, so a change to
one layer can be read next to the end-to-end metrics of each workload.
Inputs come from the run's seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

import numpy as np

import checks
import plans
import tracing
from library import prepare


UNITS = {
    **{name: "us" for name in (
        "kernel.direction_us", "kernel.projector_us", "kernel.tensor_us", "kernel.pure_state_us",
        "kernel.expectation_us", "behaviors.behavior_from_quantum_us",
        "behaviors.behavior_validate_us", "behaviors.correlators_us", "behaviors.no_signalling_us",
        "inequality.md_operator_us", "inequality.closed_forms_us",
        "steering.assemblage_from_state_us", "steering.behavior_from_assemblage_us",
        "steering.mdlhv_check_us", "optimize.quantum_value_us", "adversary.constraint_report_us",
        "cli.main_eval_us", "cli.main_curve_us", "cli.main_oracle_us", "cli.main_adversary_us")},
    **{name: "s" for name in (
        "oracle.bound_sweep_s_per_1e5", "optimize.quantum_max_s", "optimize.grid_stage_s",
        "optimize.nm_stage_s", "cli.import_s", "cli.import_scipy_s", "trace.overhead_s")},
    **{name: "count" for name in ("optimize.grid_evals", "optimize.nm_evals", "optimize.nm_runs")},
    "optimize.nm_improved_ratio": "ratio",
    "optimize.objective_share": "ratio",
    "oracle.bound_sweep_peak_mb": "MB",
    "oracle.bytes_per_sample": "B",
}


def per_call_us(fn, target_s: float = 0.02, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the mean time of one call, in microseconds."""

    def batch(n: int) -> float:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        return perf_counter() - t0

    n, dt = 1, batch(1)
    while dt < 0.002:
        n *= 4
        dt = batch(n)
    n = max(1, round(n * target_s / dt))
    return statistics.median(batch(n) / n for _ in range(repeats)) * 1e6


def import_probe(env: dict, repeats: int = 3) -> dict:
    """cli.import_s and scipy.optimize's cumulative import time, in fresh processes.

    scipy.optimize is imported after mdsteer.cli, so its line is present in
    the -X importtime report whether or not the CLI imports it itself.
    """
    code = ("import time; t = time.perf_counter(); import mdsteer.cli; "
            "print(time.perf_counter() - t); import scipy.optimize")
    import_s, scipy_s = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        import_s.append(float(done.stdout))
        for line in done.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "scipy.optimize":
                scipy_s.append(int(fields[1]) * 1e-6)
    return {"cli.import_s": statistics.median(import_s),
            "cli.import_scipy_s": statistics.median(scipy_s)}


def optimizer_probe() -> dict:
    """quantum_max(0.5) with the default SearchConfig, counted but not span-traced."""
    import mdsteer.optimize as optimize

    with tracing.OptimizerCounts().installed() as counts:
        optimize.quantum_max(0.5)
    return counts.points[0]


def probe(seed: int, workdir: str, env: dict) -> dict:
    from mdsteer import adversary, behaviors, cli, inequality, kernel, optimize, oracle, steering

    item = prepare(plans.library_item(np.random.default_rng(seed)))
    dirs = [kernel.Direction(*v) for v in item["dirs"]]
    state = kernel.pure_state(item["theta"])
    behavior = behaviors.behavior_from_quantum(state, dirs[:2], dirs[2:])
    c = behaviors.correlators(behavior)
    p = item["p"]
    p1, p2 = kernel.projector(dirs[0], 1), kernel.projector(dirs[2], -1)
    observable = kernel.tensor(kernel.pauli_observable(dirs[0]), kernel.pauli_observable(dirs[2]))
    assemblage = steering.assemblage_from_state(state, dirs[:2])
    model = steering.MdLhsModel(item["plx"], item["pax"], item["states"])
    ansatz = optimize.QuantumAnsatz(item["theta"], tuple(dirs))
    bias = adversary.BiasModel(*item["bias"])
    v = item["dirs"][0]

    m = {
        "kernel.direction_us": per_call_us(lambda: kernel.Direction(*v)),
        "kernel.projector_us": per_call_us(lambda: kernel.projector(dirs[0], 1)),
        "kernel.tensor_us": per_call_us(lambda: kernel.tensor(p1, p2)),
        "kernel.pure_state_us": per_call_us(lambda: kernel.pure_state(item["theta"])),
        "kernel.expectation_us": per_call_us(lambda: kernel.expectation(state, observable)),
        "behaviors.behavior_from_quantum_us": per_call_us(
            lambda: behaviors.behavior_from_quantum(state, dirs[:2], dirs[2:])),
        "behaviors.behavior_validate_us": per_call_us(
            lambda: behaviors.Behavior(behavior.probabilities)),
        "behaviors.correlators_us": per_call_us(lambda: behaviors.correlators(behavior)),
        "behaviors.no_signalling_us": per_call_us(lambda: behaviors.no_signalling_check(behavior)),
        "inequality.md_operator_us": per_call_us(lambda: inequality.md_operator(c, p)),
        "inequality.closed_forms_us": per_call_us(lambda: (
            inequality.pr_closed_form(p), inequality.tilted_closed_form(0.4, p),
            inequality.randomness_rate(0.2))),
        "steering.assemblage_from_state_us": per_call_us(
            lambda: steering.assemblage_from_state(state, dirs[:2])),
        "steering.behavior_from_assemblage_us": per_call_us(
            lambda: steering.behavior_from_assemblage(assemblage, dirs[2:])),
        "steering.mdlhv_check_us": per_call_us(
            lambda: steering.mdlhv_decomposition_check(model, dirs[2:])),
        "optimize.quantum_value_us": per_call_us(lambda: optimize.quantum_value(ansatz, p)),
        "adversary.constraint_report_us": per_call_us(lambda: adversary.constraint_report(bias)),
    }

    sweeps = []
    for i in range(3):
        t0 = perf_counter()
        oracle.bound_sweep(0.3, 100_000, seed + i)
        sweeps.append(perf_counter() - t0)
    m["oracle.bound_sweep_s_per_1e5"] = statistics.median(sweeps)
    tracemalloc.start()
    try:
        oracle.bound_sweep(0.3, plans.ORACLE_SAMPLES, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m["oracle.bound_sweep_peak_mb"] = peak / 2**20
    m["oracle.bytes_per_sample"] = peak / plans.ORACLE_SAMPLES

    point = optimizer_probe()
    for key in ("quantum_max_s", "grid_evals", "nm_evals", "nm_runs", "nm_improved_ratio",
                "grid_stage_s", "nm_stage_s", "objective_share"):
        m[f"optimize.{key}"] = point[key]

    m.update(import_probe(env))
    behavior_path = os.path.join(workdir, "probe_behavior.json")
    with open(behavior_path, "w") as fh:
        fh.write(plans._behavior_file(checks.pr_box_probabilities()))
    commands = {
        "eval": ["eval", "--in", behavior_path, "--p", "0.5"],
        "curve": ["curve", "--kind", "tilted", "--delta", "0.5", "--steps", "26", "--format", "json"],
        "oracle": ["oracle", "--p", "0.3", "--samples", "1000", "--seed", str(seed)],
        "adversary": ["adversary", "--theta", "0.3", "--phi", "2.051", "--delta", "2.447"],
    }
    for name, argv in commands.items():
        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        m[f"cli.main_{name}_us"] = per_call_us(call)
    return m, point
