"""In-memory spans around the calls into each mdsteer layer, and optimizer counts.

Spans are wrappers the benchmark puts on names in the program's module
namespaces for the length of a traced run and removes afterwards; the
program's files are not touched. A span records its name, start, end, parent
span and the operation it belongs to; the run id is stored once per trace
file. Spans stay in memory and are written out when the run ends.

This module imports only the standard library at import time, so loading it
in a traced child adds nothing to the child's measured import of mdsteer.
"""

from __future__ import annotations

import importlib
import json
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

# Names looked up at call time in each module's namespace, by the layer that
# owns the function. Calls inside one layer are not wrapped, except the
# optimizer's own quantum_max/quantum_value/minimize, whose counts are
# reported.
LAYER_CALLS = {
    "mdsteer.cli": {
        "curve": "optimize", "bound_sweep": "oracle", "constraint_report": "adversary",
        "correlators": "behaviors", "no_signalling_check": "behaviors",
        "md_operator": "inequality", "local_bound": "inequality", "violation": "inequality",
    },
    "mdsteer.optimize": {
        "quantum_max": "optimize", "quantum_value": "optimize", "minimize": "optimize",
        "behavior_from_quantum": "behaviors", "correlators": "behaviors",
        "tilted_behavior": "behaviors", "randomness_behavior": "behaviors",
        "md_operator": "inequality", "local_bound": "inequality",
        "pr_closed_form": "inequality", "randomness_rate": "inequality",
        "violation": "inequality", "pure_state": "kernel",
    },
    "mdsteer.behaviors": {"projector": "kernel", "tensor": "kernel", "bell_phi_plus": "kernel"},
    "mdsteer.oracle": {"local_bound": "inequality"},
    "mdsteer.steering": {
        "projector": "kernel", "tensor": "kernel", "partial_trace_alice": "kernel",
        "is_psd": "kernel", "Behavior": "behaviors",
    },
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans kept in flat arrays: name index, parent span, op id, start, end."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.names: list = []
        self._index: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.meta: dict = {}

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(perf_counter())
        self.end.append(math.nan)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        idx = self.name_id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(self.current_op)
            starts.append(perf_counter())
            ends.append(math.nan)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names or [""]),
                 meta=np.array(json.dumps({"run_id": self.run_id, **self.meta})))

    def adopt(self, path: str, parent_sid: int) -> dict:
        """Append the spans a child process dumped, under ``parent_sid``; return its meta."""
        import numpy as np

        with np.load(path) as data:
            local = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int32)
            parents = data["parent"]
            parents = np.where(parents < 0, parent_sid, parents + len(self.name))
            self.name.frombytes(local[data["name"]].tobytes())
            self.parent.frombytes(parents.astype(np.int32).tobytes())
            self.op.frombytes(np.full(len(parents), self.current_op, dtype=np.int32).tobytes())
            self.start.frombytes(data["start"].tobytes())
            self.end.frombytes(data["end"].tobytes())
            return json.loads(str(data["meta"]))

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus what its child spans cover."""
        import numpy as np

        if not len(self.name):
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        names = np.frombuffer(self.name, dtype=np.int32)
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        layers: dict = {}
        for name, seconds, n in zip(self.names, per_name, calls):
            if n:
                layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + float(seconds)
        return layers


@contextmanager
def installed(tracer: Tracer, table=LAYER_CALLS):
    """Replace each listed module attribute with a traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attrs in table.items():
            module = importlib.import_module(module_name)
            for attr, layer in attrs.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(f"{layer}.{attr}", original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class OptimizerCounts:
    """Counts of one quantum_max call, taken by wrapping names in mdsteer.optimize.

    grid_evals and nm_evals are objective calls outside and inside the
    Nelder-Mead runs; a run "improves" when it beats the best value so far,
    starting from the grid's best, exactly as quantum_max keeps its best.
    """

    def __init__(self) -> None:
        self.points: list = []

    @contextmanager
    def installed(self):
        module = importlib.import_module("mdsteer.optimize")
        originals = {a: getattr(module, a) for a in ("quantum_max", "quantum_value", "minimize")}
        point: dict = {}

        def quantum_max(p, *args, **kwargs):
            point.clear()
            point.update(p=p, grid_evals=0, nm_evals=0, nm_runs=0, improved=0,
                         objective_s=0.0, nm_stage_s=0.0, grid_best=-math.inf,
                         best=None, first_minimize=None, in_nm=False)
            t0 = perf_counter()
            result = originals["quantum_max"](p, *args, **kwargs)
            total = perf_counter() - t0
            self.points.append({
                "p": p, "grid_evals": point["grid_evals"], "nm_evals": point["nm_evals"],
                "nm_runs": point["nm_runs"],
                "nm_improved_ratio": point["improved"] / max(point["nm_runs"], 1),
                "grid_stage_s": (point["first_minimize"] or perf_counter()) - t0,
                "nm_stage_s": point["nm_stage_s"], "quantum_max_s": total,
                "objective_share": point["objective_s"] / total,
            })
            return result

        def quantum_value(ansatz, p):
            t0 = perf_counter()
            value = originals["quantum_value"](ansatz, p)
            point["objective_s"] += perf_counter() - t0
            if point["in_nm"]:
                point["nm_evals"] += 1
            else:
                point["grid_evals"] += 1
                point["grid_best"] = max(point["grid_best"], value)
            return value

        def minimize(fun, x0, *args, **kwargs):
            t0 = perf_counter()
            if point["first_minimize"] is None:
                point["first_minimize"] = t0
                point["best"] = point["grid_best"]
            point["in_nm"] = True
            try:
                result = originals["minimize"](fun, x0, *args, **kwargs)
            finally:
                point["in_nm"] = False
                point["nm_stage_s"] += perf_counter() - t0
            point["nm_runs"] += 1
            if -result.fun > point["best"]:
                point["improved"] += 1
                point["best"] = float(-result.fun)
            return result

        for attr, fn in (("quantum_max", quantum_max), ("quantum_value", quantum_value),
                         ("minimize", minimize)):
            setattr(module, attr, fn)
        try:
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)


DETERMINISTIC_COUNTS = ("grid_evals", "nm_evals", "nm_runs")
