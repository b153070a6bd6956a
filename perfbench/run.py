#!/usr/bin/env python3
"""The mdsteer benchmark: run one workload from a seed, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It runs the program from ``src`` (the
package need not be installed) and writes only under ``.perfbench_out/``.
A run is a fixed list of seeded operations, run one at a time from this one
process, in passes: the whole list again and again while ``--seconds`` last
(two passes at least). The first pass is checked against references, and
every later pass must repeat its outputs. An operation's latency is its best
time over the passes, which keeps out the slow spells a shared host puts
into single timings. With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` one pass is
replayed under spans and the per-layer metrics are reported instead.
perfbench/README.md describes the workloads, metrics and known defects.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads here or in any child process.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import library  # noqa: E402
import plans  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

WORKLOADS = tuple(plans.OPS)
WORK_UNIT = {"cli_batch": "commands", "library_batch": "items"}
SETUP_REPEATS = 5
MIN_PASSES = 2
OP_TIMEOUT_S = 150


@dataclass
class OpResult:
    """One execution of one operation."""

    wall: float
    cpu: float
    rss_kb: int = 0
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    outputs: dict | None = None  # library_batch: what the checker reads
    error: str | None = None


@dataclass
class OpRecord:
    """An operation's timings over the passes, and its verdict.

    The first execution is checked against the references; every later one
    must give the same outputs, byte for byte.
    """

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    rss_kb: int = 0
    digest: str = ""
    failure: str | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MDSTEER_TOL", "PYTHONPATH")}
    env.update(THREAD_PINS, PYTHONPATH=str(SRC))
    return env


# ------------------------------------------------------------------ running


def run_command(argv: list, workdir: Path, env: dict) -> tuple:
    """Run one child to completion; return (exit code, stdout, stderr, wall, rusage)."""
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall, usage)


def run_cli_op(op: dict, workdir: Path, env: dict, tracer=None) -> OpResult:
    for name, text in op["files"].items():
        (workdir / name).write_text(text)
    out_name = op["spec"].get("out")
    if out_name:
        (workdir / out_name).unlink(missing_ok=True)
    if tracer is None:
        argv = [sys.executable, "-m", "mdsteer.cli", *op["argv"]]
    else:
        spans = workdir / "spans.npz"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *op["argv"]]
        sid = tracer.open("process.command")
    try:
        code, stdout, stderr, wall, usage = run_command(argv, workdir, env)
    finally:
        if tracer is not None:
            tracer.close(sid)
    result = OpResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code, stdout, stderr)
    if tracer is not None and spans.exists():  # a killed child leaves no spans
        tracer.adopt(str(spans), sid)
        spans.unlink()
    if out_name and (workdir / out_name).exists():
        result.files[out_name] = (workdir / out_name).read_text()
    return result


def run_library_op(op: dict, lib, tracer=None) -> OpResult:
    ready = library.prepare(op["item"])
    if tracer is not None:
        sid = tracer.open("bench.item")
    c0, t0 = process_time(), perf_counter()
    try:
        raw, error = library.run_item(ready, lib), None
    except Exception as exc:  # a failing item is counted, and the run goes on
        raw, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = perf_counter() - t0, process_time() - c0
    if tracer is not None:
        tracer.close(sid)
    outputs = None if raw is None else library.outputs(raw)  # built after timing
    return OpResult(wall, cpu, outputs=outputs, error=error)


def make_executor(workload: str, workdir: Path, env: dict, tracer=None):
    if workload == "library_batch":
        lib = library.api(tracer)
        return lambda op: run_library_op(op, lib, tracer)
    return lambda op: run_cli_op(op, workdir, env, tracer)


def check_op(workload: str, op: dict, res: OpResult) -> str | None:
    """None if the op's output is right, else the reason it is wrong."""
    try:
        if res.error is not None:
            raise checks.CheckFailure(res.error)
        if workload == "library_batch":
            checks.check_library_item(op["item"], res.outputs)
        else:
            checks.CLI_CHECKERS[op["kind"]](op["spec"], res.code, res.stdout, res.stderr, res.files)
    except checks.CheckFailure as exc:
        return str(exc)
    return None


def result_digest(res: OpResult) -> str:
    h = hashlib.sha256()
    if res.outputs is not None:
        for key in sorted(res.outputs):
            h.update(key.encode())
            h.update(np.asarray(res.outputs[key]).tobytes())
    else:
        h.update(repr((res.code, res.stdout, sorted(res.files.items()), res.error)).encode())
    return h.hexdigest()[:16]


def execute_passes(workload: str, ops: list, execute, deadline: float | None = None,
                   min_passes: int = 1) -> tuple:
    """Run every op once per pass; return (one OpRecord per op, wall time of each pass).

    After ``min_passes``, a new pass starts only if one more, as long as the
    last, would end by ``deadline``.
    """
    records = [OpRecord() for _ in ops]
    pass_walls: list = []
    while True:
        t0 = perf_counter()
        for op, rec in zip(ops, records):
            res = execute(op)
            rec.walls.append(res.wall)
            rec.cpus.append(res.cpu)
            rec.rss_kb = max(rec.rss_kb, res.rss_kb)
            digest = result_digest(res)
            if not pass_walls:
                rec.digest, rec.failure = digest, check_op(workload, op, res)
            elif digest != rec.digest and rec.failure is None:
                rec.failure = f"pass {len(pass_walls)}: output differs from the first pass"
        pass_walls.append(perf_counter() - t0)
        if len(pass_walls) >= min_passes and (
                deadline is None or perf_counter() + pass_walls[-1] > deadline):
            return records, pass_walls


# ------------------------------------------------------------------ metrics


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, and its label.

    That is the 11th-largest sample. With fewer than 21 samples it would lie
    below the median, so the median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), f"median of n={n} (fewer than 21 samples)"
    k = n - 11  # exactly ten samples lie beyond ordered[k]
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of n={n}"


def measure_setup(workload: str, env: dict, repeats: int, warm: bool = False) -> list:
    """Fresh interpreter to mdsteer.cli imported (library_batch: import + one warm-up item)."""
    if workload == "library_batch":
        code = (f"import sys, time; sys.path[:0] = [{str(BENCH)!r}]; import library; "
                "library.warm_up(); print(time.perf_counter())")
    else:
        code = "import mdsteer.cli, time; print(time.perf_counter())"
    times = []
    for i in range(repeats + warm):  # a warm run compiles bytecode and is not counted
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-300:]}")
        if i or not warm:
            times.append(float(done.stdout) - t0)
    return times


def end_to_end(workload: str, records: list, pass_walls: list, setup: list) -> list:
    """Each op's latency is its best over the passes; a pass is all ops at their best."""
    best = [min(rec.walls) for rec in records]
    best_cpu = [min(rec.cpus) for rec in records]
    n, k, wall = len(best), len(pass_walls), sum(best)
    if workload == "library_batch":
        rss_kb, rss_note = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "this process"
    else:
        rss_kb, rss_note = max(rec.rss_kb for rec in records), f"max of {n * k} processes"
    tail_value, tail_note = tail(best)
    unit = WORK_UNIT[workload]
    of = f"each op's best of {k} passes"
    return [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        ("wall_s", wall, "s", f"one pass of {n} ops, {of}"),
        ("op_p50_s", statistics.median(best), "s", f"median of n={n} ops, {of}"),
        ("op_tail_s", tail_value, "s", f"{tail_note}, {of}"),
        ("cpu_s", sum(best_cpu), "s", f"one pass of {n} ops, each op's least CPU of {k} passes"),
        ("peak_rss_mb", rss_kb / 1024.0, "MB", rss_note),
        ("work_per_s", n / wall, "1/s", f"{unit}_per_s: {n} {unit} in {wall:.3f} s"),
    ]


# --------------------------------------------------------------- provenance


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit, "src_sha256": tree_digest(SRC / "mdsteer"),
        "bench_sha256": tree_digest(BENCH),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "thread_env": THREAD_PINS, "seed": seed,
    }


class Ledger:
    """Counts that must repeat exactly for a given program and seed, kept across runs."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.drift: list = []

    def record(self, key: str, entries: dict) -> None:
        old = self.data.setdefault(key, {})
        for name, value in entries.items():
            if name in old and old[name] != value:
                self.drift.append(f"{key} {name}: was {old[name]!r}, now {value!r}")
            old.setdefault(name, value)

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def record_run(ledger: Ledger, key: str, ops: list, records: list) -> None:
    outputs = hashlib.sha256("".join(rec.digest for rec in records).encode()).hexdigest()[:16]
    ledger.record(key, {"attempted": len(ops), "inputs": plans.digest(ops), "outputs": outputs})


def record_optimizer(ledger: Ledger, src: str, point: dict) -> None:
    ledger.record(f"{src}|optimize.quantum_max(p={point['p']!r})",
                  {k: point[k] for k in tracing.DETERMINISTIC_COUNTS})


# ------------------------------------------------------------------ report


def print_rows(rows: list) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def tally(ops: list, records: list) -> tuple:
    """(attempted, failed, unexpected failures, known defects and their counts)."""
    known: dict = {}
    unexpected = []
    for op, rec in zip(ops, records):
        if rec.failure is None:
            continue
        defect = op.get("known_defect")
        if defect:
            known[defect] = known.get(defect, 0) + 1
        else:
            label = " ".join(op["argv"]) if "argv" in op else op["kind"]
            unexpected.append(f"{label}: {rec.failure}")
    failed = sum(rec.failure is not None for rec in records)
    return len(ops), failed, unexpected, known


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mdsteer" / "cli.py").is_file():
        print(f"error: no mdsteer sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(args, workdir: Path, env: dict, src: str, prov: dict, ledger: "Ledger",
                   ops: list, records: list) -> tuple:
    """Replay one pass under spans, then run the per-layer probes."""
    import layers

    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    run_op = make_executor(args.workload, workdir, env, tracer)
    op_ids = itertools.count()

    def traced(op):
        tracer.current_op = next(op_ids)
        return run_op(op)

    # CLI children install their own spans; in-process items need them here.
    with tracing.installed(tracer) if args.workload == "library_batch" else nullcontext():
        replayed, _ = execute_passes(args.workload, ops, traced)
    untraced_s = sum(statistics.median(rec.walls) for rec in records)
    traced_s = sum(rec.walls[0] for rec in replayed)
    per_layer, probe_point = layers.probe(args.seed, str(workdir), env)
    record_optimizer(ledger, src, probe_point)
    per_layer["trace.overhead_s"] = prov["trace_overhead_s"] = traced_s - untraced_s
    self_times = tracer.self_times()
    tracer.meta.update(workload=args.workload, seed=args.seed, provenance=prov,
                       self_times=self_times)
    tracer.dump(str(OUT / f"trace_{args.workload}.npz"))

    total = sum(self_times.values())
    print(f"self time per layer over one traced pass ({len(tracer)} spans, "
          f"run id {tracer.run_id}):")
    for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:10.4f} s  {100.0 * seconds / total:5.1f}%")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
          f"(median per op) = {traced_s - untraced_s:.4f} s")
    print("optimizer counts, quantum_max(0.5) with the default SearchConfig: " + json.dumps(
        {k: probe_point[k] for k in ("grid_evals", "nm_evals", "nm_runs", "nm_improved_ratio")}))
    rows = [(name, value, layers.UNITS[name], "") for name, value in per_layer.items()]
    print("per-layer metrics:")
    print_rows(rows)
    return rows, replayed


def run(args, workdir: Path) -> int:
    env = child_env()
    prov = provenance(args.seed)
    # Counts are compared only between runs of the same program and benchmark code.
    src = f"{prov['src_sha256']}-{prov['bench_sha256']}"
    ledger = Ledger(OUT / "determinism.json")
    key = f"{src}|{args.workload}|seed={args.seed}"
    print(f"mdsteer benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    ops = plans.OPS[args.workload](args.seed)
    # Set-up is sampled before and after the workload, so that its median
    # spans the run rather than one moment of a machine whose speed drifts.
    setup = [] if args.trace else measure_setup(args.workload, env, 3, warm=True)
    if args.workload == "library_batch":
        library.warm_up()
        # Garbage collections in the timed loop then scan what the items
        # allocate, not the heap that imports and set-up left behind.
        gc.collect()
        gc.freeze()
    deadline = perf_counter() + args.seconds
    records, pass_walls = execute_passes(args.workload, ops,
                                         make_executor(args.workload, workdir, env),
                                         deadline, MIN_PASSES)
    record_run(ledger, key, ops, records)
    if args.trace:
        rows, replayed = traced_metrics(args, workdir, env, src, prov, ledger, ops, records)
        record_run(ledger, key, ops, replayed)
        for rec, again in zip(records, replayed):
            rec.failure = rec.failure or again.failure
    else:
        setup += measure_setup(args.workload, env, SETUP_REPEATS - len(setup))
        rows = end_to_end(args.workload, records, pass_walls, setup)
        print(f"end-to-end metrics ({len(pass_walls)} passes of {len(ops)} ops):")
        print_rows(rows)
        print("  pass walls (s, the first includes the checks): "
              + " ".join(f"{w:.3f}" for w in pass_walls))
    ledger.save()

    attempted, failed, unexpected, known = tally(ops, records)
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for defect, count in known.items():
        print(f"  known defect, counted as failed x{count}: {defect}")
    for line in unexpected:
        print(f"  FAILED {line}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if ledger.drift:
        for line in ledger.drift:
            print(f"error: determinism drift: {line}", file=sys.stderr)
        return 3
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
