"""Tests for the benchmark itself: its checkers, seeded inputs and trace arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math

import numpy as np
import pytest

import checks
import library
import plans
import run
import tracing


def _fails(checker, *args):
    with pytest.raises(checks.CheckFailure):
        checker(*args)


@pytest.mark.parametrize("workload", sorted(plans.OPS))
def test_seed_reproduces_inputs_byte_for_byte(workload):
    make = plans.OPS[workload]
    assert plans.serialize(make(11)) == plans.serialize(make(11))
    assert plans.serialize(make(11)) != plans.serialize(make(12))


@pytest.mark.parametrize("workload", sorted(plans.OPS))
def test_every_seed_gives_the_same_counts(workload):
    def counts(seed):
        ops = plans.OPS[workload](seed)
        return len(ops), sum(op["known_defect"] is not None for op in ops)

    assert len({counts(seed) for seed in range(20)}) == 1


def test_readme_examples_run_verbatim_and_first():
    ops = plans.cli_ops(5)
    assert [op["argv"] for op in ops[:5]] == [op["argv"] for op in plans.readme_ops()]
    assert ops[1]["argv"] == ["curve", "--kind", "tilted", "--delta", "0.5236", "--p-min", "0",
                              "--p-max", "0.5", "--steps", "26", "--out", "tilted.csv"]
    assert sum(op["known_defect"] is not None for op in ops) == 3


def test_eval_checker():
    probs = checks.tilted_probabilities(0.4)
    spec = {"p": 0.3, "exit": 0, "probabilities": probs.tolist()}
    good = checks.eval_expected(probs, 0.3)
    checks.check_eval(spec, 0, json.dumps(good), "", {})
    _fails(checks.check_eval, spec, 1, json.dumps(good), "", {})
    _fails(checks.check_eval, spec, 0, json.dumps({**good, "I": good["I"] + 1e-6}), "", {})
    _fails(checks.check_eval, spec, 0, json.dumps({**good, "extra": 1}), "", {})
    _fails(checks.check_eval, spec, 0, json.dumps({**good, "I": math.nan}), "", {})
    bad_ns = {**good, "noSignalling": {**good["noSignalling"], "pass": False}}
    _fails(checks.check_eval, spec, 0, json.dumps(bad_ns), "", {})
    rejected = {"p": 0.5, "exit": 1, "probabilities": None}
    checks.check_eval(rejected, 1, "", "error: cannot read behavior file", {})
    _fails(checks.check_eval, rejected, 0, json.dumps(good), "", {})
    _fails(checks.check_eval, rejected, 2, "", "error: x", {})


def test_oracle_checker():
    spec = {"p": 0.3, "samples": 1000, "seed": 4, "out": "report.json"}
    record = {"p": 0.3, "samples": 1000, "maxI": 0.84, "bound": 0.84, "pass": True, "seed": 4}
    text = json.dumps(record) + "\n"
    checks.check_oracle(spec, 0, text, "", {"report.json": text})
    _fails(checks.check_oracle, spec, 3, text, "", {"report.json": text})
    _fails(checks.check_oracle, spec, 0, text, "", {})
    _fails(checks.check_oracle, spec, 0, json.dumps({**record, "maxI": 0.83}), "", {})
    _fails(checks.check_oracle, spec, 0, json.dumps({**record, "pass": False}), "", {})
    _fails(checks.check_oracle, spec, 0, json.dumps({**record, "seed": 5}), "", {})


@pytest.mark.parametrize("kind,extra", [("local", {}), ("prbox", {}),
                                        ("tilted", {"delta": 0.3}), ("randomness", {"gamma": 0.1})])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curve_checker(kind, extra, fmt):
    spec = {"kind": kind, "format": fmt, "steps": 5, "p_min": 0.0, "p_max": 0.5,
            "delta": None, "gamma": None, "out": None, **extra}
    header = checks.CURVE_HEADERS[kind]
    rows = checks.curve_expected(spec)

    def render(table):
        if fmt == "json":
            return json.dumps([dict(zip(header, row)) for row in table]) + "\n"
        return "\n".join([",".join(header)] + [",".join(f"{v:.10g}" for v in row)
                                               for row in table]) + "\n"

    checks.check_curve(spec, 0, render(rows), "", {})
    _fails(checks.check_curve, spec, 2, render(rows), "", {})
    perturbed = [list(row) for row in rows]
    perturbed[2][1] += 1e-4
    _fails(checks.check_curve, spec, 0, render(perturbed), "", {})
    _fails(checks.check_curve, spec, 0, render(rows[:-1]), "", {})
    _fails(checks.check_curve, {**spec, "out": "c.txt"}, 0, "", "", {})


def test_adversary_checker():
    spec = {"theta": 0.3, "phi": 2.051, "delta": 2.447}
    good = checks.bias_report(**spec)
    checks.check_adversary(spec, 0, json.dumps(good), "", {})
    _fails(checks.check_adversary, spec, 0, json.dumps({**good, "independent": True}), "", {})
    _fails(checks.check_adversary, spec, 0, json.dumps({**good, "maxL": good["maxL"] * 1.01}), "", {})
    _fails(checks.check_adversary, spec, 1, json.dumps(good), "", {})


def test_library_checker_on_real_item():
    item = plans.library_item(np.random.default_rng(2))
    out = library.outputs(library.run_item(library.prepare(item), library.api()))
    checks.check_library_item(item, out)
    for key, bump in (("behavior", 1e-9), ("I", 1e-9), ("objective", 1e-9),
                      ("assemblage_behavior", 1e-9), ("decomposition_error", 1e-9)):
        bad = dict(out)
        bad[key] = np.asarray(out[key]) + bump
        _fails(checks.check_library_item, item, bad)


def test_failed_op_is_counted_and_known_defects_kept_apart():
    spec = {"theta": 0.3, "phi": 2.051, "delta": 2.447}
    ok = run.OpResult(0.1, 0.1, code=0, stdout=json.dumps(checks.bias_report(**spec)))
    wrong_code = run.OpResult(0.1, 0.1, code=2, stdout="", stderr="error: no")
    op = {"kind": "adversary", "argv": ["adversary"], "spec": spec, "known_defect": None}
    defect = {**op, "known_defect": "documented"}
    ops = [op, op, defect]
    results = iter([ok, wrong_code, wrong_code])
    records, passes = run.execute_passes("cli_batch", ops, lambda op: next(results))
    attempted, failed, unexpected, known = run.tally(ops, records)
    assert len(passes) == 1
    assert (attempted, failed, len(unexpected), known) == (3, 2, 1, {"documented": 1})


def test_output_that_changes_between_passes_fails():
    spec = {"theta": 0.3, "phi": 2.051, "delta": 2.447}
    good = json.dumps(checks.bias_report(**spec))
    op = {"kind": "adversary", "argv": ["adversary"], "spec": spec, "known_defect": None}
    results = iter([run.OpResult(0.2, 0.2, stdout=good), run.OpResult(0.1, 0.1, stdout=good + " ")])
    records, passes = run.execute_passes("cli_batch", [op], lambda op: next(results),
                                         min_passes=2)
    assert len(passes) == 2 and records[0].walls == [0.2, 0.1]
    assert "differs from the first pass" in records[0].failure
    assert run.tally([op], records)[1] == 1


def test_latency_is_each_ops_best_pass():
    records = [run.OpRecord(walls=[0.3, 0.1, 0.2], cpus=[0.3, 0.2, 0.1], rss_kb=1024),
               run.OpRecord(walls=[0.5, 0.7, 0.6], cpus=[0.4, 0.5, 0.6], rss_kb=2048)]
    rows = {name: value for name, value, _, _ in
            run.end_to_end("cli_batch", records, [1.0, 1.0, 1.0], [2.0, 1.0, 3.0])}
    assert rows["setup_s"] == 2.0 and rows["peak_rss_mb"] == 2.0
    assert rows["wall_s"] == pytest.approx(0.6) and rows["cpu_s"] == pytest.approx(0.5)
    assert rows["op_p50_s"] == pytest.approx(0.3) and rows["work_per_s"] == pytest.approx(2 / 0.6)


def test_tail_percentile_has_ten_samples_beyond_it():
    values = list(range(100))
    value, label = run.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10 and "n=100" in label
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    root = tracer.open("cli.main")
    child = tracer.open("optimize.curve")
    grandchild = tracer.open("kernel.projector")
    tracer.close(grandchild)
    tracer.close(child)
    tracer.close(root)
    tracer.start[:] = tracer.start.__class__("d", [0.0, 1.0, 2.0])
    tracer.end[:] = tracer.end.__class__("d", [10.0, 5.0, 4.0])
    assert tracer.self_times() == pytest.approx({"cli": 6.0, "optimize": 2.0, "kernel": 2.0})


def test_ledger_reports_drift(tmp_path):
    ledger = run.Ledger(tmp_path / "ledger.json")
    ledger.record("k", {"grid_evals": 9072})
    ledger.record("k", {"grid_evals": 9072, "nm_evals": 5})
    assert ledger.drift == []
    ledger.save()
    again = run.Ledger(tmp_path / "ledger.json")
    again.record("k", {"nm_evals": 6})
    assert len(again.drift) == 1
