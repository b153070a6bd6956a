import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import nested_json

import mdsteer
from mdsteer.behaviors import Behavior, pr_box
from mdsteer.cli import _table, main


def write_behavior(path, behavior):
    path.write_text(behavior.to_json())
    return str(path)


def uniform_behavior():
    return Behavior(np.full((2, 2, 2, 2), 0.25))


class TestEval:
    def test_pr_box(self, tmp_path, capsys):
        path = write_behavior(tmp_path / "pr.json", pr_box())
        assert main(["eval", "--in", path, "--p", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["I"] == pytest.approx(2.0, abs=1e-12)
        assert record["bound"] == pytest.approx(1.0, abs=1e-15)
        assert record["delta"] == pytest.approx(1.0, abs=1e-12)
        assert record["noSignalling"]["pass"]

    def test_pr_box_record_pinned(self, tmp_path, capsys):
        path = write_behavior(tmp_path / "pr.json", pr_box())
        assert main(["eval", "--in", path, "--p", "0.3"]) == 0
        # The record to the bit, as CI pins it.
        assert capsys.readouterr().out == (
            '{"I": 2.1540659228538015, "bound": 0.84, "delta": 1.3140659228538016, '
            '"noSignalling": {"maxDeviation": 0.0, "pass": true}}\n'
        )

    def test_uniform(self, tmp_path, capsys):
        path = write_behavior(tmp_path / "u.json", uniform_behavior())
        assert main(["eval", "--in", path, "--p", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["I"] == pytest.approx(0.0, abs=1e-15)
        assert record["delta"] == pytest.approx(-1.0, abs=1e-15)

    def test_negative_probability_exits_1(self, tmp_path, capsys):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 0, 0, 1] = -0.05
        p[1, 0, 1, 0] = 0.55
        (tmp_path / "bad.json").write_text(json.dumps({"probabilities": p.tolist()}))
        assert main(["eval", "--in", str(tmp_path / "bad.json"), "--p", "0.5"]) == 1
        assert "(1, 0, 0, 1)" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path):
        (tmp_path / "garbage.json").write_text("{not json")
        assert main(["eval", "--in", str(tmp_path / "garbage.json"), "--p", "0.5"]) == 1

    def test_json_too_deep_to_parse_is_an_error_line(self, tmp_path):
        (tmp_path / "deep.json").write_text(nested_json("probabilities"))
        argv = ["eval", "--in", "deep.json", "--p", "0.5"]
        done = subprocess.run(
            [sys.executable, "-m", "mdsteer.cli", *argv], capture_output=True, text=True,
            env=checkout_env(), cwd=tmp_path,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: cannot read behavior file: malformed behavior JSON")
        assert "Traceback" not in done.stderr

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["eval", "--in", str(tmp_path / "nope.json"), "--p", "0.5"]) == 1

    def test_all_nan_behavior_exits_1(self, tmp_path, capsys):
        # json.loads accepts NaN; the file must still be rejected, not echoed as NaN
        (tmp_path / "nan.json").write_text(
            json.dumps({"probabilities": np.full((2, 2, 2, 2), np.nan).tolist()})
        )
        assert main(["eval", "--in", str(tmp_path / "nan.json"), "--p", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_non_finite_operator_raises_instead_of_printing_nan(self, tmp_path, monkeypatch, capsys):
        path = write_behavior(tmp_path / "pr.json", pr_box())
        monkeypatch.setattr(mdsteer.cli, "md_operator", lambda c, p: math.nan)
        with pytest.raises(ValueError):
            main(["eval", "--in", path, "--p", "0.5"])
        assert capsys.readouterr().out == ""

    def test_p_out_of_range_exits_2(self, tmp_path):
        path = write_behavior(tmp_path / "pr.json", pr_box())
        assert main(["eval", "--in", path, "--p", "0.9"]) == 2

    def test_tolerance_env_sets_the_no_signalling_threshold(self, tmp_path, monkeypatch, capsys):
        # A PR box whose marginals signal by 1e-7: past the default 1e-9, within 1e-6.
        probs = np.array(pr_box().probabilities)
        probs[0, 0, 0, 0] += 1e-7
        probs[0, 0, 1, 1] -= 1e-7
        path = write_behavior(tmp_path / "signalling.json", Behavior(probs))
        verdicts = []
        for tol in (None, "1e-6"):
            if tol is not None:
                monkeypatch.setenv("MDSTEER_TOL", tol)
            assert main(["eval", "--in", path, "--p", "0.5"]) == 0
            ns = json.loads(capsys.readouterr().out)["noSignalling"]
            assert ns["maxDeviation"] == pytest.approx(1e-7, rel=1e-6)
            verdicts.append(ns["pass"])
        assert verdicts == [False, True]

    @pytest.mark.parametrize("tol", ["nan", "inf", "abc", "-1"])
    def test_bad_tolerance_env_exits_2(self, tol, tmp_path, monkeypatch, capsys):
        path = write_behavior(tmp_path / "pr.json", pr_box())
        monkeypatch.setenv("MDSTEER_TOL", tol)
        assert main(["eval", "--in", path, "--p", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MDSTEER_TOL" in captured.err


class TestCurve:
    def test_local_three_points(self, tmp_path):
        out = tmp_path / "local.csv"
        code = main(
            ["curve", "--kind", "local", "--p-min", "0", "--p-max", "0.5",
             "--steps", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == pytest.approx([0.0, 0.75, 1.0], abs=1e-12)

    def test_prbox_endpoints(self, tmp_path):
        out = tmp_path / "pr.csv"
        main(["curve", "--kind", "prbox", "--steps", "2", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        first = float(lines[1].split(",")[1])
        last = float(lines[2].split(",")[1])
        assert first == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert last == pytest.approx(2.0, abs=1e-9)

    def test_tilted_violation_column(self, tmp_path):
        out = tmp_path / "tilted.csv"
        main(
            ["curve", "--kind", "tilted", "--delta", str(math.pi / 6),
             "--p-min", "0.5", "--p-max", "0.5", "--steps", "1", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,value,delta"
        delta = float(lines[1].split(",")[2])
        assert delta == pytest.approx(0.4012, abs=1e-3)

    def test_randomness_json_format(self, tmp_path):
        out = tmp_path / "rand.json"
        main(
            ["curve", "--kind", "randomness", "--gamma", str(math.pi / 12),
             "--steps", "2", "--format", "json", "--out", str(out)]
        )
        rows = json.loads(out.read_text())
        assert set(rows[0]) == {"p", "value", "delta", "r"}
        assert rows[0]["r"] == pytest.approx(1.601, abs=1e-3)

    def test_missing_delta_exits_2(self, tmp_path):
        assert main(["curve", "--kind", "tilted", "--steps", "2"]) == 2

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("local", ["--delta", "nan"]),
            ("prbox", ["--delta", "0.3"]),
            ("quantum", ["--gamma", "0.1"]),
            ("tilted", ["--delta", "0.5", "--gamma", "inf"]),
            ("randomness", ["--gamma", "0.2", "--delta", "0.3"]),
        ],
    )
    def test_flag_the_kind_never_reads_exits_2(self, kind, extra, capsys):
        assert main(["curve", "--kind", kind, *extra, "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag, value = extra[-2:]
        assert captured.err == f"error: {kind} curve takes no {flag[2:]}, got {float(value)}\n"

    def test_stdout_when_no_out(self, capsys):
        assert main(["curve", "--kind", "local", "--steps", "2"]) == 0
        assert capsys.readouterr().out.startswith("p,value")

    def test_seed_flag_exits_2(self, capsys):
        # The search is deterministic and reads no seed, so curve takes none.
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--kind", "local", "--steps", "1", "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_quantum_json_pinned(self, capsys):
        # The default search end to end, printed bytes and all (numpy 2.4 / scipy 1.17, x86-64).
        assert main(["curve", "--kind", "quantum", "--steps", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '[{"p": 0.0, "value": 2.8284271247461903, "theta": 0.2617993877991494,'
            ' "a1": -1.0471975511965985, "a2": 3.141592653589793, "b1": 3.141592653589793,'
            ' "b2": 0.0},'
            ' {"p": 0.25, "value": 2.121320343559643, "theta": 0.0,'
            ' "a1": 0.0, "a2": 0.0, "b1": 0.0, "b2": 3.141592653589793},'
            ' {"p": 0.5, "value": 1.4142135623730954, "theta": 1.309165472518171,'
            ' "a1": -1.8437194421851112e-12, "a2": 2.094673919007646, "b1": 3.141592653510388,'
            ' "b2": -3.141592653550947}]\n'
        )

    @pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning on the way
    @pytest.mark.parametrize(
        "bounds", [["--p-max", "inf"], ["--p-min", "nan"], ["--p-min=-inf"]]
    )
    def test_non_finite_p_bounds_exit_2(self, bounds, capsys):
        assert main(["curve", "--kind", "local", "--steps", "3", *bounds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "finite" in captured.err

    def test_json_table_rejects_nan(self):
        with pytest.raises(ValueError):
            _table([{"p": 0.0, "value": math.nan}], "json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "kind, extra, columns",
        [
            ("local", [], ["p", "value"]),
            ("prbox", [], ["p", "value"]),
            ("quantum", [], ["p", "value", "theta", "a1", "a2", "b1", "b2"]),
            ("tilted", ["--delta", "0.5235"], ["p", "value", "delta"]),
            ("randomness", ["--gamma", "0.2617"], ["p", "value", "delta", "r"]),
        ],
    )
    def test_columns_per_kind(self, kind, extra, columns, fmt, capsys):
        steps = "1" if kind == "quantum" else "3"
        argv = ["curve", "--kind", kind, *extra, "--steps", steps, "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            lines = out.splitlines()
            assert lines[0] == ",".join(columns)
            assert len(lines) == 1 + int(steps)
        else:
            records = json.loads(out)
            assert len(records) == int(steps)
            assert all(list(record) == columns for record in records)

    @pytest.mark.parametrize(
        "extra, printed",
        [
            (["--kind", "tilted", "--delta", "0.5235"],
             '[{"p": 0.0, "value": 2.449419876978993, "delta": 2.449419876978993}, '
             '{"p": 0.25, "value": 1.8631122046666002, "delta": 1.1131122046666002}, '
             '{"p": 0.5, "value": 1.4012721832971138, "delta": 0.4012721832971138}]\n'),
            (["--kind", "randomness", "--gamma", "0.2617"],
             '[{"p": 0.0, "value": 2.0001987657200364, "delta": 2.0001987657200364, '
             '"r": 1.6011440983765561}, '
             '{"p": 0.25, "value": 1.581264539002138, "delta": 0.831264539002138, '
             '"r": 1.6011440983765561}, '
             '{"p": 0.5, "value": 1.4142135553911166, "delta": 0.4142135553911166, '
             '"r": 1.6011440983765561}]\n'),
        ],
        ids=["tilted", "randomness"],
    )
    def test_fixed_behavior_json_pinned(self, extra, printed, capsys):
        # The records to the bit, as the behaviors' einsum over numpy arrays gave them.
        assert main(["curve", *extra, "--steps", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == printed

    def test_one_step_evaluates_p_min_only(self, capsys):
        argv = ["curve", "--kind", "local", "--p-min", "0.2", "--p-max", "0.4", "--steps", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "p,value\n0.2,0.64\n"


class TestOracle:
    def test_pass(self, capsys):
        code = main(["oracle", "--p", "0.5", "--samples", "1000", "--seed", "42"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pass"] is True
        assert record["maxI"] <= record["bound"] + 1e-9

    def test_zero_samples_exits_2(self, capsys):
        # A sample count below 1 is a domain error, like curve --steps 0.
        assert main(["oracle", "--p", "0.5", "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "samples" in captured.err

    def test_bad_p_exits_2(self):
        assert main(["oracle", "--p", "0.7", "--samples", "10"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["oracle", "--p", "0.3", "--samples", "10", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["oracle", "--p", "0.3", "--samples", "500", "--seed", "5", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["seed"] == 5
        assert record["samples"] == 500
        assert out.read_text() == capsys.readouterr().out  # the file holds the printed line

    def test_deterministic_given_seed(self, capsys):
        main(["oracle", "--p", "0.4", "--samples", "2000", "--seed", "9"])
        first = capsys.readouterr().out
        main(["oracle", "--p", "0.4", "--samples", "2000", "--seed", "9"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--kind", "local", "--steps", "3"],
        ["oracle", "--p", "0.3", "--samples", "500", "--seed", "5"],
    ],
)
def test_unwritable_out_exits_1(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "missing" / "out.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write output: ")


class TestAdversary:
    def test_example_a(self, capsys):
        code = main(["adversary", "--theta", "0.3", "--phi", "2.051", "--delta", "2.447"])
        assert code == 0
        printed = capsys.readouterr().out
        record = json.loads(printed)
        assert record["pX1"] == pytest.approx(0.5, abs=0.01)
        assert record["independent"] is False
        # The record to the bit, as CI pins it.
        assert printed == (
            '{"pX1": 0.4998890700003336, "pLambda": [0.409692834048759, 0.590307165951241], '
            '"pXGivenLambda": [[0.9126678074548391, 0.08733219254516089], '
            '[0.21340687812266704, 0.786593121877333]], "maxL": 0.08733219254516089, '
            '"independent": false}\n'
        )

    def test_example_b(self, capsys):
        main(["adversary", "--theta", "0.7", "--phi", "2.179", "--delta", "0.96"])
        record = json.loads(capsys.readouterr().out)
        assert record["pX1"] == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_angle_exits_2(self, value, capsys):
        assert main(["adversary", "--theta", value, "--phi", "2.051", "--delta", "2.447"]) == 2
        assert capsys.readouterr().out == ""

    def test_equal_angles_independent(self, capsys):
        main(["adversary", "--theta", "0.8", "--phi", "0.8", "--delta", "1.0"])
        record = json.loads(capsys.readouterr().out)
        assert record["independent"] is True


class TestNegativeNumberTokens:
    """A negative float in exponent form, or -inf, is a value as a separate token too."""

    def test_exponent_form_matches_joined_form(self, capsys):
        assert main(["adversary", "--theta=-1e-3", "--phi", "2.051", "--delta", "2.447"]) == 0
        joined = capsys.readouterr().out
        assert main(["adversary", "--theta", "-1e-3", "--phi", "2.051", "--delta", "2.447"]) == 0
        assert capsys.readouterr().out == joined

    @pytest.mark.parametrize(
        "argv, value",
        [(lambda path: ["eval", "--in", path, "--p", "-1e-3"], "-0.001"),
         (lambda path: ["curve", "--kind", "local", "--p-min", "-inf"], "-inf")],
    )
    def test_reaches_the_domain_check(self, argv, value, tmp_path, capsys):
        assert main(argv(write_behavior(tmp_path / "pr.json", pr_box()))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and value in captured.err

    def test_read_from_sys_argv(self, tmp_path, monkeypatch, capsys):
        path = write_behavior(tmp_path / "pr.json", pr_box())
        monkeypatch.setattr(sys, "argv", ["mdsteer", "eval", "--in", path, "--p", "-1e-3"])
        assert main() == 2
        assert "-0.001" in capsys.readouterr().err


def checkout_env():
    """The environment of a fresh interpreter that finds this checkout's mdsteer."""
    src = str(Path(mdsteer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(code, cwd=None):
    """Stdout of ``python -c code`` in a fresh interpreter that finds this checkout's mdsteer."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=checkout_env(), cwd=cwd,
    ).stdout


LOADED = "import json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('mdsteer.'))))"


class TestStartup:
    @pytest.mark.parametrize("module", ["mdsteer.cli", "mdsteer"])
    def test_import_leaves_scipy_unloaded(self, module):
        # scipy.optimize is imported only when a Nelder-Mead run starts.
        out = run_python(f"import sys, {module}; print('scipy' in sys.modules)")
        assert out.strip() == "False"

    def test_import_mdsteer_loads_no_submodule(self):
        assert run_python(f"import sys, mdsteer; {LOADED}").strip() == "[]"

    def test_import_cli_defers_search_and_report_layers(self):
        out = run_python(f"import sys, mdsteer.cli; print('numpy' in sys.modules); {LOADED}")
        numpy_loaded, loaded = out.splitlines()
        assert numpy_loaded == "False"
        assert json.loads(loaded) == [
            "mdsteer.cli", "mdsteer.inequality", "mdsteer.kernel", "mdsteer.table"
        ]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eval", "--in", "pr.json", "--p", "0.5"], 0),
            (["eval", "--in", "negative.json", "--p", "0.5"], 1),
            (["curve", "--kind", "local", "--steps", "3"], 0),
            (["curve", "--kind", "prbox", "--steps", "3"], 0),
            # The README's old tilted example: --delta 0.5236 > pi/6.
            (["curve", "--kind", "tilted", "--delta", "0.5236", "--p-min", "0", "--p-max", "0.5",
              "--steps", "26", "--out", "tilted.csv"], 2),
            (["oracle", "--p", "0.3", "--samples", "1000", "--seed", "1"], 0),
            (["oracle", "--p", "0.3", "--samples", "100000", "--seed", "42", "--out", "report.json"],
             0),
            (["adversary", "--theta", "0.3", "--phi", "2.051", "--delta", "2.447"], 0),
            (["adversary", "--theta", "-1e-3", "--phi", "2.051", "--delta", "2.447"], 0),
            (["curve", "--kind", "tilted", "--delta", "0.5235", "--p-min", "0", "--p-max", "0.5",
              "--steps", "26", "--out", "tilted.csv"], 0),
            (["curve", "--kind", "randomness", "--gamma", "0.2617", "--steps", "26",
              "--format", "json"], 0),
        ],
    )
    def test_command_runs_without_numpy(self, argv, code, tmp_path):
        write_behavior(tmp_path / "pr.json", pr_box())
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 0, 0, 1] = -0.05
        p[1, 0, 1, 0] = 0.55
        (tmp_path / "negative.json").write_text(json.dumps({"probabilities": p.tolist()}))
        check = f"from mdsteer.cli import main; assert main({argv!r}) == {code}"
        out = run_python(f"import sys; {check}; print('numpy' in sys.modules)", cwd=tmp_path)
        assert out.splitlines()[-1] == "False"

    def test_quantum_curve_is_the_command_that_loads_numpy(self):
        argv = ["curve", "--kind", "quantum", "--steps", "1"]
        check = f"from mdsteer.cli import main; assert main({argv!r}) == 0"
        out = run_python(f"import sys; {check}; print('numpy' in sys.modules)")
        assert out.splitlines()[-1] == "True"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--in", "pr.json", "--p", "0.5"],
            ["adversary", "--theta", "0.3", "--phi", "2.051", "--delta", "2.447"],
        ],
    )
    def test_command_loads_no_search_layer(self, argv, tmp_path):
        write_behavior(tmp_path / "pr.json", pr_box())
        code = f"import sys; from mdsteer.cli import main; assert main({argv!r}) == 0; {LOADED}"
        loaded = set(json.loads(run_python(code, cwd=tmp_path).splitlines()[-1]))
        assert "mdsteer.cli" in loaded
        assert not {"mdsteer.oracle", "mdsteer.optimize", "mdsteer.steering"} & loaded


class TestBehaviorRoundTrip:
    def test_json_round_trip_bit_identical(self):
        b = pr_box()
        again = Behavior.from_json(b.to_json())
        assert np.array_equal(b.probabilities, again.probabilities)
        # and the serialized form itself is stable
        assert again.to_json() == b.to_json()
