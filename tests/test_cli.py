import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdsteer
from mdsteer.behaviors import Behavior, pr_box
from mdsteer.cli import _write_table, main


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

    def test_stdout_when_no_out(self, capsys):
        assert main(["curve", "--kind", "local", "--steps", "2"]) == 0
        assert capsys.readouterr().out.startswith("p,value")

    def test_negative_seed_exits_2(self, capsys):
        assert main(["curve", "--kind", "quantum", "--steps", "1", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

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

    def test_json_table_rejects_nan(self, capsys):
        with pytest.raises(ValueError):
            _write_table(None, ["p", "value"], [[0.0, math.nan]], "json")
        assert capsys.readouterr().out == ""


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
        main(["oracle", "--p", "0.3", "--samples", "500", "--seed", "5", "--out", str(out)])
        record = json.loads(out.read_text())
        assert record["seed"] == 5
        assert record["samples"] == 500

    def test_deterministic_given_seed(self, capsys):
        main(["oracle", "--p", "0.4", "--samples", "2000", "--seed", "9"])
        first = capsys.readouterr().out
        main(["oracle", "--p", "0.4", "--samples", "2000", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestAdversary:
    def test_example_a(self, capsys):
        code = main(["adversary", "--theta", "0.3", "--phi", "2.051", "--delta", "2.447"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pX1"] == pytest.approx(0.5, abs=0.01)
        assert record["independent"] is False

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


def run_python(code, cwd=None):
    """Stdout of ``python -c code`` in a fresh interpreter that finds this checkout's mdsteer."""
    src = str(Path(mdsteer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
        cwd=cwd,
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
        loaded = json.loads(run_python(f"import sys, mdsteer.cli; {LOADED}"))
        assert loaded == ["mdsteer.behaviors", "mdsteer.cli", "mdsteer.inequality", "mdsteer.kernel"]

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
