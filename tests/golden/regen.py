"""The golden CLI records: every pinned ``mdsteer`` command, its exit code and its stdout.

``cli.jsonl`` holds one record a line, ``{"argv": [...], "exit": N, "stdout": "..."}``;
the input files the commands name (``pr.json``, ``negative.json`` and the malformed
``shape.json``, ``ragged.json`` and ``huge.json``) sit next to it. ``tests/test_golden.py``
replays each line through ``run``, ``tests/test_cli.py::TestStartup`` replays every line but
``curve --kind quantum`` in a fresh interpreter that must not load numpy, and CI replays each
line through the installed ``mdsteer``.

``python tests/golden/regen.py`` reruns every line's argv with this checkout's mdsteer
and rewrites its exit code and stdout; to pin a new command, append a line with its argv
and run it. A change that moves an answer regenerates the file, and ``git diff tests/golden``
lists the outputs it changed.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
CLI_JSONL = GOLDEN / "cli.jsonl"


def records():
    return [json.loads(line) for line in CLI_JSONL.read_text().splitlines()]


def run(argv):
    """(exit code, stdout) of ``mdsteer.cli.main(argv)`` in a temporary copy of the inputs."""
    from mdsteer.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for path in GOLDEN.glob("*.json"):
            shutil.copy(path, tmp)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue()


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))  # this checkout's mdsteer
    lines = []
    for record in records():
        code, stdout = run(record["argv"])
        lines.append(json.dumps({"argv": record["argv"], "exit": code, "stdout": stdout}) + "\n")
    CLI_JSONL.write_text("".join(lines))
