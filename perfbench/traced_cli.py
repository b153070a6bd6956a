"""Run one mdsteer CLI command with spans around the calls into each layer.

Usage: python perfbench/traced_cli.py SPANS.npz [mdsteer arguments ...]

Stdout, stderr and the exit code are the command's own; the spans go to
SPANS.npz when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402  (standard library only)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    code = 1
    try:
        with tracer.span("import.mdsteer_cli"):
            import mdsteer.cli
        with tracing.installed(tracer):
            with tracer.span("cli.main"):
                code = mdsteer.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments with exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
