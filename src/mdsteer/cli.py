"""Command-line front end: evaluate behaviors, emit curves, run reports.

Exit codes: 0 success (oracle pass), 1 I/O or parse failure, 2 domain
validation failure, 3 oracle bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import List, Optional, Sequence

from .inequality import CURVE_KINDS, CurvePoint, curve, local_bound, md_operator, violation
from .kernel import STEPS, Tolerances, ValidationError, require_finite, require_interval
from .table import correlators, no_signalling_check, read_table

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_BOUND = 3

# A negative number that argparse, which only lets "-5" and "-.5" through, reads as an option.
_NEGATIVE_NUMBER = re.compile(r"-(inf|infinity|nan|\.?\d[\d.]*(e[-+]?\d+)?)", re.IGNORECASE)


# The report layers are imported by the command that runs them, so that the
# others load neither. These forwarders keep their names module-level, where
# instrumentation may replace them.
def bound_sweep(p, samples, seed):
    """oracle.bound_sweep, imported on the first call."""
    from .oracle import bound_sweep as oracle_bound_sweep

    return oracle_bound_sweep(p, samples, seed)


def constraint_report(model):
    """adversary.constraint_report, imported on the first call."""
    from .adversary import constraint_report as adversary_constraint_report

    return adversary_constraint_report(model)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _linspace(start: float, stop: float, num: int) -> List[float]:
    """numpy.linspace(start, stop, num) as Python floats, bit for bit, for num >= 1.

    Each point is i * step + start, with numpy's two special cases: a step that
    underflows to 0 is applied as (i / div) * delta, and one point is 0 * delta + start.
    The last of two or more points is stop itself.
    """
    div, delta = num - 1, stop - start
    if div == 0:
        points = [0.0 * delta]
    elif delta / div == 0:
        points = [i / div * delta for i in range(num)]
    else:
        step = delta / div
        points = [i * step for i in range(num)]
    points = [y + start for y in points]
    if num > 1:
        points[-1] = stop
    return points


def _p_grid(args: argparse.Namespace) -> List[float]:
    require_interval("--steps", args.steps, STEPS)
    require_finite("--p-min and --p-max", args.p_min, args.p_max)
    return _linspace(args.p_min, args.p_max, args.steps)


def _record(point: CurvePoint) -> dict:
    """A curve point's columns: p and value, then each field the curve set."""
    record = {"p": point.p, "value": point.value}
    if point.argmax is not None:
        record["theta"] = point.argmax.theta
        for name, d in zip(("a1", "a2", "b1", "b2"), point.argmax.directions):
            record[name] = math.atan2(d.nx, d.nz)
    if point.delta is not None:
        record["delta"] = point.delta
    if point.rate is not None:
        record["r"] = point.rate
    return record


def _table(records: List[dict], fmt: str) -> str:
    """JSON list of the records, or CSV headed by the first record's keys."""
    if fmt == "json":
        return json.dumps(records, allow_nan=False) + "\n"
    lines = [",".join(records[0])]
    lines += [",".join(_fmt(v) for v in record.values()) for record in records]
    return "\n".join(lines) + "\n"


def _write(path: Optional[str], text: str) -> int:
    """Write text to the file at path, or to stdout when path is None; the exit code."""
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        with open(args.infile) as fh:
            probabilities = read_table(fh.read())
    except (OSError, ValueError) as exc:  # a ValidationError is a ValueError
        print(f"error: cannot read behavior file: {exc}", file=sys.stderr)
        return EXIT_IO
    c = correlators(probabilities)
    ns = no_signalling_check(probabilities, tol=Tolerances.from_env().check)
    record = {
        "I": md_operator(c, args.p),
        "bound": local_bound(args.p),
        "delta": violation(c, args.p),
        "noSignalling": {"maxDeviation": ns.max_deviation, "pass": ns.passed},
    }
    print(json.dumps(record, allow_nan=False))
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    points = curve(args.kind, _p_grid(args), delta=args.delta, gamma=args.gamma)
    return _write(args.out, _table([_record(point) for point in points], args.format))


def cmd_oracle(args: argparse.Namespace) -> int:
    report = bound_sweep(args.p, args.samples, args.seed)
    text = report.to_json()
    if args.out is not None and _write(args.out, text + "\n") != EXIT_OK:
        return EXIT_IO
    print(text)
    return EXIT_OK if report.passed else EXIT_BOUND


def cmd_adversary(args: argparse.Namespace) -> int:
    from .adversary import BiasModel

    print(constraint_report(BiasModel(args.theta, args.phi, args.delta)).to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsteer",
        description="Measurement-dependent steering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a behavior JSON file")
    p_eval.add_argument("--in", dest="infile", required=True)
    p_eval.add_argument("--p", type=float, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_curve = sub.add_parser("curve", help="emit figure data over a p grid")
    p_curve.add_argument("--kind", choices=CURVE_KINDS, required=True)
    p_curve.add_argument("--p-min", type=float, default=0.0)
    p_curve.add_argument("--p-max", type=float, default=0.5)
    p_curve.add_argument("--steps", type=int, default=26)
    p_curve.add_argument("--delta", type=float, default=None)
    p_curve.add_argument("--gamma", type=float, default=None)
    p_curve.add_argument("--out", default=None)
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.set_defaults(func=cmd_curve)

    p_oracle = sub.add_parser("oracle", help="exact hidden-variable maximum against the bound")
    p_oracle.add_argument("--p", type=float, required=True)
    # Validated and echoed in the record; neither changes maxI.
    p_oracle.add_argument("--samples", type=int, default=100_000)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_adv = sub.add_parser("adversary", help="setting-bias model report")
    p_adv.add_argument("--theta", type=float, required=True)
    p_adv.add_argument("--phi", type=float, required=True)
    p_adv.add_argument("--delta", type=float, required=True)
    p_adv.set_defaults(func=cmd_adversary)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # "--p -1e-3" -> "--p=-1e-3"
        if argv[i - 1].startswith("--") and _NEGATIVE_NUMBER.fullmatch(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:  # the one exit for every command's domain errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
