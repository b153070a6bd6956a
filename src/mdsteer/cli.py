"""Command-line front end: evaluate behaviors, emit curves, run reports.

Exit codes: 0 success (oracle pass), 1 I/O or parse failure, 2 domain
validation failure, 3 oracle bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from .behaviors import Behavior, correlators, no_signalling_check
from .inequality import CURVE_KINDS, local_bound, md_operator, violation
from .kernel import Tolerances, ValidationError, require_finite

if TYPE_CHECKING:
    from .optimize import CurvePoint

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_BOUND = 3


# The search and report layers are imported by the command that runs them,
# so eval never loads optimize, oracle or adversary. These forwarders keep
# their names module-level, where instrumentation may replace them.
def curve(kind, p_grid, **kwargs):
    """optimize.curve, imported on the first call."""
    from .optimize import curve as optimize_curve

    return optimize_curve(kind, p_grid, **kwargs)


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


def _planar_angle(d) -> float:
    return math.atan2(d.nx, d.nz)


def _p_grid(args: argparse.Namespace) -> List[float]:
    if args.steps < 1:
        raise ValidationError(f"--steps must be >= 1, got {args.steps}")
    require_finite("--p-min and --p-max", args.p_min, args.p_max)
    if args.steps == 1:
        return [args.p_min]
    return list(np.linspace(args.p_min, args.p_max, args.steps))


def _curve_rows(kind: str, points: Sequence[CurvePoint]) -> tuple:
    if kind in ("local", "prbox"):
        header = ["p", "value"]
        rows = [[pt.p, pt.value] for pt in points]
    elif kind == "quantum":
        header = ["p", "value", "theta", "a1", "a2", "b1", "b2"]
        rows = [
            [pt.p, pt.value, pt.argmax.theta]
            + [_planar_angle(d) for d in pt.argmax.directions]
            for pt in points
        ]
    elif kind == "tilted":
        header = ["p", "value", "delta"]
        rows = [[pt.p, pt.value, pt.delta] for pt in points]
    else:
        header = ["p", "value", "delta", "r"]
        rows = [[pt.p, pt.value, pt.delta, pt.rate] for pt in points]
    return header, rows


def _write_table(path: Optional[str], header: List[str], rows: List[List[float]], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], allow_nan=False) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        with open(args.infile) as fh:
            behavior = Behavior.from_json(fh.read())
    except (OSError, json.JSONDecodeError, ValidationError, ValueError) as exc:
        print(f"error: cannot read behavior file: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        c = correlators(behavior)
        op = md_operator(c, args.p)
        bound = local_bound(args.p)
        ns = no_signalling_check(behavior, tol=Tolerances.from_env().check)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    record = {
        "I": op,
        "bound": bound,
        "delta": violation(c, args.p),
        "noSignalling": {"maxDeviation": ns.max_deviation, "pass": ns.passed},
    }
    print(json.dumps(record, allow_nan=False))
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    from .optimize import SearchConfig

    try:
        grid = _p_grid(args)
        config = SearchConfig(seed=args.seed)
        points = curve(args.kind, grid, delta=args.delta, gamma=args.gamma, config=config)
        header, rows = _curve_rows(args.kind, points)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _write_table(args.out, header, rows, args.format)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        report = bound_sweep(args.p, args.samples, args.seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = report.to_json()
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    print(text)
    return EXIT_OK if report.passed else EXIT_BOUND


def cmd_adversary(args: argparse.Namespace) -> int:
    from .adversary import BiasModel

    try:
        report = constraint_report(BiasModel(args.theta, args.phi, args.delta))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(report.to_json())
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
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.add_argument("--out", default=None)
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.set_defaults(func=cmd_curve)

    p_oracle = sub.add_parser("oracle", help="sample hidden-variable mixtures against the bound")
    p_oracle.add_argument("--p", type=float, required=True)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
