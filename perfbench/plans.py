"""Seeded inputs for every workload.

A run of a workload is a fixed list of operations built from its seed: the
same seed always gives the same operations, byte for byte, and every seed
gives the same number of them, with the same number of known defects. The
program only ever sees what these functions generate.

A CLI operation is a dict with ``argv`` (the arguments after
``python -m mdsteer.cli``), ``files`` to write into the working directory
first, ``kind`` and ``spec`` for its checker, and ``known_defect``: a reason
when the operation is expected to fail because of a defect that is kept
visible on purpose.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import checks

ORACLE_SAMPLES = 500_000  # ~0.3 GB peak RSS per command at the seed
SMALL_ORACLE_SAMPLES = 20_000
LIBRARY_ITEMS = 100


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _u(rng: np.random.Generator, lo: float, hi: float, digits: int = 6) -> float:
    """A uniform draw rounded so that it reads the same on the command line."""
    return round(float(rng.uniform(lo, hi)), digits)


def _unit_vector(rng: np.random.Generator) -> list:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def serialize(ops) -> bytes:
    """Canonical bytes of a run's operations, used to prove seeded generation is reproducible."""
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()


def digest(ops) -> str:
    return hashlib.sha256(serialize(ops)).hexdigest()[:16]


# ---------------------------------------------------------------- cli_batch


def _oracle_op(p: float, samples: int, op_seed: int, out=None) -> dict:
    argv = ["oracle", "--p", repr(p), "--samples", str(samples), "--seed", str(op_seed)]
    if out is not None:
        argv += ["--out", out]
    return {"kind": "oracle", "argv": argv, "files": {},
            "spec": {"p": p, "samples": samples, "seed": op_seed, "out": out},
            "known_defect": None}


def _behavior_file(probabilities) -> str:
    return json.dumps({"probabilities": np.asarray(probabilities).tolist()})


def _eval_op(name: str, text: str, p: float, probabilities=None, exit_code=0,
             known_defect=None) -> dict:
    return {"kind": "eval", "argv": ["eval", "--in", name, "--p", repr(p)],
            "files": {name: text},
            "spec": {"p": p, "exit": exit_code,
                     "probabilities": None if probabilities is None else np.asarray(probabilities).tolist()},
            "known_defect": known_defect}


def _curve_op(kind: str, fmt: str, steps: int, p_min: float, p_max: float,
              delta=None, gamma=None, out=None, argv=None, known_defect=None) -> dict:
    if argv is None:
        argv = ["curve", "--kind", kind, "--steps", str(steps), "--p-min", repr(p_min),
                "--p-max", repr(p_max), "--format", fmt]
        if delta is not None:
            argv += ["--delta", repr(delta)]
        if gamma is not None:
            argv += ["--gamma", repr(gamma)]
    return {"kind": "curve", "argv": argv, "files": {},
            "spec": {"kind": kind, "format": fmt, "steps": steps, "p_min": p_min,
                     "p_max": p_max, "delta": delta, "gamma": gamma, "out": out},
            "known_defect": known_defect}


def _adversary_op(theta: float, phi: float, delta: float) -> dict:
    argv = ["adversary", "--theta", repr(theta), "--phi", repr(phi), "--delta", repr(delta)]
    return {"kind": "adversary", "argv": argv, "files": {},
            "spec": {"theta": theta, "phi": phi, "delta": delta}, "known_defect": None}


def readme_ops() -> list:
    """The README's CLI examples, verbatim. Two of them fail at the seed."""
    pr = checks.pr_box_probabilities()
    return [
        _eval_op("behavior.json", _behavior_file(pr), 0.5, pr),
        _curve_op("tilted", "csv", 26, 0.0, 0.5, delta=0.5236, out="tilted.csv",
                  argv=["curve", "--kind", "tilted", "--delta", "0.5236", "--p-min", "0",
                        "--p-max", "0.5", "--steps", "26", "--out", "tilted.csv"],
                  known_defect="README tilted example: --delta 0.5236 > pi/6, exits 2"),
        _curve_op("randomness", "json", 26, 0.0, 0.5, gamma=0.2618,
                  argv=["curve", "--kind", "randomness", "--gamma", "0.2618", "--steps", "26",
                        "--format", "json"],
                  known_defect="README randomness example: --gamma 0.2618 > pi/12, exits 2"),
        _oracle_op(0.3, 100000, 42, out="report.json"),
        _adversary_op(0.3, 2.051, 2.447),
    ]


MALFORMED = (
    "{not json",
    json.dumps({"probs": [0.25] * 16}),
    json.dumps({"probabilities": [[0.5, 0.5], [0.5, 0.5]]}),
)


def cli_ops(seed: int) -> list:
    """README examples first, then twelve seeded commands of fixed composition."""
    rng = _rng(seed)
    ops = []
    for i in range(2):
        theta = _u(rng, 0.0, math.pi / 2)
        dirs = [_unit_vector(rng) for _ in range(4)]
        probs = checks.born_behavior(checks.ansatz_state(theta), dirs[:2], dirs[2:])
        probs = np.clip(probs, 0.0, None)
        ops.append(_eval_op(f"q{i}.json", _behavior_file(probs), _u(rng, 0.0, 0.5), probs))
    family = int(rng.integers(0, 3))
    if family == 0:
        probs = checks.pr_box_probabilities()
    elif family == 1:
        probs = checks.tilted_probabilities(_u(rng, 0.01, math.pi / 6 - 1e-6))
    else:
        probs = checks.randomness_probabilities(_u(rng, 0.0, math.pi / 12 - 1e-6))
    probs = np.clip(probs, 0.0, None)
    ops.append(_eval_op("f.json", _behavior_file(probs), _u(rng, 0.0, 0.5), probs))
    signalling = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
    ops.append(_eval_op("s.json", _behavior_file(signalling), _u(rng, 0.0, 0.5), signalling))
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[int(rng.integers(0, 2)), int(rng.integers(0, 2))] = [[0.55, -0.05], [0.25, 0.25]]
    malformed = MALFORMED + (_behavior_file(bad), _behavior_file(np.full((2, 2, 2, 2), 0.3)))
    ops.append(_eval_op("m.json", malformed[int(rng.integers(0, len(malformed)))],
                        0.5, exit_code=1))
    ops.append(_eval_op("nan.json", _behavior_file(np.full((2, 2, 2, 2), np.nan)), 0.5,
                        exit_code=1,
                        known_defect="all-NaN behavior file is accepted: eval exits 0 and prints NaN"))
    uniform = np.full((2, 2, 2, 2), 0.25)
    p_out = _u(rng, 0.51, 1.0) if rng.uniform() < 0.5 else _u(rng, -1.0, -0.01)
    ops.append(_eval_op("u.json", _behavior_file(uniform), p_out, uniform, exit_code=2))
    p_min = _u(rng, 0.0, 0.25)
    ops.append(_curve_op(("local", "prbox")[int(rng.integers(0, 2))],
                         ("csv", "json")[int(rng.integers(0, 2))],
                         int(rng.integers(1, 31)), p_min, _u(rng, p_min, 0.5)))
    fmt = ("csv", "json")[int(rng.integers(0, 2))]
    steps = int(rng.integers(1, 31))
    if rng.uniform() < 0.5:
        ops.append(_curve_op("tilted", fmt, steps, 0.0, 0.5, delta=_u(rng, 0.01, 0.5)))
    else:
        ops.append(_curve_op("randomness", fmt, steps, 0.0, 0.5, gamma=_u(rng, 0.0, 0.26)))
    ops.append(_adversary_op(_u(rng, 0.0, math.pi), _u(rng, 0.0, math.pi), _u(rng, 0.0, math.pi)))
    ops.append(_oracle_op(_u(rng, 0.01, 0.5, 4), SMALL_ORACLE_SAMPLES, int(rng.integers(0, 2**31))))
    ops.append(_oracle_op(_u(rng, 0.01, 0.5, 4), ORACLE_SAMPLES, int(rng.integers(0, 2**31))))
    order = rng.permutation(len(ops))
    return readme_ops() + [ops[i] for i in order]


# ------------------------------------------------------------ library_batch


def _mdlhs_model(rng: np.random.Generator) -> dict:
    n = int(rng.integers(2, 5))
    plx = rng.dirichlet(np.ones(n), size=2)
    pax_plus = rng.uniform(size=(2, n))
    states = np.empty((n, 2, 2, 2), dtype=complex)
    for lam in range(n):
        for x in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            mix = rng.uniform()
            states[lam, x] = mix * np.outer(v, v.conj()) + (1 - mix) * np.eye(2) / 2
    return {"plx": plx.tolist(), "pax": np.stack([pax_plus, 1 - pax_plus], axis=2).tolist(),
            "states_re": states.real.tolist(), "states_im": states.imag.tolist()}


def library_item(rng: np.random.Generator) -> dict:
    """A random ansatz, MD-LHS model and setting-bias model."""
    return {"theta": float(rng.uniform(0.0, math.pi / 2)),
            "dirs": [_unit_vector(rng) for _ in range(4)],
            "p": float(rng.uniform(0.0, 0.5)),
            "model": _mdlhs_model(rng),
            "bias": [float(v) for v in rng.uniform(0.0, math.pi, size=3)]}


def library_ops(seed: int) -> list:
    rng = _rng(seed)
    return [{"kind": "library", "item": library_item(rng), "known_defect": None}
            for _ in range(LIBRARY_ITEMS)]


OPS = {
    "cli_batch": cli_ops,
    "library_batch": library_ops,
}
