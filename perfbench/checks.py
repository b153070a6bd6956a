"""Independent reference computations and the output checkers built on them.

Nothing here imports mdsteer. Every expected value is recomputed with plain
numpy from the inputs the benchmark generated, so a checker never trusts the
function whose output it checks. Each checker raises CheckFailure with a
one-line reason; the caller counts the operation as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
SIGNS = np.array([1.0, -1.0])

JSON_TOL = 1e-12  # full-precision JSON numbers
CSV_TOL = 1e-9  # the CLI writes CSV with 10 significant digits
QUANTUM_TOL = 1e-9


class CheckFailure(Exception):
    """An operation's output, exit code or side effect is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(name: str, got, want: float, tol: float) -> None:
    is_number = isinstance(got, (int, float)) and not isinstance(got, bool)
    expect(
        is_number and abs(got - want) <= tol * max(1.0, abs(want)),
        f"{name}: got {got!r}, expected {want!r} (tol {tol:g})",
    )


def exact_keys(name: str, record, wanted) -> None:
    got = sorted(record) if isinstance(record, dict) else type(record).__name__
    expect(isinstance(record, dict) and set(record) == set(wanted),
           f"{name} keys {got}, expected {sorted(wanted)}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN/Infinity, which strict JSON does not allow."""

    def reject(constant):
        raise CheckFailure(f"output is not strict JSON: contains {constant}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


# ---------------------------------------------------------------- references


def projectors(direction) -> np.ndarray:
    """(2, 2, 2): the +1 and -1 projectors of n . sigma."""
    n_sigma = np.einsum("k,kij->ij", np.asarray(direction, dtype=float), PAULI)
    return np.stack([(I2 + s * n_sigma) / 2.0 for s in SIGNS])


def ansatz_state(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), 0.0, 0.0, -math.sin(theta)], dtype=complex)


def bell_state() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def born_behavior(psi: np.ndarray, x_dirs, y_dirs) -> np.ndarray:
    """p[x, y, a, b] = <psi| P_a^x (x) P_b^y |psi> for a pure two-qubit state."""
    pa = np.stack([projectors(d) for d in x_dirs])
    pb = np.stack([projectors(d) for d in y_dirs])
    m = psi.reshape(2, 2)
    return np.einsum("ij,xaik,ybjl,kl->xyab", m.conj(), pa, pb, m).real


def correlators(p: np.ndarray) -> np.ndarray:
    """E[x, y] = sum_ab a b p(ab|xy)."""
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def md_value(e: np.ndarray, p: float) -> float:
    q = 1.0 - p
    a1 = (p * e[0, 0] + q * e[1, 0]) ** 2 + (p * e[0, 1] + q * e[1, 1]) ** 2
    a2 = (p * e[0, 0] - q * e[1, 0]) ** 2 + (p * e[0, 1] - q * e[1, 1]) ** 2
    return float(math.sqrt(a1) + math.sqrt(a2))


def local_bound(p: float) -> float:
    return 4.0 * p * (1.0 - p)


def ns_deviation(p: np.ndarray) -> float:
    alice = p.sum(axis=3)
    bob = p.sum(axis=2)
    return float(max(np.abs(alice[:, 0] - alice[:, 1]).max(),
                     np.abs(bob[0] - bob[1]).max()))


def pr_box_probabilities() -> np.ndarray:
    p = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            anti = x == 1 and y == 1
            for a in range(2):
                for b in range(2):
                    if (a == b) != anti:
                        p[x, y, a, b] = 0.5
    return p


def tilted_probabilities(delta: float) -> np.ndarray:
    x_dirs = ((0.0, 0.0, 1.0), (math.cos(delta), 0.0, -math.sin(delta)))
    y_dirs = ((1.0, 0.0, 0.0), (-math.sin(delta), 0.0, math.cos(delta)))
    return born_behavior(bell_state(), x_dirs, y_dirs)


def randomness_probabilities(gamma: float) -> np.ndarray:
    a2 = 2 * math.pi / 3 - 2 * gamma
    b2 = math.pi / 6 + gamma
    x_dirs = ((0.0, 0.0, 1.0), (math.sin(a2), 0.0, math.cos(a2)))
    y_dirs = ((math.cos(3 * gamma), 0.0, math.sin(3 * gamma)), (-math.sin(b2), 0.0, math.cos(b2)))
    return born_behavior(bell_state(), x_dirs, y_dirs)


def randomness_rate(gamma: float) -> float:
    s = math.sin(3 * gamma) + 3 * math.cos(gamma + math.pi / 6)
    u = max(-1.0, min(1.0, -s / (2 * math.sqrt(2))))
    q = 0.5 + s / 2 - (3 / math.sqrt(2)) * math.cos(math.acos(u) / 3)
    h = 0.0 if q in (0.0, 1.0) else -q * math.log2(q) - (1 - q) * math.log2(1 - q)
    return 1.0 + h


def bias_report(theta: float, phi: float, delta: float) -> dict:
    p_lambda = [math.sin(delta) ** 2, math.cos(delta) ** 2]
    p1 = [math.cos(theta) ** 2, math.cos(phi) ** 2]
    table = [[p1[0], 1 - p1[0]], [p1[1], 1 - p1[1]]]
    return {
        "pX1": p_lambda[0] * p1[0] + p_lambda[1] * p1[1],
        "pLambda": p_lambda,
        "pXGivenLambda": table,
        "maxL": min(min(row) for row in table),
        "independent": max(abs(table[0][i] - table[1][i]) for i in range(2)) <= 1e-9,
    }


def state_assemblage(psi: np.ndarray, x_dirs) -> np.ndarray:
    """sigma[x, a] = Tr_A[(P_a^x (x) 1) rho] for rho = |psi><psi|."""
    rho = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)
    pa = np.stack([projectors(d) for d in x_dirs])
    return np.einsum("xaim,mjil->xajl", pa, rho)


def mdlhs_assemblage(plx, pax, states) -> np.ndarray:
    """sigma[x, a] = sum_lambda p(lambda|x) p(a|x,lambda) rho_{lambda|x}."""
    return np.einsum("xl,xla,lxij->xaij", plx, pax, states)


def assemblage_behavior(sigma: np.ndarray, y_dirs) -> np.ndarray:
    pb = np.stack([projectors(d) for d in y_dirs])
    return np.einsum("ybjl,xalj->xyab", pb, sigma).real


# ------------------------------------------------------------------ checkers


def check_exit(code: int, want: int, stdout: str, stderr: str) -> None:
    expect(code == want, f"exit code {code}, expected {want}: {stderr.strip()[-200:]}")
    if want != 0:
        expect(stdout == "", f"exit {want} but stdout is not empty: {stdout[:80]!r}")
        expect(stderr.startswith("error:"), f"exit {want} without an 'error:' message")


def check_oracle(spec: dict, code: int, stdout: str, stderr: str, files: dict) -> None:
    check_exit(code, 0, stdout, stderr)
    record = strict_json(stdout)
    exact_keys("oracle record", record, ("p", "samples", "maxI", "bound", "pass", "seed"))
    p = spec["p"]
    expect(record["p"] == p and record["samples"] == spec["samples"]
           and record["seed"] == spec["seed"], f"record does not echo its inputs: {record}")
    close("bound", record["bound"], local_bound(p), JSON_TOL)
    expect(record["pass"] is True, f"oracle reported pass={record['pass']!r}")
    # Every pure strategy on the xi grid sits on the bound, so the maximum does too.
    close("maxI vs bound", record["maxI"], record["bound"], QUANTUM_TOL)
    out = spec.get("out")
    if out is not None:
        expect(files.get(out) == stdout, f"{out} does not hold the printed record")


def eval_expected(probabilities, p: float) -> dict:
    probs = np.asarray(probabilities, dtype=float)
    e = correlators(probs)
    value = md_value(e, p)
    dev = ns_deviation(probs)
    return {"I": value, "bound": local_bound(p), "delta": value - local_bound(p),
            "noSignalling": {"maxDeviation": dev, "pass": dev <= 1e-9}}


def check_eval(spec: dict, code: int, stdout: str, stderr: str, files: dict) -> None:
    check_exit(code, spec["exit"], stdout, stderr)
    if spec["exit"] != 0:
        return
    record = strict_json(stdout)
    exact_keys("eval record", record, ("I", "bound", "delta", "noSignalling"))
    exact_keys("noSignalling", record["noSignalling"], ("maxDeviation", "pass"))
    want = eval_expected(spec["probabilities"], spec["p"])
    for key in ("I", "bound", "delta"):
        close(key, record[key], want[key], JSON_TOL)
    ns = record["noSignalling"]
    close("maxDeviation", ns["maxDeviation"], want["noSignalling"]["maxDeviation"], JSON_TOL)
    expect(ns["pass"] is want["noSignalling"]["pass"], f"noSignalling.pass is {ns['pass']!r}")


CURVE_HEADERS = {
    "local": ("p", "value"),
    "prbox": ("p", "value"),
    "tilted": ("p", "value", "delta"),
    "randomness": ("p", "value", "delta", "r"),
}


def curve_expected(spec: dict) -> list:
    steps = spec["steps"]
    grid = [spec["p_min"]] if steps == 1 else list(np.linspace(spec["p_min"], spec["p_max"], steps))
    kind = spec["kind"]
    if kind == "local":
        return [[p, local_bound(p)] for p in grid]
    if kind == "prbox":
        return [[p, 2.0 * math.sqrt(2.0 - local_bound(p))] for p in grid]
    if kind == "tilted":
        e = correlators(tilted_probabilities(spec["delta"]))
        return [[p, md_value(e, p), md_value(e, p) - local_bound(p)] for p in grid]
    e = correlators(randomness_probabilities(spec["gamma"]))
    rate = randomness_rate(spec["gamma"])
    return [[p, md_value(e, p), md_value(e, p) - local_bound(p), rate] for p in grid]


def parse_table(text: str, fmt: str, header) -> list:
    if fmt == "json":
        rows = strict_json(text)
        expect(isinstance(rows, list), "curve JSON is not a list")
        for row in rows:
            exact_keys("curve row", row, header)
        return [[row[k] for k in header] for row in rows]
    lines = list(csv.reader(io.StringIO(text)))
    expect(bool(lines) and tuple(lines[0]) == tuple(header), f"CSV header {lines[:1]}, expected {header}")
    try:
        return [[float(v) for v in line] for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailure(f"CSV value is not a number: {exc}") from None


def check_curve(spec: dict, code: int, stdout: str, stderr: str, files: dict) -> None:
    check_exit(code, 0, stdout, stderr)
    text = stdout
    if spec.get("out") is not None:
        expect(stdout == "", "curve --out also wrote to stdout")
        text = files.get(spec["out"])
        expect(text is not None, f"{spec['out']} was not written")
    header = CURVE_HEADERS[spec["kind"]]
    got = parse_table(text, spec["format"], header)
    want = curve_expected(spec)
    expect(len(got) == len(want), f"{len(got)} rows, expected {len(want)}")
    tol = JSON_TOL if spec["format"] == "json" else CSV_TOL
    for i, (g, w) in enumerate(zip(got, want)):
        for name, gv, wv in zip(header, g, w):
            close(f"row {i} {name}", gv, wv, tol)


def check_adversary(spec: dict, code: int, stdout: str, stderr: str, files: dict) -> None:
    check_exit(code, 0, stdout, stderr)
    record = strict_json(stdout)
    want = bias_report(spec["theta"], spec["phi"], spec["delta"])
    exact_keys("adversary record", record, want)
    close("pX1", record["pX1"], want["pX1"], JSON_TOL)
    close("maxL", record["maxL"], want["maxL"], JSON_TOL)
    for i in range(2):
        close(f"pLambda[{i}]", record["pLambda"][i], want["pLambda"][i], JSON_TOL)
        for j in range(2):
            close(f"pXGivenLambda[{i}][{j}]", record["pXGivenLambda"][i][j],
                  want["pXGivenLambda"][i][j], JSON_TOL)
    expect(record["independent"] is want["independent"], f"independent is {record['independent']!r}")


CLI_CHECKERS = {
    "oracle": check_oracle,
    "eval": check_eval,
    "curve": check_curve,
    "adversary": check_adversary,
}


def check_library_item(item: dict, out: dict) -> None:
    """Outputs of one library_batch item against numpy references."""
    psi = ansatz_state(item["theta"])
    x_dirs, y_dirs = item["dirs"][:2], item["dirs"][2:]
    p = item["p"]
    want = born_behavior(psi, x_dirs, y_dirs)
    expect(np.abs(out["behavior"] - want).max() <= JSON_TOL, "behavior_from_quantum disagrees with the Born rule")
    expect(np.array_equal(out["revalidated"], out["behavior"]), "Behavior(...) changed the probabilities")
    e = correlators(want)
    expect(np.abs(out["correlators"] - e.ravel()).max() <= JSON_TOL, "correlators disagree")
    close("md_operator", out["I"], md_value(e, p), JSON_TOL)
    close("violation", out["violation"], md_value(e, p) - local_bound(p), JSON_TOL)
    close("quantum_value", out["objective"], md_value(e, p), JSON_TOL)
    close("no-signalling deviation", out["ns_deviation"], ns_deviation(want), JSON_TOL)
    expect(out["ns_passed"] is True, "a quantum behavior failed the no-signalling check")
    sigma = state_assemblage(psi, x_dirs)
    expect(np.abs(out["state_assemblage"] - sigma).max() <= JSON_TOL, "assemblage_from_state disagrees")
    expect(np.abs(out["assemblage_behavior"] - want).max() <= JSON_TOL,
           "assemblage route and direct route give different behaviors")
    model = item["model"]
    states = np.asarray(model["states_re"]) + 1j * np.asarray(model["states_im"])
    lhs = mdlhs_assemblage(np.asarray(model["plx"]), np.asarray(model["pax"]), states)
    expect(np.abs(out["mdlhs_assemblage"] - lhs).max() <= JSON_TOL, "assemblage_from_mdlhs disagrees")
    expect(0.0 <= out["decomposition_error"] <= JSON_TOL,
           f"mdlhv_decomposition_check = {out['decomposition_error']!r}")
    want_bias = bias_report(*item["bias"])
    close("constraint pX1", out["bias_px1"], want_bias["pX1"], JSON_TOL)
    close("constraint maxL", out["bias_maxl"], want_bias["maxL"], JSON_TOL)
    expect(out["bias_independent"] is want_bias["independent"], "constraint_report independence verdict")
