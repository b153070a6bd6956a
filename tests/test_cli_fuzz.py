"""CLI arguments drawn at random, down to the exit code: no exception escapes main.

Every float goes in either as ``--flag=value`` or as the two tokens ``--flag value``.
--steps and --samples are capped so that each run stays small; a --steps above
10 000, up to 10**30, must be refused before any grid is built. The quantum curve
runs the optimizer and is left out.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nested_json

from mdsteer.behaviors import pr_box
from mdsteer.cli import main

# Any float at all, plus draws that land inside the domains the commands accept.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-0.1, 0.6),
    st.sampled_from([0.0, 0.5, np.pi / 12, np.pi / 6]),
)
OPTIONAL = st.one_of(st.none(), FLOATS)
FUZZ = settings(max_examples=100, deadline=None)
JOINED = st.booleans()  # one draw per command: --flag=value or --flag value


def flag(name, value, joined):
    """A float option as argv tokens, in the drawn form."""
    return [f"{name}={value!r}"] if joined else [name, repr(value)]


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_failure(out, err):
    """A refused command prints nothing on stdout and one error line on stderr."""
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture(scope="module")
def behavior_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("behaviors")
    (root / "pr.json").write_text(pr_box().to_json())
    (root / "nan.json").write_text(json.dumps({"probabilities": np.full((2, 2, 2, 2), np.nan).tolist()}))
    # A leaf that is not a JSON number, or an integer past float range, for the first 0.5.
    for name, leaf in BAD_LEAVES.items():
        data = json.loads(pr_box().to_json())
        data["probabilities"][0][0][0][0] = leaf
        (root / f"{name}.json").write_text(json.dumps(data))
    (root / "deep.json").write_text(nested_json("probabilities"))
    return root


BAD_LEAVES = {"string": "0.5", "true": True, "null": None, "huge": 10**400}
BAD_FILES = ["nan.json", "deep.json"] + [f"{name}.json" for name in BAD_LEAVES]


@FUZZ
@given(p=FLOATS, name=st.sampled_from(["pr.json"] + BAD_FILES), joined=JOINED)
def test_eval(behavior_files, p, name, joined):
    code, out, err = run(["eval", "--in", str(behavior_files / name), *flag("--p", p, joined)])
    assert code in ({1} if name in BAD_FILES else {0, 2})  # 1 only for a file that cannot be read
    if code == 0:
        strict_json(out)
    else:
        check_failure(out, err)


@FUZZ
@given(p=FLOATS, samples=st.integers(-2, 2000), seed=st.integers(-2, 2**40), joined=JOINED)
def test_oracle(p, samples, seed, joined):
    code, out, err = run(["oracle", *flag("--p", p, joined), f"--samples={samples}", f"--seed={seed}"])
    assert code in {0, 2, 3}
    if code == 2:
        check_failure(out, err)
    else:
        strict_json(out)


@FUZZ
@given(theta=FLOATS, phi=FLOATS, delta=FLOATS, joined=JOINED)
def test_adversary(theta, phi, delta, joined):
    angles = {"--theta": theta, "--phi": phi, "--delta": delta}
    code, out, err = run(["adversary", *(t for k, v in angles.items() for t in flag(k, v, joined))])
    assert code in {0, 2}
    if code == 0:
        strict_json(out)
    else:
        check_failure(out, err)


@FUZZ
@given(
    kind=st.sampled_from(["local", "prbox", "tilted", "randomness"]),
    p_min=FLOATS,
    p_max=FLOATS,
    steps=st.one_of(st.integers(-2, 30), st.integers(10_001, 10**30)),
    delta=OPTIONAL,
    gamma=OPTIONAL,
    fmt=st.sampled_from(["csv", "json"]),
    joined=JOINED,
)
def test_curve(kind, p_min, p_max, steps, delta, gamma, fmt, joined):
    argv = ["curve", "--kind", kind, *flag("--p-min", p_min, joined),
            *flag("--p-max", p_max, joined), f"--steps={steps}", "--format", fmt]
    argv += [] if delta is None else flag("--delta", delta, joined)
    argv += [] if gamma is None else flag("--gamma", gamma, joined)
    with np.errstate(all="ignore"):  # np.linspace over +-1e308 overflows before the grid check
        code, out, err = run(argv)
    assert code in ({2} if steps > 10_000 else {0, 2})
    if code == 2:
        check_failure(out, err)
    elif fmt == "json":
        assert len(strict_json(out)) == steps
    else:
        assert len(out.splitlines()) == steps + 1
