"""The one validation boundary in kernel: intervals, distributions, and the inputs they guard."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from conftest import nested_json

from mdsteer.behaviors import Behavior, CorrelatorVector, pr_box
from mdsteer.inequality import md_operator
from mdsteer.kernel import (
    BIAS,
    OPEN_RIGHT_ANGLE,
    POSITIVE,
    ValidationError,
    number_leaves,
    require_count,
    require_distribution,
    require_interval,
)
from mdsteer.linalg import TwoQubitState, is_psd
from mdsteer.oracle import ExtremalStrategy
from mdsteer.steering import Assemblage, MdLhsModel, md_weight, weight_limit_values
from mdsteer.table import read_table

NAN, INF = math.nan, math.inf
C = CorrelatorVector(0.1, 0.2, 0.3, 0.4)
ETA = {(a, x): 0.5 for a in (+1, -1) for x in (1, 2)}
MIXED = np.broadcast_to(np.eye(2) / 2, (2, 2, 2, 2)).astype(complex)


class TestRequireInterval:
    @pytest.mark.parametrize("value", [0.0, 0.25, 0.5])
    def test_closed_ends_admitted(self, value):
        require_interval("p", value, BIAS)

    @pytest.mark.parametrize("value", [0.0, math.pi / 2])
    def test_open_ends_rejected(self, value):
        # A strategy's beta has the domain of the operator that scores it.
        for refused in (
            lambda: require_interval("beta", value, OPEN_RIGHT_ANGLE),
            lambda: ExtremalStrategy(1, 0.0, 0.3, value),
        ):
            with pytest.raises(ValidationError, match=r"^beta must be in \(0, pi/2\), got "):
                refused()

    @pytest.mark.parametrize("value", [NAN, INF, -INF, -1e-300, 0.5000000000000001])
    def test_non_finite_and_outside_rejected(self, value):
        with pytest.raises(ValidationError, match=r"^p must be in \[0, 0.5\], got "):
            require_interval("p", value, BIAS)

    def test_infinite_open_end(self):
        require_interval("ratio", 1e308, POSITIVE)
        with pytest.raises(ValidationError):
            require_interval("ratio", INF, POSITIVE)


class TestRequireDistribution:
    def test_each_row_is_one_distribution(self):
        require_distribution("rows", [0.5, 0.5, 0.9, 0.1], (2, 2), 1)
        with pytest.raises(ValidationError, match=r"^rows must sum to 1, got 1.1 at index \(1,\)$"):
            require_distribution("rows", [0.5, 0.5, 0.9, 0.2], (2, 2), 1)

    def test_whole_array_sum_has_no_index(self):
        with pytest.raises(ValidationError, match=r"^w must sum to 1, got 1.1$"):
            require_distribution("w", [0.5, 0.6], (2,))

    def test_empty_input_sums_to_zero(self):
        with pytest.raises(ValidationError, match=r"^w must sum to 1, got 0.0$"):
            require_distribution("w", [], (0,))

    def test_negative_entry_located(self):
        with pytest.raises(ValidationError, match=r"non-negative, got -0.5 at index \(1,\)"):
            require_distribution("w", [1.5, -0.5], (2,))

    def test_non_finite_entry_located(self):
        with pytest.raises(ValidationError, match=r"^w must be finite, got inf at index \(1, 0\)$"):
            require_distribution("w", [0.5, 0.5, INF, 0.0], (2, 2), 1)

    def test_slack(self):
        require_distribution("w", [1.0 + 5e-11, -5e-13], (2,))
        with pytest.raises(ValidationError):
            require_distribution("w", [1.0 + 2e-10, 0.0], (2,))


# Entry points whose hand-written checks let NaN through, since abs(nan - 1) > tol and
# nan < 0 are both false; an infinite xi has no check of its own to fail.
NON_FINITE = {
    "ExtremalStrategy p": lambda: ExtremalStrategy(1, 0.0, NAN),
    "ExtremalStrategy xi nan": lambda: ExtremalStrategy(1, NAN),
    "ExtremalStrategy xi inf": lambda: ExtremalStrategy(1, INF),
    "md_operator beta": lambda: md_operator(C, 0.3, NAN),
    "MdLhsModel p_lambda_given_x": lambda: MdLhsModel(
        np.array([[NAN, 0.5], [0.5, 0.5]]), np.full((2, 2, 2), 0.5), MIXED
    ),
    "MdLhsModel p_a_given_x_lambda": lambda: MdLhsModel(
        np.full((2, 2), 0.5), np.array([[[0.5, 0.5]] * 2, [[0.5, 0.5], [NAN, 0.5]]]), MIXED
    ),
    "md_weight": lambda: md_weight({**ETA, (-1, 2): NAN}),
    "weight_limit_values eta_ratio": lambda: weight_limit_values(0.3, 0.5, NAN),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_input_rejected(case):
    with pytest.raises(ValidationError):
        NON_FINITE[case]()


class TestSettingProbabilityPair:
    """A setting pair outside [0, 1] that sums to 1 must not get through."""

    def test_strategy_rejects_out_of_range_pair(self):
        # The pair (1.5, -0.5) is (1 - p, p) with p = -0.5.
        with pytest.raises(ValidationError, match=r"^p must be in \[0, 1\], got -0.5"):
            ExtremalStrategy(1, 0.0, p=-0.5)


# JSON leaves that np.array(..., dtype=float) would read as 0.5, 1.0, 0.0 and nan.
NON_NUMBERS = {"numeric string": "0.5", "true": True, "false": False, "null": None}


class TestJsonNumbers:
    @pytest.mark.parametrize("leaf", sorted(NON_NUMBERS))
    def test_leaf_rejected_at_any_depth(self, leaf):
        with pytest.raises(ValidationError, match="^table must hold only numbers, got "):
            number_leaves("table", [[0.5, 0.5], [0.25, NON_NUMBERS[leaf]]])

    def test_numbers_pass_as_float_array(self):
        # Integer leaves: a deterministic behavior, p(++|xy) = 1 for every (x, y).
        block = [[1, 0], [0, 0]]
        out = read_table(json.dumps({"probabilities": [[block, block], [block, block]]}))
        assert all(type(v) is float for v in out)
        assert out == (1.0, 0.0, 0.0, 0.0) * 4

    @pytest.mark.parametrize("value", [[[1.0], [1.0, 2.0]], [[10**400, 0.0], [0.0, 0.5]]])
    def test_ragged_or_huge_rejected(self, value):
        # p(.|x1 y1) of the PR box replaced by a ragged nesting, or by an int beyond float range.
        data = json.loads(pr_box().to_json())
        data["probabilities"][0][0] = value
        message = r"^probabilities must have shape \(2,2,2,2\) and entries in float range$"
        with pytest.raises(ValidationError, match=message):
            read_table(json.dumps(data))

    @pytest.mark.parametrize("leaf", sorted(NON_NUMBERS))
    def test_behavior_json(self, leaf):
        data = json.loads(pr_box().to_json())
        data["probabilities"][0][0][0][0] = NON_NUMBERS[leaf]  # 0.5 in the PR box
        with pytest.raises(ValidationError, match="^probabilities must hold only numbers"):
            Behavior.from_json(json.dumps(data))


NO_OBJECT = {
    "not JSON": "{not json",
    "a top-level array": "[1, 2]",
    "nested 5000 deep": nested_json("probabilities"),
}


@pytest.mark.parametrize("case", sorted(NO_OBJECT))
def test_behavior_json_that_is_no_object(case):
    with pytest.raises(ValidationError, match="^malformed behavior JSON: "):
        Behavior.from_json(NO_OBJECT[case])


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_count_takes_only_integers(value):
    with pytest.raises(ValidationError, match="must be an integer >= 0"):
        require_count("n", value)


def quarter_elements():
    return {(a, x): np.eye(2, dtype=complex) / 4 for a in (+1, -1) for x in (1, 2)}


# Each builder gets an array whose one entry at [1, 0] (a below-diagonal entry) or [0, 0] is
# value, and raises the message it raises for any other element that fails its check.
def assemblage_from_dict(value, entry):
    elements = quarter_elements()
    elements[(-1, 2)] = elements[(-1, 2)].copy()
    elements[(-1, 2)][entry] = value
    return Assemblage(elements)


def assemblage_from_stack(value, entry):
    stack = np.broadcast_to(np.eye(2, dtype=complex) / 4, (2, 2, 2, 2)).copy()
    stack[1, 1][entry] = value
    return Assemblage(stack)


def model_with_state(value, entry):
    states = MIXED.copy()
    states[1, 0][entry] = value
    return MdLhsModel(np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5), states)


NON_FINITE_ARRAYS = {
    "Assemblage(dict)": (assemblage_from_dict, "element (a=-1, x=2) is not PSD"),
    "Assemblage(stack)": (assemblage_from_stack, "element (a=-1, x=2) is not PSD"),
    "MdLhsModel": (model_with_state, "states[1][0] is not a valid density matrix"),
}


class TestNonFiniteArrays:
    """NaN and +/-inf entries are refused with the usual message, and no numpy warning."""

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (0, 1)])
    @pytest.mark.parametrize("value", [NAN, INF, -INF, complex(0.25, INF), complex(NAN, 0.0)])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_ARRAYS))
    def test_refused_without_warnings(self, case, value, entry):
        build, message = NON_FINITE_ARRAYS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                build(value, entry)

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_is_psd_fails_without_warnings(self, value):
        stack = np.broadcast_to(np.eye(2, dtype=complex) / 2, (3, 2, 2)).copy()
        stack[1, 1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_psd(stack).tolist() == [True, False, True]
            assert is_psd(stack[1]) is False


class TestHugeFiniteEntries:
    """Finite entries near the float maximum, whose sums overflow, are judged without a numpy
    warning: an overflowed sum reads as inf and fails its check."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_is_psd(self):
        assert is_psd(np.eye(2) * 1e308) is True
        assert is_psd(np.array([[1.0, 1e308], [-1e308, 1.0]])) is False  # b - conj(c) is inf

    @pytest.mark.parametrize("stack", [False, True])
    def test_assemblage(self, stack):
        elements = {(a, x): np.eye(2) * 1e308 for x in (1, 2) for a in (+1, -1)}
        built_from = np.array(list(elements.values())).reshape(2, 2, 2, 2) if stack else elements
        with pytest.raises(ValidationError, match=r"^traces for x=1 sum to inf, expected 1$"):
            Assemblage(built_from)

    def test_model(self):
        states = MIXED.copy()
        states[0, 0] = np.eye(2) * 1e308
        message = r"^states\[0\]\[0\] is not a valid density matrix$"
        with pytest.raises(ValidationError, match=message):
            MdLhsModel(np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5), states)

    def test_two_qubit_state(self):
        with pytest.raises(ValidationError, match=r"^density trace is inf, expected 1$"):
            TwoQubitState(np.eye(4) * 1e308)
        rho = np.eye(4) / 4
        rho[0, 1], rho[1, 0] = 1e308, -1e308
        with pytest.raises(ValidationError, match=r"^density matrix is not Hermitian$"):
            TwoQubitState(rho)


# An array of each non-numeric kind that numpy would otherwise cast to numbers, or try to.
NON_NUMERIC = {
    "str": lambda shape: np.full(shape, "0.25"),
    "bool": lambda shape: np.ones(shape, dtype=bool),
    "object": lambda shape: np.full(shape, 0.25, dtype=object),
}

ARRAY_TYPES = {
    "Behavior": lambda arr: Behavior(arr((2, 2, 2, 2))),
    "TwoQubitState": lambda arr: TwoQubitState(arr((4, 4))),
    "Assemblage(stack)": lambda arr: Assemblage(arr((2, 2, 2, 2))),
    "Assemblage(dict)": lambda arr: Assemblage({**quarter_elements(), (1, 1): arr((2, 2))}),
    "MdLhsModel p_lambda_given_x": lambda arr: MdLhsModel(
        arr((2, 2)), np.full((2, 2, 2), 0.5), MIXED),
    "MdLhsModel p_a_given_x_lambda": lambda arr: MdLhsModel(
        np.full((2, 2), 0.5), arr((2, 2, 2)), MIXED),
    "MdLhsModel states": lambda arr: MdLhsModel(
        np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5), arr((2, 2, 2, 2))),
    "is_psd": lambda arr: is_psd(arr((2, 2))),
}


@pytest.mark.parametrize("kind", sorted(NON_NUMERIC))
@pytest.mark.parametrize("target", sorted(ARRAY_TYPES))
def test_non_numeric_array_refused(target, kind):
    arr = NON_NUMERIC[kind]
    dtype = arr(()).dtype
    message = f"^expected an array of numbers, got dtype {re.escape(str(dtype))}$"
    with pytest.raises(ValidationError, match=message):
        ARRAY_TYPES[target](arr)
