"""The records of the standard-library modules: how they are built, printed, compared and checked.

Each record is immutable and compares and hashes by its fields; the three that
validate their fields reject bad ones with the messages pinned here.
"""

import math

import pytest

from mdsteer.adversary import BiasModel, ConstraintReport
from mdsteer.inequality import CorrelatorVector, CurvePoint
from mdsteer.kernel import Direction, Tolerances, ValidationError
from mdsteer.oracle import ExtremalStrategy, SweepReport
from mdsteer.table import NoSignallingReport

NAN = float("nan")

# Each case: a build by position, the same record built by keyword (defaults left out
# where the record has them), its repr, and the (environment, call, message) of each
# input it refuses.
RECORDS = [
    pytest.param(
        lambda: Tolerances(1e-12, 1e-10, 1e-9),
        lambda: Tolerances(),
        "Tolerances(eq=1e-12, psd=1e-10, check=1e-09)",
        [({"MDSTEER_TOL": "tight"}, Tolerances.from_env,
          "MDSTEER_TOL must be a number, got 'tight'"),
         ({"MDSTEER_TOL": "-1"}, Tolerances.from_env, "MDSTEER_TOL must be in (0, inf), got -1.0"),
         ({"MDSTEER_TOL": "nan"}, Tolerances.from_env, "MDSTEER_TOL must be in (0, inf), got nan")],
        id="Tolerances",
    ),
    pytest.param(
        lambda: Direction(0.6, 0.0, 0.8),
        lambda: Direction(nx=0.6, ny=0.0, nz=0.8),
        "Direction(nx=0.6, ny=0.0, nz=0.8)",
        [({}, lambda: Direction(1.0, 1.0, 0.0), "direction (1.0, 1.0, 0.0) is not a unit vector"),
         ({}, lambda: Direction(NAN, 0.0, 1.0), "direction must be finite, got nan"),
         ({}, lambda: Direction(nx=0.0, ny=0.0, nz=math.inf), "direction must be finite, got inf")],
        id="Direction",
    ),
    pytest.param(
        lambda: CorrelatorVector(1.0, -0.5, 0.25, 2.0),
        lambda: CorrelatorVector(e11=1.0, e12=-0.5, e21=0.25, e22=2.0),
        "CorrelatorVector(e11=1.0, e12=-0.5, e21=0.25, e22=2.0)",
        [],
        id="CorrelatorVector",
    ),
    pytest.param(
        lambda: CurvePoint(0.25, 0.75, None, None, None),
        lambda: CurvePoint(p=0.25, value=0.75),
        "CurvePoint(p=0.25, value=0.75, delta=None, rate=None, argmax=None)",
        [],
        id="CurvePoint",
    ),
    pytest.param(
        lambda: NoSignallingReport(0.0, True),
        lambda: NoSignallingReport(max_deviation=0.0, passed=True),
        "NoSignallingReport(max_deviation=0.0, passed=True)",
        [],
        id="NoSignallingReport",
    ),
    pytest.param(
        lambda: ExtremalStrategy(1, 0.3),
        lambda: ExtremalStrategy(chi=1, xi=0.3, p=0.5, beta=math.pi / 4),
        "ExtremalStrategy(chi=1, xi=0.3, p=0.5, beta=0.7853981633974483)",
        [({}, lambda: ExtremalStrategy(5, 0.3), "chi must be in {1,2,3,4}, got 5"),
         ({}, lambda: ExtremalStrategy(0, 0.3), "chi must be an integer >= 1, got 0"),
         ({}, lambda: ExtremalStrategy(1, NAN), "xi must be finite, got nan"),
         ({}, lambda: ExtremalStrategy(1, 0.3, p=2), "p must be in [0, 1], got 2"),
         ({}, lambda: ExtremalStrategy(1, 0.3, 0.5, math.pi / 2),
          "beta must be in (0, pi/2), got 1.5707963267948966")],
        id="ExtremalStrategy",
    ),
    pytest.param(
        lambda: SweepReport(0.3, 1000, 0.84, 0.84, True, 1),
        lambda: SweepReport(p=0.3, samples=1000, max_operator=0.84, bound=0.84, passed=True,
                            seed=1),
        "SweepReport(p=0.3, samples=1000, max_operator=0.84, bound=0.84, passed=True, seed=1)",
        [],
        id="SweepReport",
    ),
    pytest.param(
        lambda: BiasModel(0.3, 2.051, 2.447),
        lambda: BiasModel(theta=0.3, phi=2.051, delta=2.447),
        "BiasModel(theta=0.3, phi=2.051, delta=2.447)",
        [({}, lambda: BiasModel(0.3, NAN, 2.447), "bias model angles must be finite, got nan"),
         ({}, lambda: BiasModel(theta=-math.inf, phi=0.0, delta=0.0),
          "bias model angles must be finite, got -inf")],
        id="BiasModel",
    ),
    pytest.param(
        lambda: ConstraintReport(0.5, (0.25, 0.75), ((0.5, 0.5), (0.5, 0.5)), 0.5, True),
        lambda: ConstraintReport(p_x1=0.5, p_lambda=(0.25, 0.75),
                                 p_x_given_lambda=((0.5, 0.5), (0.5, 0.5)), max_l=0.5,
                                 measurement_independent=True),
        "ConstraintReport(p_x1=0.5, p_lambda=(0.25, 0.75), "
        "p_x_given_lambda=((0.5, 0.5), (0.5, 0.5)), max_l=0.5, measurement_independent=True)",
        [],
        id="ConstraintReport",
    ),
]


@pytest.mark.parametrize("by_position, by_keyword, text, refused", RECORDS)
def test_record_contract(by_position, by_keyword, text, refused, monkeypatch):
    record = by_position()
    assert repr(record) == text
    again = by_keyword()
    assert again == record and hash(again) == hash(record)
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):  # no field can be set
        setattr(record, field, getattr(record, field))
    assert repr(record) == text
    for env, call, message in refused:
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            with pytest.raises(ValidationError) as excinfo:
                call()
        assert str(excinfo.value) == message
