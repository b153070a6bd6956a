import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsteer.adversary import BiasModel, ConstraintReport, constraint_report
from mdsteer.kernel import ValidationError

EXAMPLE_A = BiasModel(theta=0.3, phi=2.051, delta=2.447)
EXAMPLE_B = BiasModel(theta=0.7, phi=2.179, delta=0.96)


class TestMarginalSettingProb:
    @pytest.mark.parametrize("model", [EXAMPLE_A, EXAMPLE_B])
    def test_masquerades_as_fair_coin(self, model):
        assert constraint_report(model).p_x1 == pytest.approx(0.5, abs=0.01)

    def test_identical_conditionals_collapse(self):
        for delta in (0.1, 0.9, 2.2):
            m = BiasModel(theta=0.6, phi=0.6, delta=delta)
            assert constraint_report(m).p_x1 == pytest.approx(math.cos(0.6) ** 2, abs=1e-12)

    def test_rows_normalized_exactly(self):
        report = constraint_report(EXAMPLE_A)
        assert [sum(row) for row in report.p_x_given_lambda] == pytest.approx([1.0, 1.0], abs=1e-15)
        assert 0.0 <= report.p_x1 <= 1.0


class TestMdBoundCheck:
    """The bias-bound verdict: a model obeys l <= p(x|lambda) <= 1 - l exactly when max_l >= l."""

    def test_example_a_threshold(self):
        assert 0.087 <= constraint_report(EXAMPLE_A).max_l < 0.09

    @given(
        angles=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        l=st.floats(0.0, 0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_max_l_is_the_table_verdict(self, angles, l):
        report = constraint_report(BiasModel(*angles))
        entries = [v for row in report.p_x_given_lambda for v in row]
        # The drawn l, and max_l itself with the next float above it: the verdict's edge.
        for bound in (l, report.max_l, math.nextafter(report.max_l, 1.0)):
            inside = all(bound <= v <= 1.0 - bound for v in entries)
            assert (report.max_l >= bound) == inside


class TestBiasModel:
    @pytest.mark.parametrize("field", ["theta", "phi", "delta"])
    def test_non_finite_rejected(self, field):
        angles = {"theta": 0.3, "phi": 2.051, "delta": 2.447, field: math.nan}
        with pytest.raises(ValidationError, match="finite"):
            BiasModel(**angles)


class TestConstraintReport:
    def test_independent_model(self):
        report = constraint_report(BiasModel(math.pi / 4, math.pi / 4, 1.0))
        assert report.measurement_independent
        assert report.max_l == pytest.approx(0.5, abs=1e-12)

    def test_example_a_dependent(self):
        report = constraint_report(EXAMPLE_A)
        assert not report.measurement_independent
        expected_max_l = min(
            math.cos(0.3) ** 2, math.sin(0.3) ** 2, math.cos(2.051) ** 2, math.sin(2.051) ** 2
        )
        assert report.max_l == pytest.approx(expected_max_l, abs=1e-12)

    def test_deterministic_settings(self):
        report = constraint_report(BiasModel(0.0, math.pi / 2, 1.0))
        assert report.max_l == pytest.approx(0.0, abs=1e-15)

    def test_free_will_illusion(self):
        # marginal looks unbiased while the conditionals are not
        report = constraint_report(EXAMPLE_A)
        assert report.p_x1 == pytest.approx(0.5, abs=0.01)
        assert not report.measurement_independent

    def test_json_keys(self):
        import json

        data = json.loads(constraint_report(EXAMPLE_A).to_json())
        assert set(data) == {"pX1", "pLambda", "pXGivenLambda", "maxL", "independent"}

    def test_json_rejects_nan(self):
        report = ConstraintReport(
            p_x1=0.5,
            p_lambda=(0.5, math.nan),
            p_x_given_lambda=((0.5, 0.5), (0.5, 0.5)),
            max_l=0.5,
            measurement_independent=True,
        )
        with pytest.raises(ValueError):
            report.to_json()
