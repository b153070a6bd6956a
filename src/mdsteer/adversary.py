"""Adversarial setting-bias model with a two-valued hidden variable.

The hidden variable takes values lambda1 (probability sin^2 delta) and
lambda2 (probability cos^2 delta); the probability of picking setting 1 is
cos^2 theta under lambda1 and cos^2 phi under lambda2. Suitable parameter
choices make the observed marginal p(x) = 0.5 while the conditionals remain
strongly biased, so the parties cannot detect the bias from marginals alone.

constraint_report gives the marginal, the table p(x|lambda) and max_l, the
largest l with l <= p(x|lambda) <= 1 - l: the model obeys a bias bound l
exactly when max_l >= l. Everything is computed on Python floats.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Tuple

from .kernel import TOL, require_finite


class _BiasModel(NamedTuple):
    theta: float
    phi: float
    delta: float


class BiasModel(_BiasModel):
    __slots__ = ()

    def __new__(cls, theta: float, phi: float, delta: float) -> "BiasModel":
        self = super().__new__(cls, theta, phi, delta)
        require_finite("bias model angles", self.theta, self.phi, self.delta)
        return self


class ConstraintReport(NamedTuple):
    p_x1: float
    p_lambda: Tuple[float, float]  # (p(lambda1), p(lambda2))
    p_x_given_lambda: Tuple[Tuple[float, float], Tuple[float, float]]  # [lambda][x]
    max_l: float
    measurement_independent: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "pX1": self.p_x1,
                "pLambda": self.p_lambda,
                "pXGivenLambda": self.p_x_given_lambda,
                "maxL": self.max_l,
                "independent": self.measurement_independent,
            },
            allow_nan=False,
        )


def constraint_report(model: BiasModel) -> ConstraintReport:
    """Observed marginal, measurement-independence verdict and the tightest bias bound obeyed.

    p_x1 = sum_lambda p(x1|lambda) p(lambda). max_l is the largest l with
    l <= p(x|lambda) <= 1 - l for all entries; rows sum to 1, so this is simply
    the smallest entry of the table.
    """
    s, c = math.sin(model.delta) ** 2, math.cos(model.delta) ** 2
    c1, c2 = math.cos(model.theta) ** 2, math.cos(model.phi) ** 2
    (p11, p12), (p21, p22) = rows = ((c1, 1.0 - c1), (c2, 1.0 - c2))
    return ConstraintReport(
        p_x1=s * c1 + c * c2,
        p_lambda=(s, c),
        p_x_given_lambda=rows,
        max_l=min(p11, p12, p21, p22),
        measurement_independent=max(abs(p11 - p21), abs(p12 - p22)) <= TOL.check,
    )
