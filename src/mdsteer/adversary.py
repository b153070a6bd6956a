"""Adversarial setting-bias model with a two-valued hidden variable.

The hidden variable takes values lambda1 (probability sin^2 delta) and
lambda2 (probability cos^2 delta); the probability of picking setting 1 is
cos^2 theta under lambda1 and cos^2 phi under lambda2. Suitable parameter
choices make the observed marginal p(x) = 0.5 while the conditionals remain
strongly biased, so the parties cannot detect the bias from marginals alone.

constraint_report gives the marginal, the table p(x|lambda) and max_l, the
largest l with l <= p(x|lambda) <= 1 - l: the model obeys a bias bound l
exactly when max_l >= l.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .kernel import TOL, require_finite


@dataclass(frozen=True)
class BiasModel:
    theta: float
    phi: float
    delta: float

    def __post_init__(self) -> None:
        require_finite("bias model angles", self.theta, self.phi, self.delta)


@dataclass(frozen=True)
class ConstraintReport:
    p_x1: float
    p_lambda: np.ndarray  # (p(lambda1), p(lambda2))
    p_x_given_lambda: np.ndarray  # [lambda][x]
    max_l: float
    measurement_independent: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "pX1": self.p_x1,
                "pLambda": self.p_lambda.tolist(),
                "pXGivenLambda": self.p_x_given_lambda.tolist(),
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
    p_lambda = np.array([math.sin(model.delta) ** 2, math.cos(model.delta) ** 2])
    c1, c2 = math.cos(model.theta) ** 2, math.cos(model.phi) ** 2
    rows = [[c1, 1.0 - c1], [c2, 1.0 - c2]]
    (p11, p12), (p21, p22) = rows
    return ConstraintReport(
        # numpy's dot, not c1 * s + c2 * c: the two round differently.
        p_x1=float(p_lambda @ np.array([c1, c2])),
        p_lambda=p_lambda,
        p_x_given_lambda=np.array(rows),
        max_l=min(p11, p12, p21, p22),
        measurement_independent=max(abs(p11 - p21), abs(p12 - p22)) <= TOL.check,
    )
