"""Adversarial setting-bias model with a two-valued hidden variable.

The hidden variable takes values lambda1 (probability sin^2 delta) and
lambda2 (probability cos^2 delta); the probability of picking setting 1 is
cos^2 theta under lambda1 and cos^2 phi under lambda2. Suitable parameter
choices make the observed marginal p(x) = 0.5 while the conditionals remain
strongly biased, so the parties cannot detect the bias from marginals alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .kernel import ValidationError, require_finite


@dataclass(frozen=True)
class BiasModel:
    theta: float
    phi: float
    delta: float

    def __post_init__(self) -> None:
        require_finite("bias model angles", self.theta, self.phi, self.delta)


@dataclass(frozen=True)
class SettingReport:
    p_x1: float
    p_lambda: np.ndarray  # (p(lambda1), p(lambda2))
    p_x_given_lambda: np.ndarray  # [lambda][x]


def marginal_setting_prob(m: BiasModel) -> SettingReport:
    """Observed marginal p(x1) = sum_lambda p(x1|lambda) p(lambda)."""
    p_lambda = np.array([math.sin(m.delta) ** 2, math.cos(m.delta) ** 2])
    p1_given = np.array([math.cos(m.theta) ** 2, math.cos(m.phi) ** 2])
    p_x_given_lambda = np.stack([p1_given, 1.0 - p1_given], axis=1)
    p_x1 = float(p_lambda @ p1_given)
    return SettingReport(p_x1=p_x1, p_lambda=p_lambda, p_x_given_lambda=p_x_given_lambda)


def md_bound_check(p_x_given_lambda: np.ndarray, l: float) -> bool:
    """True iff every conditional setting probability lies in [l, 1 - l]."""
    if not 0.0 <= l <= 0.5:
        raise ValidationError(f"l must be in [0, 0.5], got {l}")
    p = np.asarray(p_x_given_lambda, dtype=float)
    if p.shape != (2, 2) or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-10:
        raise ValidationError("p(x|lambda) rows must be 2x2 and sum to 1")
    return bool(np.all(p >= l) and np.all(p <= 1.0 - l))


@dataclass(frozen=True)
class ConstraintReport:
    p_x1: float
    p_lambda: np.ndarray
    p_x_given_lambda: np.ndarray
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


def constraint_report(model: BiasModel, tol: float = 1e-9) -> ConstraintReport:
    """Measurement-independence verdict and the tightest bias bound the model obeys.

    max_l is the largest l with l <= p(x|lambda) <= 1 - l for all entries;
    rows sum to 1, so this is simply the smallest entry of the table.
    """
    setting = marginal_setting_prob(model)
    p = setting.p_x_given_lambda
    independent = bool(np.max(np.abs(p[0] - p[1])) <= tol)
    return ConstraintReport(
        p_x1=setting.p_x1,
        p_lambda=setting.p_lambda,
        p_x_given_lambda=p,
        max_l=float(np.min(p)),
        measurement_independent=independent,
    )
