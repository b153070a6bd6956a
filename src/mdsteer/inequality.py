"""The measurement-dependent steering inequality and its closed forms.

The central quantity is the operator value sqrt(alpha1) + sqrt(alpha2) built
from reweighted correlators, bounded by 4 p (1 - p) for any hidden-variable
model whose setting bias is limited by the measurement-dependence parameter
p in [0, 0.5] (p = 0.5 means fully free choice).
"""

from __future__ import annotations

import math

from .behaviors import CorrelatorVector
from .kernel import BIAS, GAMMA, OPEN_RIGHT_ANGLE, TILT, UNIT, require_interval

# Figure curves over p: optimize.curve computes them and the CLI offers them.
CURVE_KINDS = ("local", "prbox", "quantum", "tilted", "randomness")


def operator_value(e11, e12, e21, e22, p: float, beta: float = math.pi / 4):
    """md_operator for Bob's measurement-overlap angle beta, elementwise, unvalidated.

    Each alpha = A^2 + B^2 gains a -2 A B cos(2 beta) cross-term that vanishes
    at beta = pi/4; it is summed as (A - B cos 2beta)^2 + (B sin 2beta)^2 so
    that rounding never makes it negative. Takes floats or numpy arrays.
    """
    c2b, s2b = math.cos(2.0 * beta), math.sin(2.0 * beta)
    q = 1.0 - p
    x1y1, x1y2, x2y1, x2y2 = p * e11, p * e12, q * e21, q * e22
    a1, b1 = x1y1 + x2y1, x1y2 + x2y2
    a2, b2 = x1y1 - x2y1, x1y2 - x2y2
    alpha1 = (a1 - c2b * b1) ** 2 + (s2b * b1) ** 2
    alpha2 = (a2 - c2b * b2) ** 2 + (s2b * b2) ** 2
    return alpha1**0.5 + alpha2**0.5


def md_operator(c: CorrelatorVector, p: float, beta: float = math.pi / 4) -> float:
    """sqrt(alpha1) + sqrt(alpha2) for the given correlators and overlap angle beta in (0, pi/2).

    At beta = pi/4, where the bound 4 p (1 - p) of local_bound holds,
    alpha1 = (p<x1y1> + (1-p)<x2y1>)^2 + (p<x1y2> + (1-p)<x2y2>)^2
    alpha2 = (p<x1y1> - (1-p)<x2y1>)^2 + (p<x1y2> - (1-p)<x2y2>)^2
    Any other beta adds the -2 A B cos(2 beta) cross-term of operator_value to each alpha.
    """
    require_interval("p", p, BIAS)
    require_interval("beta", beta, OPEN_RIGHT_ANGLE)
    return operator_value(c.e11, c.e12, c.e21, c.e22, p, beta)


def local_bound(p: float) -> float:
    """Hidden-variable bound 4 p (1 - p); equals 1 at p = 0.5, 0 at p = 0."""
    require_interval("p", p, BIAS)
    return 4.0 * p * (1.0 - p)


def violation(c: CorrelatorVector, p: float) -> float:
    """Signed excess of the operator over the local bound.

    Positive values certify that no measurement-dependent hidden-variable
    model with parameter p reproduces the correlators.
    """
    return md_operator(c, p) - local_bound(p)


def pr_closed_form(p: float) -> float:
    """Operator value for PR box correlators: 2 sqrt(2 - 4 p (1 - p))."""
    require_interval("p", p, BIAS)
    return 2.0 * math.sqrt(2.0 - 4.0 * p * (1.0 - p))


def tilted_closed_form(delta: float, p: float) -> float:
    """Operator value for the tilted quantum-extremal behavior at angle delta."""
    require_interval("delta", delta, TILT)
    require_interval("p", p, BIAS)
    c2 = math.cos(delta) ** 2
    s = math.sin(delta)
    term1 = math.sqrt(c2 * ((2.0 * (p - 1.0) * s + p) ** 2 + (p - 1.0) ** 2))
    term2 = math.sqrt(c2 * ((p - 2.0 * (p - 1.0) * s) ** 2 + (p - 1.0) ** 2))
    return term1 + term2


def binary_entropy(q: float) -> float:
    """H_b(q) in bits; 0 at the endpoints."""
    require_interval("binary entropy argument", q, UNIT)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def randomness_rate(gamma: float) -> float:
    """Certified random bits per round for the randomness-tuned behavior.

    r = 1 + H_b[1/2 + s/2 - (3/sqrt(2)) cos((1/3) arccos(-s / (2 sqrt(2))))]
    with s = sin(3 gamma) + 3 cos(gamma + pi/6).
    """
    require_interval("gamma", gamma, GAMMA)
    s = math.sin(3.0 * gamma) + 3.0 * math.cos(gamma + math.pi / 6.0)
    # s rises monotonically to 2 sqrt(2) at gamma = pi/12, so u < -1 only by rounding.
    u = max(-s / (2.0 * math.sqrt(2.0)), -1.0)
    q = 0.5 + s / 2.0 - (3.0 / math.sqrt(2.0)) * math.cos(math.acos(u) / 3.0)
    return 1.0 + binary_entropy(q)
