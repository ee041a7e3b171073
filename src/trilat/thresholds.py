"""Closed-form scalar thresholds that partition the (d1, d3) parameter plane.

All formulas assume the symmetric instance: base sensors r apart with equal
ranges d1 = d2, apex sensor at height s with range d3.  Each threshold marks
a switch in which candidate points attain the global minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .errors import NoBracket, PreconditionViolation
from .geometry import SQRT3_2, SensorConfig, distance

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check_symmetric(config: SensorConfig, tol: float = 1e-9) -> Tuple[float, float, float, float]:
    """Validate the equal-leg, equal-range layout; return (r, s, d1, d3)."""
    z1, z2, z3 = config.Z
    r = distance(z1, z2)
    leg1 = distance(z1, z3)
    leg2 = distance(z2, z3)
    scale = r + leg1 + leg2 + max(config.d)
    if abs(leg1 - leg2) > tol * scale:
        raise PreconditionViolation("apex is not equidistant from the base sensors")
    if abs(config.d[0] - config.d[1]) > tol * scale:
        raise PreconditionViolation("base ranges differ")
    s_sq = leg1 * leg1 - r * r / 4.0
    s = math.sqrt(max(s_sq, 0.0))
    d1 = (config.d[0] + config.d[1]) / 2.0
    return r, s, d1, config.d[2]


def d3_zero(config: SensorConfig) -> float:
    """Apex range at which the two base-pair intersection objectives tie."""
    r, s, d1, _ = _check_symmetric(config)
    if 2.0 * d1 < r:
        raise PreconditionViolation("base circles do not intersect")
    return math.sqrt(d1 * d1 + s * s - r * r / 4.0)


def d1_zero(config: SensorConfig) -> float:
    """Base range at which a leg-pair's two intersection objectives tie."""
    r, s, d1, d3 = _check_symmetric(config)
    leg_sq = s * s + r * r / 4.0
    if leg_sq <= 0.0:
        raise PreconditionViolation("degenerate apex")
    return math.sqrt(d1 * d1 + (leg_sq + d3 * d3 - d1 * d1) * r * r / (2.0 * leg_sq))


def threshold_R(r: float, s: float, d1: float) -> float:
    """Apex range below which the base-pair "+" point beats the leg-pair ones."""
    if d1 * d1 < r * r / 4.0:
        raise PreconditionViolation("d1 below r/2: no base-pair chord")
    h = math.sqrt(max(d1 * d1 - r * r / 4.0, 0.0))
    den = 4.0 * s * s + 9.0 * r * r
    val = (h * h
           + s * s * (4.0 * s * s + r * r) / den
           - 2.0 * s * h * (4.0 * s * s - 3.0 * r * r) / den)
    return math.sqrt(max(val, 0.0))


def threshold_M(r: float, s: float, d1: float) -> float:
    """Apex range above which the base-pair "-" point takes over."""
    b = math.sqrt(r * r / 4.0 + s * s)
    if d1 < b - 1e-12 * (1.0 + b):
        raise PreconditionViolation("d1 below the base-apex distance")
    h = math.sqrt(max(d1 * d1 - r * r / 4.0, 0.0))
    den = 4.0 * s * s + r * r
    val = (h * h
           + 2.0 * s * h * (4.0 * s * s - 3.0 * r * r) / den
           + s * s * (4.0 * s * s + 9.0 * r * r) / den)
    return math.sqrt(max(val, 0.0))


def threshold_P(r: float, s: float) -> Optional[float]:
    """Critical base range for the tall-apex regime; absent otherwise.

    P^2 = r^2/4 + s^2 ((4s^2 + 5r^2) / (4s^2 - 3r^2))^2.  The printed form in
    (base length, leg length) is algebraically equal but loses digits to
    cancellation near the equilateral height, so only this one is evaluated;
    the test suite checks that the two agree away from that height.
    """
    if s <= SQRT3_2 * r:
        return None
    den = 4.0 * s * s - 3.0 * r * r
    return math.sqrt(r * r / 4.0
                     + s * s * ((4.0 * s * s + 5.0 * r * r) / den) ** 2)


def threshold_P_flat(r: float, s: float) -> Optional[float]:
    """Flat-apex analogue of P; +inf exactly at the equilateral height."""
    den = 3.0 * r * r - 4.0 * s * s
    if den < 0.0:
        return None
    if den == 0.0:
        return math.inf
    return math.sqrt(r * r / 4.0 + (s * 4.0 * r * r / den) ** 2)


def threshold_Q(r: float, s: float) -> Optional[float]:
    """Chord-excess value equivalent to d1 = P (tall apex only)."""
    den = 4.0 * s * s - 3.0 * r * r
    if den <= 0.0:
        return None
    return 8.0 * r * r * s / den


def g_aux(r: float, s: float, u: float, t: float) -> float:
    """Concave auxiliary comparing the far-leg and base "+" objectives.

    Parametrized by t in [0, 1] through d3^2 = u^2 + 2*t*s*u with
    u = sqrt(d1^2 - r^2/4) - s; g(0) = 0 and g'' < 0 on [0, 1].
    """
    leg_sq = s * s + r * r / 4.0
    lin = -u * ((s * s - r * r / 4.0) * t + r * r / 2.0)
    rad = (-s * s * u * u * t * t
           + 2.0 * s * u * (s * s + r * r / 4.0 + s * u) * t
           + r * r * u * u / 4.0)
    return (2.0 * s / leg_sq) * (lin + r * math.sqrt(max(rad, 0.0)))


@dataclass(frozen=True)
class D3StarResult:
    value: float
    t_star: float


def d3_star_root(r: float, s: float, d1: float, tol: float = 1e-12) -> D3StarResult:
    """Unique root of the auxiliary sign change, by bisection in t.

    Exists only in the tall-apex regime with d1 beyond P; at d1 = P the
    bracket degenerates (g(1) = 0) and NoBracket is raised.
    """
    p = threshold_P(r, s)
    if p is None:
        raise PreconditionViolation("apex at or below the equilateral height")
    if d1 < p - 1e-12 * (1.0 + p):
        raise PreconditionViolation("d1 below P")
    h = math.sqrt(max(d1 * d1 - r * r / 4.0, 0.0))
    u = h - s
    if u <= 0.0:
        raise PreconditionViolation("base circles too small for the tall regime")

    def g(t: float) -> float:
        return g_aux(r, s, u, t)

    if g(1.0) >= 0.0:
        raise NoBracket("auxiliary does not change sign on (0, 1]")
    # Concave with g(0) = 0: golden-section the maximum to seed the bracket.
    a, b = 0.0, 1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    t_pos = (a + b) / 2.0
    if g(t_pos) <= 0.0:
        raise NoBracket("auxiliary never positive; d1 is at P within noise")
    lo, hi = t_pos, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_star = (lo + hi) / 2.0
    return D3StarResult(math.sqrt(u * u + 2.0 * t_star * s * u), t_star)


def d3_star(r: float, s: float, d1: float, tol: float = 1e-12) -> float:
    return d3_star_root(r, s, d1, tol).value


@dataclass(frozen=True)
class ThresholdBundle:
    """All thresholds for one symmetric instance; None marks an invalid field."""

    d3_0: Optional[float]
    d1_0: Optional[float]
    R: Optional[float]
    M: Optional[float]
    P: Optional[float]
    Q: Optional[float]
    d3_star: Optional[float]
    t_star: Optional[float]

    def validity(self) -> Dict[str, bool]:
        return {
            "d3_0": self.d3_0 is not None,
            "d1_0": self.d1_0 is not None,
            "R": self.R is not None,
            "M": self.M is not None,
            "P": self.P is not None,
            "Q": self.Q is not None,
            "d3_star": self.d3_star is not None,
        }


def compute_bundle(r: float, s: float, d1: float,
                   d3: Optional[float] = None) -> ThresholdBundle:
    """Evaluate every threshold whose precondition holds; None elsewhere."""
    leg_sq = s * s + r * r / 4.0
    d3_0 = math.sqrt(d1 * d1 + s * s - r * r / 4.0) if 2.0 * d1 >= r else None
    d1_0 = None
    if d3 is not None and leg_sq > 0.0:
        radicand = (d1 * d1
                    + (leg_sq + d3 * d3 - d1 * d1) * r * r / (2.0 * leg_sq))
        # A negative radicand means d1 already exceeds the crossover for
        # every real d3, so the threshold is not attained.
        d1_0 = math.sqrt(radicand) if radicand >= 0.0 else None
    a = math.sqrt(r * r / 4.0 + s * s / 9.0)
    b = math.sqrt(leg_sq)
    big_r = threshold_R(r, s, d1) if d1 >= a else None
    big_m = threshold_M(r, s, d1) if d1 >= b else None
    p = threshold_P(r, s)
    q = threshold_Q(r, s)
    star: Optional[D3StarResult] = None
    if p is not None and d1 > p + 1e-12 * (1.0 + p):
        try:
            star = d3_star_root(r, s, d1)
        except (NoBracket, PreconditionViolation):
            star = None
    return ThresholdBundle(
        d3_0=d3_0,
        d1_0=d1_0,
        R=big_r,
        M=big_m,
        P=p,
        Q=q,
        d3_star=star.value if star is not None else None,
        t_star=star.t_star if star is not None else None,
    )
