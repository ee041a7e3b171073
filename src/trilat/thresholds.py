"""Closed-form scalar thresholds that partition the (d1, d3) parameter plane.

All formulas assume the symmetric instance: base sensors r apart with equal
ranges d1 = d2, apex sensor at height s with range d3.  Each threshold marks
a switch in which candidate points attain the global minimum.

The auxiliary root d3* has a closed form too.  With u = sqrt(d1^2 - r^2/4) - s
and d3^2 = u^2 + 2*t*s*u, the auxiliary g(t) is a positive multiple of
lin(t) + r*sqrt(rad(t)), where

    lin(t) = -u*(c*t + r^2/2),  c = s^2 - r^2/4,
    rad(t) = -s^2*u^2*t^2 + 2*s*u*(s^2 + r^2/4 + s*u)*t + r^2*u^2/4.

A root with lin(t) <= 0 satisfies r^2*rad(t) = lin(t)^2.  Both sides equal
r^4*u^2/4 at t = 0, so their difference is t*(A*t + B) = 0 with
A = -u^2*(r^2*s^2 + c^2) and B = r^2*u*(2*s*(s^2 + r^2/4 + s*u) - u*c):

    t* = r^2*(2*s*(s^2 + r^2/4 + s*u) - u*c) / (u*(r^2*s^2 + c^2)).

It is evaluated in units of r, where it is dimensionless; t* = 1 at d1 = P.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import NoBracket, PreconditionViolation
from .geometry import SQRT3_2


def _require_usable_scale(scale: float, name: str = "length scale") -> None:
    """Reject length scales L whose square is not a finite normal float.

    Objective values are measured in units of L^2; outside that range they
    overflow to inf or underflow to 0 and no tie can be told apart.
    """
    square = scale * scale
    if not sys.float_info.min <= square < math.inf:
        raise PreconditionViolation(
            f"{name} {scale!r} is too large or too small: "
            f"its square {square!r} is not a finite normal float")


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
    if d1 < b - 1e-12 * b:
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
    the test suite checks that the two agree away from that height.  Just
    above it, 4s^2 - 3r^2 may round to 0 or below; P is absent there too.
    """
    den = 4.0 * s * s - 3.0 * r * r
    if s <= SQRT3_2 * r or den <= 0.0:
        return None
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


def d3_star_root(r: float, s: float, d1: float) -> Tuple[float, float]:
    """The apex range d3* and the root t* of the auxiliary on (0, 1] that
    gives it.

    Exists only in the tall-apex regime with d1 beyond P; at d1 = P the root
    reaches t = 1 where g(1) = 0, and NoBracket is raised.  The closed form is
    derived in the module docstring.
    """
    p = threshold_P(r, s)
    if p is None:
        raise PreconditionViolation("apex at or below the equilateral height")
    if d1 < p - 1e-12 * p:
        raise PreconditionViolation("d1 below P")
    h = math.sqrt(max(d1 * d1 - r * r / 4.0, 0.0))
    u = h - s
    if u <= 0.0:
        raise PreconditionViolation("base circles too small for the tall regime")
    # g has degree 2 in length, so its sign is taken in units of r, where its
    # degree-4 terms neither overflow nor turn subnormal.
    rho, ups = s / r, u / r
    if g_aux(1.0, rho, ups, 1.0) >= 0.0:
        raise NoBracket("auxiliary does not change sign on (0, 1]")
    c = rho * rho - 0.25
    t_star = ((2.0 * rho * (rho * rho + 0.25 + rho * ups) - ups * c)
              / (ups * (rho * rho + c * c)))
    lin = -ups * (c * t_star + 0.5)
    if not (0.0 < t_star <= 1.0 and lin <= 0.0):
        raise NoBracket("auxiliary root outside (0, 1]; d1 is at P within noise")
    return r * math.sqrt(ups * (ups + 2.0 * t_star * rho)), t_star


def d3_star(r: float, s: float, d1: float) -> float:
    return d3_star_root(r, s, d1)[0]


@dataclass(frozen=True)
class RowThresholds:
    """The thresholds that depend on d1 but not on d3.

    A field is None where its formula does not apply; each caller applies
    its own gate on d1.  ``h`` is the half chord of the base circles.
    """

    h: float
    P: Optional[float]
    P_flat: Optional[float]
    R: Optional[float]
    M: Optional[float]
    d3m: Optional[float]
    d3_star: Optional[float]
    t_star: Optional[float]


def _unit(total: float) -> float:
    """The power of two at or below ``total``, a sum of lengths.  The
    thresholds are homogeneous lengths built from degree-4 terms: in this
    unit the terms stay in range at every usable scale, and the scaling is
    exact."""
    return math.ldexp(1.0, math.frexp(total)[1] - 1)


# One entry: a solve reads its key twice (tables, then near-threshold
# report), and a sweep visits the cells of one d1 row in a row.
@functools.lru_cache(maxsize=1)
def row_thresholds(r: float, s: float, d1: float) -> RowThresholds:
    """P, R, M, the four-equal radius d3m, d3* and its t* for one (r, s, d1).

    They are evaluated in units of ``_unit(r + s + d1)``.  The formulas divide
    by sums of r^2 and s^2, so the base length in those units must have a
    normal square: below that the denominators underflow to 0.
    """
    unit = _unit(r + s + d1)
    r, s, d1 = r / unit, s / unit, d1 / unit
    _require_usable_scale(r, "base length relative to r + s + d1")
    p = threshold_P(r, s)
    star: Optional[float] = None
    t_star: Optional[float] = None
    if p is not None and d1 > p:
        try:
            star, t_star = d3_star_root(r, s, d1)
        except (NoBracket, PreconditionViolation):
            pass
    try:
        big_m: Optional[float] = threshold_M(r, s, d1)
    except PreconditionViolation:
        big_m = None
    p_flat = threshold_P_flat(r, s)
    chord_sq = d1 * d1 - r * r / 4.0
    d3m_sq = chord_sq - s * s
    return RowThresholds(
        h=math.sqrt(max(chord_sq, 0.0)) * unit,
        P=p * unit if p is not None else None,
        P_flat=p_flat * unit if p_flat is not None else None,
        R=threshold_R(r, s, d1) * unit if d1 * d1 >= r * r / 4.0 else None,
        M=big_m * unit if big_m is not None else None,
        d3m=math.sqrt(d3m_sq) * unit if d3m_sq >= 0.0 else None,
        d3_star=star * unit if star is not None else None,
        t_star=t_star,
    )


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


def compute_bundle(r: float, s: float, d1: float,
                   d3: Optional[float] = None) -> ThresholdBundle:
    """Evaluate every threshold whose precondition holds; None elsewhere.

    Its own are evaluated in units of ``_unit``, d3 among the lengths.
    """
    row = row_thresholds(r, s, d1)
    p = row.P
    past_p = p is not None and d1 > p + 1e-12 * p
    unit = _unit(r + s + d1 + (d3 or 0.0))
    r, s, d1 = r / unit, s / unit, d1 / unit
    leg_sq = s * s + r * r / 4.0
    d3_0 = (math.sqrt(d1 * d1 + s * s - r * r / 4.0) * unit
            if 2.0 * d1 >= r else None)
    d1_0 = None
    if d3 is not None and leg_sq > 0.0:
        d3 = d3 / unit
        radicand = (d1 * d1
                    + (leg_sq + d3 * d3 - d1 * d1) * r * r / (2.0 * leg_sq))
        # A negative radicand means d1 already exceeds the crossover for
        # every real d3, so the threshold is not attained.
        d1_0 = math.sqrt(radicand) * unit if radicand >= 0.0 else None
    a = math.sqrt(r * r / 4.0 + s * s / 9.0)
    b = math.sqrt(leg_sq)
    q = threshold_Q(r, s)
    return ThresholdBundle(
        d3_0=d3_0,
        d1_0=d1_0,
        R=row.R if d1 >= a else None,
        M=row.M if d1 >= b else None,
        P=p,
        Q=q * unit if q is not None else None,
        d3_star=row.d3_star if past_p else None,
        t_star=row.t_star if past_p else None,
    )
