"""Planar primitives: points, circles, circle intersections, canonical frames.

Pure floating-point geometry with explicit scale-relative tolerances.  Near
tangency the intersection routine snaps to a single point instead of trying
to resolve a vanishing chord exactly.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (ConcentricIdentical, DegenerateDirection,
                     DegenerateTriangle, NoiseRejection)

SQRT3_2 = math.sqrt(3.0) / 2.0


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError("non-finite value: %r" % (v,))


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite(self.x, self.y)


def distance(p: Point2, q: Point2) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float

    def __post_init__(self) -> None:
        _require_finite(self.radius)
        if self.radius < 0.0:
            raise ValueError("negative radius: %r" % (self.radius,))


@dataclass(frozen=True)
class IntersectionPair:
    """0, 1 or 2 intersection points; ``plus_point`` is nearer the third sensor."""

    count: int
    plus_point: Optional[Point2]
    minus_point: Optional[Point2]

    def points(self) -> List[Point2]:
        """Distinct intersection points ([], [p] or [plus, minus])."""
        if self.count == 0:
            return []
        if self.count == 1:
            return [self.plus_point]
        return [self.plus_point, self.minus_point]


@dataclass(frozen=True)
class SensorConfig:
    """Three sensor positions and their measured ranges."""

    Z: Tuple[Point2, Point2, Point2]
    d: Tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.Z) != 3 or len(self.d) != 3:
            raise ValueError("expected exactly three sensors and three ranges")
        object.__setattr__(self, "Z", tuple(self.Z))
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        _require_finite(*self.d)
        if min(self.d) < 0.0:
            raise ValueError("ranges must be nonnegative")

    @classmethod
    def from_canonical(cls, r: float, s: float,
                       d: Tuple[float, float, float]) -> "SensorConfig":
        """Sensors at (-r/2, 0), (r/2, 0), (0, s)."""
        z = (Point2(-r / 2.0, 0.0), Point2(r / 2.0, 0.0), Point2(0.0, s))
        return cls(z, tuple(d))

    def circles(self) -> Tuple[Circle, Circle, Circle]:
        return tuple(Circle(z, dj) for z, dj in zip(self.Z, self.d))


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"  # none | uniform | normal
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform", "normal"):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.scale < 0.0:
            raise ValueError("noise scale must be nonnegative")


def generate_instance(source: Point2, sensors: Sequence[Point2],
                      noise: NoiseSpec, seed: int) -> SensorConfig:
    """Ranges measured from a source point, with optional perturbation.

    Deterministic for a given seed.  A perturbed range must stay
    nonnegative; after 100 rejected draws the instance is abandoned.
    """
    rng = random.Random(seed)
    ranges: List[float] = []
    for z in sensors:
        base = distance(source, z)
        if noise.kind == "none" or noise.scale == 0.0:
            ranges.append(base)
            continue
        for _ in range(100):
            if noise.kind == "uniform":
                delta = rng.uniform(-noise.scale, noise.scale)
            else:
                delta = rng.gauss(0.0, noise.scale)
            if base + delta >= 0.0:
                ranges.append(base + delta)
                break
        else:
            raise NoiseRejection(
                f"could not draw a nonnegative range near {base:.6g}")
    return SensorConfig(tuple(sensors), tuple(ranges))


def config_scale(config: SensorConfig) -> float:
    """Characteristic length: largest sensor separation plus largest range."""
    z = config.Z
    span = max(distance(z[0], z[1]), distance(z[1], z[2]), distance(z[2], z[0]))
    return span + max(config.d)


def circle_circle_intersect(a: Circle, b: Circle, third_sensor: Point2,
                            tol: Optional[float] = None) -> IntersectionPair:
    """Intersect two circles and order the points relative to a third point.

    The "plus" point is the one nearer ``third_sensor``.  When the two
    distances to it differ by at most ``tol``, the lexicographically smaller
    (y, then x) point is "plus", so "plus" may be farther by up to ``tol``.
    Within ``tol`` of tangency the pair snaps to a single point.  ``tol``
    defaults to 1e-9 * (r_a + r_b + center distance).
    """
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    dist = math.hypot(dx, dy)
    if tol is None:
        tol = 1e-9 * (a.radius + b.radius + dist)
    if dist <= tol and abs(a.radius - b.radius) <= tol:
        raise ConcentricIdentical("circles coincide within tolerance")
    if dist > a.radius + b.radius + tol or dist < abs(a.radius - b.radius) - tol:
        return IntersectionPair(0, None, None)
    # Distance from a's center to the chord foot, along the line of centers.
    xm = (dist * dist + a.radius * a.radius - b.radius * b.radius) / (2.0 * dist)
    ux, uy = dx / dist, dy / dist
    fx, fy = a.center.x + xm * ux, a.center.y + xm * uy
    if (abs(dist - (a.radius + b.radius)) <= tol
            or abs(dist - abs(a.radius - b.radius)) <= tol):
        p = Point2(fx, fy)
        return IntersectionPair(1, p, p)
    h = math.sqrt(max(a.radius * a.radius - xm * xm, 0.0))
    p1 = Point2(fx - h * uy, fy + h * ux)
    p2 = Point2(fx + h * uy, fy - h * ux)
    da = distance(p1, third_sensor)
    db = distance(p2, third_sensor)
    if abs(da - db) <= tol:
        lo, hi = sorted((p1, p2), key=lambda p: (p.y, p.x))
        return IntersectionPair(2, lo, hi)
    if da < db:
        return IntersectionPair(2, p1, p2)
    return IntersectionPair(2, p2, p1)


def centroid_points(z1: Point2, z2: Point2, z3: Point2
                    ) -> Tuple[Point2, Point2, Point2, Point2]:
    """Centroid Y0 and the reflections Yj = 3*Y0 - 2*Zj."""
    y0 = Point2((z1.x + z2.x + z3.x) / 3.0, (z1.y + z2.y + z3.y) / 3.0)
    def reflect(z: Point2) -> Point2:
        return Point2(3.0 * y0.x - 2.0 * z.x, 3.0 * y0.y - 2.0 * z.y)
    return y0, reflect(z1), reflect(z2), reflect(z3)


def n3_point(config: SensorConfig) -> Point2:
    """Point of the third circle nearest the reflected point Y3.

    Lies on the ray from Z3 through the midpoint of Z1 Z2.
    """
    z3 = config.Z[2]
    _, _, _, y3 = centroid_points(*config.Z)
    norm = distance(y3, z3)
    if norm <= 1e-15 * config_scale(config):
        raise DegenerateDirection("Y3 coincides with Z3")
    t = config.d[2] / norm
    return Point2(z3.x + t * (y3.x - z3.x), z3.y + t * (y3.y - z3.y))


@dataclass(frozen=True)
class RigidMotion:
    """World -> frame map q = B(p - o) with orthonormal rows u=(ux,uy), v=(vx,vy)."""

    ux: float
    uy: float
    vx: float
    vy: float
    ox: float
    oy: float

    def apply(self, p: Point2) -> Point2:
        dx, dy = p.x - self.ox, p.y - self.oy
        return Point2(self.ux * dx + self.uy * dy, self.vx * dx + self.vy * dy)

    def invert(self, q: Point2) -> Point2:
        return Point2(self.ox + self.ux * q.x + self.vx * q.y,
                      self.oy + self.uy * q.x + self.vy * q.y)


@dataclass(frozen=True)
class CanonicalFrame:
    transform: RigidMotion
    r: float
    s: float
    isosceles: bool  # apex on the base bisector
    apex: Point2  # frame coordinates of the third sensor


def _frame_basis(z1: Point2, z2: Point2, z3: Point2, tol: float
                 ) -> Tuple[float, float, float, Tuple[float, ...]]:
    """Base length r, apex (ax, ay) and the rigid motion's six numbers.

    Raises ``DegenerateTriangle`` where ``canonical_frame`` refuses a layout.
    """
    r = distance(z1, z2)
    scale = r + distance(z1, z3) + distance(z2, z3)
    if scale <= 0.0 or r <= tol * scale:
        raise DegenerateTriangle("base sensors coincide")
    ox, oy = (z1.x + z2.x) / 2.0, (z1.y + z2.y) / 2.0
    ux, uy = (z2.x - z1.x) / r, (z2.y - z1.y) / r
    vx, vy = -uy, ux
    ax = (z3.x - ox) * ux + (z3.y - oy) * uy
    ay = (z3.x - ox) * vx + (z3.y - oy) * vy
    if ay < 0.0:
        vx, vy, ay = -vx, -vy, -ay
    if ay <= tol * r:
        raise DegenerateTriangle("sensors are collinear within tolerance")
    return r, ax, ay, (ux, uy, vx, vy, ox, oy)


def canonical_frame(z1: Point2, z2: Point2, z3: Point2,
                    tol: float = 1e-9) -> CanonicalFrame:
    """Rigid motion carrying Z1 -> (-r/2, 0), Z2 -> (r/2, 0), apex above the base.

    The frame reflects if needed so the third sensor has nonnegative height;
    ``s`` is the distance from the third sensor to the base midpoint.  The
    frame is ``isosceles`` when the apex lies within ``tol * r`` of the base
    bisector.
    """
    r, ax, ay, motion = _frame_basis(z1, z2, z3, tol)
    return CanonicalFrame(transform=RigidMotion(*motion), r=r,
                          s=math.hypot(ax, ay), isosceles=abs(ax) <= tol * r,
                          apex=Point2(ax, ay))
