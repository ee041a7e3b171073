"""Objective evaluation and disk-membership region analysis.

A point's region label is the triple of closed-disk membership bits.  The
topology routine decides, for each of the eight labels, whether the region
is nonempty and whether it is a single connected piece, using an exact
vertical slab decomposition of the three-circle arrangement (regions that
touch only at a single point count as connected).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (DegenerateArrangement, MissingIntersection,
                     PreconditionViolation)
from .geometry import (
    Point2,
    SensorConfig,
    centroid_points,
    circle_circle_intersect,
    config_scale,
    distance,
)

Bits = Tuple[int, int, int]

ALL_LABELS: Tuple[Bits, ...] = tuple(
    (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)
)


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    per_term: Tuple[float, float, float]


@dataclass(frozen=True)
class RegionLabel:
    bits: Bits


def objective(config: SensorConfig, w: Point2) -> ObjectiveValue:
    """Sum of absolute squared-distance residuals, with the three summands."""
    terms = []
    for z, dj in zip(config.Z, config.d):
        q = (w.x - z.x) ** 2 + (w.y - z.y) ** 2 - dj * dj
        terms.append(abs(q))
    t = (terms[0], terms[1], terms[2])
    return ObjectiveValue(t[0] + t[1] + t[2], t)


def objective_value(config: SensorConfig, w: Point2) -> float:
    total = 0.0
    for z, dj in zip(config.Z, config.d):
        total += abs((w.x - z.x) ** 2 + (w.y - z.y) ** 2 - dj * dj)
    return total


_TABLE_PAIRS: Tuple[Tuple[str, int, int, int], ...] = (
    ("S12+", 0, 1, 2), ("S23+", 1, 2, 0), ("S31+", 2, 0, 1),
    ("S12-", 0, 1, 2), ("S23-", 1, 2, 0), ("S31-", 2, 0, 1),
)


def objective_table(config: SensorConfig,
                    tie_tol: float = 1e-9) -> List[Tuple[str, float, bool]]:
    """Objective at the six pairwise intersection points, minima flagged.

    Entries within tie_tol (relative) of the least value are flagged; pass a
    display-level tolerance when the inputs themselves are rounded.
    """
    circles = config.circles()
    values: List[Tuple[str, float]] = []
    for label, i, j, k in _TABLE_PAIRS:
        pair = circle_circle_intersect(circles[i], circles[j], config.Z[k])
        if pair.count == 0:
            raise MissingIntersection(f"circles {label[:3]} do not meet")
        point = pair.plus_point if label.endswith("+") else pair.minus_point
        values.append((label, objective_value(config, point)))
    vmin = min(v for _, v in values)
    cut = vmin + tie_tol * max(1.0, abs(vmin))
    return [(label, v, v <= cut) for label, v in values]


def classify_point(config: SensorConfig, w: Point2, tol: float = 0.0) -> RegionLabel:
    """Closed-disk membership bits; points within ``tol`` of a circle get bit 1."""
    bits = tuple(
        1 if distance(w, z) <= dj + tol else 0
        for z, dj in zip(config.Z, config.d)
    )
    return RegionLabel(bits)  # type: ignore[arg-type]


def quadratic_constant(config: SensorConfig) -> float:
    """Constant term of the all-bits-zero quadratic identity for the objective."""
    y0 = centroid_points(*config.Z)[0]
    return (-3.0 * (y0.x ** 2 + y0.y ** 2)
            - sum(dj * dj for dj in config.d)
            + sum(z.x ** 2 + z.y ** 2 for z in config.Z))


def quadratic_form_check(config: SensorConfig, w: Point2,
                         tol: float = 1e-9) -> float:
    """Evaluate 3*|W - Y0|^2 + C0; valid (equal to the objective) outside all disks."""
    eps = tol * (1.0 + config_scale(config))
    for z, dj in zip(config.Z, config.d):
        if distance(w, z) < dj - eps:
            raise PreconditionViolation("point lies strictly inside a disk")
    y0 = centroid_points(*config.Z)[0]
    return 3.0 * ((w.x - y0.x) ** 2 + (w.y - y0.y) ** 2) + quadratic_constant(config)


@dataclass(frozen=True)
class RegionTopology:
    """Per-label region status; ``connected`` means nonempty and one piece."""

    nonempty: Dict[Bits, bool]
    connected: Dict[Bits, bool]

    @property
    def r3_nonempty(self) -> bool:
        return self.nonempty[(1, 1, 1)]


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


# A cell is a curvilinear trapezoid of one slab: bounded below/above by a
# circle arc (circle index, +-1 for upper/lower half) or by nothing.
_Arc = Optional[Tuple[int, int]]


def _arc_y(circles, arc: _Arc, x: float, sentinel: float) -> float:
    if arc is None:
        return sentinel
    idx, sign = arc
    c = circles[idx]
    g = c.radius * c.radius - (x - c.center.x) ** 2
    return c.center.y + sign * math.sqrt(max(g, 0.0))


def region_topology(config: SensorConfig, tol: float = 1e-9) -> RegionTopology:
    """Nonemptiness and connectivity of all eight membership regions.

    Slab decomposition: split the x-axis at circle extremes and intersection
    vertices; inside a slab the boundary arcs keep a fixed vertical order, so
    cells can be read off one vertical line and glued across slab boundaries
    wherever their closed intervals touch.  Single-point touches glue too,
    matching the closed-region convention.  Tangency points and zero-radius
    circles are handled through explicit point witnesses.
    """
    circles = config.circles()
    scale = 1.0 + config_scale(config)
    eps = tol * scale

    verts: List[Tuple[Point2, Tuple[int, int]]] = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        pair = circle_circle_intersect(circles[i], circles[j], config.Z[k])
        for p in pair.points():
            if abs(distance(p, config.Z[k]) - config.d[k]) <= eps:
                raise DegenerateArrangement(
                    "three circles share a common point within tolerance")
            verts.append((p, (i, j)))

    xs: List[float] = []
    for c in circles:
        xs.extend((c.center.x - c.radius, c.center.x + c.radius))
    xs.extend(v[0].x for v in verts)
    xs.sort()
    merged: List[float] = []
    for x in xs:
        if not merged or x - merged[-1] > eps:
            merged.append(x)
    pad = scale
    bounds = [merged[0] - pad] + merged + [merged[-1] + pad]
    y_lo = min(c.center.y - c.radius for c in circles) - pad
    y_hi = max(c.center.y + c.radius for c in circles) + pad

    # cells[cid] = (slab index, lower arc, upper arc, label)
    cells: List[Tuple[int, _Arc, _Arc, Bits]] = []
    by_slab: List[List[int]] = []
    for si in range(len(bounds) - 1):
        xl, xr = bounds[si], bounds[si + 1]
        xm = (xl + xr) / 2.0
        crossings: List[Tuple[float, _Arc]] = []
        for idx, c in enumerate(circles):
            g = c.radius - abs(xm - c.center.x)
            if c.radius > eps and g > eps:
                half = math.sqrt(c.radius * c.radius - (xm - c.center.x) ** 2)
                crossings.append((c.center.y - half, (idx, -1)))
                crossings.append((c.center.y + half, (idx, +1)))
        crossings.sort(key=lambda t: t[0])
        slab_cells: List[int] = []
        ys = [y for y, _ in crossings]
        arcs = [a for _, a in crossings]
        edges = [y_lo] + ys + [y_hi]
        for ci in range(len(edges) - 1):
            ym = (edges[ci] + edges[ci + 1]) / 2.0
            label = tuple(
                1 if distance(Point2(xm, ym), z) <= dj else 0
                for z, dj in zip(config.Z, config.d)
            )
            lo_arc = arcs[ci - 1] if ci > 0 else None
            hi_arc = arcs[ci] if ci < len(arcs) else None
            cid = len(cells)
            cells.append((si, lo_arc, hi_arc, label))  # type: ignore[arg-type]
            slab_cells.append(cid)
        by_slab.append(slab_cells)

    uf = _UnionFind()
    for cid in range(len(cells)):
        uf.add(cid)

    def interval(cid: int, x: float) -> Tuple[float, float]:
        _, lo_arc, hi_arc, _ = cells[cid]
        return (_arc_y(circles, lo_arc, x, y_lo),
                _arc_y(circles, hi_arc, x, y_hi))

    for si in range(len(by_slab) - 1):
        xb = bounds[si + 1]
        for ca in by_slab[si]:
            la = cells[ca][3]
            alo, ahi = interval(ca, xb)
            for cb in by_slab[si + 1]:
                if cells[cb][3] != la:
                    continue
                blo, bhi = interval(cb, xb)
                if min(ahi, bhi) >= max(alo, blo) - eps:
                    uf.union(ca, cb)

    # Point witnesses: intersection vertices (free bits on their two circles)
    # and zero-radius circle centers (their own bit is free either way).
    witnesses: List[Tuple[Point2, Tuple[int, ...], Bits]] = []
    for p, (i, j) in verts:
        base = []
        for m, (z, dj) in enumerate(zip(config.Z, config.d)):
            if m in (i, j):
                base.append(0)
            else:
                base.append(1 if distance(p, z) <= dj else 0)
        witnesses.append((p, (i, j), tuple(base)))  # type: ignore[arg-type]
    for idx, c in enumerate(circles):
        if c.radius <= eps:
            free = [idx]
            base = []
            for m, (z, dj) in enumerate(zip(config.Z, config.d)):
                if m == idx:
                    base.append(0)
                elif abs(distance(c.center, z) - dj) <= eps:
                    free.append(m)
                    base.append(0)
                else:
                    base.append(1 if distance(c.center, z) <= dj else 0)
            witnesses.append((c.center, tuple(free), tuple(base)))  # type: ignore[arg-type]

    def touching_cells(label: Bits, p: Point2) -> List[int]:
        found: List[int] = []
        for si in range(len(by_slab)):
            if not (bounds[si] - eps <= p.x <= bounds[si + 1] + eps):
                continue
            x = min(max(p.x, bounds[si]), bounds[si + 1])
            for cid in by_slab[si]:
                if cells[cid][3] != label:
                    continue
                lo, hi = interval(cid, x)
                if lo - eps <= p.y <= hi + eps:
                    found.append(cid)
        return found

    isolated: Dict[Bits, List[Point2]] = {lab: [] for lab in ALL_LABELS}
    for p, free, base in witnesses:
        combos = [base]
        for f in free:
            combos = [tuple(b[:f] + (bit,) + b[f + 1:])  # type: ignore[index]
                      for b in combos for bit in (0, 1)]
        for label in combos:
            touched = touching_cells(label, p)
            if touched:
                for other in touched[1:]:
                    uf.union(touched[0], other)
            else:
                pts = isolated[label]
                if not any(distance(p, q) <= eps for q in pts):
                    pts.append(p)

    nonempty: Dict[Bits, bool] = {}
    connected: Dict[Bits, bool] = {}
    for label in ALL_LABELS:
        roots = {uf.find(cid) for cid in range(len(cells))
                 if cells[cid][3] == label}
        pieces = len(roots) + len(isolated[label])
        nonempty[label] = pieces > 0
        connected[label] = pieces == 1
    return RegionTopology(nonempty=nonempty, connected=connected)
