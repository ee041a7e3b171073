"""Brute-force verification path: dense-grid refinement with clustering.

This module is deliberately self-contained.  It evaluates its own copy of
the ranging objective and never consults the closed-form solver, so the two
routes stay independent checks on each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundsTooSmall
from .geometry import Point2, SensorConfig, circle_circle_intersect
# Instances for the oracle are still drawn as oracle.generate_instance.
from .geometry import NoiseSpec, generate_instance  # noqa: F401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SURVIVOR_CAP = 2048


@dataclass(frozen=True)
class GridSpec:
    """Search window and refinement schedule for the grid minimizer."""

    bounds: Tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    resolution: int = 512
    refine_rounds: int = 6
    refine_factor: float = 4.0

    def __post_init__(self) -> None:
        xmin, xmax, ymin, ymax = self.bounds
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("bounds must span a nonempty rectangle")
        if self.resolution < 8:
            raise ValueError("resolution too small")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")
        if self.refine_factor <= 1.0:
            raise ValueError("refine_factor must exceed 1")


@dataclass(frozen=True)
class OracleResult:
    minima: Tuple[Tuple[Point2, float], ...]
    cluster_radius: float
    global_value: float
    round_values: Tuple[float, ...] = ()
    capped_out: int = 0  # candidates dropped at _SURVIVOR_CAP, all rounds


def default_grid(config: SensorConfig, resolution: int = 512,
                 refine_rounds: int = 6,
                 refine_factor: float = 4.0) -> GridSpec:
    """Window covering every sensor disk with margin at least the largest range."""
    margin = max(config.d)
    xmin = min(z.x - d for z, d in zip(config.Z, config.d)) - margin
    xmax = max(z.x + d for z, d in zip(config.Z, config.d)) + margin
    ymin = min(z.y - d for z, d in zip(config.Z, config.d)) - margin
    ymax = max(z.y + d for z, d in zip(config.Z, config.d)) + margin
    pad = 0.05 * (1.0 + max(xmax - xmin, ymax - ymin))
    return GridSpec((xmin - pad, xmax + pad, ymin - pad, ymax + pad),
                    resolution, refine_rounds, refine_factor)


_Terms = Sequence[Sequence[float]]  # sensor positions as [[x, y], ...]


def _sensor_arrays(config: SensorConfig) -> Tuple[np.ndarray, np.ndarray]:
    zs = np.array([[z.x, z.y] for z in config.Z], dtype=float)
    dsq = np.array(config.d, dtype=float) ** 2
    return zs, dsq


def _evaluate(zs: np.ndarray, dsq: np.ndarray,
              px: np.ndarray, py: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(px)
    for (zx, zy), dj2 in zip(zs, dsq):
        acc += np.abs((px - zx) ** 2 + (py - zy) ** 2 - dj2)
    return acc


def _objective_scalar(zs: _Terms, dsq: Sequence[float],
                      x: float, y: float) -> float:
    """The objective at one point, on plain floats.

    Callers pass ``zs.tolist()`` and ``dsq.tolist()``: Python floats round
    exactly as numpy scalars do, at a fraction of the cost, and refinement
    makes ~160 calls per representative (the 1,000 acceptance-suite draws
    at 192^2 x 6).
    """
    total = 0.0
    for (zx, zy), dj2 in zip(zs, dsq):
        total += abs((x - zx) ** 2 + (y - zy) ** 2 - dj2)
    return total


def _check_bounds(config: SensorConfig, spec: GridSpec) -> None:
    xmin, xmax, ymin, ymax = spec.bounds
    req = max(config.d)
    slack = 1e-9 * (1.0 + req + max(xmax - xmin, ymax - ymin))
    for z, d in zip(config.Z, config.d):
        if (z.x - d - req < xmin - slack or z.x + d + req > xmax + slack
                or z.y - d - req < ymin - slack or z.y + d + req > ymax + slack):
            raise BoundsTooSmall(
                "window must cover every disk with margin >= the largest range")


def _prune(px: np.ndarray, py: np.ndarray, vals: np.ndarray, vmin: float,
           band: float, lip: float, cell: float
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Keep cells plausibly containing a minimum; cap count deterministically.

    The last item is how many cells within the cut the cap dropped.
    """
    cut = vmin + max(band, lip * cell)
    keep = vals <= cut
    px, py, vals = px[keep], py[keep], vals[keep]
    dropped = max(px.size - _SURVIVOR_CAP, 0)
    if dropped:
        # Only cells up to the cap-th smallest value, ties at it included,
        # can make the cut, and they keep their relative index order, so
        # sorting them alone keeps what a full (vals, px, py) sort keeps.
        kth = np.partition(vals, _SURVIVOR_CAP - 1)[_SURVIVOR_CAP - 1]
        sel = np.flatnonzero(vals <= kth)
        order = sel[np.lexsort((py[sel], px[sel], vals[sel]))[:_SURVIVOR_CAP]]
        px, py, vals = px[order], py[order], vals[order]
    return px, py, vals, dropped


# Forward neighbours of a cell: itself and four of its eight neighbours, so
# each pair of neighbouring cells is visited once.
_FORWARD_CELLS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))


def _cluster(px: np.ndarray, py: np.ndarray, radius: float) -> List[List[int]]:
    """Connected components of the graph linking points within ``radius``.

    Returns the components as ascending index lists, ordered by their least
    index.  The points are bucketed into square cells and only points in
    the same or neighbouring cells are compared, so the work is linear in
    the number of points and candidate pairs.  The result is exactly that
    of comparing all pairs:

    - Cells are at least ``radius`` wide: the side is ``radius * (1 +
      1e-9)`` plus 1e-15 of the points' span, which covers the rounding of
      the cell index (under 4.5e-16 of the span across a pair).  Two points
      within ``radius`` therefore fall in the same cell or in neighbouring
      ones, and every such pair is a candidate.  The side is also at least
      2^-30 of the span, so cell keys fit in 64 bits.
    - A candidate pair is linked by the same test, ``dx*dx + dy*dy <=
      radius*radius``, that an all-pairs comparison makes.
    - Labels start as indices.  Each round lowers the label held at a
      link's label to the least label across the link, then every point
      takes its label's label; at the fixed point the labels are equal
      across every link and each is its component's least index.
    """
    n = px.size
    if n == 0:
        return []
    x0, y0 = float(px.min()), float(py.min())
    span = max(float(px.max()) - x0, float(py.max()) - y0)
    side = max(radius * (1.0 + 1e-9) + 1e-15 * span, span * 2.0 ** -30) or 1.0
    cx = np.floor((px - x0) / side).astype(np.int64)
    cy = np.floor((py - y0) / side).astype(np.int64)
    stride = int(cy.max()) + 2  # so no point has the key of (cx + 1, -1)
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    pos = np.arange(n)
    ii, jj = [], []
    for ox, oy in _FORWARD_CELLS:
        target = skey + (ox * stride + oy)
        lo = np.searchsorted(skey, target, side="left")
        hi = np.searchsorted(skey, target, side="right")
        if (ox, oy) == (0, 0):
            lo = pos + 1  # pairs within a cell once, never a point with itself
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            continue
        first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        ii.append(np.repeat(pos, counts))
        jj.append(first + np.arange(total))
    labels = pos
    if ii:
        a = order[np.concatenate(ii)]
        b = order[np.concatenate(jj)]
        dx = px[a] - px[b]
        dy = py[a] - py[b]
        close = dx * dx + dy * dy <= radius * radius
        a, b = a[close], b[close]
        while True:
            new = labels.copy()
            np.minimum.at(new, labels[a], labels[b])
            np.minimum.at(new, labels[b], labels[a])
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
    members = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[members], prepend=-1))
    return [g.tolist() for g in np.split(members, starts[1:])]


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def _vertex_snap(config: SensorConfig, zs: _Terms, dsq: Sequence[float],
                 x: float, y: float, window: float) -> Tuple[float, float]:
    """Exact local refinement at nonsmooth points.

    A representative near a nonsmooth minimum sits near one or two
    measurement circles; try the radial projection onto each nearby circle
    and the crossings of nearby pairs, keeping whichever candidate lowers
    the value.
    """
    active = [j for j, (z, d) in enumerate(zip(config.Z, config.d))
              if abs(math.hypot(x - z.x, y - z.y) - d) <= window]
    candidates: List[Tuple[float, float]] = []
    for j in active:
        z, d = config.Z[j], config.d[j]
        norm = math.hypot(x - z.x, y - z.y)
        if norm > 0.0 and d > 0.0:
            t = d / norm
            candidates.append((z.x + t * (x - z.x), z.y + t * (y - z.y)))
    circles = config.circles()
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            i, j = active[a], active[b]
            try:
                pair = circle_circle_intersect(circles[i], circles[j],
                                               config.Z[3 - i - j])
            except Exception:
                continue
            for p in pair.points():
                candidates.append((p.x, p.y))
    best_x, best_y = x, y
    best = _objective_scalar(zs, dsq, x, y)
    for cx, cy in candidates:
        if math.hypot(cx - x, cy - y) > 4.0 * window:
            continue
        val = _objective_scalar(zs, dsq, cx, cy)
        if val < best:
            best_x, best_y, best = cx, cy, val
    return best_x, best_y


def _arc_descend(config: SensorConfig, zs: _Terms, dsq: Sequence[float],
                 x: float, y: float, window: float) -> Tuple[float, float]:
    """Slide along each nearby measurement circle to lower the value.

    Valleys of the objective run along circle arcs, where line searches in
    fixed directions make little progress; a golden-section search in the
    arc angle follows the valley directly.
    """
    best = _objective_scalar(zs, dsq, x, y)
    for z, d in zip(config.Z, config.d):
        if d <= 0.0 or abs(math.hypot(x - z.x, y - z.y) - d) > window:
            continue
        theta = math.atan2(y - z.y, x - z.x)
        span = min(0.3, max(64.0 * window / d, 1e-7))

        def on_arc(phi: float, z=z, d=d, theta=theta) -> float:
            return _objective_scalar(zs, dsq, z.x + d * math.cos(theta + phi),
                                     z.y + d * math.sin(theta + phi))

        phi = _golden_min(on_arc, -span, span)
        val = on_arc(phi)
        if val < best:
            x = z.x + d * math.cos(theta + phi)
            y = z.y + d * math.sin(theta + phi)
            best = val
    return x, y


def _refine_rep(config: SensorConfig, zs: _Terms, dsq: Sequence[float],
                x: float, y: float, window: float) -> Tuple[float, float]:
    """Local refinement: alternate vertex snaps and arc descents, then snap."""
    best = _objective_scalar(zs, dsq, x, y)
    for _ in range(12):
        x, y = _vertex_snap(config, zs, dsq, x, y, window)
        x, y = _arc_descend(config, zs, dsq, x, y, window)
        val = _objective_scalar(zs, dsq, x, y)
        if val >= best - 1e-14 * (1.0 + abs(best)):
            break
        best = val
    return _vertex_snap(config, zs, dsq, x, y, window)


def brute_force_minimize(config: SensorConfig,
                         spec: Optional[GridSpec] = None) -> OracleResult:
    """Locate every near-global minimum on a refined grid, then cluster."""
    if spec is None:
        spec = default_grid(config)
    _check_bounds(config, spec)
    zs, dsq = _sensor_arrays(config)
    xmin, xmax, ymin, ymax = spec.bounds

    # Conservative gradient bound over the window, for pruning slack.
    corners = [(xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)]
    lip = sum(2.0 * max(math.hypot(cx - z.x, cy - z.y) for cx, cy in corners)
              for z in config.Z)

    n = spec.resolution
    dx = (xmax - xmin) / n
    dy = (ymax - ymin) / n
    gx = xmin + (np.arange(n) + 0.5) * dx
    gy = ymin + (np.arange(n) + 0.5) * dy
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    px, py = xx.ravel(), yy.ravel()
    vals = _evaluate(zs, dsq, px, py)
    vmin = float(vals.min())
    round_values = [vmin]
    cell = math.hypot(dx, dy)
    px, py, vals, capped_out = _prune(px, py, vals, vmin,
                                      1e-3 * (1.0 + abs(vmin)), lip, cell)

    m = max(2, int(round(spec.refine_factor)))
    for rnd in range(spec.refine_rounds):
        ox = ((np.arange(m) + 0.5) / m - 0.5) * dx
        oy = ((np.arange(m) + 0.5) / m - 0.5) * dy
        cx = (px[:, None, None] + ox[None, :, None]
              + np.zeros((1, 1, m))).ravel()
        cy = (py[:, None, None] + np.zeros((1, m, 1))
              + oy[None, None, :]).ravel()
        allx = np.concatenate([cx, px])
        ally = np.concatenate([cy, py])
        vals = _evaluate(zs, dsq, allx, ally)
        vmin = float(vals.min())
        dx /= m
        dy /= m
        cell = math.hypot(dx, dy)
        final = rnd == spec.refine_rounds - 1
        band = (1e-6 if final else 1e-3) * (1.0 + abs(vmin))
        px, py, vals, dropped = _prune(allx, ally, vals, vmin, band, lip,
                                       cell)
        capped_out += dropped
        round_values.append(vmin)

    cluster_radius = 2.0 * cell
    groups = _cluster(px, py, cluster_radius)
    reps: List[Tuple[float, float]] = []
    for group in groups:
        best = min(group, key=lambda i: (vals[i], px[i], py[i]))
        reps.append((float(px[best]), float(py[best])))

    window = 32.0 * cell
    terms, dsq_terms = zs.tolist(), dsq.tolist()
    refined: List[Tuple[float, float, float]] = []
    for x, y in reps:
        qx, qy = _refine_rep(config, terms, dsq_terms, x, y, window)
        refined.append((qx, qy, _objective_scalar(terms, dsq_terms, qx, qy)))
    global_value = min(v for _, _, v in refined)
    # After snapping, converged values are exact to rounding, so a tight
    # band separates genuine ties from valley stragglers.
    cut = global_value + 1e-9 * (1.0 + abs(global_value))
    refined = [p for p in refined if p[2] <= cut]

    # Refinement can merge neighbouring representatives; cluster once more.
    qx = np.array([p[0] for p in refined])
    qy = np.array([p[1] for p in refined])
    qv = np.array([p[2] for p in refined])
    groups = _cluster(qx, qy, cluster_radius)
    minima: List[Tuple[Point2, float]] = []
    for group in groups:
        best = min(group, key=lambda i: (qv[i], qx[i], qy[i]))
        minima.append((Point2(float(qx[best]), float(qy[best])),
                       float(qv[best])))
    minima.sort(key=lambda entry: (entry[0].x, entry[0].y))
    return OracleResult(tuple(minima), cluster_radius, global_value,
                        tuple(round_values), capped_out)


# ---------------------------------------------------------------------------
# contour support

def contour_grid(config: SensorConfig, resolution: int = 256,
                 margin: float = 0.2
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective sampled on a grid over the disks' bounding box plus margin."""
    zs, dsq = _sensor_arrays(config)
    xmin = min(z.x - d for z, d in zip(config.Z, config.d))
    xmax = max(z.x + d for z, d in zip(config.Z, config.d))
    ymin = min(z.y - d for z, d in zip(config.Z, config.d))
    ymax = max(z.y + d for z, d in zip(config.Z, config.d))
    padx = margin * max(xmax - xmin, 1e-9)
    pady = margin * max(ymax - ymin, 1e-9)
    xs = np.linspace(xmin - padx, xmax + padx, resolution)
    ys = np.linspace(ymin - pady, ymax + pady, resolution)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = _evaluate(zs, dsq, xx.ravel(), yy.ravel()).reshape(xx.shape)
    return xs, ys, vals
