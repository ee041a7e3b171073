"""Brute-force verification path: dense-grid refinement with clustering.

This module is deliberately self-contained.  It evaluates its own copy of
the ranging objective and never consults the closed-form solver, so the two
routes stay independent checks on each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundsTooSmall, ConcentricIdentical
from .geometry import Point2, SensorConfig, circle_circle_intersect
# Instances for the oracle are still drawn as oracle.generate_instance.
from .geometry import NoiseSpec, generate_instance  # noqa: F401

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


def _evaluate(zs: np.ndarray, dsq: np.ndarray, px: np.ndarray,
              py: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The objective at each point of ``px`` broadcast against ``py``.

    Each sensor's squared offsets are taken on the axes before they
    broadcast, so a grid passes ``gx[:, None], gy[None, :]`` and squares
    2n offsets, not n^2.  Every value is the same float as on the
    broadcast points: (x - zx)^2 + (y - zy)^2 - dj^2, its absolute value,
    summed over the sensors in order.  The sum goes into ``out`` if given:
    refine rounds pass the children's block of their value array, so they
    allocate no array of that size, whose fresh pages would cost about
    half as much CPU as the arithmetic.
    """
    shape = np.broadcast_shapes(np.shape(px), np.shape(py))
    acc = np.empty(shape) if out is None else out
    term = np.empty(shape)
    for j, ((zx, zy), dj2) in enumerate(zip(zs, dsq)):
        part = acc if j == 0 else term
        np.add(np.square(px - zx), np.square(py - zy), out=part)
        part -= dj2
        np.abs(part, out=part)
        if j:
            acc += part
    return acc


def _objective_scalar(zs: _Terms, dsq: Sequence[float],
                      x: float, y: float) -> float:
    """The objective at one point, on plain floats.

    Callers pass ``zs.tolist()`` and ``dsq.tolist()``: Python floats round
    exactly as numpy scalars do, at a fraction of the cost.  Refinement and
    the final value take at most 26 calls per representative, ~3.4 on
    average (the 1,000 acceptance-suite draws at 192^2 x 6).
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


class _Axis:
    """One coordinate of a round's candidates, computed only where indexed.

    The candidates are a block of shape (a, b, k), candidate (i*b + j)*k + p
    at (xs[i, p], ys[j, p]), then a refine round's k parents, candidate
    a*b*k + p at (xs[a, p], ys[b, p]).  ``table`` is xs raveled if ``x``,
    else ys raveled, with the parents' row last.
    """

    def __init__(self, table: np.ndarray, a: int, b: int, k: int,
                 x: bool) -> None:
        self.table, self.a, self.b, self.k, self.x = table, a, b, k, x

    def __getitem__(self, q: np.ndarray) -> np.ndarray:
        i, rest = np.divmod(q, self.b * self.k)  # rest = j*k + p
        if self.x:
            return self.table[i * self.k + rest % self.k]
        rest[i == self.a] += self.b * self.k  # a parent: row b of ys
        return self.table[rest]


def _prune(px: np.ndarray, py: np.ndarray, vals: np.ndarray, vmin: float,
           band: float, lip: float, cell: float
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Keep cells plausibly containing a minimum; cap count deterministically.

    The kept cells come back in index order.  When more than
    ``_SURVIVOR_CAP`` cells make the cut, the kept ones are the cap least
    by (vals, px, py), the least index first on a tie in all three: every
    cell below the cap-th smallest value, then as many cells at that value
    as fit, ranked by (px, py).  ``px`` and ``py`` are only indexed by
    index arrays, so they may be stand-ins (``_Axis``) that compute the
    coordinates of the cells asked about.  The last item is how many
    cells within the cut the cap dropped.
    """
    keep = vals <= vmin + max(band, lip * cell)
    dropped = max(int(np.count_nonzero(keep)) - _SURVIVOR_CAP, 0)
    if dropped:
        # More cells than the cap make the cut, so the cap-th smallest
        # value among them is the cap-th smallest of all.
        kth = np.partition(vals, _SURVIVOR_CAP - 1)[_SURVIVOR_CAP - 1]
        np.less_equal(vals, kth, out=keep)
        excess = int(np.count_nonzero(keep)) - _SURVIVOR_CAP
        if excess:
            # The stable sort ranks the ties at kth by (px, py, index).
            tie = np.flatnonzero(vals == kth)
            keep[tie[np.lexsort((py[tie], px[tie]))[-excess:]]] = False
    sel = np.flatnonzero(keep)
    return px[sel], py[sel], vals[sel], dropped


# Forward neighbours of a cell: itself and four of its eight neighbours, so
# each pair of neighbouring cells is visited once.
_FORWARD_CELLS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))


def _cluster(px: np.ndarray, py: np.ndarray, radius: float) -> np.ndarray:
    """Connected components of the graph linking points within ``radius``.

    Returns each point's component number; the components are numbered
    from 0 in the order of their least index.  The points are bucketed
    into square cells and only points in the same or neighbouring cells
    are compared, so the work is linear in the number of points and
    candidate pairs.  The result is exactly that of comparing all pairs:

    - Cells are at least ``radius`` wide: the side is ``radius * (1 +
      1e-9)`` plus 1e-15 of the points' span, which covers the rounding of
      the cell index (under 4.5e-16 of the span across a pair).  Two points
      within ``radius`` therefore fall in the same cell or in neighbouring
      ones, and every such pair is a candidate.  The side is also at least
      2^-30 of the span, so cell keys fit in 64 bits.
    - A candidate pair is linked by the same test, ``dx*dx + dy*dy <=
      radius*radius``, that an all-pairs comparison makes.
    - The components are found on positions in cell-key order, so no
      index is mapped back until the end.  Every point starts as its own
      root.  The links to each forward neighbour cell in turn move onto
      their ends' roots, and a link whose ends share a root is dropped.
      Each round then hooks the greater root of every link left to the
      lesser one (a root with several such links takes any one of them),
      jumps every pointer to its root, and moves the links onto the new
      roots.  Every round hooks at least one root, so the rounds stop when
      no link is left; the roots are then numbered by their components'
      least indices.
    """
    n = px.size
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    x0, y0 = float(px.min()), float(py.min())
    span = max(float(px.max()) - x0, float(py.max()) - y0)
    side = max(radius * (1.0 + 1e-9) + 1e-15 * span, span * 2.0 ** -30) or 1.0
    cx = np.floor((px - x0) / side).astype(np.int64)
    cy = np.floor((py - y0) / side).astype(np.int64)
    stride = int(cy.max()) + 2  # so no point has the key of (cx + 1, -1)
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    skey, sx, sy = key[order], px[order], py[order]
    pos = np.arange(n)
    root = pos.copy()
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
        a = np.repeat(pos, counts)
        b = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        b += np.arange(total)
        dx = np.repeat(sx, counts)
        dx -= sx[b]
        dx *= dx
        dy = np.repeat(sy, counts)
        dy -= sy[b]
        dy *= dy
        dx += dy  # dx*dx + dy*dy
        close = np.flatnonzero(dx <= radius * radius)
        a, b = root[a[close]], root[b[close]]
        while True:
            live = a != b
            a, b = a[live], b[live]
            if a.size == 0:
                break
            root[np.maximum(a, b)] = np.minimum(a, b)
            while True:
                up = root[root]
                if np.array_equal(up, root):
                    break
                root = up
            a, b = root[a], root[b]
    labels = np.empty(n, dtype=np.intp)
    labels[order] = root
    # Number the components by their least indices.
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _representatives(px: np.ndarray, py: np.ndarray, vals: np.ndarray,
                     labels: np.ndarray) -> np.ndarray:
    """Index of each component's least (vals, px, py), in component order.

    The sort is stable, so on a tie in all three the least index wins.
    """
    order = np.lexsort((py, px, vals, labels))
    return order[np.flatnonzero(np.diff(labels[order], prepend=-1))]


def _refine_rep(config: SensorConfig, zs: _Terms, dsq: Sequence[float],
                x: float, y: float, window: float) -> Tuple[float, float]:
    """Move a representative to the best exact kink point near it, if lower.

    A representative near a nonsmooth minimum sits near one or two
    measurement circles, those within ``window`` of it.  On circle j,

        |W - Zi|^2 = |W - Zj|^2 + 2 (W - Zj).(Zj - Zi) + |Zj - Zi|^2
                   = dj^2 + 2 (W - Zj).(Zj - Zi) + |Zj - Zi|^2,

    so each other term |di^2 - |W - Zi|^2| is linear in W while its sign
    holds, and O is c + 2 (W - Zj).u for one of u = +-(Zi + Zk - 2 Zj) or
    u = +-(Zi - Zk).  Along an arc of fixed signs the extremes therefore lie
    at Zj +- dj u / |u|.  A minimum on the arc is either there or where a
    sign changes, on the crossing with another circle.  The candidates are
    Zj +- dj u / |u| on each nearby circle, for these two u and for
    u = W - Zj, whose + point is the circle's nearest point, and the
    crossings of each nearby pair.  The lowest of them within ``4 * window``
    wins if it is lower than the representative.
    """
    near = [j for j, ((zx, zy), dj) in enumerate(zip(zs, config.d))
            if abs(math.hypot(x - zx, y - zy) - dj) <= window]
    candidates: List[Tuple[float, float]] = []
    for j in near:
        (zx, zy), dj = zs[j], config.d[j]
        (ix, iy), (kx, ky) = (zs[i] for i in range(3) if i != j)
        for ux, uy in ((x - zx, y - zy), (ix + kx - 2.0 * zx,
                                          iy + ky - 2.0 * zy),
                       (ix - kx, iy - ky)):
            norm = math.hypot(ux, uy)
            if norm > 0.0:
                t = dj / norm
                candidates += [(zx + t * ux, zy + t * uy),
                               (zx - t * ux, zy - t * uy)]
    for a, i in enumerate(near):
        for j in near[a + 1:]:
            try:
                pts = circle_circle_intersect(config, i, j)
            except ConcentricIdentical:
                continue
            candidates += [(p.x, p.y) for p in pts]
    best_x, best_y = x, y
    best = _objective_scalar(zs, dsq, x, y)
    for cx, cy in candidates:
        if math.hypot(cx - x, cy - y) > 4.0 * window:
            continue
        val = _objective_scalar(zs, dsq, cx, cy)
        if val < best:
            best_x, best_y, best = cx, cy, val
    return best_x, best_y


def brute_force_minimize(config: SensorConfig,
                         spec: Optional[GridSpec] = None) -> OracleResult:
    """Locate every near-global minimum on a refined grid, then cluster.

    Each refine round evaluates only the survivors' children: child (i, j)
    of parent p sits at (px[p] + ox[i], py[p] + oy[j]) and is candidate
    (i*m + j)*k + p, so the children's values are one (m, m, k) block
    broadcast from their axes, parents innermost, and the parents' values
    follow.  No array holds every candidate's coordinates: ``_prune`` gets
    ``_Axis`` stand-ins and computes those of the cells it asks about.

    The survivors come back in index order, which cannot change the
    result.  Each round keeps the same multiset of (vals, px, py)
    survivors whatever their order, and nothing after the cut depends on
    order: vmin, capped_out, the cluster components, each component's
    least (vals, px, py) and the minima sorted by (x, y).  Exact duplicate
    triples (an odd factor puts the middle child on its parent) cannot be
    told apart, so keeping either gives the same result.
    """
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
    # Cell (i, j) of the grid is candidate i*n + j, at (gx[i], gy[j]).
    vals = _evaluate(zs, dsq, gx[:, None], gy[None, :]).ravel()
    vmin = float(vals.min())
    round_values = [vmin]
    cell = math.hypot(dx, dy)
    px, py, vals, capped_out = _prune(
        _Axis(gx, n, n, 1, True), _Axis(gy, n, n, 1, False), vals, vmin,
        1e-3 * (1.0 + abs(vmin)), lip, cell)

    m = max(2, int(round(spec.refine_factor)))
    for rnd in range(spec.refine_rounds):
        ox = ((np.arange(m) + 0.5) / m - 0.5) * dx
        oy = ((np.arange(m) + 0.5) / m - 0.5) * dy
        # The children's axes, each with its parents' row last.
        k, c = px.size, px.size * m * m  # parents, children
        xs, ys = np.empty((m + 1, k)), np.empty((m + 1, k))
        allv = np.empty(c + k)
        np.add(px, ox[:, None], out=xs[:m])
        np.add(py, oy[:, None], out=ys[:m])
        xs[m], ys[m], allv[c:] = px, py, vals
        _evaluate(zs, dsq, xs[:m, None, :], ys[None, :m, :],
                  out=allv[:c].reshape(m, m, k))
        vmin = float(allv.min())
        dx /= m
        dy /= m
        cell = math.hypot(dx, dy)
        final = rnd == spec.refine_rounds - 1
        band = (1e-6 if final else 1e-3) * (1.0 + abs(vmin))
        px, py, vals, dropped = _prune(
            _Axis(xs.ravel(), m, m, k, True), _Axis(ys.ravel(), m, m, k, False),
            allv, vmin, band, lip, cell)
        capped_out += dropped
        round_values.append(vmin)

    cluster_radius = 2.0 * cell
    labels = _cluster(px, py, cluster_radius)
    best = _representatives(px, py, vals, labels)

    window = 32.0 * cell
    terms, dsq_terms = zs.tolist(), dsq.tolist()
    refined: List[Tuple[float, float, float]] = []
    for x, y in zip(px[best].tolist(), py[best].tolist()):
        qx, qy = _refine_rep(config, terms, dsq_terms, x, y, window)
        refined.append((qx, qy, _objective_scalar(terms, dsq_terms, qx, qy)))
    global_value = min(v for _, _, v in refined)
    # After snapping, converged values are exact to rounding, so a tight
    # band separates genuine ties from valley stragglers.
    cut = global_value + 1e-9 * (1.0 + abs(global_value))
    qx, qy, qv = np.array([p for p in refined if p[2] <= cut]).T

    # Refinement can merge neighbouring representatives; cluster once more.
    labels = _cluster(qx, qy, cluster_radius)
    best = _representatives(qx, qy, qv, labels)
    minima = [(Point2(x, y), v) for x, y, v
              in zip(qx[best].tolist(), qy[best].tolist(), qv[best].tolist())]
    minima.sort(key=lambda entry: (entry[0].x, entry[0].y))
    return OracleResult(tuple(minima), cluster_radius, global_value,
                        tuple(round_values), capped_out)


# ---------------------------------------------------------------------------
# contour support

def contour_grid(config: SensorConfig, resolution: int = 256
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective sampled on a grid over the disks' bounding box, widened by
    a fifth of its width and height on each side."""
    zs, dsq = _sensor_arrays(config)
    xmin = min(z.x - d for z, d in zip(config.Z, config.d))
    xmax = max(z.x + d for z, d in zip(config.Z, config.d))
    ymin = min(z.y - d for z, d in zip(config.Z, config.d))
    ymax = max(z.y + d for z, d in zip(config.Z, config.d))
    padx = 0.2 * max(xmax - xmin, 1e-9)
    pady = 0.2 * max(ymax - ymin, 1e-9)
    xs = np.linspace(xmin - padx, xmax + padx, resolution)
    ys = np.linspace(ymin - pady, ymax + pady, resolution)
    return xs, ys, _evaluate(zs, dsq, xs[:, None], ys[None, :])
