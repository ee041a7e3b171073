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


def _indexable(floats: int) -> bool:
    """Whether numpy can index one block of ``floats`` 8-byte floats: its
    byte count must fit an intp."""
    return floats * 8 <= np.iinfo(np.intp).max


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
        # The grid's values are one block of n^2 floats, a round's one of
        # (m^2 + 1) * _SURVIVOR_CAP.
        if not _indexable(self.resolution ** 2):
            raise ValueError("resolution too large to index its grid")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")
        if not 1.0 < self.refine_factor < math.inf:
            raise ValueError("refine_factor must be finite and exceed 1")
        m = round(self.refine_factor)
        if not _indexable((m * m + 1) * _SURVIVOR_CAP):
            raise ValueError("refine_factor too large to index a round")
        # Each round divides the cell width by max(2, m).  Below 2^-1074,
        # the least positive float, it is 0: the round count is judged on
        # logarithms, never by computing max(2, m) ** refine_rounds.
        width = min(xmax - xmin, ymax - ymin) / self.resolution
        if not (width > 0.0 and self.refine_rounds
                <= (math.log2(width) + 1074.0) / math.log2(max(2, m))):
            raise ValueError("refine_rounds too many: the cell width "
                             "underflows to 0")


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
              py: np.ndarray, out: Optional[np.ndarray] = None,
              term: Optional[np.ndarray] = None) -> np.ndarray:
    """The objective at each point of ``px`` broadcast against ``py``.

    Each sensor's squared offsets are taken on the axes before they
    broadcast, so a grid passes ``gx[:, None], gy[None, :]`` and squares
    2n offsets, not n^2.  Every value is the same float as on the
    broadcast points: (x - zx)^2 + (y - zy)^2 - dj^2, its absolute value,
    summed over the sensors in order.  The sum goes into ``out`` and each
    later sensor's term into ``term``, where given, both of the broadcast
    shape.  ``brute_force_minimize`` allocates one value and one term
    buffer per call, sized for the larger of the grid and a full round,
    and passes slices of them for the grid and for every round's
    children.  Fresh arrays of that size for each would cost about half
    as much CPU as the arithmetic, in page faults.
    """
    shape = np.broadcast_shapes(np.shape(px), np.shape(py))
    acc = np.empty(shape) if out is None else out
    if term is None:
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


# Forward neighbours of a cell: the 12 cells at most two columns and rows
# away that come after it in key order, so each pair of such cells is
# visited once.
_FORWARD_CELLS = tuple((ox, oy) for ox in range(3) for oy in range(-2, 3)
                       if (ox, oy) > (0, 0))


def _hook(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the components of nodes ``a[i]`` and ``b[i]``; returns the roots.

    ``root`` holds every node's root on entry and on return.  Each round
    hooks the greater root of every link whose ends' roots differ to the
    lesser one (a root with several such links takes any one of them),
    jumps every pointer to its root, and moves the links onto the new
    roots.  Every round hooks at least one root, so the rounds stop when
    no link is left.
    """
    a, b = root[a], root[b]
    while True:
        live = a != b
        a, b = a[live], b[live]
        if a.size == 0:
            return root
        root[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        a, b = root[a], root[b]


def _cluster(px: np.ndarray, py: np.ndarray, radius: float) -> np.ndarray:
    """Connected components of the graph linking points within ``radius``.

    Returns each point's component number; the components are numbered
    from 0 in the order of their least index.  The points are bucketed
    into square cells, which are linked whole where one pair of their
    points is close, so the work is linear in the number of points and
    of the pairs in cells still apart.  The result is exactly that of
    comparing all pairs with the same test, ``dx*dx + dy*dy <=
    radius*radius``:

    - A cell lies within ``radius``: its side is ``radius * sqrt(1/2) *
      (1 - 1e-9)`` less 1e-15 of the points' span, which covers the
      rounding of the cell index (under 4.5e-16 of the span across a
      pair).  Two points of one cell are therefore less than ``radius *
      (1 - 1e-9)`` apart, and their float test passes, so each cell
      starts as one node.
    - Two points within ``radius`` lie at most two cells apart on each
      axis, since two sides exceed ``radius`` by far more than the
      rounding.  Each cell is compared with the 12 such cells after it.
    - One point pair per neighbouring cell pair, their first points, is
      tested first, and the pairs that pass join their cells.  Then every
      point pair is tested, one offset at a time, for the cell pairs
      whose components still differ; a pair it skips joins two cells
      already joined, so it cannot change the components.
    - The side is at least 2^-30 of the span, so cell keys fit in 64 bits.
      Where that floor raises it, a cell is not known to lie within the
      radius: then every point is its own node, pairs within a cell are
      tested too, and no cell pair is skipped.
    """
    n = px.size
    if n <= 1:
        return np.zeros(n, dtype=np.intp)
    x0, y0 = float(px.min()), float(py.min())
    span = max(float(px.max()) - x0, float(py.max()) - y0)
    side = radius * math.sqrt(0.5) * (1.0 - 1e-9) - 1e-15 * span
    whole = side >= span * 2.0 ** -30  # each cell lies within the radius
    side = max(side, span * 2.0 ** -30) or 1.0
    cx = np.floor((px - x0) / side).astype(np.int64)
    cy = np.floor((py - y0) / side).astype(np.int64)
    stride = int(cy.max()) + 3  # so no offset's key lands in another column
    key = cx * stride + cy
    order = np.argsort(key)
    skey, sx, sy = key[order], px[order], py[order]
    first = np.flatnonzero(np.diff(skey, prepend=-1))  # each cell's first
    ckey, size = skey[first], np.diff(first, append=n)
    node = np.repeat(np.arange(ckey.size), size) if whole else np.arange(n)
    root = np.arange(ckey.size if whole else n)
    rr = radius * radius
    # Neighbouring cell pairs (c, d), grouped by offset.
    steps = _FORWARD_CELLS if whole else ((0, 0),) + _FORWARD_CELLS
    target = (np.array([ox * stride + oy for ox, oy in steps])[:, None]
              + ckey).ravel()
    d = np.minimum(np.searchsorted(ckey, target), ckey.size - 1)
    hit = np.flatnonzero(ckey[d] == target)
    step, c = np.divmod(hit, ckey.size)
    d = d[hit]
    a, b = first[c], first[d]
    dx, dy = sx[a] - sx[b], sy[a] - sy[b]
    close = dx * dx + dy * dy <= rr
    root = _hook(root, node[a[close]], node[b[close]])
    if whole:
        apart = np.flatnonzero(root[c] != root[d])
        step, c, d = step[apart], c[apart], d[apart]
    cuts = np.flatnonzero(np.diff(step)) + 1
    for c, d in zip(np.split(c, cuts), np.split(d, cuts)):
        if whole:
            apart = root[c] != root[d]
            c, d = c[apart], d[apart]
        counts = size[c] * size[d]
        total = int(counts.sum())
        if total == 0:
            continue
        # Pair t of cells (c, d) is point t // size[d] of c and t % size[d]
        # of d.
        pair = np.repeat(np.arange(c.size), counts)
        t = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = np.divmod(t, size[d][pair])
        a += first[c][pair]
        b += first[d][pair]
        dx = sx[a] - sx[b]
        dx *= dx
        dy = sy[a] - sy[b]
        dy *= dy
        dx += dy  # dx*dx + dy*dy
        close = dx <= rr
        root = _hook(root, node[a[close]], node[b[close]])
    labels = np.empty(n, dtype=np.intp)
    labels[order] = root[node]
    # Number the components by their least indices.
    _, least, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(least)
    rank[np.argsort(least)] = np.arange(least.size)
    return rank[inverse]


def _representatives(px: np.ndarray, py: np.ndarray, vals: np.ndarray,
                     labels: np.ndarray) -> np.ndarray:
    """Index of each component's least (vals, px, py), in component order.

    Only the points at their component's least value are sorted, by
    (labels, px, py); the sort is stable, so on a tie in all three the
    least index wins.
    """
    least = np.full(int(labels.max(initial=-1)) + 1, np.inf)
    np.minimum.at(least, labels, vals)
    at = np.flatnonzero(vals == least[labels])
    order = at[np.lexsort((py[at], px[at], labels[at]))]
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


def brute_force_minimize(config: SensorConfig, spec: GridSpec) -> OracleResult:
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
    _check_bounds(config, spec)
    zs, dsq = _sensor_arrays(config)
    xmin, xmax, ymin, ymax = spec.bounds

    # Conservative gradient bound over the window, for pruning slack.
    corners = [(xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)]
    lip = sum(2.0 * max(math.hypot(cx - z.x, cy - z.y) for cx, cy in corners)
              for z in config.Z)

    n = spec.resolution
    m = max(2, int(round(spec.refine_factor)))
    # The values and terms of the grid and of every round, which has at
    # most _SURVIVOR_CAP parents and m^2 children of each.
    size = max(n * n, (m * m + 1) * _SURVIVOR_CAP)
    value_buf, term_buf = np.empty(size), np.empty(size)
    dx = (xmax - xmin) / n
    dy = (ymax - ymin) / n
    gx = xmin + (np.arange(n) + 0.5) * dx
    gy = ymin + (np.arange(n) + 0.5) * dy
    # Cell (i, j) of the grid is candidate i*n + j, at (gx[i], gy[j]).
    vals = _evaluate(zs, dsq, gx[:, None], gy[None, :],
                     out=value_buf[:n * n].reshape(n, n),
                     term=term_buf[:n * n].reshape(n, n)).ravel()
    vmin = float(vals.min())
    round_values = [vmin]
    cell = math.hypot(dx, dy)
    px, py, vals, capped_out = _prune(
        _Axis(gx, n, n, 1, True), _Axis(gy, n, n, 1, False), vals, vmin,
        1e-3 * (1.0 + abs(vmin)), lip, cell)

    for rnd in range(spec.refine_rounds):
        ox = ((np.arange(m) + 0.5) / m - 0.5) * dx
        oy = ((np.arange(m) + 0.5) / m - 0.5) * dy
        # The children's axes, each with its parents' row last.
        k, c = px.size, px.size * m * m  # parents, children
        xs, ys = np.empty((m + 1, k)), np.empty((m + 1, k))
        allv = value_buf[:c + k]
        np.add(px, ox[:, None], out=xs[:m])
        np.add(py, oy[:, None], out=ys[:m])
        xs[m], ys[m], allv[c:] = px, py, vals
        _evaluate(zs, dsq, xs[:m, None, :], ys[None, :m, :],
                  out=allv[:c].reshape(m, m, k),
                  term=term_buf[:c].reshape(m, m, k))
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
    a fifth of its width and height on each side.  Refuses, as ``GridSpec``
    does, a resolution whose block of values numpy cannot index."""
    if not _indexable(resolution ** 2):
        raise ValueError("resolution too large to index its grid")
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
