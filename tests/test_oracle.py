"""Grid-refinement oracle: the independent check on the closed-form path.

Everything here goes through brute_force_minimize or its helpers; no test
consults the classifier, so a bug cannot cancel out across the two routes.
"""
import math
import random

import numpy as np
import pytest

from conftest import S3, canonical
from trilat import geometry, oracle
from trilat.errors import MissingIntersection, NoiseRejection
from trilat.geometry import Point2, SensorConfig, circle_circle_intersect, distance
from trilat.oracle import (GridSpec, NoiseSpec, brute_force_minimize,
                           contour_grid, default_grid, generate_instance)
from trilat.regions import objective_table


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), resolution=4)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), refine_factor=1.0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0.0, 1.0), refine_rounds=-1)
    # No factor past the one whose round's block numpy can still index.
    for factor in (math.nan, math.inf, 2.0 ** 25):
        with pytest.raises(ValueError):
            GridSpec((0.0, 1.0, 0.0, 1.0), refine_factor=factor)
    assert GridSpec((0.0, 1.0, 0.0, 1.0), refine_factor=2.0 ** 24)


def test_grid_spec_refuses_grids_it_cannot_refine_or_index():
    """Decided by arithmetic on the sizes: nothing is allocated."""
    box = (0.0, 1.0, 0.0, 1.0)
    # Cells 2^-3 wide, quartered each round: 2^-1073 after 535 rounds, and
    # 2^-1075, which rounds to 0, after 536.
    assert GridSpec(box, resolution=8, refine_rounds=535)
    for rounds in (536, 10 ** 20, 10 ** 400):
        with pytest.raises(ValueError, match="underflows"):
            GridSpec(box, resolution=8, refine_rounds=rounds)
    # n^2 floats take 8 n^2 bytes, which an intp indexes up to n = 2^30 - 1.
    assert GridSpec(box, resolution=2 ** 30 - 1)
    for n in (2 ** 30, 10 ** 10):
        with pytest.raises(ValueError, match="index"):
            GridSpec(box, resolution=n)
        with pytest.raises(ValueError, match="index"):
            contour_grid(canonical(2.0, 3.0, 7.0, 6.0), resolution=n)


def test_default_grid_covers_every_disk():
    cfg = canonical(2.0, 3.0, 7.0, 6.0)
    spec = default_grid(cfg)
    xmin, xmax, ymin, ymax = spec.bounds
    margin = max(cfg.d)
    for z, d in zip(cfg.Z, cfg.d):
        assert z.x - d - margin >= xmin
        assert z.x + d + margin <= xmax
        assert z.y - d - margin >= ymin
        assert z.y + d + margin <= ymax


class TestBruteForce:
    def test_five_way_clusters(self, five_way_exact):
        spec = default_grid(five_way_exact, resolution=256, refine_rounds=5)
        res = brute_force_minimize(five_way_exact, spec)
        assert len(res.minima) == 5
        for p, v in res.minima:
            assert abs(v - 24.0) < 1e-9
        # five of the six pairwise intersections minimize; (0,-1) does not
        for ex, ey in [(0.0, 7.0), (-6.0, 1.0), (6.0, 1.0), (-6.0, 5.0),
                       (6.0, 5.0)]:
            assert min(math.hypot(p.x - ex, p.y - ey)
                       for p, _ in res.minima) < 1e-6
        assert all(math.hypot(p.x, p.y + 1.0) > 1.0 for p, _ in res.minima)

    def test_noiseless_instance_recovers_source(self):
        zs = (Point2(-1, 0), Point2(1, 0), Point2(0.2, 2.2))
        src = Point2(0.25, 0.8)
        cfg = SensorConfig(zs, tuple(distance(src, z) for z in zs))
        res = brute_force_minimize(cfg, default_grid(cfg, resolution=128,
                                                     refine_rounds=4))
        assert res.global_value < 1e-9
        assert len(res.minima) == 1
        assert distance(res.minima[0][0], src) < 1e-6

    def test_equilateral_triple(self):
        cfg = canonical(2.0, S3, 2.6, 2.6)
        res = brute_force_minimize(cfg, default_grid(cfg, resolution=256,
                                                     refine_rounds=5))
        assert len(res.minima) == 3
        assert abs(res.global_value - 6.313843876331) < 1e-6

    def test_round_values_monotone(self, five_way_exact):
        spec = default_grid(five_way_exact, resolution=128, refine_rounds=5)
        res = brute_force_minimize(five_way_exact, spec)
        for a, b in zip(res.round_values, res.round_values[1:]):
            assert b <= a + 1e-12

    def test_cluster_invariants(self):
        cfg = canonical(2.0, 3.0, 6.1, 5.4)
        res = brute_force_minimize(cfg, default_grid(cfg, resolution=128,
                                                     refine_rounds=4))
        band = res.global_value + 1e-6 * (1.0 + abs(res.global_value))
        pts = [p for p, _ in res.minima]
        for i, (p, v) in enumerate(res.minima):
            assert v <= band
            for q in pts[i + 1:]:
                assert distance(p, q) > res.cluster_radius

    def test_resolution_doubling_is_stable(self):
        cfg = canonical(2.0, 3.0, 6.1, 5.4)
        lo = brute_force_minimize(cfg, default_grid(cfg, resolution=200,
                                                    refine_rounds=4))
        hi = brute_force_minimize(cfg, default_grid(cfg, resolution=400,
                                                    refine_rounds=4))
        assert len(lo.minima) == len(hi.minima)
        assert abs(lo.global_value - hi.global_value) \
            <= 1e-9 * (1.0 + abs(lo.global_value))
        for p, _ in lo.minima:
            assert min(distance(p, q) for q, _ in hi.minima) < 1e-6


# --- clustering and the scalar objective ------------------------------------

def _reference_cluster(px, py, radius):
    """All-pairs clustering: distance matrix plus union-find."""
    n = px.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if n > 1:
        dx = px[:, None] - px[None, :]
        dy = py[:, None] - py[None, :]
        close = dx * dx + dy * dy <= radius * radius
        for i, j in zip(*np.nonzero(np.triu(close, k=1))):
            ri, rj = find(int(i)), find(int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def _shuffled(rng, px, py):
    order = rng.permutation(px.size)
    return px[order], py[order]


def _cell_ends(origin, k, side):
    """The least float in cell k of cells ``side`` wide from ``origin``, and
    the greatest in cell k - 1, as the cell index floor((x - origin) / side)
    rounds; both are among the 16 floats on each side of the edge."""
    edge = origin + k * side
    cand = edge[:, None] + np.arange(-16.0, 17.0) * np.spacing(edge)[:, None]
    cell = np.floor((cand - origin) / side)
    least = np.where(cell >= k[:, None], cand, np.inf).min(axis=1)
    greatest = np.where(cell < k[:, None], cand, -np.inf).max(axis=1)
    return least, greatest


def _point_sets():
    rng = np.random.default_rng(4)
    yield "empty", np.array([]), np.array([]), 1.0
    yield "single", np.array([0.3]), np.array([-2.0]), 0.1
    pts = np.repeat(rng.uniform(-1.0, 1.0, (5, 2)), 7, axis=0)
    yield "coincident", *_shuffled(rng, pts[:, 0], pts[:, 1]), 0.05
    yield "all-one-point", np.full(9, 1.5), np.full(9, -0.5), 0.0
    # spacings of exactly the radius, along both axes and a diagonal; the
    # long row splits if cells are narrower than the radius by 1e-3
    yield "exact-radius-x", 0.5 * np.arange(2000.0), np.zeros(2000), 0.5
    k = np.arange(40.0)
    yield "exact-radius-y", np.full(40, 3.0), -0.5 * k, 0.5
    yield "exact-radius-diag", 0.3 * k, 0.4 * k, 0.5
    yield "just-beyond-radius", 0.5 * k, np.zeros(40), np.nextafter(0.5, 0.0)
    # chains across many cells, in every forward-neighbour direction
    t = np.arange(600.0)
    for name, ux, uy in (("chain-x", 1.0, 0.0), ("chain-up", 0.6, 0.8),
                         ("chain-down", 0.6, -0.8), ("chain-y", 0.0, -1.0)):
        yield name, *_shuffled(rng, 0.9 * ux * t, 0.9 * uy * t), 1.0
    rad = 3.0 + 0.01 * t
    theta = np.cumsum(0.7 / rad)
    yield "spiral", *_shuffled(rng, rad * np.cos(theta),
                               rad * np.sin(theta)), 0.8
    # a radius far below the span: cells are then 2^-30 of the span wide
    base = rng.uniform(0.0, 1e6, (300, 2))
    pts = np.concatenate([base, base + rng.uniform(-7e-7, 7e-7, (300, 2))])
    yield "tiny-radius", *_shuffled(rng, pts[:, 0], pts[:, 1]), 1e-6
    # the same floored cells, with pairs up to 4 radii apart: a cell is not
    # within the radius, so its points are not one node
    pts = np.concatenate([base, base + rng.uniform(-2e-6, 2e-6, (300, 2))])
    yield "tiny-radius-apart", *_shuffled(rng, pts[:, 0], pts[:, 1]), 1e-6
    # the two far corners of cells r/sqrt(2) wide, measured from the least
    # coordinates as floats: the least point of a cell and the greatest
    # one, which are often just over the radius apart
    for seed, radius in enumerate((1.0, 0.37, 3.0 * 2.0 ** -7)):
        gen = np.random.default_rng(20 + seed)
        side = radius * math.sqrt(0.5)
        x0, y0 = -1234.567 * radius, -987.654 * radius
        t = np.arange(300.0)
        kx = 4.0 * (t % 20) + gen.integers(1000, 3000)
        ky = 4.0 * (t // 20) + gen.integers(1000, 3000)
        px = [_cell_ends(x0, kx, side)[0], _cell_ends(x0, kx + 1.0, side)[1]]
        py = [_cell_ends(y0, ky, side)[0], _cell_ends(y0, ky + 1.0, side)[1]]
        yield (f"cell-corners-{seed}",
               *_shuffled(gen, np.concatenate([*px, [x0]]),
                          np.concatenate([*py, [y0]])), radius)
    # pairs at exactly the radius 5/16, with offsets (5, 0), (0, 5),
    # (3, 4), (4, -3) in 16ths, each pair alone in its 10 x 10 tile and
    # placed on a 1/1024 lattice, so many lie two cells apart on an axis
    gen = np.random.default_rng(7)
    for name, (ux, uy) in (("x", (5, 0)), ("y", (0, 5)),
                           ("diag-up", (3, 4)), ("diag-down", (4, -3))):
        tiles = np.arange(300.0)
        ax = 10.0 * (tiles % 20) + gen.integers(0, 4096, 300) / 1024.0
        ay = 10.0 * (tiles // 20) + gen.integers(0, 4096, 300) / 1024.0
        px = np.concatenate([ax, ax + ux / 16.0])
        py = np.concatenate([ay, ay + uy / 16.0])
        yield f"exact-radius-pairs-{name}", *_shuffled(gen, px, py), 5 / 16
    # scattered points a few to a cell: cells often hold a close pair
    # although their first points lie apart
    for seed in range(3):
        gen = np.random.default_rng(30 + seed)
        px, py = gen.uniform(0.0, 12.0, (2, 1500))
        yield f"scattered-{seed}", px, py, 0.25 + 0.05 * seed
    for seed in range(6):
        gen = np.random.default_rng(seed)
        centres = gen.uniform(-10.0, 10.0, (8, 2))
        pts = (centres[gen.integers(0, 8, 1500)]
               + gen.normal(0.0, 0.3, (1500, 2)))
        yield f"clumps-{seed}", pts[:, 0], pts[:, 1], gen.uniform(0.05, 0.5)
    # survivors of a refine round: child lattice points, then the parents
    # that spawned them; with odd m the middle child sits on its parent
    for m in (4, 3):
        gen = np.random.default_rng(m)
        dx, dy = 0.013, 0.021
        cells = np.unique(gen.integers(0, 40, (150, 2)), axis=0)
        px = 1.7 + (cells[:, 0] + 0.5) * dx
        py = -0.4 + (cells[:, 1] + 0.5) * dy
        ox = ((np.arange(m) + 0.5) / m - 0.5) * dx
        oy = ((np.arange(m) + 0.5) / m - 0.5) * dy
        cx = (px[:, None, None] + ox[None, :, None]
              + np.zeros((1, 1, m))).ravel()
        cy = (py[:, None, None] + np.zeros((1, m, 1))
              + oy[None, None, :]).ravel()
        allx = np.concatenate([cx, px])
        ally = np.concatenate([cy, py])
        keep = np.sort(gen.choice(allx.size, 1200, replace=False))
        yield (f"refine-round-m{m}", allx[keep], ally[keep],
               2.0 * math.hypot(dx / m, dy / m))
    # survivors of the final round, clustered at 2 * hypot(dx, dy) of the
    # child spacing; the spacings are dyadic in the ratio 3:4, so the
    # hypotenuse is exact and children two steps apart along a diagonal
    # lie at exactly the radius
    for m in (4, 2):
        gen = np.random.default_rng(10 + m)
        dx, dy = 0.375 * 2.0 ** -6, 0.5 * 2.0 ** -6
        cells = np.unique(gen.integers(0, 30, (120, 2)), axis=0)
        px = 1.5 + (cells[:, 0] + 0.5) * (m * dx)
        py = -0.25 + (cells[:, 1] + 0.5) * (m * dy)
        ox = ((np.arange(m) + 0.5) / m - 0.5) * (m * dx)
        oy = ((np.arange(m) + 0.5) / m - 0.5) * (m * dy)
        cx = np.repeat(px[:, None] + ox, m)
        cy = np.tile(py[:, None] + oy, m)
        allx = np.concatenate([cx, px])
        ally = np.concatenate([cy.ravel(), py])
        keep = np.sort(gen.choice(allx.size, allx.size // 2, replace=False))
        yield (f"final-round-m{m}", allx[keep], ally[keep],
               2.0 * math.hypot(dx, dy))


def _groups(labels):
    """Component numbers as index lists, in component order."""
    return [np.flatnonzero(labels == k).tolist()
            for k in range(int(labels.max(initial=-1)) + 1)]


@pytest.mark.parametrize("px,py,radius", [pytest.param(*case[1:], id=case[0])
                                          for case in _point_sets()])
def test_cluster_matches_all_pairs_reference(px, py, radius):
    labels = oracle._cluster(px, py, radius)
    assert labels.shape == px.shape
    assert _groups(labels) == _reference_cluster(px, py, radius)


def test_final_round_sets_hinge_on_pairs_at_exactly_the_radius():
    """Some of their components join only across a diagonal pair at exactly
    the radius, so a strict distance test would split them."""
    for name, px, py, radius in _point_sets():
        if name.startswith("final-round"):
            dx = px[:, None] - px[None, :]
            dy = py[:, None] - py[None, :]
            diagonal = (dx != 0.0) & (dy != 0.0)
            assert np.any(diagonal & (dx * dx + dy * dy == radius * radius))
            below = np.nextafter(radius, 0.0)
            assert (_reference_cluster(px, py, radius)
                    != _reference_cluster(px, py, below)), name


def _reference_representatives(px, py, vals, groups):
    """Each group's pick as brute_force_minimize once made it."""
    return [min(group, key=lambda i: (vals[i], px[i], py[i]))
            for group in groups]


@pytest.mark.parametrize("ties", ["none", "vals", "vals+px", "all"])
def test_representatives_match_the_per_group_min(ties):
    rng = np.random.default_rng(len(ties))
    for trial in range(40):
        n = int(rng.integers(1, 300))
        vals, px, py = rng.uniform(-1.0, 1.0, (3, n))
        if ties != "none":
            vals = rng.integers(0, 3, n).astype(float)
        if ties in ("vals+px", "all"):
            px = rng.choice([-0.0, 0.0, 0.5], n)
        if ties == "all":
            py = rng.choice([-1.0, 2.0], n)
        # components numbered in the order of their least index
        raw = rng.integers(0, int(rng.integers(1, 12)), n)
        _, first, inverse = np.unique(raw, return_index=True,
                                      return_inverse=True)
        labels = np.argsort(np.argsort(first))[inverse]
        want = _reference_representatives(px, py, vals, _groups(labels))
        got = oracle._representatives(px, py, vals, labels)
        assert got.tolist() == want, trial


def test_no_state_carries_over_between_calls(five_way_exact):
    """Each call evaluates into buffers of its own: A, then B, then A."""
    other = _seeded_general_layout(3)
    spec = default_grid(five_way_exact, resolution=96, refine_rounds=4)
    first = brute_force_minimize(five_way_exact, spec)
    brute_force_minimize(other, default_grid(other, resolution=128,
                                             refine_rounds=3,
                                             refine_factor=3.0))
    assert brute_force_minimize(five_way_exact, spec) == first


def test_evaluate_into_given_buffers_is_bit_identical():
    zs, dsq = oracle._sensor_arrays(_seeded_general_layout(0))
    rng = np.random.default_rng(5)
    px = rng.uniform(-9.0, 9.0, (3, 1, 40))
    py = rng.uniform(-9.0, 9.0, (1, 3, 40))
    fresh = oracle._evaluate(zs, dsq, px, py)
    out, term = np.full((2, 3, 3, 40), np.nan)
    assert oracle._evaluate(zs, dsq, px, py, out=out, term=term) is out
    assert out.tobytes() == fresh.tobytes()


def test_objective_scalar_on_floats_is_bit_identical():
    cfg = canonical(2.0, 3.0, 6.1, 5.4)
    zs, dsq = oracle._sensor_arrays(cfg)
    terms, dsq_terms = zs.tolist(), dsq.tolist()
    rng = random.Random(8)
    pts = [(rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0))
           for _ in range(5000)]
    grid = oracle._evaluate(zs, dsq, np.array([p[0] for p in pts]),
                            np.array([p[1] for p in pts]))
    for (x, y), g in zip(pts, grid.tolist()):
        v = oracle._objective_scalar(terms, dsq_terms, x, y)
        # numpy scalars are what the refinement used to see
        assert v == oracle._objective_scalar(zs, dsq, x, y)
        # libm pow rounds a square within an ulp of numpy's x*x
        assert abs(v - g) <= 8 * math.ulp(max(dsq_terms) + x * x + y * y)


def _seeded_general_layout(index):
    """General layout ``index`` (from 0) of the seeded acceptance draws."""
    rng = random.Random(20240811)
    drawn = -1
    while drawn < index:
        pts = [Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
               for _ in range(3)]
        ax, ay = pts[1].x - pts[0].x, pts[1].y - pts[0].y
        bx, by = pts[2].x - pts[0].x, pts[2].y - pts[0].y
        if abs(ax * by - ay * bx) <= 0.5:
            continue
        d = tuple(rng.uniform(0.3, 8.0) for _ in range(3))
        drawn += 1
    return SensorConfig(tuple(pts), d)


def _minimize_reevaluating_parents(config, spec):
    """brute_force_minimize with its former child build and representative
    pick: each refine round evaluates the parents again beside their
    children, and each cluster keeps min(group, key=(vals, px, py))."""
    zs, dsq = oracle._sensor_arrays(config)
    xmin, xmax, ymin, ymax = spec.bounds
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
    vals = oracle._evaluate(zs, dsq, px, py)
    vmin = float(vals.min())
    round_values = [vmin]
    cell = math.hypot(dx, dy)
    px, py, vals, capped_out = oracle._prune(px, py, vals, vmin,
                                             1e-3 * (1.0 + abs(vmin)), lip,
                                             cell)
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
        vals = oracle._evaluate(zs, dsq, allx, ally)
        vmin = float(vals.min())
        dx /= m
        dy /= m
        cell = math.hypot(dx, dy)
        final = rnd == spec.refine_rounds - 1
        band = (1e-6 if final else 1e-3) * (1.0 + abs(vmin))
        px, py, vals, dropped = oracle._prune(allx, ally, vals, vmin, band,
                                              lip, cell)
        capped_out += dropped
        round_values.append(vmin)
    cluster_radius = 2.0 * cell
    groups = _groups(oracle._cluster(px, py, cluster_radius))
    window = 32.0 * cell
    terms, dsq_terms = zs.tolist(), dsq.tolist()
    refined = []
    for best in _reference_representatives(px, py, vals, groups):
        qx, qy = oracle._refine_rep(config, terms, dsq_terms, float(px[best]),
                                    float(py[best]), window)
        refined.append((qx, qy, oracle._objective_scalar(terms, dsq_terms,
                                                         qx, qy)))
    global_value = min(v for _, _, v in refined)
    cut = global_value + 1e-9 * (1.0 + abs(global_value))
    refined = [p for p in refined if p[2] <= cut]
    qx = np.array([p[0] for p in refined])
    qy = np.array([p[1] for p in refined])
    qv = np.array([p[2] for p in refined])
    groups = _groups(oracle._cluster(qx, qy, cluster_radius))
    minima = [(Point2(float(qx[b]), float(qy[b])), float(qv[b]))
              for b in _reference_representatives(qx, qy, qv, groups)]
    minima.sort(key=lambda entry: (entry[0].x, entry[0].y))
    return oracle.OracleResult(tuple(minima), cluster_radius, global_value,
                               tuple(round_values), capped_out)


def test_children_only_rounds_match_reevaluating_the_parents(five_way_exact):
    """General, isosceles, noisy and five-way layouts, refine factors 4
    and 3 (odd: the middle child sits on its parent)."""
    rng = random.Random(15)
    configs = [five_way_exact]
    configs += [_seeded_general_layout(k) for k in range(9)]
    for _ in range(9):
        r, s = rng.uniform(0.5, 4.0), rng.uniform(0.2, 4.0)
        configs.append(canonical(r, s, rng.uniform(0.05, 10.0),
                                 rng.uniform(0.05, 10.0)))
    configs.append(generate_instance(Point2(0.2, 0.7), configs[1].Z,
                                     NoiseSpec("uniform", 0.25), seed=3))
    capped = 0
    for k, cfg in enumerate(configs):
        spec = default_grid(cfg, resolution=64 + 8 * (k % 5), refine_rounds=5,
                            refine_factor=3.0 if k % 3 == 2 else 4.0)
        got = brute_force_minimize(cfg, spec)
        assert got == _minimize_reevaluating_parents(cfg, spec), k
        capped += got.capped_out > 0
    assert len(configs) == 20 and capped >= 10


def test_tied_cuts_match_reevaluating_the_parents_at_full_size(
        five_way_exact, monkeypatch):
    """192^2 x 6, where the cap fires with ties at its cap-th value: the
    five-way certificate, and an isosceles layout in its canonical frame,
    under a quarter turn and under a reflection.  On the last three a cut
    splits two tied values, so _prune ranks them by position."""
    cap, prune = oracle._SURVIVOR_CAP, oracle._prune
    cuts = []

    def recording(px, py, vals, vmin, band, lip, cell):
        if np.count_nonzero(vals <= vmin + max(band, lip * cell)) > cap:
            kth = np.partition(vals, cap - 1)[cap - 1]
            cuts.append((int(np.count_nonzero(vals < kth)),
                         int(np.count_nonzero(vals == kth))))
        return prune(px, py, vals, vmin, band, lip, cell)

    iso = canonical(1.92, 1.775, 6.11, 8.37)
    turned = SensorConfig(tuple(Point2(-z.y, z.x) for z in iso.Z), iso.d)
    mirrored = SensorConfig(tuple(Point2(z.x, -z.y) for z in iso.Z), iso.d)
    for k, cfg in enumerate((five_way_exact, iso, turned, mirrored)):
        spec = default_grid(cfg, resolution=192, refine_rounds=6)
        cuts.clear()
        monkeypatch.setattr(oracle, "_prune", recording)
        got = brute_force_minimize(cfg, spec)
        monkeypatch.setattr(oracle, "_prune", prune)
        assert any(ties > 1 for _, ties in cuts), k
        assert k == 0 or any(below + ties > cap for below, ties in cuts), k
        assert got == _minimize_reevaluating_parents(cfg, spec), k


def test_refinement_work_on_a_valley_layout(monkeypatch):
    """A valley layout whose 38 representatives once took 194,826 scalar
    evaluations, almost all in line searches, to keep one minimum.

    Each representative now costs at most 26 evaluations: itself, 6 points
    on each of 3 circles, 2 crossings for each of 3 pairs, and its final
    value."""
    calls, reps = [], []
    scalar, refine = oracle._objective_scalar, oracle._refine_rep

    def counting(zs, dsq, x, y):
        calls.append(1)
        return scalar(zs, dsq, x, y)

    def counting_reps(*args):
        reps.append(1)
        return refine(*args)

    monkeypatch.setattr(oracle, "_objective_scalar", counting)
    monkeypatch.setattr(oracle, "_refine_rep", counting_reps)
    cfg = _seeded_general_layout(32)
    res = brute_force_minimize(cfg, default_grid(cfg, resolution=192,
                                                 refine_rounds=6))
    assert len(res.minima) == 1
    assert reps and len(calls) <= (1 + 3 * 6 + 3 * 2 + 1) * len(reps)


def test_coincident_sensors_with_equal_ranges_refine():
    """Two sensors share a circle, so that pair's crossing is a continuum;
    the refinement skips the pair and snaps to the other two crossings."""
    cfg = SensorConfig((Point2(0.0, 0.0), Point2(0.0, 0.0), Point2(0.0, 1.0)),
                       (1.0, 1.0, 1.0))
    res = brute_force_minimize(cfg, default_grid(cfg, resolution=64,
                                                 refine_rounds=2))
    assert [(round(p.x, 12), round(p.y, 12)) for p, _ in res.minima] == [
        (round(-S3 / 2, 12), 0.5), (round(S3 / 2, 12), 0.5)]
    assert res.global_value < 1e-15


class _Lookup:
    """A non-array coordinate stand-in that records what _prune asks."""

    def __init__(self, values):
        self.values, self.asked = values, []

    def __getitem__(self, sel):
        assert isinstance(sel, np.ndarray) and sel.dtype.kind == "i"
        self.asked.append(sel.size)
        return self.values[sel]


class TestSurvivorCap:
    def test_prune_reports_what_the_cap_dropped(self, monkeypatch):
        monkeypatch.setattr(oracle, "_SURVIVOR_CAP", 3)
        vals = np.array([0.5, 0.1, 9.0, 0.2, 0.3, 0.0])
        px = np.arange(6.0)
        ranked = np.lexsort((-px, px, vals))
        out = oracle._prune(px, -px, vals, 0.0, 1.0, 0.0, 1.0)
        assert out[0].tolist() == px[np.sort(ranked[:3])].tolist()
        assert out[0].tolist() == [1.0, 3.0, 5.0]
        assert out[3] == 2
        out = oracle._prune(px, -px, vals, 0.0, 0.15, 0.0, 1.0)
        assert out[0].tolist() == [1.0, 5.0] and out[3] == 0

    @pytest.mark.parametrize("cap", [1, 3, 50, 400])
    def test_partial_selection_matches_a_full_sort(self, monkeypatch, cap):
        """Heavy ties in value and position, ties at the cut included: the
        cells a full (vals, px, py) sort keeps, in index order."""
        monkeypatch.setattr(oracle, "_SURVIVOR_CAP", cap)
        rng = np.random.default_rng(cap)
        for levels in (1, 2, 5, 40):
            n = 3 * cap + 7
            vals = rng.integers(0, levels, n).astype(float)
            px = rng.integers(0, 4, n).astype(float)
            py = rng.integers(0, 3, n).astype(float)
            ranked = np.lexsort((py, px, vals))
            full = np.sort(ranked[:cap])
            if levels <= 2:  # the cut splits a run of equal values
                assert vals[ranked[cap - 1]] == vals[ranked[cap]]
            out = oracle._prune(px, py, vals, 0.0, float(levels), 0.0, 1.0)
            assert out[0].tolist() == px[full].tolist()
            assert out[1].tolist() == py[full].tolist()
            assert out[2].tolist() == vals[full].tolist()
            assert out[3] == n - cap

    @pytest.mark.parametrize("cap", [3, 50])
    def test_stand_in_coordinates_match_arrays(self, monkeypatch, cap):
        """px and py are only indexed, and only at the cells in question:
        the kept ones, plus the ties at the cut when the cap splits them."""
        monkeypatch.setattr(oracle, "_SURVIVOR_CAP", cap)
        rng = np.random.default_rng(7 + cap)
        for levels in (2, 40, 1000):
            n = 3 * cap + 7
            vals = rng.integers(0, levels, n).astype(float)
            px = rng.integers(0, 4, n).astype(float)
            py = rng.integers(0, 3, n).astype(float)
            for band in (float(levels), 0.5 * levels):
                want = oracle._prune(px, py, vals, 0.0, band, 0.0, 1.0)
                lx, ly = _Lookup(px), _Lookup(py)
                got = oracle._prune(lx, ly, vals, 0.0, band, 0.0, 1.0)
                assert [a.tolist() for a in got[:3]] == [
                    a.tolist() for a in want[:3]] and got[3] == want[3]
                ties = int(np.count_nonzero(vals == np.sort(vals)[cap - 1]))
                assert sum(lx.asked) <= cap + ties
                assert lx.asked == ly.asked

    def test_exact_duplicates_split_at_the_cut(self, monkeypatch):
        """Four equal (vals, px, py) triples, three above the cut and one
        below: the cells kept are the least indices of the full sort, and
        no order could tell the triples apart."""
        monkeypatch.setattr(oracle, "_SURVIVOR_CAP", 4)
        vals = np.array([2.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 3.0, 1.0])
        px = np.array([0.0, 2.0, 1.0, 5.0, 1.0, 1.0, 2.0, 0.0, 1.0])
        py = np.array([0.0, 4.0, 3.0, 9.0, 3.0, 3.0, 4.0, 0.0, 3.0])
        ranked = np.lexsort((py, px, vals))
        full = np.sort(ranked[:4])
        assert full.tolist() == [2, 3, 4, 5]  # (1, 1, 3) at 8 is dropped
        out = oracle._prune(px, py, vals, 0.0, 2.5, 0.0, 1.0)
        assert out[0].tolist() == px[full].tolist()
        assert out[1].tolist() == py[full].tolist()
        assert out[2].tolist() == vals[full].tolist()
        assert out[3] == 8 - 4

    def test_capped_out_totals_every_round(self, monkeypatch):
        cap = oracle._SURVIVOR_CAP
        dropped = []
        prune = oracle._prune

        def recording(px, py, vals, vmin, band, lip, cell):
            kept = int(np.count_nonzero(vals <= vmin + max(band, lip * cell)))
            dropped.append(max(kept - cap, 0))
            return prune(px, py, vals, vmin, band, lip, cell)

        monkeypatch.setattr(oracle, "_prune", recording)
        # a general layout where the cap fires
        cfg = SensorConfig((Point2(-2.2, -3.7), Point2(4.1, -1.9),
                            Point2(-0.6, 4.3)), (3.4, 5.9, 4.8))
        res = brute_force_minimize(cfg, default_grid(cfg, resolution=192,
                                                     refine_rounds=6))
        assert len(dropped) == 7
        assert res.capped_out == sum(dropped) > 0

    def test_capped_out_zero_when_the_cap_never_fires(self):
        zs = (Point2(-1, 0), Point2(1, 0), Point2(0.2, 2.2))
        src = Point2(0.25, 0.8)
        cfg = SensorConfig(zs, tuple(distance(src, z) for z in zs))
        res = brute_force_minimize(cfg, default_grid(cfg, resolution=64,
                                                     refine_rounds=2))
        assert res.capped_out == 0


class TestGenerateInstance:
    sensors = (Point2(-1.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 1.8))
    src = Point2(0.2, 0.7)

    def test_deterministic_for_seed(self):
        a = generate_instance(self.src, self.sensors,
                              NoiseSpec("uniform", 0.3), seed=11)
        b = generate_instance(self.src, self.sensors,
                              NoiseSpec("uniform", 0.3), seed=11)
        assert a.d == b.d
        c = generate_instance(self.src, self.sensors,
                              NoiseSpec("uniform", 0.3), seed=12)
        assert a.d != c.d

    def test_noiseless_ranges_are_exact(self):
        cfg = generate_instance(self.src, self.sensors, NoiseSpec(), seed=5)
        for z, d in zip(cfg.Z, cfg.d):
            assert abs(d - distance(self.src, z)) < 1e-15

    def test_uniform_noise_bounded(self):
        for seed in range(50):
            cfg = generate_instance(self.src, self.sensors,
                                    NoiseSpec("uniform", 0.25), seed)
            for z, d in zip(cfg.Z, cfg.d):
                assert abs(d - distance(self.src, z)) <= 0.25 + 1e-12

    def test_normal_noise_smoke(self):
        cfg = generate_instance(self.src, self.sensors,
                                NoiseSpec("normal", 0.1), seed=3)
        assert all(d >= 0.0 for d in cfg.d)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("triangular", 0.1)
        with pytest.raises(ValueError):
            NoiseSpec("uniform", -0.5)

    def test_rejection_after_exhausted_draws(self, monkeypatch):
        class _AlwaysNegative:
            def __init__(self, seed):
                pass

            def uniform(self, a, b):
                return -1e18

            def gauss(self, mu, sigma):
                return -1e18

        monkeypatch.setattr(geometry.random, "Random", _AlwaysNegative)
        with pytest.raises(NoiseRejection):
            generate_instance(self.src, self.sensors,
                              NoiseSpec("uniform", 0.3), seed=0)


def test_noisy_instances_have_positive_minimum():
    """Perturbed ranges break the common intersection: O_min > 0.

    All 1000 seeds pass at this noise level; the required rate is 99%.
    """
    sensors = (Point2(-1.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 1.8))
    src = Point2(0.2, 0.7)
    positive = 0
    for seed in range(1000):
        cfg = generate_instance(src, sensors, NoiseSpec("uniform", 0.25), seed)
        res = brute_force_minimize(cfg, default_grid(cfg, resolution=64,
                                                     refine_rounds=2))
        if res.global_value > 1e-12:
            positive += 1
    assert positive >= 990


def _objective_table_on_arrays(config, tie_tol=1e-9):
    """``objective_table`` as the oracle computed it, on its sensor arrays."""
    zs, dsq = (a.tolist() for a in oracle._sensor_arrays(config))
    values = []
    for label, i, j in (("S12+", 0, 1), ("S23+", 1, 2), ("S31+", 2, 0),
                        ("S12-", 0, 1), ("S23-", 1, 2), ("S31-", 2, 0)):
        pts = circle_circle_intersect(config, i, j)
        if not pts:
            raise MissingIntersection(label)
        point = pts[0] if label.endswith("+") else pts[-1]
        values.append((label, oracle._objective_scalar(zs, dsq, point.x,
                                                       point.y)))
    vmin = min(v for _, v in values)
    cut = vmin + tie_tol * max(1.0, abs(vmin))
    return [(label, v, v <= cut) for label, v in values]


def test_objective_table_matches_the_array_path_bit_for_bit():
    """1,000 general and isosceles layouts whose six intersections exist."""
    rng = random.Random(6)
    compared = 0
    for n in range(2000):
        src = Point2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if n % 2:
            r, s = rng.uniform(0.5, 4.0), rng.uniform(0.3, 5.0)
            src = Point2(0.0, src.y)
            d1 = distance(src, Point2(r / 2.0, 0.0)) * rng.uniform(0.9, 1.1)
            cfg = canonical(r, s, d1, distance(src, Point2(0.0, s))
                            * rng.uniform(0.9, 1.1))
        else:
            zs = tuple(Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                       for _ in range(3))
            cfg = SensorConfig(zs, tuple(distance(src, z) * rng.uniform(0.9, 1.1)
                                         for z in zs))
        try:
            want = _objective_table_on_arrays(cfg)
        except MissingIntersection:
            with pytest.raises(MissingIntersection):
                objective_table(cfg)
            continue
        assert objective_table(cfg) == want
        compared += 1
        if compared == 1000:
            break
    assert compared == 1000


def test_oracle_reexports_the_instance_generator():
    assert oracle.generate_instance is geometry.generate_instance
    assert oracle.NoiseSpec is geometry.NoiseSpec


class TestObjectiveTable:
    def test_equilateral_row_a(self):
        cfg = canonical(2.0, S3, 1.3333, 1.9737)
        table = {lab: (v, f) for lab, v, f in objective_table(cfg, tie_tol=1e-3)}
        assert abs(table["S12+"][0] - 3.1726) < 1e-3
        assert abs(table["S23+"][0] - 1.2628) < 1e-3
        assert abs(table["S31+"][0] - 1.2628) < 1e-3
        assert abs(table["S12-"][0] - 2.9375) < 1e-3
        assert abs(table["S23-"][0] - 7.3803) < 1e-3
        assert abs(table["S31-"][0] - 7.3803) < 1e-3
        assert {lab for lab, (v, f) in table.items() if f} == {"S23+", "S31+"}

    def test_sharp_row_with_three_way_flag(self):
        cfg = canonical(2.0, 3.0, 5.1167, 4.4882)
        table = {lab: (v, f) for lab, v, f in objective_table(cfg, tie_tol=1e-3)}
        for lab in ("S12+", "S23+", "S31+"):
            assert abs(table[lab][0] - 16.0720) < 1e-3
        assert abs(table["S12-"][0] - 44.1440) < 1e-3
        assert abs(table["S23-"][0] - 17.6576) < 1e-3
        assert {lab for lab, (v, f) in table.items() if f} \
            == {"S12+", "S23+", "S31+"}

    def test_flat_row(self):
        cfg = canonical(2.0, 1.0, 4.4721, 3.9155)
        table = {lab: (v, f) for lab, v, f in objective_table(cfg, tie_tol=1e-3)}
        assert abs(table["S12+"][0] - 4.0491) < 1e-3
        assert abs(table["S23+"][0] - 13.4171) < 1e-3
        assert abs(table["S12-"][0] - 13.3865) < 1e-3
        assert abs(table["S23-"][0] - 8.0797) < 1e-3
        assert {lab for lab, (v, f) in table.items() if f} == {"S12+"}

    def test_symmetric_pairs_tie_exactly(self):
        # d1 = d2 forces the 23/31 columns equal to machine precision
        cfg = canonical(2.0, 3.0, 6.1, 5.4)
        table = {lab: v for lab, v, _ in objective_table(cfg)}
        assert abs(table["S23+"] - table["S31+"]) < 1e-12 * (1 + table["S23+"])
        assert abs(table["S23-"] - table["S31-"]) < 1e-12 * (1 + table["S23-"])

    def test_missing_intersection_raises(self):
        cfg = canonical(2.0, 3.0, 0.4, 0.4)
        with pytest.raises(MissingIntersection):
            objective_table(cfg)


def test_contour_grid_values_match_objective():
    cfg = canonical(2.0, 3.0, 6.1, 5.4)
    xs, ys, vals = contour_grid(cfg, resolution=48)
    assert vals.shape == (len(xs), len(ys))
    from trilat.regions import objective_value
    for i in (0, 17, 31):
        for j in (3, 29, 45):
            direct = objective_value(cfg, Point2(float(xs[i]), float(ys[j])))
            assert abs(vals[i, j] - direct) < 1e-9 * (1.0 + direct)


def test_contour_grid_equals_the_objective_on_meshgrid_points():
    """The axes broadcast inside _evaluate give the same floats as the
    grid's points spelled out one by one."""
    cfg = canonical(2.0, 3.0, 6.1, 5.4)
    xs, ys, vals = contour_grid(cfg, resolution=37)
    zs, dsq = oracle._sensor_arrays(cfg)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    flat = oracle._evaluate(zs, dsq, xx.ravel(), yy.ravel())
    assert vals.ravel().tolist() == flat.tolist()


def test_contour_grid_min_dominates_true_min(five_way_exact):
    _, _, vals = contour_grid(five_way_exact, resolution=96)
    # grid samples can only overestimate the global minimum (24 here)
    assert vals.min() >= 24.0 - 1e-9
