"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion reports a PASS/FAIL line in the terminal summary (see
conftest).  Tolerances are pinned here and nowhere else.
"""
import collections
import hashlib
import math
import random
import time

from conftest import register_criterion
from trilat import classifier, oracle
from trilat import thresholds as th
from trilat.cli import main, reconstruct_four_equal
from trilat.geometry import (Point2, SensorConfig, circle_circle_intersect,
                             config_scale, distance)
from trilat.regions import objective_value

register_criterion(1, "equilateral fixture values and tie flags under 1 s")
register_criterion(2, "isosceles fixture values and tie flags under 1 s")
register_criterion(3, "four-equal fixture reconstructed from closed forms")
register_criterion(4, "five-minimizer certificate from classifier and oracle")
register_criterion(5, "tail tie radius and balance parameter fixture")
register_criterion(6, "classifier matches oracle on 1000 random instances")
register_criterion(7, "multiplicity never exceeds five on either path")
register_criterion(8, "comparator sign laws on 1000 valid instances each")
register_criterion(9, "multiplicity maps with hand-placed spot cells")

COLUMNS = ("S12+", "S23+", "S31+", "S12-", "S23-", "S31-")

SQRT3 = math.sqrt(3.0)


def _cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, argv
    return out.strip().splitlines()


def _s_points(cfg):
    out = {}
    for name, i, j in (("S12", 0, 1), ("S23", 1, 2), ("S31", 2, 0)):
        pts = circle_circle_intersect(cfg, i, j) or (None,)
        out[name + "+"], out[name + "-"] = pts[0], pts[-1]
    return out


def _check_rows(lines, expected, first_value_col):
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(expected)
    for (rid, values, flags), row in zip(expected, rows):
        assert row[0] == rid
        got = [float(v) for v in row[first_value_col:first_value_col + 6]]
        for g, e in zip(got, values):
            assert abs(g - e) <= 1e-3, (rid, got, values)
        names = row[first_value_col + 6]
        got_flags = {COLUMNS.index(n) for n in names.split(";") if n}
        assert got_flags == flags, (rid, names, flags)


# --- criterion 1: equilateral fixture table ---------------------------------

EQUILATERAL_EXPECTED = [
    ("a", [3.1726, 1.2628, 1.2628, 2.9375, 7.3803, 7.3803], {1, 2}),
    ("b", [1.2438, 4.9420, 4.9420, 15.3838, 3.8720, 3.8720], {0}),
    ("c", [6.3138, 6.3138, 6.3138, 10.3138, 10.3138, 10.3138], {0, 1, 2}),
    ("d", [15.2144, 9.9563, 9.9563, 11.6184, 17.7543, 17.7543], {1, 2}),
    ("e", [19.4164, 7.4164, 7.4164, 7.4164, 19.4164, 19.4164], {1, 2, 3}),
    ("f", [23.0000, 4.4093, 4.4093, 3.8328, 19.9929, 19.9929], {3}),
]


def test_criterion_1(capsys):
    t0 = time.perf_counter()
    lines = _cli(capsys, ["table", "--family", "equilateral"])
    elapsed = time.perf_counter() - t0
    _check_rows(lines, EQUILATERAL_EXPECTED, 3)
    assert elapsed < 1.0


# --- criterion 2: isosceles fixture table -----------------------------------

ISOSCELES_EXPECTED = [
    ("1a", [2.8643, 2.8643, 2.8643, 3.2429, 6.4858, 6.4858], {0, 1, 2}),
    ("1b", [3.4103, 2.5370, 2.5370, 2.6969, 7.2504, 7.2504], {1, 2}),
    ("1c", [0.5567, 4.6636, 4.6636, 7.4433, 1.7770, 1.7770], {0}),
    ("1d", [4.0000, 4.0000, 4.0000, 4.0000, 8.0000, 8.0000], {0, 1, 2, 3}),
    ("1e", [4.0491, 13.4171, 13.4171, 13.3865, 8.0797, 8.0797], {0}),
    ("1f", [8.7178, 10.4900, 10.4900, 8.7178, 14.4900, 14.4900], {0, 3}),
    ("3a", [6.5105, 12.9986, 12.9986, 53.7055, 10.7596, 10.7596], {0}),
    ("3b", [16.0720, 16.0720, 16.0720, 44.1440, 17.6576, 17.6576], {0, 1, 2}),
    ("3c", [22.6289, 16.4606, 16.4606, 37.5872, 20.6689, 20.6689], {1, 2}),
    ("3d", [10.6491, 20.5469, 20.5469, 73.3509, 15.2066, 15.2066], {0}),
    ("3e", [24.0000, 24.0000, 24.0000, 60.0000, 24.0000, 24.0000],
     {0, 1, 2, 4, 5}),
    ("3f", [32.5832, 24.2271, 24.2271, 51.4168, 27.6604, 27.6604], {1, 2}),
    ("3g", [28.6572, 36.0460, 36.0460, 94.5497, 30.0675, 30.0675], {0}),
    ("3h", [31.8414, 36.5462, 36.5462, 91.3655, 31.8414, 31.8414], {0, 4, 5}),
    ("3i", [42.4272, 37.2617, 37.2617, 80.7797, 36.7912, 36.7912], {4, 5}),
]


def test_criterion_2(capsys):
    t0 = time.perf_counter()
    lines = _cli(capsys, ["table", "--family", "isosceles"])
    elapsed = time.perf_counter() - t0
    _check_rows(lines, ISOSCELES_EXPECTED, 4)
    five_way = lines[11].split(",")
    assert five_way[0] == "3e"
    assert abs(float(five_way[2]) - 7.0711) <= 1e-4
    assert abs(float(five_way[3]) - 6.3246) <= 1e-4
    assert elapsed < 1.0


# --- criterion 3: four-equal fixture reconstructed --------------------------

FOUR_EQUAL_EXPECTED = [
    ("a", [3.0000, 6.6564, 6.6564, 12.0000, 6.6564, 6.6564], {0}),
    ("b", [14.8862, 16.2207, 16.2207, 114.8862, 16.2207, 16.2207], {0}),
    ("c", [21.6750, 20.1430, 20.1430, 121.6750, 20.1430, 20.1430],
     {1, 2, 4, 5}),
    ("d", [18.1818, 18.1818, 18.1818, 118.1818, 18.1818, 18.1818],
     {0, 1, 2, 4, 5}),
]


def test_criterion_3(capsys):
    lines = _cli(capsys, ["table", "--family", "four-equal"])
    _check_rows(lines, FOUR_EQUAL_EXPECTED, 4)
    row_a = lines[1].split(",")
    assert abs(float(row_a[1]) - 1.5) <= 1e-3
    assert abs(float(row_a[3]) - 2.0) <= 1e-3
    s, d1, d3 = reconstruct_four_equal(3.0, 12.0)
    assert abs(s - 1.5) < 1e-9
    assert abs(d3 - 2.0) < 1e-4
    assert abs(d1 - math.sqrt(d3 * d3 + s * s + 1.0)) < 1e-12


# --- criterion 4: five-minimizer certificate --------------------------------

def test_criterion_4():
    t0 = time.perf_counter()
    d = (math.sqrt(50.0), math.sqrt(50.0), math.sqrt(40.0))
    sol = classifier.solve_isosceles(2.0, 3.0, d[0], d[2])
    assert sol.multiplicity == 5
    config = SensorConfig.from_canonical(2.0, 3.0, d)
    spec = oracle.default_grid(config, resolution=512, refine_rounds=6)
    res = oracle.brute_force_minimize(config, spec)
    assert len(res.minima) == 5
    for _, v in res.minima:
        assert abs(v - 24.0) <= 1e-2
    assert time.perf_counter() - t0 < 30.0


# --- criterion 5: tail tie radius fixture -----------------------------------

def test_criterion_5():
    d3s, t_star = th.d3_star_root(2.0, 3.0, 10.3158)
    assert abs(d3s - 9.2008) <= 1e-3
    assert abs(t_star - 0.7302) <= 1e-3
    cfg = SensorConfig.from_canonical(2.0, 3.0, (10.3158, 10.3158, d3s))
    sp = _s_points(cfg)
    vals = [objective_value(cfg, sp[k]) for k in ("S12+", "S23-", "S31-")]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-6 * max(1.0, vals[0])


# --- criterion 6: oracle equivalence on random suites -----------------------

def _bundle_values(r, s, d1):
    b = th.compute_bundle(r, s, d1)
    return [v for v in (b.d3_0, b.d1_0, b.R, b.M, b.P, b.Q, b.d3_star)
            if v is not None]


def _on_threshold(r, s, d1, d3):
    return any(abs(d1 - v) < 1e-7 or abs(d3 - v) < 1e-7
               for v in _bundle_values(r, s, d1))


def _oracle_problems(config, sol, resolution=192, rounds=6):
    spec = oracle.default_grid(config, resolution=resolution,
                               refine_rounds=rounds)
    res = oracle.brute_force_minimize(config, spec)
    scale = config_scale(config)
    problems = []
    if len(res.minima) != sol.multiplicity:
        problems.append(f"count {sol.multiplicity} vs {len(res.minima)}")
    verr = abs(res.global_value - sol.objective_value) / max(
        1.0, abs(sol.objective_value))
    if verr > 1e-6:
        problems.append(f"value err {verr:.3e}")
    for cand in sol.points:
        perr = min(distance(cand.location, p) for p, _ in res.minima)
        if perr > 1e-3 * scale:
            problems.append(f"position err {perr:.3e} at scale {scale:.3f}")
    return problems


def test_criterion_6():
    t0 = time.perf_counter()
    mismatches = []
    excluded = 0

    rng = random.Random(20240812)
    checked = 0
    while checked < 500:
        r = rng.uniform(0.5, 4.0)
        s = rng.uniform(0.2, 4.0)
        d1 = rng.uniform(0.05, 10.0)
        d3 = rng.uniform(0.05, 10.0)
        if _on_threshold(r, s, d1, d3):
            excluded += 1
            continue
        checked += 1
        config = SensorConfig.from_canonical(r, s, (d1, d1, d3))
        sol = classifier.solve_isosceles(r, s, d1, d3)
        for problem in _oracle_problems(config, sol):
            mismatches.append(((r, s, d1, d3), problem))

    rng2 = random.Random(20240811)
    checked = 0
    while checked < 500:
        pts = [Point2(rng2.uniform(-5.0, 5.0), rng2.uniform(-5.0, 5.0))
               for _ in range(3)]
        ax, ay = pts[1].x - pts[0].x, pts[1].y - pts[0].y
        bx, by = pts[2].x - pts[0].x, pts[2].y - pts[0].y
        if abs(ax * by - ay * bx) <= 0.5:
            continue
        d = tuple(rng2.uniform(0.3, 8.0) for _ in range(3))
        checked += 1
        config = SensorConfig(tuple(pts), d)
        sol = classifier.solve(config)
        for problem in _oracle_problems(config, sol):
            mismatches.append((tuple(d), problem))

    assert not mismatches, mismatches[:5]
    assert excluded < 100
    assert time.perf_counter() - t0 < 600.0


# --- criterion 7: multiplicity cap ------------------------------------------

def test_criterion_7(capsys):
    rng = random.Random(20240807)
    for _ in range(400):
        r = rng.uniform(0.5, 4.0)
        s = rng.uniform(0.2, 4.0)
        d1 = rng.uniform(0.05, 10.0)
        d3 = rng.uniform(0.05, 10.0)
        assert classifier.solve_isosceles(r, s, d1, d3).multiplicity <= 5

    for _ in range(200):
        pts = [Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
               for _ in range(3)]
        ax, ay = pts[1].x - pts[0].x, pts[1].y - pts[0].y
        bx, by = pts[2].x - pts[0].x, pts[2].y - pts[0].y
        if abs(ax * by - ay * bx) <= 0.5:
            continue
        d = tuple(rng.uniform(0.3, 8.0) for _ in range(3))
        config = SensorConfig(tuple(pts), d)
        assert classifier.solve(config).multiplicity <= 5

    for _ in range(40):
        r = rng.uniform(0.5, 4.0)
        s = rng.uniform(0.2, 4.0)
        d1 = rng.uniform(0.5, 8.0)
        d3 = rng.uniform(0.5, 8.0)
        config = SensorConfig.from_canonical(r, s, (d1, d1, d3))
        spec = oracle.default_grid(config, resolution=128, refine_rounds=4)
        assert len(oracle.brute_force_minimize(config, spec).minima) <= 5

    lines = _cli(capsys, ["sweep", "--r", "2", "--s", "3",
                          "--d1", "1", "11", "--d3", "0.2", "11",
                          "--steps", "80"])
    assert all(int(line.split(",")[2]) <= 5 for line in lines[1:])

    # the cap is attained, never exceeded
    five = classifier.solve_isosceles(2.0, 3.0, math.sqrt(50.0),
                                      math.sqrt(40.0))
    assert five.multiplicity == 5


# --- criterion 8: comparator sign laws --------------------------------------

def _apex_pair_exists(r, s, d1, d3, margin=1e-6):
    ell = math.hypot(r / 2.0, s)
    return abs(d1 - d3) + margin < ell < d1 + d3 - margin


def _chord_window(r, s, d1, d3, margin=1e-6):
    h = math.sqrt(d1 * d1 - r * r / 4.0)
    return abs(s - h) + margin < d3 < s + h - margin


def _run_sign_law(seed, valid, predictor, pa, pb, n=1000):
    rng = random.Random(seed)
    checked = ties = attempts = 0
    while checked < n:
        attempts += 1
        assert attempts < 400000, "sampler starved"
        r = rng.uniform(0.5, 4.0)
        s = rng.uniform(0.2, 4.0)
        d1 = rng.uniform(0.05, 10.0)
        d3 = rng.uniform(0.05, 10.0)
        info = valid(r, s, d1, d3)
        if info is None:
            continue
        cfg = SensorConfig.from_canonical(r, s, (d1, d1, d3))
        sp = _s_points(cfg)
        va = objective_value(cfg, sp[pa])
        vb = objective_value(cfg, sp[pb])
        if abs(va - vb) <= 1e-9 * max(1.0, abs(va), abs(vb)):
            ties += 1
            continue
        pred = predictor(r, s, d1, d3, info)
        assert (va > vb) == (pred > 0.0), (pa, pb, r, s, d1, d3, va, vb, pred)
        checked += 1
    return checked, ties


def test_criterion_8():
    # base pair: O(S12+) vs O(S12-) crosses at the base crossover radius
    def valid_base(r, s, d1, d3):
        return True if d1 > r / 2.0 + 1e-6 else None

    def pred_base(r, s, d1, d3, info):
        return d3 - math.sqrt(d1 * d1 + s * s - r * r / 4.0)

    checked, _ = _run_sign_law(101, valid_base, pred_base, "S12+", "S12-")
    assert checked == 1000

    # apex pair: O(S23+) vs O(S23-) ordered by d1^2 against ell^2 + d3^2
    def valid_apex(r, s, d1, d3):
        return True if _apex_pair_exists(r, s, d1, d3) else None

    def pred_apex(r, s, d1, d3, info):
        return d1 * d1 - (r * r / 4.0 + s * s) - d3 * d3

    checked, _ = _run_sign_law(102, valid_apex, pred_apex, "S23+", "S23-")
    assert checked == 1000

    # cross comparisons hold for d3 strictly inside the chord window
    def valid_r(r, s, d1, d3):
        if d1 * d1 <= r * r / 4.0 + s * s / 9.0 + 1e-6:
            return None
        if not _chord_window(r, s, d1, d3):
            return None
        if not _apex_pair_exists(r, s, d1, d3):
            return None
        return th.compute_bundle(r, s, d1).R

    def pred_cross(r, s, d1, d3, info):
        return d3 - info

    checked, _ = _run_sign_law(112, valid_r, pred_cross, "S12+", "S23+")
    assert checked == 1000

    def valid_m(r, s, d1, d3):
        if d1 * d1 <= r * r / 4.0 + s * s + 1e-6:
            return None
        if not _chord_window(r, s, d1, d3):
            return None
        if not _apex_pair_exists(r, s, d1, d3):
            return None
        return th.compute_bundle(r, s, d1).M

    checked, _ = _run_sign_law(113, valid_m, pred_cross, "S31+", "S12-")
    assert checked == 1000


# --- criterion 9: multiplicity maps and spot cells --------------------------

MAPS = {
    "eq": (2.0, SQRT3, (1.0, 9.0), (0.2, 9.0),
           {1: 36327, 2: 3655, 3: 18}),
    "s3": (2.0, 3.0, (1.0, 11.0), (0.2, 11.0),
           {1: 29616, 2: 10384}),
    "s1": (2.0, 1.0, (0.6, 9.0), (0.05, 9.0),
           {1: 39714, 2: 286}),
}

SPOT_CELLS = {
    "eq": [
        (0.5, 0.5, 1), (0.9, 0.7, 1),
        (2.0 / SQRT3, 2.0 / SQRT3, 1),
        (1.3, 1.3, 3), (2.6, 2.6, 3), (4.0, 4.0, 3), (6.5, 6.5, 3),
        (1.3333, 1.9737, 2), (2.6, 1.3, 1), (4.0, 4.4495, 2),
        (4.0, math.sqrt(24.0), 3), (4.0, 5.2520, 1),
        (2.6, math.sqrt(2.6 ** 2 + 2.0), 2), (5.5, 1.0, 1),
        (1.3333, 2.4, 2), (4.0, math.sqrt(18.0), 2), (3.2, 3.9, 2),
        (0.2, 1.5, 1), (7.5, 2.0, 1), (4.0, 4.8990, 1),
    ],
    "s3": [
        (5.1167, 3.2531, 1), (5.1167, 4.4882, 1),
        (5.1167, th.threshold_R(2.0, 3.0, 5.1167), 3),
        (5.1167, 5.1673, 2), (7.0711, 5.1623, 1),
        (math.sqrt(50.0), math.sqrt(40.0), 5),
        (7.0711, 6.9702, 2), (10.3158, 9.0261, 1),
        (10.3158, th.d3_star(2.0, 3.0, 10.3158), 3),
        (10.3158, 9.7591, 2),
        (8.0, math.sqrt(54.0), 4), (9.0, math.sqrt(71.0), 4),
        (10.3158, math.sqrt(10.3158 ** 2 - 10.0), 4),
        (8.0, 7.0, 1), (8.0, 7.6, 2), (5.0, 2.0, 1), (2.0, 1.0, 1),
        (1.0, 0.5, 1), (3.0, 3.3, 2), (7.0711, 6.3246, 2),
    ],
    "s1": [
        (1.8251, 1.7725, 2),
        (1.8251, th.threshold_R(2.0, 1.0, 1.8251), 3),
        (1.8251, 1.9204, 2), (2.2361, 1.2477, 1),
        (math.sqrt(5.0), math.sqrt(5.0), 4), (2.2361, 2.2361, 2),
        (4.4721, 3.9155, 1), (math.sqrt(20.0), math.sqrt(20.0), 2),
        (4.4721, 4.4721, 2), (0.7, 0.3, 1), (3.0, 1.0, 1), (3.0, 2.9, 1),
        (1.2, 1.2, 2), (5.5, 5.2, 1), (6.0, 2.0, 1), (2.5, 0.3, 1),
        (0.5, 1.4, 1), (1.0, 2.8, 1), (4.0, math.sqrt(14.0), 1),
        (0.3, 0.1, 1),
    ],
}


def _cell_multiplicity(capsys, r, s, d1, d3):
    lines = _cli(capsys, ["sweep", "--r", repr(r), "--s", repr(s),
                          "--d1", repr(d1), repr(d1 + 1e-9),
                          "--d3", repr(d3), repr(d3 + 1e-9),
                          "--steps", "2"])
    return int(lines[1].split(",")[2])


# SHA-256 of each map's 200-step sweep CSV: a change that keeps the maps
# keeps these bytes.
SWEEP_SHA256 = {
    "eq": "cab839cd7353f032e653c9283fa299f0d8e1bf166f84b875e2f7a26e102d7b5b",
    "s3": "069ab9afbe9b77159bb5adbe99d22b8dbd7f1f941136fdb353ed8309bcfab99a",
    "s1": "a0e97d3f452244a6d1d09cabd5f6b92c7b5c653bf4dd239bfbb5a26e3d33efcd",
}


def test_criterion_9(capsys):
    for name, (r, s, (lo1, hi1), (lo3, hi3), expected_hist) in MAPS.items():
        rc = main(["sweep", "--r", repr(r), "--s", repr(s),
                   "--d1", repr(lo1), repr(hi1),
                   "--d3", repr(lo3), repr(hi3), "--steps", "200"])
        out = capsys.readouterr().out
        assert rc == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[name]
        lines = out.splitlines()
        hist = collections.Counter(int(line.split(",")[2])
                                   for line in lines[1:])
        assert dict(hist) == expected_hist, name
        assert set(hist) == set(expected_hist), name
        for d1, d3, want in SPOT_CELLS[name]:
            got = _cell_multiplicity(capsys, r, s, d1, d3)
            assert got == want, (name, d1, d3, got, want)
