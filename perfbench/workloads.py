"""The four workloads: their seeded inputs, their operation and its checks.

A workload builds one round of inputs from the seed through the program's
own constructors.  A run repeats that round whole, so every run attempts
the same operations in the same proportions.  ``op`` is the only timed
call; ``check`` runs on the first round's outputs after the timed window,
and later rounds must reproduce the first round's outputs exactly.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from typing import Any, List, Optional, Sequence, Tuple

from trilat import classifier, cli, oracle, thresholds
from trilat.geometry import Point2, SensorConfig

import checks

SQRT3 = math.sqrt(3.0)

# The five-minimizer certificate of the paper: r=2, s=3, d=(sqrt50, sqrt50, sqrt40).
CERTIFICATE = (2.0, 3.0, (math.sqrt(50.0), math.sqrt(50.0), math.sqrt(40.0)))
CERTIFICATE_VALUE = 24.0


def layout(config: SensorConfig) -> Tuple[List[Tuple[float, float]], Tuple[float, ...]]:
    """Plain-number copy of a configuration for the checks."""
    return [(z.x, z.y) for z in config.Z], tuple(config.d)


def solution_points(solution: classifier.SolutionSet) -> List[Tuple[float, float]]:
    return [(c.location.x, c.location.y) for c in solution.points]


# ---------------------------------------------------------------------------
# draws shared by the workloads

def draw_general(rng: random.Random) -> SensorConfig:
    """Noncollinear layout as criterion 6 draws it."""
    while True:
        pts = [Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
               for _ in range(3)]
        ax, ay = pts[1].x - pts[0].x, pts[1].y - pts[0].y
        bx, by = pts[2].x - pts[0].x, pts[2].y - pts[0].y
        if abs(ax * by - ay * bx) > 0.5:
            d = tuple(rng.uniform(0.3, 8.0) for _ in range(3))
            return SensorConfig(tuple(pts), d)


def draw_isosceles(rng: random.Random) -> Tuple[float, float, float, float]:
    """(r, s, d1, d3) as criterion 6 draws them, away from the equilateral band.

    The band |s / (sqrt(3)/2 r) - 1| < 1e-3 is where ``threshold_P`` can
    raise; ``SolveMix`` covers it with a fixed panel, so that a seeded draw
    never fails on some seeds only.
    """
    while True:
        r = rng.uniform(0.5, 4.0)
        s = rng.uniform(0.2, 4.0)
        if abs(s / (SQRT3 / 2.0 * r) - 1.0) >= 1e-3:
            return r, s, rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0)


def on_threshold(r: float, s: float, d1: float, d3: float) -> bool:
    """Within 1e-7 of a threshold radius, where criterion 6 excludes cells."""
    b = thresholds.compute_bundle(r, s, d1)
    return any(v is not None and (abs(d1 - v) < 1e-7 or abs(d3 - v) < 1e-7)
               for v in (b.d3_0, b.d1_0, b.R, b.M, b.P, b.Q, b.d3_star))


def moved(config: SensorConfig, rng: random.Random,
          quarter_turns: bool = False) -> SensorConfig:
    """Copy under a random rigid motion, reflection and relabelling.

    With ``quarter_turns`` the rotation is a multiple of 90 degrees, which
    maps the oracle's axis-aligned grid onto itself.
    """
    if quarter_turns:
        c, s = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[rng.randrange(4)]
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
    flip = rng.choice((1.0, -1.0))
    tx, ty = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    order = list(range(3))
    rng.shuffle(order)
    z = [Point2(c * p.x - s * flip * p.y + tx, s * p.x + c * flip * p.y + ty)
         for p in config.Z]
    return SensorConfig(tuple(z[i] for i in order),
                        tuple(config.d[i] for i in order))


def interleave(*groups: Sequence[Any]) -> List[Any]:
    """Merge lists so that each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(g), k, i) for k, g in enumerate(groups)
             for i in range(len(g))]
    return [groups[k][i] for _, k, i in sorted(keyed)]


def mirrored(config: SensorConfig, rng: random.Random) -> SensorConfig:
    """Copy reflected in the y axis and relabelled: no rounding at all."""
    order = list(range(3))
    rng.shuffle(order)
    z = [Point2(-config.Z[i].x, config.Z[i].y) for i in order]
    return SensorConfig(tuple(z), tuple(config.d[i] for i in order))


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    in_process = True
    min_ops = 100          # so that at least ten operations lie beyond p90
    trace_ops: Optional[int] = None   # None: one whole round when traced
    round: List[Any]

    def op(self, item: Any, traced: bool = False) -> Any:
        raise NotImplementedError

    def known_failure(self, exc: BaseException) -> bool:
        return False

    def same(self, a: Any, b: Any) -> bool:
        return a == b

    def check(self, item: Any, output: Any) -> List[str]:
        return []

    def final_checks(self) -> List[str]:
        return []

    def fallbacks(self, output: Any) -> int:
        """Solves in this output that ended in the table-path fallback."""
        return 0

    def cpu_seconds(self) -> float:
        return _cpu(resource.RUSAGE_SELF)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# maps: in-process sweeps over windows of the three criterion-9 maps

# (name, r, s, d1 range, d3 range, strata per side).  The tall-apex map gets
# finer strata: its windows beyond P (d1 > 7.07), where d3_star_root runs,
# cost about four times the others, and with 6 x 6 strata they made 11-17%
# of a round, so p90 sat on the edge of their cluster and moved by 17%
# between seeds.  With 8 x 8 they make about a fifth and p90 falls inside.
MAPS = (
    ("eq", 2.0, SQRT3, (1.0, 9.0), (0.2, 9.0), 6),
    ("s3", 2.0, 3.0, (1.0, 11.0), (0.2, 11.0), 8),
    ("s1", 2.0, 1.0, (0.6, 9.0), (0.05, 9.0), 6),
)
TILE = 10               # a window is TILE x TILE cells

# Criterion-9 spot cells, (d1, d3, multiplicity), most on the paper's tie loci.
SPOT_CELLS = {
    "eq": [
        (0.5, 0.5, 1), (0.9, 0.7, 1), (2.0 / SQRT3, 2.0 / SQRT3, 1),
        (1.3, 1.3, 3), (2.6, 2.6, 3), (4.0, 4.0, 3), (6.5, 6.5, 3),
        (1.3333, 1.9737, 2), (2.6, 1.3, 1), (4.0, 4.4495, 2),
        (4.0, math.sqrt(24.0), 3), (4.0, 5.2520, 1),
        (2.6, math.sqrt(2.6 ** 2 + 2.0), 2), (5.5, 1.0, 1),
        (1.3333, 2.4, 2), (4.0, math.sqrt(18.0), 2), (3.2, 3.9, 2),
        (0.2, 1.5, 1), (7.5, 2.0, 1), (4.0, 4.8990, 1),
    ],
    "s3": [
        (5.1167, 3.2531, 1), (5.1167, 4.4882, 1),
        (5.1167, "R", 3), (5.1167, 5.1673, 2), (7.0711, 5.1623, 1),
        (math.sqrt(50.0), math.sqrt(40.0), 5),
        (7.0711, 6.9702, 2), (10.3158, 9.0261, 1),
        (10.3158, "d3_star", 3), (10.3158, 9.7591, 2),
        (8.0, math.sqrt(54.0), 4), (9.0, math.sqrt(71.0), 4),
        (10.3158, math.sqrt(10.3158 ** 2 - 10.0), 4),
        (8.0, 7.0, 1), (8.0, 7.6, 2), (5.0, 2.0, 1), (2.0, 1.0, 1),
        (1.0, 0.5, 1), (3.0, 3.3, 2), (7.0711, 6.3246, 2),
    ],
    "s1": [
        (1.8251, 1.7725, 2), (1.8251, "R", 3),
        (1.8251, 1.9204, 2), (2.2361, 1.2477, 1),
        (math.sqrt(5.0), math.sqrt(5.0), 4), (2.2361, 2.2361, 2),
        (4.4721, 3.9155, 1), (math.sqrt(20.0), math.sqrt(20.0), 2),
        (4.4721, 4.4721, 2), (0.7, 0.3, 1), (3.0, 1.0, 1), (3.0, 2.9, 1),
        (1.2, 1.2, 2), (5.5, 5.2, 1), (6.0, 2.0, 1), (2.5, 0.3, 1),
        (0.5, 1.4, 1), (1.0, 2.8, 1), (4.0, math.sqrt(14.0), 1),
        (0.3, 0.1, 1),
    ],
}


def _sweep_argv(r: float, s: float, d1: Tuple[float, float],
                d3: Tuple[float, float], steps: int) -> List[str]:
    return ["sweep", "--r", repr(r), "--s", repr(s),
            "--d1", repr(d1[0]), repr(d1[1]),
            "--d3", repr(d3[0]), repr(d3[1]), "--steps", str(steps)]


def _call_main(argv: Sequence[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _csv_rows(text: str) -> List[List[str]]:
    return list(csv.reader(io.StringIO(text)))


class Maps(Workload):
    """Windows of the three maps, spread evenly over the round.

    Each map's (d1, d3) rectangle is cut into strata and one window starts
    at a random point of each, so every seed covers the cheap and the
    costly parts of each map in the same proportions.

    The sweep keeps its default pool of os.cpu_count() threads, but the
    process is held to one CPU.  Spread over two CPUs, the pool's threads
    hand the interpreter lock to each other in one of two patterns that a
    process keeps for its life; throughput then differed by half between
    runs (38 vs 63 sweeps/s) while CPU time stayed within 10%.
    """

    name = "maps"

    def __init__(self, seed: int) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        rng = random.Random(seed)
        per_map = []
        for _name, r, s, (a1, b1), (a3, b3), strata in MAPS:
            h1, h3 = (b1 - a1) / strata, (b3 - a3) / strata
            windows = []
            for i in range(strata):
                for j in range(strata):
                    w1, w3 = h1 * rng.uniform(0.5, 1.0), h3 * rng.uniform(0.5, 1.0)
                    lo1 = a1 + i * h1 + rng.uniform(0.0, h1 - w1)
                    lo3 = a3 + j * h3 + rng.uniform(0.0, h3 - w3)
                    windows.append((r, s, (lo1, lo1 + w1), (lo3, lo3 + w3)))
            per_map.append(windows)
        self.round = interleave(*per_map)

    def op(self, item, traced=False):
        r, s, d1, d3 = item
        return _call_main(_sweep_argv(r, s, d1, d3, TILE))

    def check(self, item, output):
        rc, text = output
        if rc != 0:
            return [f"sweep exited {rc}"]
        rows = _csv_rows(text)
        if rows[0] != ["d1", "d3", "multiplicity", "derivation"]:
            return [f"unexpected header {rows[0]}"]
        r, s, (lo1, hi1), (lo3, hi3) = item
        n = TILE
        expected = []
        for i in range(n):
            d1 = lo1 + (hi1 - lo1) * i / (n - 1)
            for j in range(n):
                d3 = lo3 + (hi3 - lo3) * j / (n - 1)
                want, _ = classifier.multiplicity_conditions(r, s, d1, d3)
                expected.append((d1, d3, want))
        got = [(row[0], row[1], int(row[2])) for row in rows[1:]]
        return [f"map r={r} s={s}: {p}"
                for p in checks.check_map_cells(got, expected)]

    def final_checks(self):
        problems = []
        for name, r, s, _d1, _d3, _strata in MAPS:
            for d1, d3, want in SPOT_CELLS[name]:
                if d3 == "R":
                    d3 = thresholds.threshold_R(r, s, d1)
                elif d3 == "d3_star":
                    d3 = thresholds.d3_star(r, s, d1)
                rc, text = _call_main(_sweep_argv(
                    r, s, (d1, d1 + 1e-9), (d3, d3 + 1e-9), 2))
                got = int(_csv_rows(text)[1][2]) if rc == 0 else None
                if got != want:
                    problems.append(f"spot cell {name} ({d1}, {d3}): "
                                    f"multiplicity {got}, paper {want}")
        return problems

    def fallbacks(self, output):
        return sum(1 for row in _csv_rows(output[1])[1:]
                   if row[3].endswith(":fallback"))


# ---------------------------------------------------------------------------
# solve-mix: classifier.solve on general, moved isosceles and near-equilateral

# Five to one, so that p50 and p90 both fall inside the general scan's
# cluster of times and not in a gap between clusters.
GENERAL_PER_ROUND = 480
ISOSCELES_PER_ROUND = 96
# Fixed near-equilateral tall-apex panel, s = (sqrt(3)/2) r (1 + eps) with
# eps log-uniform in [1e-9, 1e-4].  It does not depend on the seed, so the
# instances that trip threshold_P's cross-check fail in every run alike.
NEAR_EQUILATERAL = 8
NEAR_EQUILATERAL_SEED = 20240813
KNOWN_FAULT = "threshold P forms disagree"


def near_equilateral_panel() -> List[SensorConfig]:
    rng = random.Random(NEAR_EQUILATERAL_SEED)
    panel = []
    for _ in range(NEAR_EQUILATERAL):
        r = rng.uniform(0.5, 4.0)
        eps = 10.0 ** rng.uniform(-9.0, -4.0)
        s = SQRT3 / 2.0 * r * (1.0 + eps)
        d1, d3 = rng.uniform(0.05, 40.0), rng.uniform(0.05, 40.0)
        panel.append(SensorConfig.from_canonical(r, s, (d1, d1, d3)))
    return panel


class SolveMix(Workload):
    name = "solve-mix"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        general = [draw_general(rng) for _ in range(GENERAL_PER_ROUND)]
        isosceles = []
        for _ in range(ISOSCELES_PER_ROUND):
            r, s, d1, d3 = draw_isosceles(rng)
            canonical = SensorConfig.from_canonical(r, s, (d1, d1, d3))
            isosceles.append(moved(canonical, rng))
        panel = near_equilateral_panel()
        self.round = interleave(general, isosceles, panel)
        # The copy each answer is compared with, drawn here so that the seed
        # fixes it.  A panel layout is only mirrored and relabelled, which is
        # exact in floating point, so its copy fails exactly when it does.
        self.copies = {id(c): moved(c, rng) for c in self.round}
        for c in panel:
            self.copies[id(c)] = mirrored(c, rng)

    def op(self, item, traced=False):
        return classifier.solve(item)

    def known_failure(self, exc):
        return isinstance(exc, ArithmeticError) and KNOWN_FAULT in str(exc)

    def check(self, item, output):
        sensors, d = layout(item)
        pts = solution_points(output)
        problems = checks.check_minimizer_set(sensors, d, pts,
                                              output.objective_value,
                                              output.multiplicity)
        problems += checks.check_grid_lower_bound(sensors, d,
                                                  output.objective_value)
        try:
            other = classifier.solve(self.copies[id(item)])
        except ArithmeticError as exc:
            problems.append(f"moved copy raised: {exc}")
        else:
            problems += checks.check_same_answer(
                sensors, d, (output.multiplicity, output.objective_value),
                (other.multiplicity, other.objective_value))
        return [f"solve {d}: {p}" for p in problems]

    def fallbacks(self, output):
        return int(output.derivation.endswith(":fallback"))


# ---------------------------------------------------------------------------
# verify: classifier.solve plus the brute-force grid oracle

ORACLE_RESOLUTION = 192
ORACLE_ROUNDS = 6
VERIFY_ISOSCELES = 48
VERIFY_GENERAL = 48
VERIFY_NOISY = 3
# General layouts carry the oracle's tail.  On a valley instance its work
# swings tenfold between layouts and two- to fourfold with the layout's angle
# to the grid, so seeded general shapes spread ops_per_s and op_ms_p90 by
# 15-30% between seeds.  The general and noisy layouts therefore come from a
# fixed catalogue, the first general layouts criterion 6 draws, and the seed
# places each one by a motion that maps the oracle's grid onto itself.
# Isosceles layouts too: seeded draws put a valley instance of over 4 s
# into one round in four (seed 5 of seeds 1, 2, 4 and 5; round CPU 21-25 s),
# so they are the first ones criterion 6 draws from its isosceles seed.
VERIFY_CATALOGUE_SEED = 20240811
VERIFY_ISOSCELES_SEED = 20240812


class Verify(Workload):
    name = "verify"
    trace_ops = 10
    # Two rounds.  p90 is about the tenth slowest of a round's 100 times,
    # where single oracle calls vary by a third from call to call (the
    # certificate took 300-440 ms), so one round left it spread by 0.14-0.20
    # over ten seeds while CPU per operation spread by 0.06-0.12.
    min_ops = 200

    def __init__(self, seed: int) -> None:
        catalogue = random.Random(VERIFY_CATALOGUE_SEED)
        general = [draw_general(catalogue) for _ in range(VERIFY_GENERAL)]
        noisy = []
        for k in range(VERIFY_NOISY):
            sensors = draw_general(catalogue).Z
            source = Point2(catalogue.uniform(-4.0, 4.0),
                            catalogue.uniform(-4.0, 4.0))
            noise = oracle.NoiseSpec(kind=("uniform", "normal")[k % 2],
                                     scale=0.05)
            noisy.append(oracle.generate_instance(
                source, sensors, noise, catalogue.randrange(2 ** 31)))
        draws = random.Random(VERIFY_ISOSCELES_SEED)
        isosceles = []
        while len(isosceles) < VERIFY_ISOSCELES:
            r, s, d1, d3 = draw_isosceles(draws)
            if not on_threshold(r, s, d1, d3):
                isosceles.append(SensorConfig.from_canonical(r, s, (d1, d1, d3)))
        mixed = noisy + interleave(isosceles, general)
        r, s, d = CERTIFICATE
        rng = random.Random(seed)
        self.round = [SensorConfig.from_canonical(r, s, d)]
        self.round += [moved(c, rng, quarter_turns=True) for c in mixed]

    def op(self, item, traced=False):
        solution = classifier.solve(item)
        spec = oracle.default_grid(item, resolution=ORACLE_RESOLUTION,
                                   refine_rounds=ORACLE_ROUNDS)
        return solution, oracle.brute_force_minimize(item, spec)

    def check(self, item, output):
        solution, result = output
        sensors, d = layout(item)
        problems = checks.check_oracle_agreement(
            sensors, d, solution_points(solution), solution.objective_value,
            [(p.x, p.y) for p, _ in result.minima], result.global_value)
        if item is self.round[0]:
            if solution.multiplicity != 5:
                problems.append("certificate: multiplicity "
                                f"{solution.multiplicity}, paper 5")
        return [f"verify {d}: {p}" for p in problems]

    def fallbacks(self, output):
        return int(output[0].derivation.endswith(":fallback"))


# ---------------------------------------------------------------------------
# cli: one `trilat` process at a time, as the console script runs it

ENTRY = "import sys\nfrom trilat.cli import main\nsys.exit(main())\n"
# The same wrapper with a timer around main(), for the traced run.
TIMED_ENTRY = (
    "import sys, time\n"
    "from trilat.cli import main\n"
    "t0 = time.perf_counter()\n"
    "try:\n"
    "    rc = main()\n"
    "finally:\n"
    "    sys.stderr.write('main_ms %r\\n' % ((time.perf_counter() - t0) * 1e3))\n"
    "sys.exit(rc)\n"
)
CLI_EACH = 4    # solves of each JSON form and threshold bundles per round

# Paper fixture tables: the six objective values of each row, by family.
TABLES = {
    "equilateral": [
        [3.1726, 1.2628, 1.2628, 2.9375, 7.3803, 7.3803],
        [1.2438, 4.9420, 4.9420, 15.3838, 3.8720, 3.8720],
        [6.3138, 6.3138, 6.3138, 10.3138, 10.3138, 10.3138],
        [15.2144, 9.9563, 9.9563, 11.6184, 17.7543, 17.7543],
        [19.4164, 7.4164, 7.4164, 7.4164, 19.4164, 19.4164],
        [23.0000, 4.4093, 4.4093, 3.8328, 19.9929, 19.9929],
    ],
    "isosceles": [
        [2.8643, 2.8643, 2.8643, 3.2429, 6.4858, 6.4858],
        [3.4103, 2.5370, 2.5370, 2.6969, 7.2504, 7.2504],
        [0.5567, 4.6636, 4.6636, 7.4433, 1.7770, 1.7770],
        [4.0000, 4.0000, 4.0000, 4.0000, 8.0000, 8.0000],
        [4.0491, 13.4171, 13.4171, 13.3865, 8.0797, 8.0797],
        [8.7178, 10.4900, 10.4900, 8.7178, 14.4900, 14.4900],
        [6.5105, 12.9986, 12.9986, 53.7055, 10.7596, 10.7596],
        [16.0720, 16.0720, 16.0720, 44.1440, 17.6576, 17.6576],
        [22.6289, 16.4606, 16.4606, 37.5872, 20.6689, 20.6689],
        [10.6491, 20.5469, 20.5469, 73.3509, 15.2066, 15.2066],
        [24.0000, 24.0000, 24.0000, 60.0000, 24.0000, 24.0000],
        [32.5832, 24.2271, 24.2271, 51.4168, 27.6604, 27.6604],
        [28.6572, 36.0460, 36.0460, 94.5497, 30.0675, 30.0675],
        [31.8414, 36.5462, 36.5462, 91.3655, 31.8414, 31.8414],
        [42.4272, 37.2617, 37.2617, 80.7797, 36.7912, 36.7912],
    ],
    "four-equal": [
        [3.0000, 6.6564, 6.6564, 12.0000, 6.6564, 6.6564],
        [14.8862, 16.2207, 16.2207, 114.8862, 16.2207, 16.2207],
        [21.6750, 20.1430, 20.1430, 121.6750, 20.1430, 20.1430],
        [18.1818, 18.1818, 18.1818, 118.1818, 18.1818, 18.1818],
    ],
}
TABLE_TOL = 1e-3


def _canonical_sensors(r: float, s: float) -> List[Tuple[float, float]]:
    return [(-r / 2.0, 0.0), (r / 2.0, 0.0), (0.0, s)]


class Cli(Workload):
    """Items are (argv, stdin text, what the check needs)."""

    name = "cli"
    in_process = False
    trace_ops = 10

    def __init__(self, seed: int) -> None:
        self.env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        rng = random.Random(seed)
        r, s, d = CERTIFICATE
        certificate = ("certificate", {"r": r, "s": s, "d": list(d)})
        rs, sensors, generator, bundles = [], [], [], []
        for _ in range(CLI_EACH):
            r, s, d1, d3 = draw_isosceles(rng)
            rs.append(("solve", {"r": r, "s": s, "d": [d1, d1, d3]}))
            config = draw_general(rng)
            sensors.append(("solve", {"sensors": [[z.x, z.y] for z in config.Z],
                                      "d": list(config.d)}))
            zs = [[z.x, z.y] for z in draw_general(rng).Z]
            source = [rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)]
            generator.append(("generator", {
                "sensors": zs, "generator": {"source": source,
                                             "seed": rng.randrange(2 ** 31)}}))
            r, s, d1, d3 = draw_isosceles(rng)
            bundles.append(("thresholds", {"r": r, "s": s, "d": [d1, d1, d3]}))
        tables = [("table", family) for family in TABLES]
        groups = [rs, sensors, generator, bundles]
        items = [certificate, tables[0]]
        items += [g[k] for k in range(CLI_EACH) for g in groups]
        items[6:6] = tables[1:]
        self.round = [self._item(kind, payload) for kind, payload in items]
        self.op(self.round[0])   # warm-up process, part of set-up

    @staticmethod
    def _item(kind, payload):
        if kind == "table":
            return ("table", ["table", "--family", payload], None, payload)
        command = "thresholds" if kind == "thresholds" else "solve"
        return (kind, [command, "-"], json.dumps(payload), payload)

    def op(self, item, traced=False):
        _kind, argv, stdin, _payload = item
        head = ["-X", "importtime", "-c", TIMED_ENTRY] if traced else ["-c", ENTRY]
        proc = subprocess.run([sys.executable, *head, *argv], input=stdin,
                              capture_output=True, text=True, env=self.env)
        if traced:
            return proc.returncode, proc.stdout, proc.stderr
        return proc.returncode, proc.stdout

    def same(self, a, b):
        return a[:2] == b[:2]

    def cpu_seconds(self):
        return _cpu(resource.RUSAGE_CHILDREN)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, item, output):
        kind, argv, _stdin, payload = item
        rc, text = output[:2]
        if rc != 0:
            return [f"{' '.join(argv)} exited {rc}"]
        if kind == "table":
            rows = _csv_rows(text)
            want = TABLES[payload]
            if len(rows) != len(want) + 1:
                return [f"table {payload}: {len(rows) - 1} rows"]
            first = rows[0].index("S12+")
            problems = []
            for row, values in zip(rows[1:], want):
                got = [float(v) for v in row[first:first + 6]]
                if any(abs(g - w) > TABLE_TOL for g, w in zip(got, values)):
                    problems.append(f"table {payload} row {row[0]}: {got}")
            return problems
        report = json.loads(text)
        if report.get("schema") != "trilat/1":
            return [f"{kind}: schema {report.get('schema')!r}"]
        if kind == "thresholds":
            return []
        if "sensors" in payload:
            sensors = [tuple(p) for p in payload["sensors"]]
        else:
            sensors = _canonical_sensors(payload["r"], payload["s"])
        if kind == "generator":
            source = payload["generator"]["source"]
            d = [math.dist(source, z) for z in sensors]
        else:
            d = payload["d"]
        pts = [(p["x"], p["y"]) for p in report["solutions"]]
        value = report["objective"]
        problems = checks.check_minimizer_set(sensors, d, pts, value,
                                              report["multiplicity"])
        scale = checks.length_scale(sensors, d)
        if kind == "generator" and not (
                value <= checks.VALUE_REL * scale * scale
                and any(math.dist(p, source) <= 1e-6 * scale for p in pts)):
            problems.append("noise-free source is not the zero minimum")
        if kind == "certificate" and (
                report["multiplicity"] != 5
                or abs(value - CERTIFICATE_VALUE) > checks.VALUE_REL * scale * scale):
            problems.append(f"certificate: multiplicity {report['multiplicity']}"
                            f", value {value!r}; paper 5 and 24")
        return [f"{kind} {payload}: {p}" for p in problems]


WORKLOADS = {w.name: w for w in (Maps, SolveMix, Verify, Cli)}
