"""Checks on trilat's answers, computed apart from the program.

Nothing here imports trilat: the objective, the length scale and the grid
are the benchmark's own, so a fault in the program cannot hide in its
check.  Every function returns a list of problems; an empty list passes.

A layout is ``(sensors, d)``: three ``(x, y)`` pairs and three ranges.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

XY = Tuple[float, float]

# Tolerances, each relative to the layout's length scale L (lengths) or L^2
# (objective values), so they do not depend on the units of the input.
VALUE_REL = 1e-9        # objective at a returned point vs the reported value
DISTINCT_REL = 1e-9     # two returned points closer than this are one point
ORACLE_VALUE_REL = 1e-6  # solver vs oracle global value (relative, as criterion 6)
ORACLE_POS_REL = 1e-3   # solver vs oracle positions
GRID_RESOLUTION = 160
MAX_MULTIPLICITY = 5    # the paper's bound on the number of global minimizers


def length_scale(sensors: Sequence[XY], d: Sequence[float]) -> float:
    """Largest sensor separation plus the largest range."""
    span = max(math.dist(sensors[i], sensors[j])
               for i, j in ((0, 1), (1, 2), (2, 0)))
    return span + max(d)


def objective(sensors: Sequence[XY], d: Sequence[float],
              x: float, y: float) -> float:
    """sum_j |d_j^2 - |W - Z_j|^2| at W = (x, y)."""
    return sum(abs(dj * dj - ((x - zx) ** 2 + (y - zy) ** 2))
               for (zx, zy), dj in zip(sensors, d))


def check_minimizer_set(sensors: Sequence[XY], d: Sequence[float],
                        points: Sequence[XY], value: float,
                        multiplicity: int) -> List[str]:
    """Count in 1..5 and equal to the points, values match, points distinct."""
    problems = []
    scale = length_scale(sensors, d)
    if multiplicity != len(points):
        problems.append(f"multiplicity {multiplicity} but {len(points)} points")
    if not 1 <= multiplicity <= MAX_MULTIPLICITY:
        problems.append(f"multiplicity {multiplicity} outside 1..5")
    for x, y in points:
        err = abs(objective(sensors, d, x, y) - value)
        if err > VALUE_REL * scale * scale:
            problems.append(f"objective at ({x:.6g}, {y:.6g}) is off the "
                            f"reported value by {err:.3e}")
    for i in range(len(points)):
        for j in range(i):
            if math.dist(points[i], points[j]) <= DISTINCT_REL * scale:
                problems.append(f"points {j} and {i} coincide")
    return problems


def check_grid_lower_bound(sensors: Sequence[XY], d: Sequence[float],
                           value: float) -> List[str]:
    """No point of a grid over every sensor disk has a lower objective.

    Outside all disks the objective grows away from the sensors' centroid,
    which lies inside this window, so the window holds every minimizer.
    """
    zs = np.asarray(sensors, dtype=float)
    ds = np.asarray(d, dtype=float)
    lo = (zs - ds[:, None]).min(axis=0)
    hi = (zs + ds[:, None]).max(axis=0)
    gx = np.linspace(lo[0], hi[0], GRID_RESOLUTION)
    gy = np.linspace(lo[1], hi[1], GRID_RESOLUTION)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    total = np.zeros_like(xx)
    for (zx, zy), dj in zip(zs, ds):
        total += np.abs(dj * dj - ((xx - zx) ** 2 + (yy - zy) ** 2))
    grid_min = float(total.min())
    scale = length_scale(sensors, d)
    if grid_min < value - VALUE_REL * scale * scale:
        return [f"grid finds {grid_min!r} below the reported {value!r}"]
    return []


def check_same_answer(sensors: Sequence[XY], d: Sequence[float],
                      first: Tuple[int, float],
                      second: Tuple[int, float]) -> List[str]:
    """Two solves of copies of one layout agree on multiplicity and value."""
    scale = length_scale(sensors, d)
    problems = []
    if first[0] != second[0]:
        problems.append(f"multiplicity {first[0]} vs {second[0]} on a copy")
    if abs(first[1] - second[1]) > VALUE_REL * scale * scale:
        problems.append(f"value {first[1]!r} vs {second[1]!r} on a copy")
    return problems


def check_oracle_agreement(sensors: Sequence[XY], d: Sequence[float],
                           solver_points: Sequence[XY], solver_value: float,
                           oracle_points: Sequence[XY],
                           oracle_value: float) -> List[str]:
    """Solver and grid oracle agree on count, value and positions."""
    problems = []
    scale = length_scale(sensors, d)
    if len(solver_points) != len(oracle_points):
        problems.append(f"solver has {len(solver_points)} minimizers, "
                        f"oracle {len(oracle_points)}")
    verr = abs(oracle_value - solver_value) / max(1.0, abs(solver_value))
    if verr > ORACLE_VALUE_REL:
        problems.append(f"values differ by {verr:.3e} (relative)")
    for mine, theirs, what in ((solver_points, oracle_points, "solver"),
                               (oracle_points, solver_points, "oracle")):
        for p in mine:
            gap = min((math.dist(p, q) for q in theirs), default=math.inf)
            if gap > ORACLE_POS_REL * scale:
                problems.append(f"{what} point ({p[0]:.6g}, {p[1]:.6g}) "
                                f"has no partner within {gap:.3e}")
    for x, y in oracle_points:
        err = abs(objective(sensors, d, x, y) - oracle_value)
        if err > VALUE_REL * scale * scale:
            problems.append(f"objective at oracle minimum ({x:.6g}, {y:.6g}) "
                            f"is off its global value by {err:.3e}")
    return problems


def check_map_cells(rows: Sequence[Tuple[str, str, int]],
                    expected: Sequence[Tuple[float, float, int]]) -> List[str]:
    """Sweep CSV rows ``(d1 text, d3 text, multiplicity)`` against the cells.

    ``expected`` holds each cell's (d1, d3) as the sweep computes them and
    the multiplicity found by a separate route.
    """
    if len(rows) != len(expected):
        return [f"{len(rows)} rows for {len(expected)} cells"]
    problems = []
    for (t1, t3, got), (d1, d3, want) in zip(rows, expected):
        if (t1, t3) != (f"{d1:.10g}", f"{d3:.10g}"):
            problems.append(f"cell ({t1}, {t3}) out of order")
        elif not 1 <= got <= MAX_MULTIPLICITY:
            problems.append(f"multiplicity {got} outside 1..5 at ({t1}, {t3})")
        elif got != want:
            problems.append(f"multiplicity {got}, expected {want}, "
                            f"at ({t1}, {t3})")
    return problems
