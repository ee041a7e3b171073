"""Objective evaluation and the objective table at the six pair points."""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import MissingIntersection
from .geometry import Point2, SensorConfig, circle_circle_intersect


def objective_at(zs: Sequence[Point2], ds: Sequence[float], x: float,
                 y: float) -> float:
    """O at (x, y) for sensors ``zs`` with ranges ``ds``."""
    total = 0.0
    for z, dj in zip(zs, ds):
        total += abs((x - z.x) ** 2 + (y - z.y) ** 2 - dj * dj)
    return total


def objective_value(config: SensorConfig, w: Point2) -> float:
    return objective_at(config.Z, config.d, w.x, w.y)


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
