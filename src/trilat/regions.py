"""Objective evaluation and the objective table at the six pair points."""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import MissingIntersection
from .geometry import (CIRCLE_PAIRS, Point2, SensorConfig,
                       circle_circle_intersect, config_scale)


def objective_at(zs: Sequence[Point2], ds: Sequence[float], x: float,
                 y: float) -> float:
    """O at (x, y) for sensors ``zs`` with ranges ``ds``."""
    total = 0.0
    for z, dj in zip(zs, ds):
        total += abs((x - z.x) ** 2 + (y - z.y) ** 2 - dj * dj)
    return total


def objective_value(config: SensorConfig, w: Point2) -> float:
    return objective_at(config.Z, config.d, w.x, w.y)


def objective_table(config: SensorConfig,
                    tie_tol: float = 1e-9) -> List[Tuple[str, float, bool]]:
    """Objective at the six pairwise intersection points, minima flagged.

    Entries within tie_tol * L^2 of the least value are flagged, L being the
    length scale ``config_scale``; pass a display-level tolerance when the
    inputs themselves are rounded.
    """
    values: List[Tuple[str, float]] = []
    for sign in "+-":
        for name, i, j in CIRCLE_PAIRS:
            pts = circle_circle_intersect(config, i, j)
            if not pts:
                raise MissingIntersection(f"circles {name} do not meet")
            point = pts[0] if sign == "+" else pts[-1]
            values.append((name + sign, objective_value(config, point)))
    vmin = min(v for _, v in values)
    length = config_scale(config)
    cut = vmin + tie_tol * length * length
    return [(label, v, v <= cut) for label, v in values]
