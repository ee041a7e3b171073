"""The benchmark's checks pass a true answer and flag each kind of wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

The true answer is the five-minimizer certificate (r=2, s=3,
d=(sqrt50, sqrt50, sqrt40)) as the classifier and the oracle give it.
"""
import math

import pytest

import checks
from trilat import classifier, oracle
from trilat.geometry import SensorConfig

CONFIG = SensorConfig.from_canonical(
    2.0, 3.0, (math.sqrt(50.0), math.sqrt(50.0), math.sqrt(40.0)))
SENSORS = [(z.x, z.y) for z in CONFIG.Z]
D = CONFIG.d
L = checks.length_scale(SENSORS, D)


@pytest.fixture(scope="module")
def answer():
    solution = classifier.solve(CONFIG)
    result = oracle.brute_force_minimize(
        CONFIG, oracle.default_grid(CONFIG, resolution=192, refine_rounds=6))
    points = [(c.location.x, c.location.y) for c in solution.points]
    minima = [(p.x, p.y) for p, _ in result.minima]
    return points, solution.objective_value, minima, result.global_value


def all_problems(points, value, multiplicity, answer):
    _, _, minima, oracle_value = answer
    return (checks.check_minimizer_set(SENSORS, D, points, value, multiplicity)
            + checks.check_grid_lower_bound(SENSORS, D, value)
            + checks.check_oracle_agreement(SENSORS, D, points, value,
                                            minima, oracle_value))


def test_true_answer_passes(answer):
    points, value, _, _ = answer
    assert len(points) == 5 and abs(value - 24.0) < 1e-9
    assert all_problems(points, value, 5, answer) == []
    cells = [("7.071067812", "6.32455532", 5)]
    assert checks.check_map_cells(cells, [(math.sqrt(50.0),
                                           math.sqrt(40.0), 5)]) == []


def test_dropped_minimizer_is_flagged(answer):
    points, value, _, _ = answer
    problems = all_problems(points[:-1], value, 4, answer)
    assert any("solver has 4 minimizers, oracle 5" in p for p in problems)
    assert any("has no partner" in p for p in problems)
    assert checks.check_same_answer(SENSORS, D, (5, value), (4, value))
    cells = [("7.071067812", "6.32455532", 4)]
    assert checks.check_map_cells(cells, [(math.sqrt(50.0),
                                           math.sqrt(40.0), 5)])


def test_moved_point_is_flagged(answer):
    points, value, _, _ = answer
    x, y = points[0]
    moved = [(x + 1e-3 * L, y)] + points[1:]
    problems = checks.check_minimizer_set(SENSORS, D, moved, value, 5)
    assert any("off the reported value" in p for p in problems)


def test_value_off_is_flagged(answer):
    points, value, _, _ = answer
    problems = all_problems(points, value + 1e-6 * L * L, 5, answer)
    assert any("off the reported value" in p for p in problems)
    assert any("values differ" in p for p in problems)
    assert checks.check_same_answer(SENSORS, D, (5, value),
                                    (5, value + 1e-6 * L * L))


def test_multiplicity_of_six_is_flagged(answer):
    points, value, _, _ = answer
    sixth = (0.0, -7.0)   # the base pair's far point
    problems = all_problems(points + [sixth], value, 6, answer)
    assert any("outside 1..5" in p for p in problems)
    assert any("solver has 6 minimizers" in p for p in problems)
    cells = [("7.071067812", "6.32455532", 6)]
    assert checks.check_map_cells(cells, [(math.sqrt(50.0),
                                           math.sqrt(40.0), 6)])


def test_missed_global_minimum_is_flagged(answer):
    far = (0.0, -7.0)    # the base pair's far point, value 60
    value = checks.objective(SENSORS, D, *far)
    assert abs(value - 60.0) < 1e-9
    assert checks.check_minimizer_set(SENSORS, D, [far], value, 1) == []
    assert checks.check_grid_lower_bound(SENSORS, D, value)
