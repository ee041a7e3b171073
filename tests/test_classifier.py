"""Case-table classifier: solution sets, multiplicities, and routing."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAP_WINDOWS, S3, canonical, rel, sweep_axes
from trilat import classifier, geometry, thresholds
from trilat.classifier import (CandidatePoint, SolutionSet,
                               multiplicity_conditions, solve, solve_isosceles)
from trilat.errors import (DegenerateTriangle, MissingIntersection,
                           PreconditionViolation)
from trilat.geometry import (Point2, SensorConfig, canonical_frame,
                             centroid_points, circle_circle_intersect,
                             config_scale, distance)
from trilat.regions import objective_table, objective_value


# --- general scan -----------------------------------------------------------

def _scan(cfg, tol=1e-9):
    """The general scan alone, on a layout that passes ``solve``'s checks."""
    return classifier._scan(cfg, config_scale(cfg), tol)


def test_general_five_way(five_way_exact):
    sol = _scan(five_way_exact)
    assert sol.multiplicity == 5
    assert abs(sol.objective_value - 24.0) < 1e-3


def test_general_noiseless_source():
    zs = (Point2(-1, 0), Point2(1, 0), Point2(0.2, 2.2))
    src = Point2(0.25, 0.8)
    cfg = SensorConfig(zs, tuple(distance(src, z) for z in zs))
    sol = _scan(cfg)
    assert sol.multiplicity == 1
    assert sol.objective_value < 1e-9
    assert distance(sol.points[0].location, src) < 1e-6


def test_general_winners_are_local_minima():
    """Nothing within 1e-6 L or 1e-3 L of a winner lies below the minimum.

    The scan takes the best of a finite candidate set; were that set
    incomplete, some winner would have a descent direction.
    """
    rng = random.Random(8128)
    directions = [(math.cos(math.pi * k / 8), math.sin(math.pi * k / 8))
                  for k in range(16)]
    for _ in range(2000):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        while True:
            zs = [Point2(k * rng.uniform(-5, 5), k * rng.uniform(-5, 5))
                  for _ in range(3)]
            ax, ay = zs[1].x - zs[0].x, zs[1].y - zs[0].y
            bx, by = zs[2].x - zs[0].x, zs[2].y - zs[0].y
            if abs(ax * by - ay * bx) > 0.5 * k * k:
                break
        cfg = SensorConfig(tuple(zs),
                           tuple(k * rng.uniform(0.3, 8.0) for _ in range(3)))
        scale = config_scale(cfg)
        sol = _scan(cfg)
        floor = sol.objective_value - 1e-12 * scale * scale
        for cand in sol.points:
            w = cand.location
            for step in (1e-6 * scale, 1e-3 * scale):
                for ux, uy in directions:
                    probe = Point2(w.x + step * ux, w.y + step * uy)
                    assert objective_value(cfg, probe) >= floor, (cfg, cand)


def test_general_matches_equilateral_row():
    sol = _scan(canonical(2.0, S3, 4.0, 5.2520))
    assert sol.multiplicity == 1
    assert sol.points[0].role == "S12minus"


# --- equilateral height -----------------------------------------------------

def test_equilateral_centroid_row():
    sol = solve_isosceles(2.0, S3, 1.0, 1.0)
    assert sol.multiplicity == 1
    assert sol.points[0].role == "Y0"
    assert abs(sol.points[0].location.x) < 1e-12
    assert abs(sol.points[0].location.y - S3 / 3) < 1e-12


def test_equilateral_single_plus_row():
    sol = solve_isosceles(2.0, S3, 2.6, 1.3)
    assert sol.multiplicity == 1
    assert sol.points[0].role.startswith("S12")


def test_equilateral_two_way_row():
    sol = solve_isosceles(2.0, S3, 4.0, 4.4495)
    assert sol.multiplicity == 2


def test_equilateral_three_way_on_diagonal():
    sol = solve_isosceles(2.0, S3, 2.6, 2.6)
    assert sol.multiplicity == 3
    roles = sorted(c.role for c in sol.points)
    assert roles == ["S12plus", "S23plus", "S31plus"]


def test_equilateral_corner_collapses_to_centroid():
    # at d1 = d3 = r/sqrt(3) the three "+" points coincide with Y0
    d = 2.0 / S3
    sol = solve_isosceles(2.0, S3, d, d)
    assert sol.multiplicity == 1
    assert sol.objective_value < 1e-9


# --- isosceles tables -------------------------------------------------------

def test_isosceles_five_way_exact():
    sol = solve_isosceles(2.0, 3.0, math.sqrt(50), math.sqrt(40))
    assert sol.multiplicity == 5
    assert abs(sol.objective_value - 24.0) < 1e-9


def test_isosceles_flat_four_way():
    sol = solve_isosceles(2.0, 1.0, math.sqrt(5), math.sqrt(5))
    assert sol.multiplicity == 4
    assert abs(sol.objective_value - 4.0) < 1e-9


def test_isosceles_beyond_star_two_way():
    sol = solve_isosceles(2.0, 3.0, 10.3158, 9.7591)
    assert sol.multiplicity == 2
    assert sorted(c.role for c in sol.points) == ["S23minus", "S31minus"]


def test_isosceles_delegates_to_equilateral_near_the_line():
    # just off s = (sqrt(3)/2) r the apex snaps to the equilateral height,
    # where the tall-apex tables tie the three '+' points at d3 = d1
    sol = solve_isosceles(2.0, S3 + 1e-12, 2.6, 2.6)
    assert sol.multiplicity == 3
    assert sol.derivation == "equilateral:4.2"   # d1 > b = r
    sol = solve_isosceles(2.0, S3 + 1e-12, 1.8, 1.8)
    assert sol.multiplicity == 3
    assert sol.derivation == "equilateral:3.2"   # a < d1 <= b


def test_isosceles_just_above_the_equilateral_height():
    # threshold P once raised ArithmeticError here, where its two printed
    # forms part by cancellation (see test_thresholds)
    rng = random.Random(20241018)
    for _ in range(1000):
        r = rng.uniform(0.5, 4.0)
        s = S3 / 2.0 * r * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0))
        d1 = rng.uniform(0.05, 10.0)
        d3 = rng.uniform(0.05, 10.0)
        sol = solve_isosceles(r, s, d1, d3)
        assert 1 <= sol.multiplicity <= 5


def test_solution_points_reported_with_values():
    sol = solve_isosceles(2.0, 3.0, 6.1, 5.4)
    for cand in sol.points:
        v = objective_value(canonical(2.0, 3.0, 6.1, 5.4), cand.location)
        assert rel(v, sol.objective_value) < 1e-9


def test_reflection_symmetric_solution_set():
    sol = solve_isosceles(2.0, 3.0, 6.1, 5.4)
    xs = sorted(round(c.location.x, 9) for c in sol.points)
    assert xs == sorted(round(-x, 9) for x in xs)


def _locus_cells(r, s, d1s):
    """(d1, d3) cells with d3 exactly on every tie locus of each d1 row."""
    for d1 in d1s:
        row = thresholds.row_thresholds(r, s, d1)
        h = row.h
        loci = [2.0 * s / 3.0, 2.0 * s, d1, math.sqrt(d1 * d1 + 2.0 * r * r),
                s - h, s + h, math.sqrt(h * h + s * s), row.R, row.M, row.d3m,
                row.d3_star]
        for d3 in loci:
            if d3 is not None and d3 >= 0.0:
                yield d1, d3


def _locus_rows(r):
    """(s, d1s): d1 on every block edge and at seeded values, for six s."""
    rng = random.Random(99)
    for s in (1.0, 3.0, S3, *(rng.uniform(0.2, 4.0) for _ in range(3))):
        a = math.sqrt(r * r / 4.0 + s * s / 9.0)
        b = math.sqrt(r * r / 4.0 + s * s)
        d1s = [r / 2.0, a, b, r]
        if s != S3 / 2.0 * r:  # no P at the equilateral height
            p = (thresholds.threshold_P(r, s) if s > S3 / 2.0 * r
                 else thresholds.threshold_P_flat(r, s))
            d1s.append(p)
        d1s += [rng.uniform(0.05, 12.0) for _ in range(120)]
        yield s, d1s


def test_tables_name_a_row_on_every_locus_cell():
    """Cells placed exactly on the table breakpoints still match a row.

    A gap in the case tables raises MissingIntersection here instead of
    passing silently.
    """
    r = 2.0
    for s, d1s in _locus_rows(r):
        for d1, d3 in _locus_cells(r, s, d1s):
            sol = solve_isosceles(r, s, d1, d3)
            assert sol.points, (s, d1, d3)
            _, _, row_ids = sol.derivation.partition(":")
            assert row_ids and all(row_ids.split("+")), (s, d1, d3)


def _table_cells(r):
    """Locus cells, cells within a few eps of d3 = 2s/3 and 2s, and seeded
    cells."""
    for s, d1s in _locus_rows(r):
        for d1, d3 in _locus_cells(r, s, d1s):
            yield s, d1, d3
        for d1 in d1s:
            for edge in (2.0 * s / 3.0, 2.0 * s):
                eps = 1e-9 * (r + s + d1 + edge)
                for k in (0.0, 0.3, 0.9, 1.5, 3.0):
                    for d3 in {edge - k * eps, edge + k * eps}:
                        yield s, d1, d3
    rng = random.Random(31)
    for s in (1.0, 3.0, S3, 0.5, 1.7):
        for _ in range(600):
            yield s, rng.uniform(0.05, 12.0), rng.uniform(0.0, 12.0)


def test_table_multiplicity_matches_solve():
    """The matched rows count the minimizers that solve_isosceles keeps."""
    r = 2.0
    n = 0
    apart = {}
    for s, d1, d3 in _table_cells(r):
        sol = solve_isosceles(r, s, d1, d3)
        (got,) = classifier.table_multiplicities(r, s, d1, [d3])
        if got != (sol.multiplicity, sol.derivation):
            apart[(s, d1, d3)] = (got, sol.multiplicity)
            assert got[1] == sol.derivation
        assert multiplicity_conditions(r, s, d1, d3)[0] == got[0], (s, d1, d3)
        n += 1
    assert n > 20000
    assert apart == {}


def _cell_by_cell(r, s, d1, d3s, tol=1e-9):
    """The row as separate cells, each checking its inputs and scanning."""
    out = []
    for d3 in d3s:
        s_cell, blocks, family = classifier._tables(r, s, d1, d3, d3, tol)
        symbols, derivation = classifier._matched_rows(r, s_cell, d1, d3,
                                                       blocks, family, tol)
        out.append((len(symbols), derivation))
    return out


def _sweep_rows(r):
    """(s, d1, d3s): seeded rows with unsorted and repeated d3 in the flat,
    sharp and equilateral families, then the rows of ``_table_cells``."""
    rng = random.Random(1313)
    for s in (1.0, 0.6, 3.0, 2.2, S3):
        for _ in range(40):
            d3s = [rng.uniform(0.0, 12.0) for _ in range(30)]
            d3s += rng.sample(d3s, 6) + [0.0]
            rng.shuffle(d3s)
            yield s, rng.uniform(0.05, 12.0), d3s
    rows = {}
    for s, d1, d3 in _table_cells(r):
        rows.setdefault((s, d1), []).append(d3)
    for (s, d1), d3s in rows.items():
        yield s, d1, d3s


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-6])
def test_table_multiplicities_match_cell_by_cell(tol):
    r = 2.0
    families = set()
    for s, d1, d3s in _sweep_rows(r):
        got = classifier.table_multiplicities(r, s, d1, d3s, tol)
        assert got == _cell_by_cell(r, s, d1, d3s, tol), (s, d1)
        families.update(derivation.partition(":")[0] for _, derivation in got)
    assert families == {"isosceles-flat", "isosceles-sharp", "equilateral"}


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("d3s", [
    [1.0, 2.0, -0.5, 3.0],
    [1.0, math.inf, 2.0],
    [1.0, 1e308, 2.0],
    [1.0, math.nan, 2.0],
    [1.0, math.nan, -1.0, 2.0],
    [math.nan, 2.0, -1.0],
    [2.0, -math.inf, math.nan],
    [2.0, 1e308, -1.0],
], ids=str)
def test_table_multiplicities_fail_as_the_first_failing_cell(d3s):
    r, s, d1 = 2.0, 3.0, 5.0
    want = _outcome(lambda: _cell_by_cell(r, s, d1, d3s))
    assert isinstance(want, tuple) and issubclass(want[0], Exception)
    assert _outcome(
        lambda: classifier.table_multiplicities(r, s, d1, d3s)) == want


@pytest.mark.parametrize("r,s,d1", [(2.0, math.nan, 5.0),
                                     (math.nan, 3.0, 5.0),
                                     (2.0, 3.0, math.nan)], ids=str)
def test_a_nan_layout_is_refused_as_a_precondition(r, s, d1):
    """A NaN r, s or d1 names the layout, not a missing table row."""
    for call in (lambda: solve_isosceles(r, s, d1, 4.0),
                 lambda: classifier.table_multiplicities(r, s, d1, [4.0, 5.0]),
                 lambda: classifier.multiplicity_conditions(r, s, d1, 4.0)):
        with pytest.raises(PreconditionViolation, match="need r, s > 0"):
            call()
    with pytest.raises(PreconditionViolation, match="need r, s > 0"):
        classifier.multiplicity_conditions(2.0, 3.0, 5.0, math.nan)


def test_tables_close_one_row_where_symbols_coincide():
    """At d3 = 2s/3 (N3 = Y0) and d3 = 2s (N3 = Y3) one row matches."""
    r, s = 2.0, 3.0
    for d1, block in ((0.5, "1"), (1.05, "2")):
        assert classifier.table_multiplicities(r, s, d1, [2.0]) == [
            (1, f"isosceles-sharp:{block}.1")]
    assert classifier.table_multiplicities(r, s, 0.5, [6.0]) == [
        (1, "isosceles-sharp:1.2")]
    sol = solve_isosceles(r, s, 0.5, 6.0)
    assert [c.role for c in sol.points] == ["N3"]


def test_solve_from_blocks_without_a_candidate_raises():
    with pytest.raises(MissingIntersection, match="d1=5.0, d3=4.0"):
        classifier._solve_from_blocks(2.0, 3.0, 5.0, 4.0, (),
                                      "isosceles-sharp", 1e-9)
    # the row matches, but base circles of radius 0.5 < r/2 do not meet
    everywhere = (0.0, True, math.inf, False)
    blocks = ((*everywhere, ((*everywhere, ("S12plus",), "x.1"),)),)
    with pytest.raises(MissingIntersection):
        classifier._solve_from_blocks(2.0, 3.0, 0.5, 4.0, blocks,
                                      "isosceles-sharp", 1e-9)


# --- multiplicity conditions ------------------------------------------------

def test_conditions_five_point():
    count, _ = multiplicity_conditions(2.0, 3.0, math.sqrt(50), math.sqrt(40))
    assert count == 5


def test_conditions_flat_four_point():
    count, _ = multiplicity_conditions(2.0, 1.0, math.sqrt(5), math.sqrt(5))
    assert count == 4


def test_conditions_equilateral_diagonal():
    count, _ = multiplicity_conditions(2.0, S3, 2.6, 2.6)
    assert count == 3


def test_conditions_agree_with_table_path():
    """The condition list and the row tables must never disagree."""
    rng = random.Random(4242)
    for s in (1.0, 3.0, S3):
        for _ in range(800):
            d1 = rng.uniform(0.2, 11.0)
            d3 = rng.uniform(0.05, 11.0)
            sol = solve_isosceles(2.0, s, d1, d3)
            count, _ = multiplicity_conditions(2.0, s, d1, d3)
            assert count == sol.multiplicity, (s, d1, d3)


def test_conditions_flat_apex_beyond_critical_base_at_m():
    """Beyond the flat critical base range the base '-' point does not join
    the leg '+' pair at d3 = M; the tables name one minimizer there."""
    r, s, d1 = 2.0, 0.87945, 2.0
    row = thresholds.row_thresholds(r, s, d1)
    assert d1 > row.P_flat
    assert classifier.table_multiplicities(r, s, d1, [row.M])[0][0] == 1
    assert multiplicity_conditions(r, s, d1, row.M)[0] == 1


# --- four-equal branch ------------------------------------------------------
#
# Cells on d3^2 = d1^2 - s^2 - r^2/4, which the tables classify by d1 against P.

def _four_equal(r, s, d1):
    return solve_isosceles(r, s, d1, math.sqrt(d1 * d1 - s * s - r * r / 4.0))


def test_four_equal_inner_row():
    sol = _four_equal(2.0, 1.5, math.sqrt(7.25))
    assert sol.multiplicity == 1
    assert abs(sol.objective_value - 3.0) < 1e-3


def test_four_equal_five_tie_at_P():
    sol = _four_equal(2.0, 3.0, math.sqrt(50))
    assert sol.multiplicity == 5
    assert abs(sol.objective_value - 24.0) < 1e-6


def test_four_equal_outer_row():
    sol = _four_equal(2.0, 3.0, 9.0)
    assert sol.multiplicity == 4


def _four_equal_objectives(r, s, d3):
    """Closed forms on the four-equal family: base '+', base '-', leg '-'."""
    leg = math.sqrt(s * s + r * r / 4.0)
    root = math.sqrt(d3 * d3 + s * s)
    return (-2.0 * s * s + 2.0 * s * root, 2.0 * s * s + 2.0 * s * root,
            2.0 * r * s * d3 / leg)


def _four_equal_table(r, s, d3):
    d1 = math.sqrt(d3 * d3 + s * s + r * r / 4.0)
    return {label: v for label, v, _ in
            objective_table(canonical(r, s, d1, d3))}


def test_four_equal_closed_forms():
    o = _four_equal_table(2.0, 1.5, 2.0)
    assert abs(o["S12+"] - 3.0) < 1e-3
    assert abs(o["S12-"] - 12.0) < 1e-3
    assert abs(o["S31-"] - 6.6564) < 1e-3
    # d3 -> 0 limit vanishes
    assert abs(_four_equal_table(2.0, 1.5, 1e-9)["S12+"]) < 1e-6
    o3 = _four_equal_table(2.0, 3.0, math.sqrt(40))
    assert abs(o3["S12+"] - 24.0) < 1e-3
    assert abs(o3["S12-"] - 60.0) < 1e-3
    assert abs(o3["S31-"] - 24.0) < 1e-3


def test_four_equal_closed_forms_match_direct_evaluation():
    for s, d3 in ((1.5, 2.0), (3.0, math.sqrt(40)), (1.0, 0.7), (2.2, 5.5)):
        want = _four_equal_objectives(2.0, s, d3)
        o = _four_equal_table(2.0, s, d3)
        got = (o["S12+"], o["S12-"], o["S31-"])
        for w, g in zip(want, got):
            assert abs(w - g) < 1e-9 * max(1.0, w), (s, d3)


# --- routing through arbitrary frames --------------------------------------

def test_solve_routes_rotated_permuted_five_way():
    cth, sth = math.cos(0.7), math.sin(0.7)

    def rot(p: Point2) -> Point2:
        return Point2(cth * p.x - sth * p.y + 3.2, sth * p.x + cth * p.y - 1.1)

    base = canonical(2.0, 3.0, math.sqrt(50), math.sqrt(40))
    perm = (2, 0, 1)  # apex listed first
    cfg = SensorConfig(tuple(rot(base.Z[j]) for j in perm),
                       tuple(base.d[j] for j in perm))
    sol = solve(cfg)
    assert sol.multiplicity == 5
    assert abs(sol.objective_value - 24.0) < 1e-6
    expected = [(0.0, 7.0), (-6.0, 1.0), (6.0, 1.0), (-6.0, 5.0), (6.0, 5.0)]
    for ex, ey in expected:
        q = rot(Point2(ex, ey))
        assert min(distance(q, c.location) for c in sol.points) < 1e-6


def test_solve_rejects_collinear_sensors():
    cfg = SensorConfig((Point2(0, 0), Point2(1, 0), Point2(2, 0)),
                       (1.0, 1.0, 1.0))
    with pytest.raises(DegenerateTriangle):
        solve(cfg)


def test_near_threshold_audit_on_printed_inputs(five_way_printed):
    """Rounded inputs sit measurably close to two thresholds; the report
    carries signed distances so callers can see why ties did not fire."""
    sol = solve(five_way_printed)
    dists = dict(sol.near_threshold)
    assert dists  # audit lists every defined threshold
    assert abs(dists["d1_zero"]) < 1e-3
    assert abs(dists["R"]) < 1e-3


# --- multiplicity cap properties -------------------------------------------

@given(s=st.floats(0.2, 4.0), d1=st.floats(0.05, 12.0), d3=st.floats(0.0, 12.0))
@settings(max_examples=400)
def test_multiplicity_cap_isosceles(s, d1, d3):
    sol = solve_isosceles(2.0, s, d1, d3)
    assert 1 <= sol.multiplicity <= 5


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150)
def test_multiplicity_cap_general(seed):
    rng = random.Random(seed)
    while True:
        zs = [Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        ax, ay = zs[1].x - zs[0].x, zs[1].y - zs[0].y
        bx, by = zs[2].x - zs[0].x, zs[2].y - zs[0].y
        if abs(ax * by - ay * bx) > 0.5:
            break
    d = tuple(rng.uniform(0.3, 8.0) for _ in range(3))
    sol = _scan(SensorConfig(tuple(zs), d))
    assert 1 <= sol.multiplicity <= 5


# --- per-d1 caches ----------------------------------------------------------

def _clear_row_caches():
    thresholds.row_thresholds.cache_clear()


@pytest.mark.parametrize("name", sorted(MAP_WINDOWS))
def test_cell_order_does_not_change_answers(name):
    """Visiting a map's cells shuffled gives the answers of row order."""
    r, s, (lo1, hi1), (lo3, hi3) = MAP_WINDOWS[name]
    d1s, d3s = sweep_axes(lo1, hi1, lo3, hi3, 40)
    cells = [(d1, d3) for d1 in d1s for d3 in d3s]
    _clear_row_caches()
    in_rows = {cell: solve_isosceles(r, s, *cell) for cell in cells}
    random.Random(name).shuffle(cells)
    _clear_row_caches()
    for cell in cells:
        got = solve_isosceles(r, s, *cell)
        want = in_rows[cell]
        assert got.points == want.points, cell
        assert got.objective_value == want.objective_value, cell
        assert got.multiplicity == want.multiplicity, cell
        assert got.derivation == want.derivation, cell
        assert got.near_threshold == want.near_threshold, cell


# --- general scan against an object-based reference -------------------------
#
# The reference is the scan as it stood before it moved to plain floats: it
# wraps every candidate in a CandidatePoint, intersects each circle pair once
# per role and builds a canonical frame for every relabeling.  ``solve`` must
# return equal SolutionSets (floats and roles included) and the same refusals.

_REF_PAIR_SPECS = (
    ("S12plus", 0, 1, True), ("S12minus", 0, 1, False),
    ("S23plus", 1, 2, True), ("S23minus", 1, 2, False),
    ("S31plus", 2, 0, True), ("S31minus", 2, 0, False),
)


def _ref_in_region(config, p, bits, eps):
    for z, d, bit in zip(config.Z, config.d, bits):
        dist = distance(p, z)
        if bit and dist > d + eps:
            return False
        if not bit and dist < d - eps:
            return False
    return True


def _ref_radial_candidates(config, eps):
    out = []
    anchors = centroid_points(*config.Z)
    for a, anchor in enumerate(anchors):
        for j, (z, d) in enumerate(zip(config.Z, config.d)):
            if a not in (0, 2 if j == 0 else 1):
                continue
            if d <= 0.0:
                if a == 0:
                    out.append(CandidatePoint(z, "RegionProjection"))
                continue
            norm = distance(anchor, z)
            if norm <= eps:
                continue
            for sign in (1.0, -1.0):
                t = sign * d / norm
                out.append(CandidatePoint(
                    Point2(z.x + t * (anchor.x - z.x),
                           z.y + t * (anchor.y - z.y)),
                    "RegionProjection"))
    return out


def _ref_argmin_set(config, candidates, pos_eps):
    vals = [objective_value(config, c.location) for c in candidates]
    vmin = min(vals)
    cut = vmin + classifier.REL_TIE * max(1.0, abs(vmin))
    winners = []
    for cand, val in zip(candidates, vals):
        if val > cut:
            continue
        if any(distance(cand.location, w.location) <= pos_eps for w in winners):
            continue
        winners.append(cand)
    return winners, vmin


def _ref_solve_general(config, tol=1e-9):
    canonical_frame(*config.Z, tol=tol)
    scale = 1.0 + config_scale(config)
    eps = tol * scale
    candidates = []
    for role, i, j, plus in _REF_PAIR_SPECS:
        pts = circle_circle_intersect(config, i, j)
        if pts:
            candidates.append(CandidatePoint(pts[0] if plus else pts[-1],
                                             role))
    cents = centroid_points(*config.Z)
    if _ref_in_region(config, cents[0], (0, 0, 0), eps):
        candidates.append(CandidatePoint(cents[0], "Y0"))
    for j in range(3):
        bits = tuple(1 if m == j else 0 for m in range(3))
        if _ref_in_region(config, cents[j + 1], bits, eps):
            candidates.append(CandidatePoint(cents[j + 1], f"Y{j + 1}"))
    candidates.extend(_ref_radial_candidates(config, eps))
    winners, vmin = _ref_argmin_set(config, candidates,
                                    classifier.REL_TIE * scale)
    return SolutionSet(tuple(winners), vmin, len(winners), "general-scan", ())


def _ref_solve(config, tol=1e-9):
    length = config_scale(config)
    thresholds._require_usable_scale(length)
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        z = tuple(config.Z[i] for i in perm)
        d = tuple(config.d[i] for i in perm)
        sub = canonical_frame(*z, tol=tol)
        if not (sub.isosceles
                and classifier.equal_base_ranges(d[0], d[1], length, tol)):
            continue
        sol = solve_isosceles(sub.r, sub.s, (d[0] + d[1]) / 2.0, d[2], tol=tol)
        points = tuple(
            CandidatePoint(sub.invert(c.location),
                           classifier._remap_role(c.role, perm))
            for c in sol.points)
        value = min(objective_value(config, c.location) for c in points)
        return SolutionSet(points, value, sol.multiplicity, sol.derivation,
                           sol.near_threshold)
    return _ref_solve_general(config, tol=tol)


def _criterion_6_layouts(count):
    rng = random.Random(20240811)
    out = []
    while len(out) < count:
        pts = [Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
               for _ in range(3)]
        ax, ay = pts[1].x - pts[0].x, pts[1].y - pts[0].y
        bx, by = pts[2].x - pts[0].x, pts[2].y - pts[0].y
        if abs(ax * by - ay * bx) <= 0.5:
            continue
        out.append(SensorConfig(tuple(pts),
                                tuple(rng.uniform(0.3, 8.0) for _ in range(3))))
    return out


def _moved_isosceles_layouts(count):
    """Isosceles cells under a rotation, shift, reflection and relabeling."""
    rng = random.Random(20240813)
    out = []
    for _ in range(count):
        base = canonical(rng.uniform(0.5, 4.0), rng.uniform(0.2, 4.0),
                         rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0))
        th = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(th), math.sin(th)
        flip = rng.choice((1.0, -1.0))
        ox, oy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        perm = rng.choice(((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2)))
        zs = [Point2(c * z.x - s * flip * z.y + ox, s * z.x + c * flip * z.y + oy)
              for z in base.Z]
        out.append(SensorConfig(tuple(zs[j] for j in perm),
                                tuple(base.d[j] for j in perm)))
    return out


def _zero_range_layouts():
    rng = random.Random(20240814)
    out = []
    for n, cfg in enumerate(_criterion_6_layouts(100)):
        zeros = ((0,), (1,), (2,), (0, 2), (0, 1, 2))[n % 5]
        d = tuple(0.0 if j in zeros else cfg.d[j] * rng.uniform(0.5, 1.5)
                  for j in range(3))
        out.append(SensorConfig(cfg.Z, d))
    return out


# Y0 wins outside every disk; Y1 wins inside disk 1 alone.
_COMPANION_LAYOUTS = {
    "Y0": SensorConfig((Point2(0, 0), Point2(4, 0), Point2(1, 3)),
                       (0.5, 0.5, 0.5)),
    "Y1": SensorConfig((Point2(0, 0), Point2(4, 0), Point2(1, 3)),
                       (6.0, 0.5, 0.5)),
}


@pytest.mark.parametrize("layouts", [
    pytest.param(lambda: _criterion_6_layouts(1000), id="criterion-6"),
    pytest.param(lambda: _moved_isosceles_layouts(300), id="moved-isosceles"),
    pytest.param(_zero_range_layouts, id="zero-range"),
    pytest.param(lambda: list(_COMPANION_LAYOUTS.values()), id="companions"),
])
def test_solve_equals_object_based_reference(layouts):
    configs = layouts()
    for cfg in configs:
        assert solve(cfg) == _ref_solve(cfg), cfg
        assert _scan(cfg) == _ref_solve_general(cfg), cfg


def test_reference_layouts_reach_every_branch():
    assert sum(solve(cfg).derivation != "general-scan"
               for cfg in _moved_isosceles_layouts(300)) >= 200
    at_sensor = [c for cfg in _zero_range_layouts()
                 for c in _ref_radial_candidates(cfg, 0.0)
                 if c.location in cfg.Z]
    assert at_sensor
    for role, cfg in _COMPANION_LAYOUTS.items():
        assert [c.role for c in solve(cfg).points] == [role]


_REFUSALS = {
    "Z1 at Z2": ((Point2(0, 0), Point2(0, 0), Point2(1, 2)),
                 "base sensors coincide"),
    "Z2 at Z3": ((Point2(0, 0), Point2(1, 2), Point2(1, 2)),
                 "sensors are collinear within tolerance"),
    "Z3 at Z1": ((Point2(0, 0), Point2(3, 1), Point2(0, 0)),
                 "sensors are collinear within tolerance"),
    "collinear": ((Point2(0, 0), Point2(1, 0), Point2(3, 0)),
                  "sensors are collinear within tolerance"),
    # the (0, 1, 2) frame accepts it; the (1, 2, 0) frame refuses it
    "needle": ((Point2(0, 0), Point2(1, 0), Point2(1000, 1e-6)),
               "sensors are collinear within tolerance"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_solve_refuses_as_the_reference(name):
    zs, message = _REFUSALS[name]
    d = (3.0, 2.5, 999.0) if name == "needle" else (1.0, 2.0, 3.0)
    cfg = SensorConfig(zs, d)
    for fn in (solve, _ref_solve):
        with pytest.raises(DegenerateTriangle) as err:
            fn(cfg)
        assert str(err.value) == message


def test_conditions_refuse_an_unusable_scale_as_the_tables():
    """The thresholds are evaluated free of units, so the length-scale check
    is what refuses a cell whose L^2 overflows."""
    for call in (solve_isosceles, multiplicity_conditions):
        with pytest.raises(PreconditionViolation, match="length scale"):
            call(1e300, 1e300, 1e300, 1e300)


def test_general_scan_refuses_an_unusable_scale_as_solve():
    cfg = SensorConfig((Point2(0, 0), Point2(1e160, 0), Point2(0, 1e160)),
                       (1e160, 1e160, 1e160))
    with pytest.raises(PreconditionViolation, match="length scale"):
        solve(cfg)


def test_general_solve_builds_no_frame_and_three_intersections(monkeypatch):
    """A general solve checks its layout once: one length scale, one basis
    per relabeling, no frame, and one intersection per circle pair."""
    counts = {"frames": 0, "intersections": 0, "scales": 0, "bases": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geometry, "CanonicalFrame",
                        counted("frames", geometry.CanonicalFrame))
    for key, name in (("intersections", "circle_circle_intersect"),
                      ("scales", "config_scale"), ("bases", "_frame_basis")):
        monkeypatch.setattr(classifier, name,
                            counted(key, getattr(classifier, name)))
    cfg = _criterion_6_layouts(1)[0]
    assert solve(cfg).derivation == "general-scan"
    assert counts == {"frames": 0, "intersections": 3, "scales": 1,
                      "bases": 3}
