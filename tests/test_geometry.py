"""Geometry layer: circle intersections, centroid companions, canonical frames.

Property tests generate random configurations and check invariants that must
hold for any valid input; the fixed cases pin down exact values.
"""
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import S3, canonical
from trilat.errors import DegenerateTriangle
from trilat.geometry import (Point2, SensorConfig, canonical_frame,
                             centroid_points, circle_circle_intersect,
                             config_scale, distance, n3_point)

# --- strategies -------------------------------------------------------------

coords = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
radii = st.floats(0.05, 15.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point2, coords, coords)
# A circle is a (center, radius) pair.
circles = st.tuples(points, radii)


@st.composite
def meeting_pairs(draw):
    """Two circles whose center distance lies strictly between |ra - rb|
    and ra + rb, so that they meet in two points."""
    center_a, ra = a = draw(circles)
    rb = draw(radii)
    frac = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    lo, hi = abs(ra - rb), ra + rb
    gap = lo + frac * (hi - lo)
    center = Point2(center_a.x + gap * math.cos(angle),
                    center_a.y + gap * math.sin(angle))
    return a, (center, rb)


def _intersect(a, b, third):
    """Circles a and b as the range circles of sensors 1 and 2, with the
    third sensor at ``third``."""
    (za, ra), (zb, rb) = a, b
    return circle_circle_intersect(SensorConfig((za, zb, third),
                                                (ra, rb, 0.0)), 0, 1)


def _triangle_area(a: Point2, b: Point2, c: Point2) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2.0


class TestCircleIntersect:
    def test_two_point_example(self):
        """Symmetric circles on the x-axis meet on the y-axis."""
        plus, minus = _intersect((Point2(-1, 0), 2.6), (Point2(1, 0), 2.6),
                                 Point2(0, S3))
        assert abs(plus.x) < 1e-12
        assert abs(plus.y - 2.4) < 1e-12
        assert abs(minus.y + 2.4) < 1e-12

    def test_third_sensor_is_the_other_index(self):
        """Each pair (i, j) of one layout orders by sensor 3 - i - j."""
        cfg = canonical(2.0, S3, 2.6, 2.6)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            plus, minus = circle_circle_intersect(cfg, i, j)
            third = cfg.Z[3 - i - j]
            assert distance(plus, third) < distance(minus, third)

    def test_disjoint(self):
        assert _intersect((Point2(0, 0), 1), (Point2(10, 0), 1),
                          Point2(0, 1)) == ()

    def test_contained(self):
        assert _intersect((Point2(0, 0), 5), (Point2(1, 0), 1),
                          Point2(0, 1)) == ()

    def test_tangent_snaps_to_single_point(self):
        (p,) = _intersect((Point2(0, 0), 1), (Point2(2, 0), 1), Point2(5, 5))
        assert abs(p.x - 1) < 1e-9
        assert abs(p.y) < 1e-9

    @given(a=circles, b=circles)
    @settings(max_examples=200)
    def test_points_lie_on_both_circles(self, a, b):
        """Any reported intersection satisfies both circle equations."""
        (za, ra), (zb, rb) = a, b
        gap = distance(za, zb)
        assume(gap > 1e-6)
        for p in _intersect(a, b, Point2(0, 0)):
            scale = ra + rb + 1.0
            assert abs(distance(p, za) - ra) <= 1e-7 * scale
            assert abs(distance(p, zb) - rb) <= 1e-7 * scale

    @given(circle_pair=meeting_pairs(), third=points)
    @example(circle_pair=((Point2(0.0, 0.0), 1.0),
                          (Point2(10.0, -1.19e-7), 10.0)),
             third=Point2(1.0, 0.0))
    @settings(max_examples=200)
    def test_plus_point_is_nearer_third(self, circle_pair, third):
        """The '+' point is never farther from the third sensor than '-'
        by more than the tie tolerance, within which the order is by y."""
        (za, ra), (zb, rb) = a, b = circle_pair
        gap = distance(za, zb)
        assume(gap > 1e-6)
        pts = _intersect(a, b, third)
        assume(len(pts) == 2)
        plus, minus = pts
        sep = distance(plus, minus)
        assume(sep > 1e-9)  # orientation is a coin flip at a tangency
        assert (distance(plus, third)
                <= distance(minus, third) + 1e-9 * (ra + rb + gap))


class TestCentroidCompanions:
    def test_equilateral_example(self):
        y0, y1, y2, y3 = centroid_points(Point2(-1, 0), Point2(1, 0),
                                         Point2(0, S3))
        assert abs(y0.x) < 1e-12 and abs(y0.y - S3 / 3) < 1e-12
        assert abs(y3.x) < 1e-12 and abs(y3.y + S3) < 1e-12

    def test_plain_triangle(self):
        y0, y1, _, _ = centroid_points(Point2(0, 0), Point2(2, 0),
                                       Point2(1, 3))
        assert (abs(y0.x - 1) < 1e-12 and abs(y0.y - 1) < 1e-12)
        assert (abs(y1.x - 3) < 1e-12 and abs(y1.y - 3) < 1e-12)

    def test_collapsed_triangle(self):
        p = Point2(2.5, -1.5)
        for q in centroid_points(p, p, p):
            assert abs(q.x - p.x) < 1e-12 and abs(q.y - p.y) < 1e-12

    @given(a=points, b=points, c=points)
    @settings(max_examples=200)
    def test_reflection_identity(self, a, b, c):
        """Y_j = 3*Y_0 - 2*Z_j for every vertex."""
        y0, y1, y2, y3 = centroid_points(a, b, c)
        for yj, zj in ((y1, a), (y2, b), (y3, c)):
            assert abs(yj.x - (3 * y0.x - 2 * zj.x)) < 1e-9
            assert abs(yj.y - (3 * y0.y - 2 * zj.y)) < 1e-9


class TestCanonicalFrame:
    def test_equilateral(self):
        fr = canonical_frame(Point2(-1, 0), Point2(1, 0), Point2(0, S3))
        assert abs(fr.r - 2) < 1e-12
        assert abs(fr.s - S3) < 1e-12
        assert fr.isosceles

    def test_flat(self):
        fr = canonical_frame(Point2(0, 0), Point2(2, 0), Point2(1, 1))
        assert abs(fr.r - 2) < 1e-12 and abs(fr.s - 1) < 1e-12
        assert fr.isosceles

    def test_sharp_with_motion_residual(self):
        zs = (Point2(5, 5), Point2(5, 9), Point2(11, 7))
        fr = canonical_frame(*zs)
        assert abs(fr.r - 4) < 1e-12 and abs(fr.s - 6) < 1e-12
        assert fr.isosceles
        targets = (Point2(-2, 0), Point2(2, 0), Point2(0, 6))
        res = max(distance(fr.invert(t), z) for z, t in zip(zs, targets))
        assert res < 1e-12

    def test_off_axis_apex_within_tol_is_isosceles(self):
        apex = Point2(2e-7, 3.0)  # 1e-7 * r off the base bisector
        assert not canonical_frame(Point2(-1, 0), Point2(1, 0), apex).isosceles
        assert canonical_frame(Point2(-1, 0), Point2(1, 0), apex,
                               tol=1e-6).isosceles

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            canonical_frame(Point2(0, 0), Point2(1, 0), Point2(2, 0))

    @given(a=points, b=points, c=points)
    @settings(max_examples=200)
    def test_invert_places_the_base_and_apex(self, a, b, c):
        """invert maps (-r/2, 0) to Z1 and (r/2, 0) to Z2, and the origin,
        the base midpoint, to a point s from Z3, for any non-degenerate
        input."""
        assume(_triangle_area(a, b, c) > 1e-3)
        fr = canonical_frame(a, b, c)
        tol = 1e-8 * (1.0 + max(abs(v) for z in (a, b, c) for v in (z.x, z.y)))
        assert distance(fr.invert(Point2(-fr.r / 2.0, 0.0)), a) < tol
        assert distance(fr.invert(Point2(fr.r / 2.0, 0.0)), b) < tol
        assert abs(distance(fr.invert(Point2(0.0, 0.0)), c) - fr.s) < tol

    @given(a=points, b=points, c=points, p=points, q=points)
    @settings(max_examples=200)
    def test_motion_preserves_distances(self, a, b, c, p, q):
        assume(_triangle_area(a, b, c) > 1e-3)
        fr = canonical_frame(a, b, c)
        d_before = distance(p, q)
        d_after = distance(fr.invert(p), fr.invert(q))
        assert abs(d_before - d_after) < 1e-8 * (1.0 + d_before)


class TestNearestPointN3:
    def test_equilateral_unit_range(self):
        cfg = canonical(2.0, S3, 1.0, 1.0)
        n3 = n3_point(cfg)
        assert abs(n3.x) < 1e-12
        assert abs(n3.y - (S3 - 1)) < 1e-12

    def test_matches_dense_angular_scan(self):
        cfg = canonical(2.0, S3, 1.0, 1.0)
        z3, d3 = cfg.Z[2], cfg.d[2]
        y3 = centroid_points(*cfg.Z)[3]
        n3 = n3_point(cfg)
        best, best_p = None, None
        for k in range(200_000):
            ang = 2 * math.pi * k / 200_000
            p = Point2(z3.x + d3 * math.cos(ang), z3.y + d3 * math.sin(ang))
            v = distance(p, y3)
            if best is None or v < best:
                best, best_p = v, p
        assert distance(best_p, n3) < 1e-4

    def test_degenerate_when_y3_on_circle(self):
        cfg = canonical(2.0, S3, 1.0, 1.0)
        y3 = centroid_points(*cfg.Z)[3]
        dd = distance(y3, cfg.Z[2])
        n3 = n3_point(canonical(2.0, S3, 1.0, dd))
        assert abs(n3.x - y3.x) < 1e-12 and abs(n3.y - y3.y) < 1e-12


def test_point2_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.inf)


def test_sensor_config_validation():
    with pytest.raises(ValueError):
        SensorConfig((Point2(0, 0), Point2(1, 0), Point2(0, 1)), (1.0, -0.5, 1.0))
    cfg = canonical(2.0, 3.0, 4.0, 5.0)
    assert cfg.Z[0].x == -1.0 and cfg.Z[1].x == 1.0 and cfg.Z[2].y == 3.0
    assert config_scale(cfg) >= max(cfg.d)
