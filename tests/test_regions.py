"""Objective evaluation, disk membership, and the outside-all-disks quadratic."""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import S3, canonical
from trilat.classifier import _in_region
from trilat.geometry import Point2, SensorConfig, centroid_points, distance
from trilat.regions import objective_value

coords = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


def test_objective_fixed_values():
    # three-way tie point of the r=2 equilateral with all ranges 2.6
    cfg = canonical(2.0, S3, 2.6, 2.6)
    assert abs(objective_value(cfg, Point2(0, 2.4)) - 6.3138) < 1e-3
    # a noiseless instance vanishes at its source
    src = Point2(0.3, 0.9)
    zs = (Point2(-1, 0), Point2(1, 0), Point2(0, S3))
    noiseless = SensorConfig(zs, tuple(distance(src, z) for z in zs))
    assert objective_value(noiseless, src) < 1e-12


def test_objective_zero_exactly_on_all_circles():
    """O(W) = 0 iff W lies on all three measurement circles."""
    src = Point2(-0.4, 1.1)
    zs = (Point2(-1, 0), Point2(1.5, 0.2), Point2(0, 2.5))
    cfg = SensorConfig(zs, tuple(distance(src, z) for z in zs))
    assert objective_value(cfg, src) < 1e-12
    assert objective_value(cfg, Point2(src.x + 1e-3, src.y)) > 0.0


@given(x=coords, y=coords)
def test_reflection_symmetry(x, y):
    """Canonical isosceles instances are mirror-symmetric about x=0."""
    cfg = canonical(2.0, 3.0, 6.1, 5.4)
    left = objective_value(cfg, Point2(-x, y))
    right = objective_value(cfg, Point2(x, y))
    assert abs(left - right) < 1e-10 * (1.0 + abs(left))


class TestClassifyPoint:
    """Closed-disk membership, as the general scan gates Y0..Y3 with it."""

    def test_center_and_boundary_are_inside(self):
        cfg = canonical(2.0, S3, 2.6, 2.6)
        assert _in_region(cfg, cfg.Z[0], (1, 1, 1), 0.0)
        assert _in_region(cfg, Point2(-1 + 2.6, 0), (1, 1, 1), 0.0)

    def test_centroid_inside_all(self):
        cfg = canonical(2.0, S3, 2.6, 2.6)
        assert _in_region(cfg, Point2(0, S3 / 3), (1, 1, 1), 0.0)
        assert not _in_region(cfg, Point2(0, S3 / 3), (0, 0, 0), 0.0)

    @given(x=coords, y=coords)
    def test_bits_match_distances(self, x, y):
        cfg = canonical(2.0, 1.4, 1.7, 2.1)
        w = Point2(x, y)
        dists = [distance(w, z) for z in cfg.Z]
        bits = tuple(1 if dist <= dj else 0 for dist, dj in zip(dists, cfg.d))
        assert _in_region(cfg, w, bits, 0.0)
        for j in range(3):
            if dists[j] != cfg.d[j]:
                flipped = bits[:j] + (1 - bits[j],) + bits[j + 1:]
                assert not _in_region(cfg, w, flipped, 0.0)

    def test_tolerance_widens_membership(self):
        cfg = canonical(2.0, S3, 1.0, 1.0)
        just_outside = Point2(-1 + 1.0 + 1e-7, 0)
        assert not _in_region(cfg, just_outside, (1, 1, 0), 0.0)
        assert _in_region(cfg, just_outside, (1, 1, 0), 1e-6)


def _quadratic_constant(config: SensorConfig) -> float:
    """C0 in O(W) = 3*|W - Y0|^2 + C0, which holds outside every disk."""
    y0 = centroid_points(*config.Z)[0]
    return (-3.0 * (y0.x ** 2 + y0.y ** 2)
            - sum(dj * dj for dj in config.d)
            + sum(z.x ** 2 + z.y ** 2 for z in config.Z))


def _quadratic_form(config: SensorConfig, w: Point2) -> float:
    y0 = centroid_points(*config.Z)[0]
    return 3.0 * ((w.x - y0.x) ** 2 + (w.y - y0.y) ** 2) + _quadratic_constant(config)


class TestQuadraticForm:
    """Outside all disks O is the quadratic 3*|W - Y0|^2 + C0, which is why
    Y0 is the general scan's only candidate from that region."""

    def test_identity_far_out(self):
        cfg = canonical(2.0, S3, 2.6, 2.6)
        w = Point2(40.0, -25.0)
        q = _quadratic_form(cfg, w)
        assert abs(q - objective_value(cfg, w)) <= 1e-9 * abs(q)

    def test_identity_at_moderate_radius(self):
        cfg = canonical(2.0, S3, 1.0, 1.0)
        w = Point2(10, 10)
        assert abs(_quadratic_form(cfg, w) - objective_value(cfg, w)) < 1e-6

    def test_mirror_value_at_centroid(self):
        # with every disk containing Y0 the sum flips sign relative to C0
        cfg = canonical(2.0, S3, 2.6, 2.6)
        y0 = centroid_points(*cfg.Z)[0]
        assert abs(objective_value(cfg, y0) + _quadratic_constant(cfg)) < 1e-9

    def test_rejects_point_inside_a_disk(self):
        # inside a disk the form no longer holds: it falls below O there
        cfg = canonical(2.0, S3, 2.6, 2.6)
        y0 = centroid_points(*cfg.Z)[0]
        assert _quadratic_form(cfg, y0) < objective_value(cfg, y0) - 1.0

    @given(x=st.floats(-60, 60), y=st.floats(-60, 60))
    @settings(max_examples=150)
    def test_identity_outside_all_disks(self, x, y):
        cfg = canonical(2.0, 1.4, 1.7, 2.1)
        w = Point2(x, y)
        assume(all(distance(w, z) > dj * (1 + 1e-9) + 1e-9
                   for z, dj in zip(cfg.Z, cfg.d)))
        q = _quadratic_form(cfg, w)
        assert abs(q - objective_value(cfg, w)) <= 1e-8 * (1.0 + abs(q))
