"""Every tie and band is relative to the instance's length scale, and the
answer does not depend on how the layout is labeled or placed.

Scaling a layout and its ranges by a power of two is exact in floating
point, so the answer must scale with it: the same multiplicity, roles and
derivation, and points that are ``==`` to the scaled ones.  Values are
sums of ``**2`` terms, which go through libm's ``pow`` and may differ in
the last bits, so they agree to 1e-14 relative.  Scaling by any other
factor rounds the inputs, so there only the multiplicity and the
derivation must stay.
"""
import itertools
import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trilat import classifier
from trilat.errors import TrilatError
from trilat.geometry import Point2, SensorConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "trilat"

# Dyadic coordinates and ranges: exact under any scaling by 2^j, and never
# so small that a scaled copy turns subnormal.
_COORD = st.integers(-5 * 2 ** 10, 5 * 2 ** 10).map(lambda n: n / 2 ** 10)
_RANGE = st.integers(0, 8 * 2 ** 10).map(lambda n: n / 2 ** 10)
_LENGTH = st.integers(1, 8 * 2 ** 10).map(lambda n: n / 2 ** 10)
_LAYOUTS = st.builds(
    lambda zs, d: SensorConfig(tuple(Point2(x, y) for x, y in zs), d),
    st.tuples(*[st.tuples(_COORD, _COORD)] * 3), st.tuples(*[_RANGE] * 3))
_CELLS = st.tuples(_LENGTH, _LENGTH, _RANGE, _RANGE)


def _scaled(config, k):
    return SensorConfig(tuple(Point2(z.x * k, z.y * k) for z in config.Z),
                        tuple(d * k for d in config.d))


def _outcome(call):
    """The solution set, or the class of the refusal."""
    try:
        return call()
    except TrilatError as exc:
        return type(exc)


def _assert_scales_exactly(got, want, k):
    """``got`` is ``want`` with lengths scaled by the power of two ``k``."""
    if isinstance(want, type):
        assert got is want
        return
    assert (got.multiplicity, got.derivation) == (want.multiplicity,
                                                  want.derivation)
    assert [c.role for c in got.points] == [c.role for c in want.points]
    assert [c.location for c in got.points] == [
        Point2(c.location.x * k, c.location.y * k) for c in want.points]
    assert math.isclose(got.objective_value, want.objective_value * k * k,
                        rel_tol=1e-14)


@given(_LAYOUTS, st.integers(-480, 480))
def test_solve_scales_exactly_by_powers_of_two(config, j):
    k = 2.0 ** j
    _assert_scales_exactly(_outcome(lambda: classifier.solve(_scaled(config, k))),
                           _outcome(lambda: classifier.solve(config)), k)


@given(_CELLS, st.integers(-480, 480))
def test_tables_scale_exactly_by_powers_of_two(cell, j):
    k = 2.0 ** j
    r, s, d1, d3 = cell
    want = _outcome(lambda: classifier.solve_isosceles(r, s, d1, d3))
    got = _outcome(lambda: classifier.solve_isosceles(r * k, s * k, d1 * k,
                                                      d3 * k))
    _assert_scales_exactly(got, want, k)
    counts = _outcome(lambda: classifier.table_multiplicities(r, s, d1, [d3]))
    assert _outcome(lambda: classifier.table_multiplicities(
        r * k, s * k, d1 * k, [d3 * k])) == counts
    if not isinstance(want, type):
        assert counts == [(want.multiplicity, want.derivation)]


def _summary(call):
    out = _outcome(call)
    return out if isinstance(out, type) else (out.multiplicity, out.derivation)


@given(_LAYOUTS, st.floats(1e-6, 1e6))
def test_solve_multiplicity_does_not_depend_on_units(config, k):
    assert _summary(lambda: classifier.solve(_scaled(config, k))) == _summary(
        lambda: classifier.solve(config))


@given(_CELLS, st.floats(1e-6, 1e6))
def test_table_multiplicity_does_not_depend_on_units(cell, k):
    r, s, d1, d3 = cell
    assert _summary(lambda: classifier.solve_isosceles(
        r * k, s * k, d1 * k, d3 * k)) == _summary(
            lambda: classifier.solve_isosceles(r, s, d1, d3))


def _multiplicity(config):
    """The multiplicity of ``solve``, or the class of its refusal."""
    out = _outcome(lambda: classifier.solve(config))
    return out if isinstance(out, type) else out.multiplicity


def _moved(config, motion):
    """``config`` with each sensor moved by ``motion``, ranges kept."""
    return SensorConfig(tuple(Point2(*motion(z.x, z.y)) for z in config.Z),
                        config.d)


# The answer belongs to the layout, not to how its sensors are numbered or
# placed: relabeling, reflecting or moving it keeps the multiplicity.

@given(_LAYOUTS)
def test_solve_multiplicity_does_not_depend_on_sensor_labels(config):
    want = _multiplicity(config)
    for perm in itertools.permutations(range(3)):
        relabeled = SensorConfig(tuple(config.Z[i] for i in perm),
                                 tuple(config.d[i] for i in perm))
        assert _multiplicity(relabeled) == want, perm


@given(_LAYOUTS)
def test_solve_multiplicity_survives_a_reflection(config):
    assert _multiplicity(_moved(config, lambda x, y: (-x, y))) == \
        _multiplicity(config)


@given(_LAYOUTS, st.floats(0.0, 2.0 * math.pi), _COORD, _COORD)
def test_solve_multiplicity_survives_a_rigid_motion(config, angle, tx, ty):
    c, s = math.cos(angle), math.sin(angle)
    moved = _moved(config, lambda x, y: (c * x - s * y + tx,
                                         s * x + c * y + ty))
    assert _multiplicity(moved) == _multiplicity(config)


# General layouts, drawn as criterion 6 draws them, whose multiplicity once
# read 2 at a thousandth of their size: an absolute floor in the tie cut
# let a runner-up at least 7.5e-8 (relative) above the minimum tie with it.
_ONCE_SCALE_DEPENDENT = [
    (((4.981599522851607, -2.4343881452597396),
      (-2.986363693454873, 2.467828134595477),
      (2.7033251062569432, 0.142837977116697)),
     (4.05048376536652, 3.4088216427117835, 7.096766364034463)),
    (((4.4707703711780145, 4.326431440880716),
      (-4.827530792772258, -0.04029110615754128),
      (-0.14710200065190904, 0.49233234361380074)),
     (3.584164454203296, 7.442290014547989, 4.873269460565551)),
    (((3.550340699179534, -4.145339261402969),
      (1.8221182689164541, 2.407322542603337),
      (-0.07616597104771383, -2.440421070096833)),
     (0.5585853696637962, 3.333446748214731, 3.3917759284359605)),
]


@pytest.mark.parametrize("zs,d", _ONCE_SCALE_DEPENDENT)
@pytest.mark.parametrize("k", [1.0, 1e-3, 1e-6, 2.0 ** -20, 1e6])
def test_runner_up_does_not_tie_at_small_scales(zs, d, k):
    config = SensorConfig(tuple(Point2(x, y) for x, y in zs), d)
    sol = classifier.solve(_scaled(config, k))
    assert (sol.multiplicity, sol.derivation) == (1, "general-scan")


# Isosceles cells, drawn as criterion 6 draws them, whose two leg '+'
# points were once merged into one at 2^-30 of their size: an absolute floor
# held the merge radius at 1e-9 while the layout shrank to about 1e-8.
_ONCE_MERGED = [
    (3.258407570538292, 3.3483226915826316, 3.4419297679600045,
     6.171101023962414, "isosceles-sharp:3.3"),
    (2.2325800849076263, 1.6359982375228959, 1.7275459091045726,
     2.3555872603921633, "isosceles-flat:3.3"),
    (0.9521148640990929, 2.2463079845616853, 0.7879671132435373,
     2.4501222089432124, "isosceles-sharp:2.3"),
]


@pytest.mark.parametrize("r,s,d1,d3,derivation", _ONCE_MERGED)
@pytest.mark.parametrize("k", [1.0, 2.0 ** -30, 1e-12])
def test_tied_points_stay_apart_at_small_scales(r, s, d1, d3, derivation, k):
    sol = classifier.solve_isosceles(r * k, s * k, d1 * k, d3 * k)
    assert (sol.multiplicity, sol.derivation) == (2, derivation)
    assert [c.role for c in sol.points] == ["S23plus", "S31plus"]


_FLOOR = re.compile(r"max\(1\.0,|\(1\.0 \+")


@pytest.mark.parametrize("module", ["classifier", "thresholds", "regions",
                                    "geometry", "cli"])
def test_no_absolute_floor_in_a_tolerance(module):
    """A tolerance of the form tol * (1.0 + x) or tol * max(1.0, x) does not
    scale with the instance; take it from the length scale instead."""
    text = (SRC / f"{module}.py").read_text()
    assert _FLOOR.findall(text) == []
