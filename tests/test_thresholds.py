"""Closed-form thresholds, the auxiliary tie radius d3*, and the bundle."""
import math
import random

import pytest

from conftest import S3, canonical, rel
from trilat import thresholds as th
from trilat.errors import NoBracket, PreconditionViolation
from trilat.geometry import circle_circle_intersect
from trilat.regions import objective_value


def _s_points(cfg):
    out = {}
    for name, i, j in (("S12", 0, 1), ("S23", 1, 2), ("S31", 2, 0)):
        pts = circle_circle_intersect(cfg, i, j) or (None,)
        out[name + "+"], out[name + "-"] = pts[0], pts[-1]
    return out


# --- base-pair crossover d3_0 ----------------------------------------------

def test_d3_zero_value():
    assert abs(th.compute_bundle(2.0, S3, 4.0, 1.0).d3_0 - math.sqrt(18)) < 1e-12


def test_d3_zero_equality_at_threshold():
    cfg = canonical(2.0, S3, 4.0, math.sqrt(18))
    sp = _s_points(cfg)
    a = objective_value(cfg, sp["S12+"])
    b = objective_value(cfg, sp["S12-"])
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_d3_zero_orders_the_pair_below_threshold():
    cfg = canonical(2.0, S3, 2.6, 2.6)
    sp = _s_points(cfg)
    assert objective_value(cfg, sp["S12+"]) < objective_value(cfg, sp["S12-"])


# --- apex-pair crossover d1_0 ----------------------------------------------

def test_d1_zero_at_the_four_equal_locus():
    cfg = canonical(2.0, 3.0, math.sqrt(50), math.sqrt(40))
    sp = _s_points(cfg)
    a = objective_value(cfg, sp["S23+"])
    b = objective_value(cfg, sp["S23-"])
    assert abs(a - b) < 1e-9 * 24
    assert abs(th.compute_bundle(2.0, 3.0, math.sqrt(50), math.sqrt(40)).d1_0
               - math.sqrt(50)) < 1e-9


def test_d1_zero_comparator_direction():
    cfg = canonical(2.0, S3, 4.0, 4.4495)
    sp = _s_points(cfg)
    assert objective_value(cfg, sp["S23+"]) < objective_value(cfg, sp["S23-"])


# --- threshold R ------------------------------------------------------------

def test_R_equals_d1_for_equilateral():
    for d1 in (1.2, 2.6, 4.0, 7.7):
        assert abs(th.threshold_R(2.0, S3, d1) - d1) <= 1e-12 * d1


def test_R_flat_fixture():
    assert abs(th.threshold_R(2.0, 1.0, 1.8251) - 1.7725) < 1e-3


def test_three_way_tie_at_R():
    cfg = canonical(2.0, S3, 2.6, 2.6)
    sp = _s_points(cfg)
    vals = [objective_value(cfg, sp[k]) for k in ("S12+", "S23+", "S31+")]
    assert max(vals) - min(vals) < 1e-9 * max(vals)


def test_R_precondition():
    # below r/2 the base circles have no chord and R is undefined
    with pytest.raises(PreconditionViolation):
        th.threshold_R(2.0, 3.0, 0.9)


# --- threshold M ------------------------------------------------------------

def test_M_values():
    m_eq = th.threshold_M(2.0, S3, 4.0)
    assert abs(m_eq - math.sqrt(24)) < 1e-12 * m_eq
    m_s3 = th.threshold_M(2.0, 3.0, math.sqrt(50))
    assert abs(m_s3 - math.sqrt(90.4)) < 1e-9


def test_equality_at_M():
    m = th.threshold_M(2.0, 3.0, math.sqrt(50))
    cfg = canonical(2.0, 3.0, math.sqrt(50), m)
    sp = _s_points(cfg)
    assert abs(objective_value(cfg, sp["S31+"])
               - objective_value(cfg, sp["S12-"])) < 1e-6


def test_M_precondition():
    with pytest.raises(PreconditionViolation):
        th.threshold_M(2.0, 3.0, 2.0)


# --- threshold P and Q ------------------------------------------------------

def test_P_sharp_value():
    p = th.threshold_P(2.0, 3.0)
    assert p is not None and abs(p - math.sqrt(50)) < 1e-12 * p


def test_P_absent_off_sharp():
    assert th.threshold_P(2.0, S3) is None
    assert th.threshold_P(2.0, 1.5) is None


def test_P_exceeds_B_whenever_defined():
    rng = random.Random(7)
    for _ in range(300):
        r = rng.uniform(0.4, 3.0)
        s = rng.uniform(0.87 * r, 4.0)
        p = th.threshold_P(r, s)
        if p is None:
            continue
        b = math.sqrt(r * r / 4 + s * s)
        assert p > b


def _P_leg_form(r, s):
    """P printed in (base length, leg length) rather than (r, s)."""
    leg_sq = s * s + r * r / 4.0
    r_sq = r * r
    return math.sqrt(r_sq / 4.0 + (leg_sq - r_sq / 4.0)
                     * ((leg_sq + r_sq) / (leg_sq - r_sq)) ** 2)


def test_P_printed_forms_agree_off_the_equilateral_height():
    rng = random.Random(13)
    for k in range(2000):
        r = rng.uniform(0.1, 10.0)
        lift = 1e-3 if k < 200 else 1e-3 * 10.0 ** rng.uniform(0.0, 4.0)
        s = S3 / 2.0 * r * (1.0 + lift)
        p = th.threshold_P(r, s)
        leg = _P_leg_form(r, s)
        assert abs(p - leg) <= 1e-12 * max(p, leg)


def test_P_defined_just_above_the_equilateral_height():
    rng = random.Random(17)
    for _ in range(1000):
        r = rng.uniform(0.1, 10.0)
        s = S3 / 2.0 * r * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0))
        p = th.threshold_P(r, s)
        assert p is not None and math.isfinite(p) and p > r


def test_P_absent_where_the_height_rounds_to_equilateral():
    # s is above sqrt(3)/2 r, yet 4 s^2 - 3 r^2 rounds to 0: once a
    # ZeroDivisionError, reached by `trilat thresholds` on a moved layout
    r, s = 1.011218176625514, 0.8757406297262745
    assert s > th.SQRT3_2 * r and 4.0 * s * s - 3.0 * r * r == 0.0
    assert th.threshold_P(r, s) is None
    assert th.threshold_Q(r, s) is None


def test_Q_absent_wherever_P_is():
    """Q is the chord excess at d1 = P, so it exists exactly where P does.

    At the equilateral height 4 s^2 - 3 r^2 may round above 0 (it did for
    89 of these 2,000 r), where Q read about 1e16 while P was absent.
    """
    rng = random.Random(29)
    for _ in range(2000):
        r = rng.uniform(0.1, 10.0)
        for s in (th.SQRT3_2 * r, rng.uniform(0.1, 10.0)):
            b = th.compute_bundle(r, s, rng.uniform(0.0, 20.0),
                                  rng.uniform(0.0, 20.0))
            assert (b.P is None) == (b.Q is None), (r, s)


def test_Q_value():
    # 8 r^2 s / (4 s^2 - 3 r^2) on the sharp side
    q = th.threshold_Q(2.0, 3.0)
    assert q is not None and abs(q - 8 * 4 * 3 / (4 * 9 - 12)) < 1e-12


# --- auxiliary tie radius d3* -----------------------------------------------

def test_d3_star_fixture():
    d3s, t_star = th.d3_star_root(2.0, 3.0, 10.3158)
    assert abs(d3s - 9.2008) < 1e-3
    assert abs(t_star - 0.7302) < 1e-3


def test_d3_star_structural_identity():
    # d3*^2 = u^2 + 2 t* s u with u = h - s
    d3s, t_star = th.d3_star_root(2.0, 3.0, 10.3158)
    u = math.sqrt(10.3158 ** 2 - 1.0) - 3.0
    assert abs(d3s ** 2 - (u * u + 2 * t_star * 3.0 * u)) < 1e-6


def test_d3_star_three_way_tie():
    cfg = canonical(2.0, 3.0, 10.3158, th.d3_star(2.0, 3.0, 10.3158))
    sp = _s_points(cfg)
    v1 = objective_value(cfg, sp["S12+"])
    v2 = objective_value(cfg, sp["S23-"])
    v3 = objective_value(cfg, sp["S31-"])
    assert abs(v1 - v2) < 1e-6 * v1
    assert abs(v1 - v3) < 1e-6 * v1


def test_d3_star_no_bracket_at_P():
    with pytest.raises(NoBracket):
        th.d3_star(2.0, 3.0, math.sqrt(50))
    # in raw units the terms of g leave the normal float range at these scales
    for k in (1e-100, 1e100, 1e150):
        with pytest.raises(NoBracket):
            th.d3_star(2.0 * k, 3.0 * k, th.threshold_P(2.0 * k, 3.0 * k))


def test_d3_star_monotone_in_d1():
    p = th.threshold_P(2.0, 3.0)
    prev = None
    for k in range(1, 40):
        d1 = p * (1.0 + 0.08 * k)
        v = th.d3_star(2.0, 3.0, d1)
        if prev is not None:
            assert v > prev
        prev = v


# The golden-section plus bisection search that found the root before the
# closed form; kept here as an independent reference.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _bisected_root(r, s, d1, tol=1e-12):
    u = math.sqrt(max(d1 * d1 - r * r / 4.0, 0.0)) - s

    def g(t):
        return th.g_aux(r, s, u, t)

    if g(1.0) >= 0.0:
        raise NoBracket("auxiliary does not change sign on (0, 1]")
    a, b = 0.0, 1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    t_pos = (a + b) / 2.0
    if g(t_pos) <= 0.0:
        raise NoBracket("auxiliary never positive")
    lo, hi = t_pos, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_star = (lo + hi) / 2.0
    return math.sqrt(u * u + 2.0 * t_star * s * u), t_star


def _tall_apex_draws(seed, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        r = rng.uniform(0.5, 4.0)
        s = rng.uniform(S3 / 2.0 * r * 1.001, 4.0 * r)
        p = th.threshold_P(r, s)
        d1 = p * rng.uniform(1.0, 5.0)
        if d1 > p:
            out.append((r, s, d1))
    return out


def test_d3_star_closed_form_matches_bisection():
    """Within the bisection's own tolerance: 1e-12 relative in d3*, 1e-12 in t*."""
    checked = 0
    for r, s, d1 in _tall_apex_draws(20241018, 10_000):
        try:
            value, t_star = _bisected_root(r, s, d1)
        except NoBracket:
            continue
        got_value, got_t_star = th.d3_star_root(r, s, d1)
        assert abs(got_value - value) <= 1e-12 * value, (r, s, d1)
        assert abs(got_t_star - t_star) <= 1e-12, (r, s, d1)
        checked += 1
    assert checked >= 9_900


@pytest.mark.parametrize("k", [1e-100, 1e100])
def test_d3_star_scales_with_the_instance(k):
    for r, s, d1 in _tall_apex_draws(7, 500):
        base, base_t = th.d3_star_root(r, s, d1)
        scaled, scaled_t = th.d3_star_root(k * r, k * s, k * d1)
        assert rel(scaled / k, base) <= 1e-12, (r, s, d1)
        assert rel(scaled_t, base_t) <= 1e-12, (r, s, d1)


def test_row_thresholds_match_the_direct_formulas():
    th.row_thresholds.cache_clear()
    for r, s, d1 in _tall_apex_draws(11, 200):
        row = th.row_thresholds(r, s, d1)
        assert row.P == th.threshold_P(r, s)
        assert row.R == th.threshold_R(r, s, d1)
        assert row.M == th.threshold_M(r, s, d1)
        assert (row.d3_star, row.t_star) == th.d3_star_root(r, s, d1)
        assert row.d3m == math.sqrt(d1 * d1 - r * r / 4 - s * s)
    # below the base-apex distance M and d3m do not apply; below r/2 nor does R
    row = th.row_thresholds(2.0, 3.0, 0.8)
    assert row.R is None and row.M is None and row.d3m is None
    assert row.d3_star is None and row.t_star is None
    assert row.P == th.threshold_P(2.0, 3.0)


def test_g_aux_concavity():
    rng = random.Random(99)
    for _ in range(300):
        r = rng.uniform(0.5, 2.0)
        s = rng.uniform(1.0 * r, 3.0)
        if 4 * s * s <= 3 * r * r:
            continue
        p = th.threshold_P(r, s)
        d1 = rng.uniform(p * 1.01, p * 3)
        u = math.sqrt(d1 * d1 - r * r / 4) - s
        t1, t2, lam = rng.random(), rng.random(), rng.random()
        g1, g2 = th.g_aux(r, s, u, t1), th.g_aux(r, s, u, t2)
        gm = th.g_aux(r, s, u, lam * t1 + (1 - lam) * t2)
        assert gm >= lam * g1 + (1 - lam) * g2 - 1e-9 * (1 + abs(g1) + abs(g2))


# --- interval containment ---------------------------------------------------

def test_R_interval_containment():
    """R stays within [|s-h|, s+h] on its whole domain (h = chord height)."""
    rng = random.Random(99)
    for _ in range(500):
        r = rng.uniform(0.5, 3.5)
        s = rng.uniform(0.3, 3.5)
        d1 = rng.uniform(math.sqrt(r * r / 4 + s * s / 9) + 1e-6, 9.0)
        h = math.sqrt(d1 * d1 - r * r / 4)
        v = th.threshold_R(r, s, d1)
        assert abs(s - h) - 1e-9 <= v <= s + h + 1e-9


def test_M_interval_containment_tall_apex():
    """For s >= r/2 the M threshold stays within (h-s, h+s).

    The containment genuinely fails for flat shapes (see the regression
    below), so the property is scoped to the tall side.
    """
    rng = random.Random(99)
    checked = 0
    while checked < 500:
        r = rng.uniform(0.5, 3.5)
        s = rng.uniform(r / 2, 3.5)
        d1 = rng.uniform(math.sqrt(r * r / 4 + s * s) + 1e-6, 9.0)
        if d1 * d1 <= r * r / 4 + s * s:
            continue
        h = math.sqrt(d1 * d1 - r * r / 4)
        v = th.threshold_M(r, s, d1)
        assert h - s - 1e-9 <= v <= h + s + 1e-9
        checked += 1


def test_M_below_interval_for_flat_shapes_regression():
    """Flat regression: M can undershoot h-s, yet the comparator survives.

    Pinned instance: r=2.3396, s=0.9934, d1=8.2371 has M < h-s.  The sign
    law O(S31+) vs O(S12-) against d3 - M must still hold either side of M.
    """
    r, s, d1 = 2.3396, 0.9934, 8.2371
    h = math.sqrt(d1 * d1 - r * r / 4)
    m = th.threshold_M(r, s, d1)
    assert m < h - s  # the documented undershoot
    for d3, expect_sign in ((m - 0.05, -1.0), (m + 0.05, 1.0)):
        cfg = canonical(r, s, d1, d3)
        sp = _s_points(cfg)
        diff = objective_value(cfg, sp["S31+"]) - objective_value(cfg, sp["S12-"])
        assert math.copysign(1.0, diff) == expect_sign


# --- bundle -----------------------------------------------------------------

def test_bundle_five_way_instance():
    b = th.compute_bundle(2.0, 3.0, math.sqrt(50), math.sqrt(40))
    assert abs(b.d3_0 - math.sqrt(50 + 9 - 1)) < 1e-9
    assert abs(b.d1_0 - math.sqrt(50)) < 1e-6
    assert abs(b.P - math.sqrt(50)) < 1e-9
    assert b.d3_star is None  # no bracket exactly at P
    assert b.R is not None and b.M is not None


def test_bundle_gating():
    # d1 below A: no R, no M, no star
    b = th.compute_bundle(2.0, 3.0, 0.8, 0.5)
    assert b.R is None and b.M is None and b.d3_star is None
    # between A and B: R defined, M not
    b2 = th.compute_bundle(2.0, 3.0, 1.8, 0.5)
    assert b2.R is not None and b2.M is None


def test_bundle_d1_zero_unattained_regression():
    # flat shape with a large base range: the crossover radicand goes
    # negative, meaning no real d3 attains it; the bundle reports None
    b = th.compute_bundle(4.0, 0.2, 10.0, 0.05)
    assert b.d1_0 is None


def test_bundle_star_on_tail():
    b = th.compute_bundle(2.0, 3.0, 10.3158, 9.0)
    assert b.d3_star is not None and abs(b.d3_star - 9.2008) < 1e-3
    assert b.t_star is not None
