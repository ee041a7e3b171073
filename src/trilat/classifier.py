"""Exact global-minimizer sets for the three-sensor ranging objective.

Symmetric instances (two equal legs, two equal base ranges) go through
closed-form case tables over (d1, d3); everything else goes through a finite
candidate scan that is exhaustive for this objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (DegenerateDirection, MissingIntersection,
                     PreconditionViolation)
from .geometry import (CIRCLE_PAIRS, SQRT3_2, CanonicalFrame, Point2,
                       SensorConfig, _frame_basis, canonical_frame,
                       centroid_points, circle_circle_intersect, config_scale,
                       distance, n3_point)
from .regions import objective_at, objective_value
from .thresholds import _require_usable_scale, compute_bundle, row_thresholds

REL_TIE = 1e-9

Role = str
# A candidate before it wins: coordinates and role, as plain values.
Candidate = Tuple[float, float, Role]

_PAIR_BY_ROLE = {name + side: (i, j, side == "plus")
                 for name, i, j in CIRCLE_PAIRS for side in ("plus", "minus")}

# The cyclic relabelings of the sensors; each puts a different pair at the
# base.
_RELABELINGS: Tuple[Tuple[int, int, int], ...] = (
    (0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class CandidatePoint:
    location: Point2
    role: Role


@dataclass(frozen=True)
class SolutionSet:
    points: Tuple[CandidatePoint, ...]
    objective_value: float
    multiplicity: int
    derivation: str
    near_threshold: Tuple[Tuple[str, float], ...] = ()


# ---------------------------------------------------------------------------
# shared helpers

def _materialize(config: SensorConfig, symbol: str) -> Optional[Candidate]:
    if symbol in _PAIR_BY_ROLE:
        i, j, plus = _PAIR_BY_ROLE[symbol]
        pts = circle_circle_intersect(config, i, j)
        if not pts:
            return None
        p = pts[0] if plus else pts[-1]
    elif symbol == "N3":
        p = n3_point(config)
    else:
        p = centroid_points(*config.Z)[{"Y0": 0, "Y3": 3}[symbol]]
    return p.x, p.y, symbol


def _argmin_set(config: SensorConfig, candidates: Sequence[Candidate],
                length: float) -> Tuple[Tuple[CandidatePoint, ...], float]:
    """Keep candidates tied with the best value, deduplicated by location.

    Both tolerances come from the length scale L (README, "Tolerances"):
    values within REL_TIE * L^2 of the least tie, and a tied point within
    REL_TIE * L of a kept one is the same point.
    """
    vals = [objective_at(config.Z, config.d, x, y) for x, y, _ in candidates]
    vmin = min(vals)
    cut = vmin + REL_TIE * length * length
    pos_eps = REL_TIE * length
    winners: List[Candidate] = []
    for (x, y, role), val in zip(candidates, vals):
        if val <= cut and all(math.hypot(x - wx, y - wy) > pos_eps
                              for wx, wy, _ in winners):
            winners.append((x, y, role))
    return tuple(CandidatePoint(Point2(x, y), role)
                 for x, y, role in winners), vmin


# ---------------------------------------------------------------------------
# case tables for the symmetric instance, canonical frame
#
# A block covers an interval of d1; its rows cover intervals of d3 and name
# the minimizing symbols.  Interval ends are (value, closed?) pairs; rows
# closed at a shared endpoint both match there and name the candidates that
# tie on it.  Where two symbols name one point (N3 = Y0 at d3 = 2s/3, N3 = Y3
# at d3 = 2s) only the row that comes first is closed, so the symbols of the
# matched rows count the minimizers.  Blocks depend on d1 alone, so each d1
# row of a sweep builds them once.

Row = Tuple[float, bool, float, bool, Tuple[str, ...], str]
Block = Tuple[float, bool, float, bool, Tuple[Row, ...]]

_INF = math.inf


def _isosceles_blocks(r: float, s: float, d1: float,
                      regime: str) -> Tuple[Block, ...]:
    low = 2.0 * s / 3.0
    top = 2.0 * s
    a = math.sqrt(r * r / 4.0 + s * s / 9.0)
    b = math.sqrt(r * r / 4.0 + s * s)
    row = row_thresholds(r, s, d1)
    h = row.h
    pair = ("S23plus", "S31plus")
    blocks: List[Block] = []
    blocks.append((0.0, True, r / 2.0, True, (
        (0.0, False, low, True, ("Y0",), "1.1"),
        (low, False, top, True, ("N3",), "1.2"),
        (top, False, _INF, False, ("Y3",), "1.3"),
    )))
    blocks.append((r / 2.0, False, a, True, (
        (0.0, False, low, True, ("Y0",), "2.1"),
        (low, False, s - h, True, ("N3",), "2.2"),
        (s - h, False, s + h, False, pair, "2.3"),
        (s + h, True, top, True, ("N3",), "2.4"),
        (top, False, _INF, False, ("Y3",), "2.5"),
    )))
    big_r = row.R if d1 > r / 2.0 else 0.0
    blocks.append((a, False, b, True, (
        (0.0, False, big_r, False, ("S12plus",), "3.1"),
        (big_r, True, big_r, True, ("S12plus",) + pair, "3.2"),
        (big_r, False, s + h, False, pair, "3.3"),
        (s + h, True, top, True, ("N3",), "3.4"),
        (top, False, _INF, False, ("Y3",), "3.5"),
    )))

    p_cut = (row.P_flat if regime == "flat" else row.P) or _INF

    if d1 > b:
        big_m = row.M
        blocks.append((b, False, p_cut, False, (
            (0.0, False, big_r, False, ("S12plus",), "4.1"),
            (big_r, True, big_r, True, ("S12plus",) + pair, "4.2"),
            (big_r, False, big_m, False, pair, "4.3"),
            (big_m, True, big_m, True, pair + ("S12minus",), "4.4"),
            (big_m, False, _INF, False, ("S12minus",), "4.5"),
        )))
        if math.isfinite(p_cut):
            d3p = math.sqrt(d1 * d1 - r * r / 4.0 + s * s)
            if regime == "flat":
                blocks.append((p_cut, True, p_cut, True, (
                    (0.0, False, d3p, False, ("S12plus",), "5.1"),
                    (d3p, True, d3p, True, ("S12plus", "S12minus") + pair,
                     "5.2"),
                    (d3p, False, _INF, False, ("S12minus",), "5.3"),
                )))
                blocks.append((p_cut, False, _INF, False, (
                    (0.0, False, d3p, False, ("S12plus",), "6.1"),
                    (d3p, True, d3p, True, ("S12plus", "S12minus"), "6.2"),
                    (d3p, False, _INF, False, ("S12minus",), "6.3"),
                )))
            else:
                quad = ("S23plus", "S23minus", "S31plus", "S31minus")
                d3m = row.d3m or 0.0
                blocks.append((p_cut, True, p_cut, True, (
                    (0.0, False, d3m, False, ("S12plus",), "5.1"),
                    (d3m, True, d3m, True, ("S12plus",) + quad, "5.2"),
                    (d3m, False, big_m, False, pair, "5.3"),
                    (big_m, True, big_m, True, pair + ("S12minus",), "5.4"),
                    (big_m, False, _INF, False, ("S12minus",), "5.5"),
                )))
                if d1 > p_cut:
                    dstar = row.d3_star if row.d3_star is not None else d3m
                    blocks.append((p_cut, False, _INF, False, (
                        (0.0, False, dstar, False, ("S12plus",), "6.1"),
                        (dstar, True, dstar, True,
                         ("S12plus", "S23minus", "S31minus"), "6.2"),
                        (dstar, False, d3m, False, ("S23minus", "S31minus"),
                         "6.3"),
                        (d3m, True, d3m, True, quad, "6.4"),
                        (d3m, False, big_m, False, pair, "6.5"),
                        (big_m, True, big_m, True, pair + ("S12minus",), "6.6"),
                        (big_m, False, _INF, False, ("S12minus",), "6.7"),
                    )))
    return tuple(blocks)


def _matched_rows(r: float, s: float, d1: float, d3: float,
                  blocks: Sequence[Block], family: str,
                  tol: float) -> Tuple[List[str], str]:
    """Symbols of the rows that contain (d1, d3), in table order, and the
    derivation naming those rows.

    A value lies inside an interval when it clears each end by eps: a closed
    end, or an open end at 0, admits values up to eps beyond it, and any
    other open end needs them more than eps within it.
    """
    eps = tol * (r + s + d1 + abs(d3))
    symbols: List[str] = []
    row_ids: List[str] = []
    for lo, lo_c, hi, hi_c, rows in blocks:
        if not ((d1 >= lo - eps if (lo_c or lo == 0.0) else d1 > lo + eps)
                and (d1 <= hi + eps if hi_c else d1 < hi - eps)):
            continue
        for rlo, rlo_c, rhi, rhi_c, syms, rid in rows:
            if rlo > rhi:
                continue
            if ((d3 >= rlo - eps if (rlo_c or rlo == 0.0) else d3 > rlo + eps)
                    and (d3 <= rhi + eps if rhi_c else d3 < rhi - eps)):
                row_ids.append(rid)
                for sym in syms:
                    if sym not in symbols:
                        symbols.append(sym)
    if not symbols:
        raise MissingIntersection(
            f"no table row matches d1={d1!r}, d3={d3!r}")
    return symbols, f"{family}:{'+'.join(row_ids)}"


def _solve_from_blocks(r: float, s: float, d1: float, d3: float,
                       blocks: Sequence[Block], family: str,
                       tol: float) -> SolutionSet:
    symbols, derivation = _matched_rows(r, s, d1, d3, blocks, family, tol)
    config = SensorConfig.from_canonical(r, s, (d1, d1, d3))
    candidates = [c for c in (_materialize(config, sym) for sym in symbols)
                  if c is not None]
    if not candidates:
        raise MissingIntersection(
            f"no table row yields a candidate at d1={d1!r}, d3={d3!r}")
    winners, vmin = _argmin_set(config, candidates, config_scale(config))
    return SolutionSet(winners, vmin, len(winners), derivation,
                       _near_threshold(r, s, d1, d3))


# (name, input, bundle field) of each reported threshold, in report order.
_NEAR_THRESHOLDS = (("d3_zero", "d3", "d3_0"), ("d1_zero", "d1", "d1_0"),
                    ("R", "d3", "R"), ("M", "d3", "M"), ("P", "d1", "P"),
                    ("d3_star", "d3", "d3_star"))


def _near_threshold(r: float, s: float, d1: float,
                    d3: float) -> Tuple[Tuple[str, float], ...]:
    bundle = compute_bundle(r, s, d1, d3)
    given = {"d1": d1, "d3": d3}
    values = [(name, given[of], getattr(bundle, field))
              for name, of, field in _NEAR_THRESHOLDS]
    return tuple((name, x - v) for name, x, v in values if v is not None)


def _snap(r: float, s: float, tol: float) -> Tuple[float, bool]:
    """Apex height s, or the equilateral height within ``tol * r`` of it, and
    whether it snapped.  A snapped height snaps to itself."""
    t3 = SQRT3_2 * r
    snapped = abs(s - t3) <= tol * r
    return (t3 if snapped else s), snapped


def _tables(r: float, s: float, d1: float, d3_lo: float, d3_hi: float,
            tol: float) -> Tuple[float, Tuple[Block, ...], str]:
    """Apex height, case tables and family name for the cells (d1, d3) with
    d3_lo <= d3 <= d3_hi.

    Within tolerance of the equilateral height the apex snaps to it exactly,
    where the tall-apex tables hold with no P, R = d1 and
    M = sqrt(d1^2 + 2 r^2).  The length scale grows with d3 and the usable
    scales form an interval, so the two ends pass the scale check exactly
    when every cell between them does.
    """
    # Written to refuse a NaN r, s or d1 too; a NaN d3 fails in the scan.
    if not (r > 0.0 and s > 0.0 and d1 >= 0.0) or d3_lo < 0.0:
        raise PreconditionViolation("need r, s > 0 and nonnegative ranges")
    s, equilateral = _snap(r, s, tol)
    base = max(r, math.hypot(r / 2.0, s))
    _require_usable_scale(base + max(d1, d3_lo))
    _require_usable_scale(base + max(d1, d3_hi))
    regime = "flat" if s < SQRT3_2 * r else "sharp"
    family = "equilateral" if equilateral else f"isosceles-{regime}"
    return s, _isosceles_blocks(r, s, d1, regime), family


def solve_isosceles(r: float, s: float, d1: float, d3: float,
                    tol: float = 1e-9) -> SolutionSet:
    """Minimizer set for base r, apex height s, ranges (d1, d1, d3)."""
    s, blocks, family = _tables(r, s, d1, d3, d3, tol)
    return _solve_from_blocks(r, s, d1, d3, blocks, family, tol)


def table_multiplicities(r: float, s: float, d1: float, d3s: Sequence[float],
                         tol: float = 1e-9) -> List[Tuple[int, str]]:
    """Multiplicity and derivation of ``solve_isosceles`` at each d3 of
    ``d3s`` on the row d1, in order, without points.

    Each matched row names tied minimizers only, and no two symbols name the
    same point, so the count of distinct symbols is the multiplicity.

    The tables depend on d1 alone, so the row checks its least and greatest
    d3 and builds the tables once.  Where that check fails, each cell is
    checked on its own, so the first failing cell raises its own error.  A
    NaN d3 passes the checks (max(d1, nan) is d1) and fails in the scan, in
    the row as on its own.
    """
    try:
        shared = _tables(r, s, d1, min(d3s), max(d3s), tol)
    except PreconditionViolation:
        shared = None
    out: List[Tuple[int, str]] = []
    for d3 in d3s:
        s_cell, blocks, family = shared or _tables(r, s, d1, d3, d3, tol)
        symbols, derivation = _matched_rows(r, s_cell, d1, d3, blocks,
                                            family, tol)
        out.append((len(symbols), derivation))
    return out


# ---------------------------------------------------------------------------
# multiplicity without running the tables

def multiplicity_conditions(r: float, s: float, d1: float, d3: float,
                            tol: float = 1e-9) -> Tuple[int, str]:
    """Count of tied minimizers with the matched closed-form condition."""
    if not (r > 0.0 and s > 0.0 and d1 >= 0.0 and d3 >= 0.0):
        raise PreconditionViolation("need r, s > 0 and nonnegative ranges")
    _require_usable_scale(max(r, math.hypot(r / 2.0, s)) + max(d1, d3))
    eps = tol * (r + s + d1 + abs(d3))
    _, equilateral = _snap(r, s, tol)
    sharp = (not equilateral) and s > SQRT3_2 * r
    flat = (not equilateral) and s < SQRT3_2 * r
    a = math.sqrt(r * r / 4.0 + s * s / 9.0)
    b = math.sqrt(r * r / 4.0 + s * s)
    row = row_thresholds(r, s, d1)
    h = row.h if d1 > r / 2.0 else None
    d3p = math.sqrt(h * h + s * s) if h is not None else None
    d3m = row.d3m if h is not None else None
    p = row.P if sharp else None
    pf = row.P_flat if flat else None
    big_r = row.R if d1 > a - eps else None
    big_m = row.M if d1 > b - eps else None

    def near(x: Optional[float], y: Optional[float]) -> bool:
        return x is not None and y is not None and abs(x - y) <= eps

    if sharp and near(d1, p) and near(d3, d3m):
        return 5, "tall apex, d1 at P, d3 at the four-equal locus"
    if sharp and p is not None and d1 > p + eps and near(d3, d3m):
        return 4, "tall apex beyond P, d3 at the four-equal locus"
    if flat and pf is not None and math.isfinite(pf) and near(d1, pf) \
            and near(d3, d3p):
        return 4, "flat apex at the critical base range, d3 at the tie locus"
    if big_m is not None and d1 > b + eps and near(d3, big_m) \
            and not (flat and pf is not None and d1 > pf):
        return 3, "d3 at M: base '-' joins the leg '+' pair"
    dstar = row.d3_star if sharp and p is not None and d1 > p + eps else None
    if dstar is not None and near(d3, dstar):
        return 3, "d3 at the auxiliary root: base '+' joins the leg '-' pair"
    three_plus_hi = (p if sharp else pf if flat else None) or _INF
    if equilateral and d1 > a + eps and near(d3, d1):
        return 3, "equal-sided layout, d3 at d1: all three '+' points tie"
    if (not equilateral) and big_r is not None and d1 > a + eps \
            and d1 < three_plus_hi - eps and near(d3, big_r):
        return 3, "d3 at R: all three '+' points tie"
    if flat and pf is not None and math.isfinite(pf) and d1 > pf + eps \
            and near(d3, d3p):
        return 2, "flat apex beyond the critical base range: base pair ties"
    if dstar is not None and d3m is not None \
            and dstar + eps < d3 < d3m - eps:
        return 2, "between the auxiliary root and the four-equal locus"
    if h is not None and d1 > r / 2.0 + eps:
        lo: Optional[float] = s - h if d1 < a else big_r
        if sharp and d3m is not None and lo is not None:
            lo = max(lo, d3m)
        hi = s + h if d1 <= b else big_m
        if equilateral and d1 > a:
            lo = d1
            hi = s + h if d1 <= r else big_m
        if lo is not None and hi is not None \
                and lo + eps < d3 < hi - eps:
            return 2, "interior band: the two leg '+' points tie"
    return 1, "away from every tie locus"


# ---------------------------------------------------------------------------
# general instances: exhaustive candidate scan

def _in_region(config: SensorConfig, p: Point2, bits: Tuple[int, ...],
               eps: float) -> bool:
    for z, d, bit in zip(config.Z, config.d, bits):
        dist = distance(p, z)
        if bit and dist > d + eps:
            return False
        if not bit and dist < d - eps:
            return False
    return True


# (anchor, circle) of each radial projection.  Yj - Zj = 3 (Y0 - Zj) and
# Ym - Zj = -(Yn - Zj), so circle j has two directions: towards Y0 and
# towards the first other reflection.
_RADIAL = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0))


def _scan(config: SensorConfig, length: float, tol: float) -> SolutionSet:
    """Minimizer set for an arbitrary noncollinear sensor layout.

    ``config`` has passed ``solve``'s checks, and ``length`` is its
    ``config_scale``.

    The candidate set is complete, so the best candidates are the answer:

    * Where W lies strictly inside k of the disks, O is a quadratic with
      |W|^2 coefficient 3 - 2k.  Its only interior minima are Y0 (k = 0) and
      Yj (k = 1, inside disk j alone); both are kept when in their region.
    * On an arc of circle j, |W - Zj|^2 = dj^2 turns O linear in W.  Its
      extremes lie on the line through Zj towards one of the anchors Y0..Y3:
      these are the radial projections.
    * The arcs meet at the pairwise circle intersections.
    """
    eps = tol * length
    zs, ds = config.Z, config.d

    candidates: List[Candidate] = []
    for name, i, j in CIRCLE_PAIRS:
        pts = circle_circle_intersect(config, i, j)
        if pts:
            p, m = pts[0], pts[-1]
            candidates += [(p.x, p.y, name + "plus"), (m.x, m.y, name + "minus")]
    anchors = centroid_points(*zs)
    for a, anchor in enumerate(anchors):  # Y0 outside all disks, Yj in j alone
        if _in_region(config, anchor, tuple(int(m == a - 1) for m in range(3)),
                      eps):
            candidates.append((anchor.x, anchor.y, f"Y{a}"))
    for a, j in _RADIAL:
        z, d, anchor = zs[j], ds[j], anchors[a]
        if d <= 0.0:
            if a == 0:
                candidates.append((z.x, z.y, "RegionProjection"))
            continue
        norm = distance(anchor, z)
        if norm == 0.0:
            continue
        for t in (d / norm, -d / norm):
            x, y = z.x + t * (anchor.x - z.x), z.y + t * (anchor.y - z.y)
            # A direction of subnormal length overflows t; refused even
            # where the projection would lose.
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DegenerateDirection(
                    f"radial projection onto circle {j + 1} is not finite")
            candidates.append((x, y, "RegionProjection"))

    winners, vmin = _argmin_set(config, candidates, length)
    return SolutionSet(winners, vmin, len(winners), "general-scan", ())


# ---------------------------------------------------------------------------
# dispatch

_PAIR_NAME = {frozenset((i, j)): name for name, i, j in CIRCLE_PAIRS}


def _remap_role(role: Role, perm: Tuple[int, int, int]) -> Role:
    if role in _PAIR_BY_ROLE:
        i, j, plus = _PAIR_BY_ROLE[role]
        name = _PAIR_NAME[frozenset((perm[i], perm[j]))]
        return name + ("plus" if plus else "minus")
    if role == "Y0":
        return "Y0"
    if role == "Y3":
        return f"Y{perm[2] + 1}"
    if role == "N3":
        return "N3" if perm[2] == 2 else "RegionProjection"
    return role


def symmetric_form(config: SensorConfig, length: float, tol: float
                   ) -> Optional[Tuple[Tuple[int, int, int], CanonicalFrame,
                                       float, float, float]]:
    """(perm, frame, s, d1, d3) for the case tables, or None where ``solve``
    scans: the first relabeling isosceles with base ranges equal within tol
    times L = ``length``, its canonical frame, its apex height after the
    equilateral snap and ranges (d1, d1, d3).  Degenerate ones are refused."""
    for perm in _RELABELINGS:
        z = tuple(config.Z[i] for i in perm)
        d = tuple(config.d[i] for i in perm)
        _frame_basis(*z, tol)
        if abs(d[0] - d[1]) <= tol * length:
            frame = canonical_frame(*z, tol=tol)
            if frame.isosceles:
                s, _ = _snap(frame.r, frame.s, tol)
                return perm, frame, s, (d[0] + d[1]) / 2.0, d[2]
    return None


def solve(config: SensorConfig, tol: float = 1e-9) -> SolutionSet:
    """Route to the symmetric tables when a relabeling fits, else scan."""
    length = config_scale(config)
    _require_usable_scale(length)
    form = symmetric_form(config, length, tol)
    if form is None:
        return _scan(config, length, tol)
    perm, frame, s, d1, d3 = form
    sol = solve_isosceles(frame.r, s, d1, d3, tol=tol)
    points = tuple(
        CandidatePoint(frame.invert(c.location), _remap_role(c.role, perm))
        for c in sol.points)
    value = min(objective_value(config, c.location) for c in points)
    return SolutionSet(points, value, sol.multiplicity, sol.derivation,
                       sol.near_threshold)
