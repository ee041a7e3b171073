"""Command-line interface: solve, table, sweep, contour, thresholds, oracle.

Reports follow the "trilat/1" schema.  Output is buffered and written only
on success, so a failing run never leaves partial CSV behind.  Exit codes:
0 success, 1 stdout closed before the report was written (no traceback),
2 degenerate or unusable geometry, 3 malformed input.

Only ``oracle``, ``contour`` and ``solve --oracle-check`` run the grid
oracle, so they alone import it, and numpy with it.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import classifier, thresholds
from .errors import PreconditionViolation, TrilatError
from .geometry import (NoiseSpec, Point2, SensorConfig, canonical_frame,
                       config_scale, distance, generate_instance)
from .regions import objective_table

SCHEMA = "trilat/1"


class _SchemaError(Exception):
    pass


# ---------------------------------------------------------------------------
# fixture rows (base length 2 throughout)

_EQUILATERAL_ROWS: Tuple[Tuple[str, float, float], ...] = (
    ("a", 1.3333, 1.9737),
    ("b", 2.6, 1.3),
    ("c", 2.6, 2.6),
    ("d", 4.0, 4.4495),
    ("e", 4.0, 4.8990),
    ("f", 4.0, 5.2520),
)

_ISOSCELES_ROWS: Tuple[Tuple[str, float, float, float], ...] = (
    ("1a", 1.0, 1.8251, 1.7725),
    ("1b", 1.0, 1.8251, 1.9204),
    ("1c", 1.0, 2.2361, 1.2477),
    ("1d", 1.0, 2.2361, 2.2361),
    ("1e", 1.0, 4.4721, 3.9155),
    ("1f", 1.0, 4.4721, 4.4721),
    ("3a", 3.0, 5.1167, 3.2531),
    ("3b", 3.0, 5.1167, 4.4882),
    ("3c", 3.0, 5.1167, 5.1673),
    ("3d", 3.0, 7.0711, 5.1623),
    ("3e", 3.0, 7.0711, 6.3246),
    ("3f", 3.0, 7.0711, 6.9702),
    ("3g", 3.0, 10.3158, 9.0261),
    ("3h", 3.0, 10.3158, 9.2008),
    ("3i", 3.0, 10.3158, 9.7591),
)

# Published objective sextets for the four-equal family; the defining inputs
# are recovered from the two base-pair values.
_FOUR_EQUAL_ROWS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("a", (3.0000, 6.6564, 6.6564, 12.0000, 6.6564, 6.6564)),
    ("b", (14.8862, 16.2207, 16.2207, 114.8862, 16.2207, 16.2207)),
    ("c", (21.6750, 20.1430, 20.1430, 121.6750, 20.1430, 20.1430)),
    ("d", (18.1818, 18.1818, 18.1818, 118.1818, 18.1818, 18.1818)),
)

_TABLE_COLUMNS = ("S12+", "S23+", "S31+", "S12-", "S23-", "S31-")


def reconstruct_four_equal(o12_plus: float,
                           o12_minus: float) -> Tuple[float, float, float]:
    """Recover (s, d1, d3) from the two base-pair objective values, at the
    fixtures' base length r = 2."""
    s = math.sqrt((o12_minus - o12_plus) / 4.0)
    q = (o12_plus + 2.0 * s * s) / (2.0 * s)
    d3 = math.sqrt(q * q - s * s)
    d1 = math.sqrt(d3 * d3 + s * s + 1.0)
    return s, d1, d3


def refined_tail_base() -> float:
    """Base range of the last three isosceles fixture rows.

    Their middle row ties three candidates by construction, so the block's
    base range is the one whose auxiliary root lands on the printed 9.2008;
    the captions keep only four decimals of it.  In units of r that root is
    d3*^2 = u^2 + beta*u + 4*rho^2*(rho^2 + 1/4)/D, a quadratic in
    u = sqrt(d1^2 - r^2/4) - s (``thresholds``), with rho = s/r,
    c = rho^2 - 1/4, D = rho^2 + c^2 and beta = (4*rho^3 - 2*rho*c)/D.
    """
    r, s = 2.0, 3.0
    rho = s / r
    c = rho * rho - 0.25
    den = rho * rho + c * c
    beta = (4.0 * rho ** 3 - 2.0 * rho * c) / den
    gamma = 4.0 * rho * rho * (rho * rho + 0.25) / den - (9.2008 / r) ** 2
    u = r * (-beta + math.sqrt(beta * beta - 4.0 * gamma)) / 2.0
    return math.hypot(u + s, r / 2.0)


# ---------------------------------------------------------------------------
# instance parsing

def _as_point(raw: Any, what: str) -> Point2:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise _SchemaError(f"{what} must be a [x, y] pair")
    return Point2(_as_number(raw[0], f"{what} x"),
                  _as_number(raw[1], f"{what} y"))


def _as_number(raw: Any, what: str) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise _SchemaError(f"{what} must be a number")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise _SchemaError(f"{what} must be finite")
    return value


def _sensors_from(obj: Dict[str, Any]) -> Tuple[Point2, Point2, Point2]:
    keys = [k for k in ("sensors", "canonical") if k in obj]
    if "r" in obj and "s" in obj:
        keys.append("r/s")
    if len(keys) != 1:
        raise _SchemaError(
            "give exactly one of 'sensors', 'canonical', or top-level r and s")
    if keys[0] == "sensors":
        raw = obj["sensors"]
        if not isinstance(raw, list) or len(raw) != 3:
            raise _SchemaError("'sensors' must list three [x, y] pairs")
        return tuple(_as_point(p, "sensor") for p in raw)  # type: ignore
    source = obj["canonical"] if keys[0] == "canonical" else obj
    if not isinstance(source, dict):
        raise _SchemaError("'canonical' must be an object with r and s")
    r = _as_number(source.get("r"), "r")
    s = _as_number(source.get("s"), "s")
    if r <= 0 or s <= 0:
        raise _SchemaError("canonical r and s must be positive")
    return (Point2(-r / 2.0, 0.0), Point2(r / 2.0, 0.0), Point2(0.0, s))


def _noise_from(raw: Any) -> NoiseSpec:
    if raw is None or raw == "none":
        return NoiseSpec()
    if not isinstance(raw, dict):
        raise _SchemaError("'noise' must be an object or \"none\"")
    kind = raw.get("kind", "none")
    scale = _as_number(raw.get("scale", 0.0), "noise scale")
    try:
        return NoiseSpec(kind=kind, scale=scale)
    except ValueError as exc:
        raise _SchemaError(str(exc)) from exc


def parse_instance(obj: Dict[str, Any],
                   seed_override: Optional[int] = None) -> SensorConfig:
    if not isinstance(obj, dict):
        raise _SchemaError("instance must be a JSON object")
    sensors = _sensors_from(obj)
    range_keys = [k for k in ("d", "ranges", "generator") if k in obj]
    if len(range_keys) != 1:
        raise _SchemaError(
            "give exactly one of 'd', 'ranges', or 'generator'")
    key = range_keys[0]
    if key == "d":
        raw = obj["d"]
        if not isinstance(raw, list) or len(raw) != 3:
            raise _SchemaError("'d' must list three ranges")
        d = tuple(_as_number(v, "range") for v in raw)
    elif key == "ranges":
        raw = obj["ranges"]
        if not isinstance(raw, dict):
            raise _SchemaError("'ranges' must be an object")
        d = tuple(_as_number(raw.get(k), k) for k in ("d1", "d2", "d3"))
    else:
        raw = obj["generator"]
        if not isinstance(raw, dict):
            raise _SchemaError("'generator' must be an object")
        source = _as_point(raw.get("source"), "generator source")
        seed = raw.get("seed", 0)
        if seed_override is not None:
            seed = seed_override
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise _SchemaError("generator seed must be an integer")
        return generate_instance(source, sensors,
                                 _noise_from(raw.get("noise")), seed)
    if any(v < 0 for v in d):
        raise _SchemaError("ranges must be nonnegative")
    return SensorConfig(sensors, d)


def _load_instance(path: str, seed_override: Optional[int]) -> SensorConfig:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _SchemaError(f"cannot read instance: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long
        raise _SchemaError(f"instance is not valid JSON: {exc}") from exc
    return parse_instance(obj, seed_override)


def _load_usable_instance(args: argparse.Namespace) -> SensorConfig:
    """The instance, refused (exit 2) where ``solve`` refuses its scale."""
    config = _load_instance(args.instance, args.seed)
    thresholds._require_usable_scale(config_scale(config))
    return config


# ---------------------------------------------------------------------------
# output plumbing

def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(payload: Dict[str, Any]) -> None:
    _emit(json.dumps(payload, indent=2))


def _emit_error(code: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"code": code, "message": str(exc)}}) + "\n")


def _csv_buffer() -> Tuple[io.StringIO, Any]:
    buf = io.StringIO()
    return buf, csv.writer(buf, lineterminator="\n")


# ---------------------------------------------------------------------------
# subcommands

def _solution_payload(solution: classifier.SolutionSet) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "solutions": [{"x": c.location.x, "y": c.location.y, "role": c.role}
                      for c in solution.points],
        "multiplicity": solution.multiplicity,
        "objective": solution.objective_value,
        "derivation": solution.derivation,
        "near_threshold": [{"name": name, "signed_distance": dist}
                           for name, dist in solution.near_threshold],
    }


def _tolerance(args: argparse.Namespace) -> float:
    """The --tol value, refused (exit 3) unless finite and nonnegative."""
    if not 0.0 <= args.tol < math.inf:
        raise _SchemaError(f"--tol must be finite and nonnegative, "
                           f"got {args.tol!r}")
    return args.tol


def cmd_solve(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    config = _load_instance(args.instance, args.seed)
    solution = classifier.solve(config, tol=tol)
    payload = _solution_payload(solution)
    if args.oracle_check:
        from . import oracle
        spec = oracle.default_grid(config, resolution=256)
        result = oracle.brute_force_minimize(config, spec)
        errs = [min(distance(cand.location, p) for p, _ in result.minima)
                for cand in solution.points]
        length = config_scale(config)
        payload["oracle_agreement"] = {
            "clusters": len(result.minima),
            "max_position_error": max(errs) if errs else math.inf,
            "value_error": abs(result.global_value - solution.objective_value)
                           / (length * length),
        }
    if args.csv:
        buf, writer = _csv_buffer()
        writer.writerow(["x", "y", "role"])
        for c in solution.points:
            writer.writerow([f"{c.location.x:.17g}", f"{c.location.y:.17g}",
                             c.role])
        _emit(buf.getvalue())
    else:
        _emit_json(payload)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.family == "equilateral":
        cells = [(rid, math.sqrt(3.0), d1, d3)
                 for rid, d1, d3 in _EQUILATERAL_ROWS]
    elif args.family == "isosceles":
        tail = refined_tail_base()
        cells = [(rid, s, tail if rid in ("3g", "3h", "3i") else d1, d3)
                 for rid, s, d1, d3 in _ISOSCELES_ROWS]
    else:
        cells = [(rid, *reconstruct_four_equal(sextet[0], sextet[3]))
                 for rid, sextet in _FOUR_EQUAL_ROWS]
    # The equilateral apex height is fixed, so its table omits s.
    shows_s = args.family != "equilateral"
    header = ["row", *(["s"] if shows_s else []), "d1", "d3",
              *_TABLE_COLUMNS, "minima"]
    rows: List[List[str]] = []
    for rid, s, d1, d3 in cells:
        config = SensorConfig.from_canonical(2.0, s, (d1, d1, d3))
        # Fixture inputs are printed to four decimals, so exact ties split
        # at roughly 1e-4; flag at display level rather than machine level.
        entries = objective_table(config, tie_tol=1e-3)
        inputs = (s, d1, d3) if shows_s else (d1, d3)
        rows.append([rid, *[f"{v:.4f}" for v in inputs],
                     *[f"{v:.4f}" for _, v, _ in entries],
                     ";".join(label for label, _, flag in entries if flag)])
    if args.json:
        payload = {"schema": SCHEMA, "family": args.family,
                   "columns": header,
                   "rows": [dict(zip(header, row)) for row in rows]}
        _emit_json(payload)
    else:
        buf, writer = _csv_buffer()
        writer.writerow(header)
        writer.writerows(rows)
        _emit(buf.getvalue())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    lo1, hi1 = args.d1
    lo3, hi3 = args.d3
    n = args.steps
    tol = _tolerance(args)
    if not all(map(math.isfinite, (lo1, hi1, lo3, hi3))):
        raise _SchemaError("sweep window ends must be finite")
    # The cells step by the width, which overflows near the float limit.
    if not all(map(math.isfinite, (hi1 - lo1, hi3 - lo3))):
        raise _SchemaError("sweep window widths must be finite")
    if n < 2 or hi1 <= lo1 or hi3 <= lo3:
        raise _SchemaError("sweep needs at least 2 steps and increasing ranges")
    d1s = [lo1 + (hi1 - lo1) * i / (n - 1) for i in range(n)]
    d3s = [lo3 + (hi3 - lo3) * i / (n - 1) for i in range(n)]
    d3_texts = [f"{d3:.10g}" for d3 in d3s]
    buf, writer = _csv_buffer()
    writer.writerow(["d1", "d3", "multiplicity", "derivation"])
    # Row by row: the d1-only thresholds and case tables are built once per
    # row, and each d3 cell reads its matched rows alone, building no points.
    for d1 in d1s:
        d1_text = f"{d1:.10g}"
        cells = classifier.table_multiplicities(args.r, args.s, d1, d3s,
                                                tol=tol)
        writer.writerows([d1_text, d3_text, count, derivation]
                         for d3_text, (count, derivation)
                         in zip(d3_texts, cells))
    _emit(buf.getvalue())
    return 0


def cmd_contour(args: argparse.Namespace) -> int:
    if args.resolution < 2:
        raise _SchemaError("contour resolution must be at least 2")
    from . import oracle
    config = _load_usable_instance(args)
    xs, ys, vals = oracle.contour_grid(config, resolution=args.resolution)
    buf, writer = _csv_buffer()
    writer.writerow(["x", "y", "objective"])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            writer.writerow([f"{x:.10g}", f"{y:.10g}", f"{vals[i, j]:.10g}"])
    _emit(buf.getvalue())
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    config = _load_usable_instance(args)
    frame = canonical_frame(*config.Z, tol=tol)
    if not frame.isosceles:
        raise PreconditionViolation("thresholds need an isosceles layout")
    if not classifier.equal_base_ranges(config.d[0], config.d[1],
                                        config_scale(config), tol):
        raise PreconditionViolation("thresholds need equal base ranges")
    d1 = (config.d[0] + config.d[1]) / 2.0
    bundle = dataclasses.asdict(thresholds.compute_bundle(
        frame.r, frame.s, d1, config.d[2]))
    payload = {
        "schema": SCHEMA,
        "r": frame.r, "s": frame.s, "d1": d1, "d3": config.d[2],
        **bundle,
        # t_star is valid exactly where d3_star is.
        "validity": {name: value is not None
                     for name, value in bundle.items() if name != "t_star"},
    }
    _emit_json(payload)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle
    config = _load_usable_instance(args)
    try:
        spec = oracle.default_grid(config, resolution=args.resolution,
                                   refine_rounds=args.rounds,
                                   refine_factor=args.factor)
    except ValueError as exc:
        raise _SchemaError(f"grid: {exc}") from exc
    result = oracle.brute_force_minimize(config, spec)
    payload = {
        "schema": SCHEMA,
        "global_value": result.global_value,
        "cluster_radius": result.cluster_radius,
        "minima": [{"x": p.x, "y": p.y, "value": v}
                   for p, v in result.minima],
        "round_values": list(result.round_values),
    }
    _emit_json(payload)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

class _Parser(argparse.ArgumentParser):
    """Refuses options it cannot parse as malformed input (exit 3)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _SchemaError(f"{self.prog}: {message}")


def _add_instance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance",
                        help="path to a JSON instance file, or - for stdin")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the generator seed")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state on it.

    Each subcommand declares only the options it reads.
    """
    parser = _Parser(
        prog="trilat",
        description="exact minimizer sets for three-sensor ranging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="classify one instance")
    _add_instance(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv", action="store_true",
                   help="x,y,role rows instead of the JSON report")
    p.add_argument("--oracle-check", action="store_true",
                   help="verify against the grid oracle")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="objective tables for the fixture rows")
    p.add_argument("--family",
                   choices=("equilateral", "isosceles", "four-equal"),
                   required=True)
    p.add_argument("--json", action="store_true",
                   help="a JSON report instead of CSV")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sweep", help="multiplicity map over a (d1, d3) window")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--d1", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--d3", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("contour", help="objective samples on a grid")
    _add_instance(p)
    p.add_argument("--resolution", type=int, default=256)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("thresholds", help="threshold bundle for an instance")
    _add_instance(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("oracle", help="brute-force minimization")
    _add_instance(p)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--factor", type=float, default=4.0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # Flush here, so a closed stdout raises inside this try block.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The Python docs' recipe: later flushes, at exit included, go to
        # devnull instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except _SchemaError as exc:
        _emit_error("schema", exc)
        return 3
    except TrilatError as exc:
        _emit_error(type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
