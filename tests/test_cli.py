"""Command-line interface: schemas, exit codes, tables, sweeps, contours."""
import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import trilat
from conftest import MAP_WINDOWS, S3, sweep_axes
from trilat.classifier import solve_isosceles
from trilat.cli import (build_parser, main, parse_instance,
                        reconstruct_four_equal)

FIVE_WAY_EXACT = {
    "r": 2.0, "s": 3.0,
    "d": [math.sqrt(50.0), math.sqrt(50.0), math.sqrt(40.0)],
}
FIVE_WAY_PRINTED = {"r": 2.0, "s": 3.0, "d": [7.0711, 7.0711, 6.3246]}


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- solve ------------------------------------------------------------------

def test_solve_five_way_exact(tmp_path, capsys):
    rc, out, _ = run(capsys, ["solve", write_instance(tmp_path, FIVE_WAY_EXACT)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == "trilat/1"
    assert payload["multiplicity"] == 5
    assert len(payload["solutions"]) == 5
    assert abs(payload["objective"] - 24.0) < 1e-9
    assert payload["derivation"]


def test_solve_just_above_the_equilateral_height(tmp_path, capsys):
    # once a traceback from threshold P's cross-check of two printed forms
    inst = {"r": 2, "s": 1.732050824889385, "d": [30, 30, 2]}
    rc, out, _ = run(capsys, ["solve", write_instance(tmp_path, inst)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == "trilat/1"
    assert 1 <= payload["multiplicity"] <= 5


def test_solve_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FIVE_WAY_EXACT)))
    rc, out, _ = run(capsys, ["solve", "-"])
    assert rc == 0
    assert json.loads(out)["multiplicity"] == 5


def test_solve_csv_lists_every_point(tmp_path, capsys):
    rc, out, _ = run(capsys, ["solve", "--csv",
                              write_instance(tmp_path, FIVE_WAY_EXACT)])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,role"
    assert len(lines) == 6


def test_solve_printed_inputs_agree_with_oracle(tmp_path, capsys):
    """At four printed decimals the five-way tie honestly splits to a pair,
    and the grid oracle agrees with the classifier on the split."""
    rc, out, _ = run(capsys, ["solve", "--oracle-check",
                              write_instance(tmp_path, FIVE_WAY_PRINTED)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 2
    agreement = payload["oracle_agreement"]
    assert agreement["clusters"] == 2
    assert agreement["max_position_error"] < 1e-6
    assert agreement["value_error"] < 1e-9
    # the audit trail shows which thresholds the rounded inputs sit near
    dists = {e["name"]: e["signed_distance"] for e in payload["near_threshold"]}
    assert abs(dists["d1_zero"]) < 1e-3
    assert abs(dists["R"]) < 1e-3


def test_solve_oracle_check_five_way(tmp_path, capsys):
    rc, out, _ = run(capsys, ["solve", "--oracle-check",
                              write_instance(tmp_path, FIVE_WAY_EXACT)])
    assert rc == 0
    agreement = json.loads(out)["oracle_agreement"]
    assert agreement["clusters"] == 5
    assert agreement["max_position_error"] < 1e-6


# --- error handling ---------------------------------------------------------

def test_degenerate_sensors_exit_2(tmp_path, capsys):
    obj = {"sensors": [[0, 0], [1, 0], [2, 0]], "d": [1, 1, 1]}
    rc, out, err = run(capsys, ["solve", write_instance(tmp_path, obj)])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "DegenerateTriangle"


def test_schema_violations_exit_3(tmp_path, capsys):
    cases = [
        {"r": 2.0, "s": 3.0},                                  # no ranges
        {"r": 2.0, "s": 3.0, "d": [1.0, 2.0]},                 # short list
        {"r": 2.0, "s": 3.0, "d": [1.0, 2.0, "x"]},            # bad type
        {"r": -1.0, "s": 3.0, "d": [1.0, 2.0, 3.0]},           # bad shape
        {"sensors": [[0, 0], [1, 0], [0, 1]], "r": 2.0, "s": 3.0,
         "d": [1, 1, 1]},                                      # two layouts
        {"r": 2.0, "s": 3.0, "d": [1.0, 2.0, 3.0],
         "ranges": {"d1": 1, "d2": 2, "d3": 3}},               # two range keys
        {"r": 2.0, "s": 3.0, "d": [1.0, -2.0, 3.0]},           # negative
    ]
    for obj in cases:
        rc, out, err = run(capsys, ["solve", write_instance(tmp_path, obj)])
        assert rc == 3, obj
        assert out == ""
        assert json.loads(err)["error"]["code"] == "schema"


def test_unreadable_and_malformed_files(tmp_path, capsys):
    rc, _, err = run(capsys, ["solve", str(tmp_path / "missing.json")])
    assert rc == 3 and json.loads(err)["error"]["code"] == "schema"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, ["solve", str(bad)])
    assert rc == 3 and "JSON" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_extreme_scales_exit_2(tmp_path, capsys, scale):
    """The square of the length scale must be a finite normal float."""
    obj = {"r": scale, "s": scale, "d": [scale, scale, scale]}
    rc, out, err = run(capsys, ["solve", write_instance(tmp_path, obj)])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "PreconditionViolation"


def test_sweep_at_extreme_scale_exits_2(capsys):
    rc, out, err = run(capsys, ["sweep", "--r", "1e-300", "--s", "1e-300",
                                "--d1", "1e-300", "2e-300",
                                "--d3", "1e-300", "2e-300", "--steps", "3"])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "PreconditionViolation"


def test_scale_scan_never_crashes(tmp_path, capsys):
    """Scaled symmetric and general instances exit 0, 2 or 3, never raise."""
    for e in range(-320, 301, 10):
        x = 10.0 ** e
        for obj in ({"r": x, "s": x, "d": [x, x, x]},
                    {"sensors": [[0.0, 0.0], [3.0 * x, 0.0], [x, 2.0 * x]],
                     "d": [2.0 * x, 2.5 * x, 1.5 * x]}):
            rc, out, err = run(capsys, ["solve", write_instance(tmp_path, obj)])
            assert rc in (0, 2, 3), (e, obj)
            if rc == 0:
                assert json.loads(out)["multiplicity"] >= 1, (e, obj)
            else:
                assert out == "" and "error" in json.loads(err), (e, obj)


@pytest.mark.parametrize("x", [1e-16, 1e-20, 1e-100, 1e-150])
def test_n3_row_solves_at_small_scales(tmp_path, capsys, x):
    """The N3 cell of the sharp table solves at every usable length scale."""
    obj = {"r": 2.0 * x, "s": 3.0 * x, "d": [0.5 * x, 0.5 * x, 3.0 * x]}
    rc, out, _ = run(capsys, ["solve", write_instance(tmp_path, obj)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 1
    assert [p["role"] for p in payload["solutions"]] == ["N3"]
    assert payload["derivation"] == "isosceles-sharp:1.2"


# --- instance parsing -------------------------------------------------------

def test_parse_instance_ranges_object():
    cfg = parse_instance({"r": 2.0, "s": 3.0,
                          "ranges": {"d1": 4.0, "d2": 4.0, "d3": 5.0}})
    assert cfg.d == (4.0, 4.0, 5.0)


def test_parse_instance_generator_seed_override():
    obj = {"sensors": [[-1, 0], [1, 0], [0.3, 1.8]],
           "generator": {"source": [0.2, 0.7], "seed": 4,
                         "noise": {"kind": "uniform", "scale": 0.2}}}
    a = parse_instance(obj)
    b = parse_instance(obj)
    assert a.d == b.d
    c = parse_instance(obj, seed_override=9)
    assert a.d != c.d


def test_parse_instance_generator_noiseless():
    obj = {"sensors": [[-1, 0], [1, 0], [0.3, 1.8]],
           "generator": {"source": [0.2, 0.7], "seed": 1}}
    cfg = parse_instance(obj)
    src_dist = math.hypot(0.2 - (-1.0), 0.7)
    assert abs(cfg.d[0] - src_dist) < 1e-15


# --- tables -----------------------------------------------------------------

def test_table_row_counts(capsys):
    for family, count in (("equilateral", 6), ("isosceles", 15),
                          ("four-equal", 4)):
        rc, out, _ = run(capsys, ["table", "--family", family])
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == count + 1


def test_table_equilateral_first_row(capsys):
    rc, out, _ = run(capsys, ["table", "--family", "equilateral"])
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "a"
    values = [float(v) for v in row[3:9]]
    expected = [3.1726, 1.2628, 1.2628, 2.9375, 7.3803, 7.3803]
    assert all(abs(a - b) < 1e-3 for a, b in zip(values, expected))
    assert row[9] == "S23+;S31+"


def test_table_json_mode(capsys):
    rc, out, _ = run(capsys, ["table", "--family", "four-equal", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "four-equal"
    assert len(payload["rows"]) == 4


def test_reconstruct_four_equal_row_a():
    s, d1, d3 = reconstruct_four_equal(3.0, 12.0)
    assert abs(s - 1.5) < 1e-9
    assert abs(d1 - math.sqrt(7.25)) < 1e-4
    assert abs(d3 - 2.0) < 1e-4


# --- thresholds -------------------------------------------------------------

def test_thresholds_payload(tmp_path, capsys):
    rc, out, _ = run(capsys, ["thresholds",
                              write_instance(tmp_path, FIVE_WAY_EXACT)])
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["P"] - math.sqrt(50)) < 1e-9
    assert abs(payload["d1_0"] - math.sqrt(50)) < 1e-6
    assert payload["d3_star"] is None  # exactly at P: no bracket
    assert payload["validity"]["R"] is True


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_thresholds_scale_scan_prints_strict_json(tmp_path, capsys):
    """Scaled bundles exit 0 with finite fields or 2, never a traceback."""
    names = ("d3_0", "d1_0", "R", "M", "P", "Q", "d3_star", "t_star")
    for base in ({"r": 1.0, "s": 1.0, "d": [1.0, 1.0, 1.0]}, FIVE_WAY_EXACT,
                 {"r": 2.0, "s": 3.0, "d": [9.0, 9.0, 7.0]},
                 {"r": 2.0, "s": 1.0, "d": [4.4721, 4.4721, 3.9155]}):
        for e in range(-320, 301, 10):
            x = 10.0 ** e
            obj = {"r": base["r"] * x, "s": base["s"] * x,
                   "d": [v * x for v in base["d"]]}
            rc, out, err = run(capsys, ["thresholds",
                                        write_instance(tmp_path, obj)])
            assert rc in ((0,) if e == 0 else (0, 2)), (e, base)
            if rc == 2:
                assert out == "", (e, base)
                assert (json.loads(err)["error"]["code"]
                        == "PreconditionViolation"), (e, base)
                continue
            payload = json.loads(out, parse_constant=_reject_constant)
            assert all(payload[k] is None or math.isfinite(payload[k])
                       for k in names), (e, base)


def test_tiny_base_under_unit_ranges_exits_cleanly(tmp_path, capsys):
    """Sensors 10^e apart with unit ranges: exit 0, or 2 with a JSON error.

    L is about 1, but below e = -154 r^2 and s^2 are not normal floats; the
    threshold denominators underflowed to 0 and raised ZeroDivisionError.
    """
    for e in range(-320, 1, 10):
        x = 10.0 ** e
        path = write_instance(tmp_path, {"r": x, "s": x, "d": [1, 1, 1]})
        for command in ("solve", "thresholds"):
            rc, out, err = run(capsys, [command, path])
            assert rc in (0, 2), (command, e)
            if rc == 2:
                assert out == "", (command, e)
                code = json.loads(err)["error"]["code"]
                assert code == "PreconditionViolation" or e > -154, (command, e)
            else:
                json.loads(out, parse_constant=_reject_constant)


def test_thresholds_reject_general_layout(tmp_path, capsys):
    obj = {"sensors": [[0, 0], [2, 0], [1.5, 2.0]], "d": [1.0, 1.2, 1.0]}
    rc, _, err = run(capsys, ["thresholds", write_instance(tmp_path, obj)])
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "PreconditionViolation"


def test_thresholds_reads_tol_as_solve_does(tmp_path, capsys):
    # apex 1e-7 r off the base bisector: isosceles under --tol 1e-6 only
    obj = {"sensors": [[-1, 0], [1, 0], [2e-7, 3]], "d": [5.0, 5.0, 4.0]}
    path = write_instance(tmp_path, obj)
    rc, out, _ = run(capsys, ["solve", "--tol", "1e-6", path])
    assert rc == 0
    assert json.loads(out)["derivation"].startswith("isosceles-sharp:")
    rc, out, _ = run(capsys, ["thresholds", "--tol", "1e-6", path])
    assert rc == 0
    assert json.loads(out)["d1"] == 5.0
    rc, _, err = run(capsys, ["thresholds", path])
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "PreconditionViolation"


def test_thresholds_and_solve_share_the_equal_base_rule(tmp_path, capsys):
    # base ranges 1e-8 apart: unequal at tol 1e-9 on either command
    path = write_instance(tmp_path, {"r": 2, "s": 3, "d": [5, 5.00000001, 4]})
    rc, out, _ = run(capsys, ["solve", path])
    assert rc == 0
    assert json.loads(out)["derivation"] == "general-scan"
    rc, out, err = run(capsys, ["thresholds", path])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "PreconditionViolation"


# --- oracle command ---------------------------------------------------------

def test_oracle_command_five_way(tmp_path, capsys):
    rc, out, _ = run(capsys, ["oracle", "--resolution", "256",
                              write_instance(tmp_path, FIVE_WAY_EXACT)])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["minima"]) == 5
    assert abs(payload["global_value"] - 24.0) < 1e-9
    rounds = payload["round_values"]
    assert all(b <= a + 1e-12 for a, b in zip(rounds, rounds[1:]))


@pytest.mark.parametrize("argv", [
    ["oracle", "--resolution", "4"],
    ["oracle", "--factor", "1"],
    ["oracle", "--rounds", "-1"],
    ["contour", "--resolution", "-3"],
    ["contour", "--resolution", "0"],
], ids=" ".join)
def test_grid_commands_reject_bad_grid_options(tmp_path, capsys, argv):
    path = write_instance(tmp_path, FIVE_WAY_EXACT)
    rc, out, err = run(capsys, [*argv, path])
    assert rc == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "schema"


@pytest.mark.parametrize("command", ["oracle", "contour"])
def test_grid_commands_refuse_what_solve_refuses(tmp_path, capsys, command):
    """Sensors near 1e300: L^2 overflows, so every command exits 2."""
    huge = {"r": 2e300, "s": 3e300, "d": [7e300, 7e300, 6e300]}
    path = write_instance(tmp_path, huge)
    for argv in (["solve", path], [command, "--resolution", "16", path]):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == "", argv
        assert (json.loads(err)["error"]["code"]
                == "PreconditionViolation"), argv


# --- sweep ------------------------------------------------------------------

def test_sweep_small_window(capsys):
    rc, out, _ = run(capsys, ["sweep", "--r", "2", "--s", "3",
                              "--d1", "5.0", "5.4", "--d3", "4.0", "4.4",
                              "--steps", "5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d1,d3,multiplicity,derivation"
    assert len(lines) == 26
    for line in lines[1:]:
        assert int(line.split(",")[2]) in (1, 2, 3, 4, 5)


def test_sweep_rejects_bad_window(capsys):
    rc, out, err = run(capsys, ["sweep", "--r", "2", "--s", "3",
                                "--d1", "5.0", "4.0", "--d3", "1.0", "2.0"])
    assert rc == 3
    assert out == ""  # no partial CSV on error
    assert json.loads(err)["error"]["code"] == "schema"
    rc, out, _ = run(capsys, ["sweep", "--r", "2", "--s", "3",
                              "--d1", "1.0", "2.0", "--d3", "1.0", "2.0",
                              "--steps", "1"])
    assert rc == 3


@pytest.mark.parametrize("name", sorted(MAP_WINDOWS))
def test_sweep_matches_cell_by_cell_solves(capsys, name):
    r, s, (lo1, hi1), (lo3, hi3) = MAP_WINDOWS[name]
    rc, out, _ = run(capsys, ["sweep", "--r", repr(r), "--s", repr(s),
                              "--d1", repr(lo1), repr(hi1),
                              "--d3", repr(lo3), repr(hi3), "--steps", "40"])
    assert rc == 0
    d1s, d3s = sweep_axes(lo1, hi1, lo3, hi3, 40)
    rebuilt = ["d1,d3,multiplicity,derivation"]
    for d1 in d1s:
        for d3 in d3s:
            sol = solve_isosceles(r, s, d1, d3)
            rebuilt.append(f"{d1:.10g},{d3:.10g},{sol.multiplicity},"
                           f"{sol.derivation}")
    assert out.splitlines() == rebuilt


@pytest.mark.parametrize("name", sorted(MAP_WINDOWS))
def test_sweep_columns_do_not_depend_on_scale(capsys, name):
    """Scaling r, s and the window by 2^k, which every threshold follows
    exactly, leaves the multiplicity and derivation columns as they are."""
    r, s, (lo1, hi1), (lo3, hi3) = MAP_WINDOWS[name]

    def columns(k):
        f = 2.0 ** k
        rc, out, _ = run(capsys, [
            "sweep", "--r", repr(r * f), "--s", repr(s * f),
            "--d1", repr(lo1 * f), repr(hi1 * f),
            "--d3", repr(lo3 * f), repr(hi3 * f), "--steps", "40"])
        assert rc == 0, k
        return [line.split(",")[2:] for line in out.splitlines()[1:]]

    base = columns(0)
    for k in (-40, -20, 20, 60):
        assert columns(k) == base, k


def test_repeated_main_calls_print_what_a_first_call_prints(tmp_path, capsys):
    """The parser is built once; no call leaves state for the next."""
    instance = write_instance(tmp_path, FIVE_WAY_EXACT)
    calls = [
        ["table", "--family", "equilateral", "--json"],
        ["table", "--family", "equilateral"],
        ["table", "--family", "four-equal"],
        ["sweep", "--r", "2", "--s", "3", "--d1", "5", "6", "--d3", "4", "5",
         "--steps", "3", "--tol", "1e-6"],
        ["sweep", "--r", "2", "--s", "3", "--d1", "5", "6", "--d3", "4", "5",
         "--steps", "3"],
        ["sweep", "--r", "2", "--s", "3", "--d1", "6", "5", "--d3", "4", "5"],
        ["solve", "--csv", instance],
        ["solve", instance],
        ["thresholds", instance],
    ]
    first = {}
    for argv in calls:
        build_parser.cache_clear()
        first[tuple(argv)] = run(capsys, argv)
    build_parser.cache_clear()
    for argv in calls + calls[::-1]:
        assert run(capsys, argv) == first[tuple(argv)], argv


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for action in sub._actions
               for opt in (action.option_strings or [action.dest])
               if opt not in ("-h", "--help")}
        for name, sub in commands.choices.items()}
    assert accepted == {
        "solve": {"instance", "--seed", "--tol", "--csv", "--oracle-check"},
        "table": {"--family", "--json"},
        "sweep": {"--r", "--s", "--d1", "--d3", "--steps", "--tol"},
        "contour": {"instance", "--seed", "--resolution"},
        "thresholds": {"instance", "--seed", "--tol"},
        "oracle": {"instance", "--seed", "--resolution", "--rounds",
                   "--factor"},
    }


# --- contour ----------------------------------------------------------------

def _contour_array(out):
    lines = out.strip().splitlines()[1:]
    xs, ys, vs = [], [], []
    for line in lines:
        x, y, v = line.split(",")
        xs.append(float(x))
        ys.append(float(y))
        vs.append(float(v))
    n = int(round(math.sqrt(len(vs))))
    grid = np.array(vs).reshape(n, n)
    gx = np.array(sorted(set(xs)))
    gy = np.array(sorted(set(ys)))
    return gx, gy, grid


def test_contour_noiseless_single_basin(tmp_path, capsys):
    obj = {"sensors": [[-1, 0], [1, 0], [0.3, 1.8]],
           "generator": {"source": [0.2, 0.7], "seed": 1}}
    rc, out, _ = run(capsys, ["contour", "--resolution", "200",
                              write_instance(tmp_path, obj)])
    assert rc == 0
    gx, gy, grid = _contour_array(out)
    assert grid.min() < 0.1
    # the 0.2 sub-level set is one blob around the source
    mask = grid <= 0.2
    _, nblob = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    assert nblob == 1
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    assert math.hypot(gx[i] - 0.2, gy[j] - 0.7) < 0.1


def test_contour_five_way_local_minima_near_solutions(tmp_path, capsys):
    """Each solution point attracts a nearby grid local minimum.

    Valley floors sample below the cone walls, so a local minimum can sit
    a couple of cells off the exact vertex; 2.2 cells bounds what the
    400-point grid actually does on this instance.
    """
    rc, out, _ = run(capsys, ["contour", "--resolution", "400",
                              write_instance(tmp_path, FIVE_WAY_EXACT)])
    assert rc == 0
    gx, gy, grid = _contour_array(out)
    cell = max(gx[1] - gx[0], gy[1] - gy[0])
    assert abs(grid.min() - 24.0) < 0.2
    interior = grid[1:-1, 1:-1]
    local_min = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            shifted = grid[1 + di:grid.shape[0] - 1 + di,
                           1 + dj:grid.shape[1] - 1 + dj]
            local_min &= interior <= shifted
    li, lj = np.nonzero(local_min)
    mins = [(gx[i + 1], gy[j + 1]) for i, j in zip(li, lj)]
    for ex, ey in [(0.0, 7.0), (-6.0, 1.0), (6.0, 1.0), (-6.0, 5.0),
                   (6.0, 5.0)]:
        nearest = min(math.hypot(mx - ex, my - ey) for mx, my in mins)
        assert nearest <= 2.2 * cell


# --- numpy only where the grid oracle runs ---------------------------------

def _child_env():
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(trilat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# Runs ``trilat`` in a fresh interpreter and reports, last on stderr,
# whether numpy was imported by the time the command returned.
_NUMPY_PROBE = ("import sys; from trilat.cli import main; rc = main(); "
                "sys.stderr.write('numpy imported: %s\\n' "
                "% ('numpy' in sys.modules)); sys.exit(rc)")

_GENERAL = {"sensors": [[-2.2, -3.7], [4.1, -1.9], [-0.6, 4.3]],
            "d": [3.4, 5.9, 4.8]}
_NOISY = {"sensors": [[-1, 0], [1, 0], [0.3, 1.8]],
          "generator": {"source": [0.2, 0.7], "seed": 4,
                        "noise": {"kind": "uniform", "scale": 0.2}}}


def _run_child(argv, instance=None):
    stdin = json.dumps(instance) if instance is not None else None
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.splitlines()[-1]


@pytest.mark.parametrize("argv,instance", [
    pytest.param(["solve", "-"], FIVE_WAY_EXACT, id="solve-r-s"),
    pytest.param(["solve", "-"], _GENERAL, id="solve-sensors"),
    pytest.param(["solve", "-"], _NOISY, id="solve-generator"),
    pytest.param(["table", "--family", "equilateral"], None,
                 id="table-equilateral"),
    pytest.param(["table", "--family", "isosceles"], None,
                 id="table-isosceles"),
    pytest.param(["table", "--family", "four-equal"], None,
                 id="table-four-equal"),
    pytest.param(["thresholds", "-"], FIVE_WAY_EXACT, id="thresholds"),
    pytest.param(["sweep", "--r", "2", "--s", "3", "--d1", "5", "11",
                  "--d3", "4", "11", "--steps", "5"], None, id="sweep"),
])
def test_closed_form_commands_never_import_numpy(argv, instance):
    out, probe = _run_child(argv, instance)
    assert out
    assert probe == "numpy imported: False"


def test_oracle_commands_run_in_a_fresh_process():
    out, probe = _run_child(["solve", "--oracle-check", "-"], FIVE_WAY_EXACT)
    assert probe == "numpy imported: True"
    agreement = json.loads(out)["oracle_agreement"]
    assert set(agreement) == {"clusters", "max_position_error", "value_error"}
    assert agreement["clusters"] == 5
    out, _ = _run_child(["oracle", "--resolution", "64", "--rounds", "2", "-"],
                        FIVE_WAY_EXACT)
    assert set(json.loads(out)) == {"schema", "global_value", "cluster_radius",
                                    "minima", "round_values"}
    out, _ = _run_child(["contour", "--resolution", "8", "-"], FIVE_WAY_EXACT)
    lines = out.splitlines()
    assert lines[0] == "x,y,objective" and len(lines) == 1 + 8 * 8


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trilat.cli", "thresholds", "-"],
            input=json.dumps(FIVE_WAY_EXACT).encode(), stdout=write_end,
            stderr=subprocess.PIPE, timeout=60, env=_child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# --- console script ---------------------------------------------------------

def _declared_entry_point(rootpath):
    """The ``trilat`` entry of ``[project.scripts]`` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(rootpath / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["trilat"]
    module, _, attr = value.partition(":")
    return module.strip(), attr.strip()


def test_console_script_runs(request, tmp_path):
    """The declared console script runs as its own process from a checkout.

    Runs the body of the wrapper that an install generates for the entry
    point, so a wrong ``[project.scripts]`` value fails here too.
    """
    module, attr = _declared_entry_point(request.config.rootpath)
    code = (f"import sys; from {module} import {attr} as entry; "
            "sys.exit(entry())")
    proc = subprocess.run(
        [sys.executable, "-c", code, "table", "--family", "equilateral"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("row,d1,d3")


@pytest.mark.skipif(shutil.which("trilat") is None,
                    reason="trilat console script not installed")
def test_installed_console_script_runs():
    exe = shutil.which("trilat")
    assert exe is not None
    proc = subprocess.run([exe, "table", "--family", "equilateral"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("row,d1,d3")
