"""Benchmark for trilat: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Untraced (``--trace 0``), the workload runs in its own fresh interpreter in
a closed loop, between set-up-only interpreters whose set-up times join
the run's own in the ``setup_s`` median.  Traced (``--trace 1``),
every workload runs a fixed slice of its round untraced and then traced,
and each per-layer figure comes from the workload that exercises that
layer, whichever ``--workload`` was named.

The last line of standard output is the result; the lines before it give
each metric with its unit.  The exit code is 1 when a check failed and 2
when the package is not there to benchmark.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("maps", "solve-mix", "verify", "cli")
# Set-up-only interpreters before the run and as many after it, so that the
# median spans the run: with five just before it, the median moved by 22%
# between two sets of ten runs on verify.
SETUP_EACH_SIDE = 5
WORKER_TIMEOUT = 170.0

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "ms_per_call", "ms_per_rep", "ms_per_op")):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    return "count"


class WorkerFailed(Exception):
    pass


def worker(workload: str, seed: int, mode: str, seconds: float):
    """Run one worker interpreter; return (its result, set-up seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("TRILAT_THREADS", None)   # the sweep keeps its default pool
    # One BLAS thread in the worker and the cli children, which inherit it.
    # trilat makes no BLAS call, but numpy's import starts OpenBLAS workers
    # that spin for about 100 ms of CPU: a ~230 ms cli process then wants
    # 1.4 CPUs, and its wall time follows other tenants' load (op_ms_p90
    # +20% beside one busy process by default, 0% with one thread).
    env["OPENBLAS_NUM_THREADS"] = "1"
    argv = [sys.executable, WORKER, "--workload", workload, "--seed",
            str(seed), "--mode", mode, "--seconds", repr(seconds)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload} {mode} worker exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def untraced(workload: str, seed: int, seconds: float):
    def setup_only():
        return [worker(workload, seed, "setup", seconds)[1]
                for _ in range(SETUP_EACH_SIDE)]
    setups = setup_only()
    result, setup = worker(workload, seed, "run", seconds)
    setups += [setup] + setup_only()
    metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    return result, {k: (metrics[k], UNITS[k]) for k in UNITS}


def traced(seed: int):
    total = {"attempted": 0, "failed": 0, "problems": [], "problem_count": 0}
    metrics = {}
    for workload in WORKLOADS:
        result, _ = worker(workload, seed, "trace", 0.0)
        for key in ("attempted", "failed", "problem_count"):
            total[key] += result[key]
        total["problems"] += result["problems"]
        for stage in result["absent"]:
            print(f"absent stage: {stage}", file=sys.stderr)
        for name, value in result["metrics"].items():
            if name == "classifier.fallback.count":
                value += metrics.get(name, (0, ""))[0]
            metrics[name] = (value, layer_unit(name))
    return total, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "trilat", "__init__.py")):
        print(f"no trilat package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result, metrics = traced(args.seed)
        else:
            result, metrics = untraced(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = result["problem_count"] == 0
    label = "traced" if args.trace else args.workload
    for name, (value, unit) in metrics.items():
        print(f"{label} {name} = {value:.6g} {unit}")
    print(f"{label} attempted = {result['attempted']}, "
          f"failed = {result['failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
