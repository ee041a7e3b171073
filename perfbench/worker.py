"""One workload in a fresh interpreter; prints one JSON line and exits.

    python3 perfbench/worker.py --workload maps --seed 1 --mode run --seconds 15

``--mode setup`` stops where the first timed operation would start,
``run`` is the closed loop of the untraced run, and ``trace`` runs a fixed
slice of the round untraced and then traced.  The JSON line always holds
``ready``, the CLOCK_MONOTONIC time at which set-up ended, so the parent
can measure set-up from before it started this interpreter.
"""
import time

READY_CLOCK = time.CLOCK_MONOTONIC

import argparse  # noqa: E402  (imports count as set-up, after the clock)
import json  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20


class Outcome:
    """Timed result of one operation."""

    __slots__ = ("wall", "cpu", "output", "error")

    def __init__(self, wall: float, cpu: float, output: Any,
                 error: BaseException = None) -> None:
        self.wall, self.cpu, self.output, self.error = wall, cpu, output, error


def timed(w: workloads.Workload, item: Any, traced: bool = False) -> Outcome:
    c0 = w.cpu_seconds()
    t0 = time.perf_counter()
    try:
        output, error = w.op(item, traced), None
    except Exception as exc:  # recorded and judged below; the loop goes on
        output, error = None, exc
    t1 = time.perf_counter()
    return Outcome(t1 - t0, w.cpu_seconds() - c0, output, error)


def judge(w: workloads.Workload, outcome: Outcome) -> List[str]:
    """Problems with an operation that raised; a known fault is none."""
    if outcome.error is None or w.known_failure(outcome.error):
        return []
    return ["".join(traceback.format_exception(outcome.error)).strip()]


def check_round(w: workloads.Workload, items: List[Any],
                outcomes: List[Outcome]) -> List[str]:
    problems: List[str] = []
    for item, outcome in zip(items, outcomes):
        problems += judge(w, outcome)
        if outcome.error is None:
            problems += w.check(item, outcome.output)
    return problems + w.final_checks()


def same_outcome(w: workloads.Workload, a: Outcome, b: Outcome) -> bool:
    if a.error is not None or b.error is not None:
        return repr(a.error) == repr(b.error)
    return w.same(a.output, b.output)


def run(w: workloads.Workload, seconds: float) -> Dict[str, Any]:
    """Whole rounds until both the time and the operation floor are met.

    Throughput and CPU per operation are medians over the rounds, so that a
    stall of the host during one round does not move them.
    """
    first: List[Outcome] = []
    walls: List[float] = []
    rates: List[float] = []
    cpu_per_op: List[float] = []
    attempted = failed = 0
    changed = 0
    start = time.perf_counter()
    while True:
        round_wall = round_cpu = 0.0
        round_failed = 0
        for i, item in enumerate(w.round):
            outcome = timed(w, item)
            round_wall += outcome.wall
            round_cpu += outcome.cpu
            if outcome.error is not None:
                round_failed += 1
            else:
                walls.append(outcome.wall)
            if len(first) < len(w.round):
                first.append(outcome)
            elif not same_outcome(w, first[i], outcome):
                changed += 1
        n = len(w.round)
        attempted += n
        failed += round_failed
        rates.append((n - round_failed) / round_wall)
        cpu_per_op.append(round_cpu / n)
        if (time.perf_counter() - start >= seconds
                and attempted >= w.min_ops):
            break
    peak = w.peak_rss_mb()
    problems = check_round(w, w.round, first)
    if changed:
        problems.append(f"{changed} repeated operations gave another output")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "ops_per_s": statistics.median(rates),
            "op_ms_p50": statistics.median(walls) * 1e3,
            "op_ms_p90": statistics.quantiles(walls, n=10)[8] * 1e3,
            "cpu_ms_per_op": statistics.median(cpu_per_op) * 1e3,
            "peak_rss_mb": peak,
        },
    }


def trace(w: workloads.Workload) -> Dict[str, Any]:
    """The trace slice untraced, then again with the wrappers installed."""
    items = w.round if w.trace_ops is None else w.round[:w.trace_ops]
    plain = [timed(w, item) for item in items]
    tracer = tracing.Tracer()
    self_seconds = 0.0
    traced: List[Outcome] = []
    if w.in_process:
        tracer.install()
    try:
        for item in items:
            tracer.spans.clear()
            outcome = timed(w, item, traced=True)
            self_seconds += outcome.wall - tracing.union_seconds(tracer.spans)
            traced.append(outcome)
    finally:
        tracer.uninstall()
    problems = check_round(w, items, plain)
    changed = sum(not same_outcome(w, a, b) for a, b in zip(plain, traced))
    if changed:
        problems.append(f"{changed} traced operations gave another output")
    n = len(items)
    overhead = sum(o.wall for o in traced) - sum(o.wall for o in plain)
    metrics = {f"trace.{w.name}.overhead_ms_per_op": overhead / n * 1e3,
               "classifier.fallback.count": sum(
                   w.fallbacks(o.output) for o in plain if o.error is None)}
    metrics.update(layer_metrics(w, tracer, traced, self_seconds))
    return {
        "attempted": n,
        "failed": sum(o.error is not None for o in plain),
        "problems": problems,
        "absent": tracer.absent,
        "metrics": metrics,
    }


def layer_metrics(w: workloads.Workload, t: tracing.Tracer,
                  traced: List[Outcome], self_seconds: float) -> Dict[str, float]:
    """The per-layer figures whose home is this workload."""
    n = len(traced)
    if w.name == "maps":
        base = "classifier.solve_isosceles"
        return {
            "cli.sweep.self_ms_per_call": self_seconds / n * 1e3,
            "classifier.solve_isosceles.calls": t.count(base) / n,
            "classifier.solve_isosceles.us_per_call": t.per_call_us(base),
            "thresholds.compute_bundle.calls_per_solve":
                t.ratio("thresholds.compute_bundle", base),
            "thresholds.compute_bundle.us_per_call":
                t.per_call_us("thresholds.compute_bundle"),
            "thresholds.d3_star_root.calls_per_solve":
                t.ratio("thresholds.d3_star_root", base),
            "thresholds.d3_star_root.us_per_call":
                t.per_call_us("thresholds.d3_star_root"),
            "thresholds.g_aux.calls_per_solve": t.ratio("thresholds.g_aux", base),
            "thresholds.threshold_P.calls_per_solve":
                t.ratio("thresholds.threshold_P", base),
        }
    if w.name == "solve-mix":
        base = "classifier.solve"
        return {
            "classifier.solve.us_per_call": t.per_call_us(base),
            "classifier.solve_general.calls":
                t.count("classifier.solve_general") / n,
            "classifier.solve_general.us_per_call":
                t.per_call_us("classifier.solve_general"),
            "regions.objective_value.calls_per_solve":
                t.ratio("regions.objective_value", base),
            "regions.objective_value.us_per_call":
                t.per_call_us("regions.objective_value"),
            "geometry.circle_circle_intersect.calls_per_solve":
                t.ratio("geometry.circle_circle_intersect", base),
            "geometry.canonical_frame.calls_per_solve":
                t.ratio("geometry.canonical_frame", base),
        }
    if w.name == "verify":
        base = "oracle.brute_force_minimize"
        calls = max(t.count(base), 1)
        reps = t.count("oracle._refine_rep")
        return {
            "oracle.brute_force_minimize.ms_per_call": t.per_call_us(base) / 1e3,
            "oracle.grid_eval.ms_per_call": t.per_call_us("oracle._evaluate") / 1e3,
            "oracle.prune.ms_per_call": t.per_call_us("oracle._prune") / 1e3,
            "oracle.prune.cap_hits": t.counters.get("prune.cap_hits", 0) / calls,
            "oracle.prune.capped_out":
                t.counters.get("prune.capped_out", 0) / calls,
            "oracle.cluster.ms_per_call": t.per_call_us("oracle._cluster") / 1e3,
            "oracle.cluster.points": (t.counters.get("cluster.points", 0)
                                      / max(t.count("oracle._cluster"), 1)),
            "oracle.refine.reps_per_call": reps / calls,
            "oracle.refine.ms_per_rep": t.per_call_us("oracle._refine_rep") / 1e3,
            "oracle.refine.kept_per_rep":
                t.counters.get("refine.kept", 0) / max(reps, 1),
            "oracle.objective_scalar.calls_per_call":
                t.count("oracle._objective_scalar") / calls,
        }
    imports = [tracing.parse_importtime(o.output[2]) for o in traced
               if o.error is None]
    mains = [tracing.parse_main_ms(o.output[2]) for o in traced
             if o.error is None]
    mains = [m for m in mains if m is not None]
    return {
        "cli.import_ms": statistics.mean(i[0] for i in imports),
        "cli.import_numpy_ms": statistics.mean(i[1] for i in imports),
        "cli.main_ms": statistics.mean(mains),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.clock_gettime(READY_CLOCK)
    result: Dict[str, Any] = {}
    if args.mode == "run":
        result = run(w, args.seconds)
    elif args.mode == "trace":
        result = trace(w)
    result["ready"] = ready
    problems = result.get("problems", [])
    result["problems"] = problems[:MAX_PROBLEMS]
    result["problem_count"] = len(problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
