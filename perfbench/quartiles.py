"""Run every workload on several seeds and report each metric's quartiles.

    python3 perfbench/quartiles.py --runs 10 --seconds 15
    python3 perfbench/quartiles.py --runs 5 --workloads verify --first-seed 100

For each workload and end-to-end metric it prints the median, the first and
third quartiles and their distance as a share of the median (the spread),
then one traced run.  The raw results go to ``perfbench/results/``.  The
exit code is 1 if any run failed a check or did not finish.
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
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("maps", "solve-mix", "verify", "cli")


def one(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}\n")
    return ok, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    all_ok = True
    record = {"seconds": args.seconds, "runs": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            ok, result = one(workload, seed, args.seconds, 0)
            all_ok &= ok
            if result is not None:
                results.append(result)
        record["runs"][workload] = results
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, attempted "
              f"{min(r['attempted'] for r in results)}-"
              f"{max(r['attempted'] for r in results)}, failed "
              f"{min(r['failed'] for r in results)}-"
              f"{max(r['failed'] for r in results)}, failed share "
              f"{', '.join(f'{s:.6f}' for s in shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            print(f"  {name:14s} median {med:10.4g} {unit:4s} "
                  f"q1 {q1:10.4g}  q3 {q3:10.4g}  spread {(q3 - q1) / med:.3f}")
    if not args.no_trace:
        t0 = time.perf_counter()
        ok, result = one("maps", args.first_seed, args.seconds, 1)
        all_ok &= ok
        record["trace"] = result
        print(f"traced run ({time.perf_counter() - t0:.0f} s):")
        for name, m in (result or {}).get("metrics", {}).items():
            print(f"  {name:50s} {m['value']:12.4g} {m['unit']}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        time.strftime("quartiles-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"results: {os.path.relpath(path, ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
