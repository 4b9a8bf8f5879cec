"""Run workloads several times and report each end-to-end metric's spread.

    python3 perfbench/repeat.py --runs 10 --seed 0
    python3 perfbench/repeat.py --runs 1 --seed 3                  # every workload once

Run i uses seed --seed + i. Each run is its own process, started only after
the previous one has ended, so peak memory is per run. For every workload
and end-to-end metric this prints the median, the quartiles, and the
quartile distance as a share of the median beside the metric's bound from
BENCHMARK.json. The exit code is 1 when a run failed or a check did not
pass.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[:-1]) + "\n" + proc.stderr)
    result["returncode"] = proc.returncode
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="seed of the first run")
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed + i, args.seconds)
            if r is None or r["returncode"] != 0 or not r["correct"]:
                bad = True
            if r is None:
                print(f"{workload} seed {args.seed + i}: no result")
                continue
            shown = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
            print(f"{workload} seed {args.seed + i}: correct {r['correct']} "
                  f"attempted {r['attempted']} failed {r['failed']} {shown}", flush=True)
            results.append(r)
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, failed share {sorted(shares)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            if len(values) < 2:
                print(f"  {metric:12s} {med:.6g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            verdict = f" bound {bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {metric:12s} median {med:.6g} {unit} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
