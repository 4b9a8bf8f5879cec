"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload mid_train --seed 0 --seconds 30 --trace 0

The workload builds its inputs from --seed (set-up, repeated and timed),
then runs whole rounds of identical operations until --seconds have passed,
each after a calibration that the round time is scaled by, then checks the program's outputs against references written apart from
voxdet. With --trace 0 the result holds the end-to-end metrics; with
--trace 1 every traced voxdet function reports per-layer metrics instead,
and the spans are written under .perfbench/traces/. Lines before the last
describe the run for a human reader. The exit code is 0 when every
operation and every check passed, 1 when one failed, and 2 when the program
cannot be loaded.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: single-threaded runs are the
# steadiest on a shared machine, and one is never more than the cores there are.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VOXDET_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mini_pipeline", "mid_train")
SETUP_REPS = 11

# Round times are scaled by a calibration: fixed work that does not touch
# voxdet, a pure-Python loop and passes over an array larger than a core's
# cache, timed before every round and after the last. On the 2-core machine
# the benchmark was written on, the host's speed moved by 1.4x to 2x from one
# second to the next and from one minute to the next, and round times moved
# with it; scaled, ten runs spread about a third less.
CAL_LOOP = 5_000_000
CAL_ARRAY = 8_000_000  # float64, 64 MB
CAL_PASSES = 6
CAL_REF_S = 0.40       # the calibration's time at the reference speed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_seconds() -> float:
    """Wall time for a fresh interpreter to import voxdet and its CLI."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import voxdet.cli"], env=env, check=True)
    return time.perf_counter() - t


def calibration_seconds() -> float:
    """Wall time of the calibration work."""
    import numpy as np
    buf = np.zeros(CAL_ARRAY)
    buf.fill(1.0)  # faults its pages in, untimed
    t = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i
    for _ in range(CAL_PASSES):
        buf.fill(1.0)
    return time.perf_counter() - t


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import numpy  # noqa: F401
        import voxdet.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot load voxdet from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    import workloads

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        return _run(args, workloads.WORKLOADS[args.workload](ROOT, work, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload) -> int:
    import refs
    import tracing

    # set-up is repeated and its median reported, so that one slow repetition
    # on a shared machine does not read as a change
    start_times, setup_times = [], []
    for _ in range(SETUP_REPS):
        start_times.append(start_seconds())
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(start_times) + statistics.median(setup_times)

    tracer = tracing.Tracer()
    if args.trace:
        tracing.instrument(tracer)
    rounds, cals, ops = [], [], []
    start = time.perf_counter()
    while True:
        cals.append(calibration_seconds())
        tracer.spans_on = bool(args.trace)
        t = time.perf_counter()
        with tracer.span(tracing.ROOT):
            ops.extend(workload.round(tracer))
        rounds.append(time.perf_counter() - t)
        tracer.spans_on = False
        if len(rounds) == 1:
            # read after one round, so it does not depend on how many rounds
            # a run fits in
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start >= args.seconds:
            break
    cals.append(calibration_seconds())

    if args.trace:
        # one more round, untimed, for tracemalloc peaks per forward and backward
        import tracemalloc
        tracemalloc.start()
        tracer.memory_on = True
        workload.round(tracer)
        tracer.memory_on = False
        tracemalloc.stop()

    checks = refs.self_check()
    try:
        checks += workload.check()
    except Exception:
        traceback.print_exc()
        checks.append((f"{args.workload}.checks", False, "raised"))

    measured_s = statistics.median(rounds)
    round_s = measured_s * CAL_REF_S / statistics.median(cals)
    print(f"workload {args.workload} seed {args.seed} start_s {start_times} "
          f"setup_s {setup_times}")
    print(f"rounds {len(rounds)} round_s {rounds}")
    print(f"calibration_s {cals} measured_round_s {measured_s}")
    items = workload.items()
    for name in items:
        times = [s for n, ok, s in ops if n == name]
        per_round = sum(times) / len(rounds)
        print(f"step {name} s_per_round {per_round:.4f} "
              f"scenes_per_s {items[name] * len(times) / max(sum(times), 1e-12):.4f}")
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAIL'} {detail}")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(rounds), measured_s)
        traces = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.npz")
        tracer.write(path)
        print(f"spans {len(tracer.span_start)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed = sum(not ok for _, ok, _ in ops) + sum(not ok for _, ok, _ in checks)
    # a round timed around an operation that raised measured less work, so
    # any failed operation fails the run as a failed check does
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(ops) + len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
