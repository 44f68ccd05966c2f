"""One workload run in a fresh interpreter; started by run.py.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                           --launch T [--setup-only] [--max-ops K] [--record PATH]

Setup (import, specs, one warm-up call per operation type) ends at the
first timed operation; `setup_s` runs from T, the launcher's
time.monotonic() just before spawning this process.  The loop is closed
with one client: the next operation starts when the previous returns.
Without tracing, one part of the reference workload in calibrate.py runs
after each operation, outside the loop's wall time, and ten rounds of
all parts run after the set-up; the summary carries each operation's
speed factor and the set-up's.
Outputs are kept and checked only after the loop.  The last stdout line
is a JSON summary for run.py.

With --trace 1 the setup and the first `trace_ops` operations run with
tracing installed; tracing is then removed and the loop continues
untraced until the deadline, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
from array import array
import json
import os
import resource
import sys
import time
import traceback

from calibrate import Calibrator, local_speeds, speed
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_ROUNDS = 10  # reference rounds right after set-up, for the speed factor of setup_s


def pinned_import():
    """Import cliffmod and refuse a copy from outside this checkout's src/."""
    import cliffmod
    src = os.path.realpath(os.path.join(ROOT, "src"))
    where = os.path.realpath(cliffmod.__file__)
    if os.path.commonpath([src, where]) != src:
        raise SystemExit(f"cliffmod resolves to {where}, outside {src}")


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--record", default=None, help="write the normalised outputs here")
    args = ap.parse_args(argv)

    if args.workload == "cli_cold":
        wl = WORKLOADS[args.workload](args.seed, ROOT, args.work_dir)
    else:
        pinned_import()
        wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        wl.start_trace()
    wl.setup()
    summary = {"setup_s": time.monotonic() - args.launch}
    cal = None if args.trace else Calibrator()
    if cal:
        cal.rounds(SETUP_ROUNDS)
        summary["setup_speed"] = speed(cal.logs)
        cal.logs.clear()
    if args.setup_only:
        print(json.dumps(summary))
        return 0

    traced_left = wl.trace_ops if args.trace else 0
    outputs, latencies, segments = [], [], []
    raw, traced_wall, traced_ops = None, 0.0, 0
    t_loop = time.perf_counter()
    deadline = t_loop + args.seconds
    while True:
        if args.max_ops is not None and len(outputs) >= args.max_ops:
            break
        if not traced_left and time.perf_counter() >= deadline:
            break
        t_iter = time.perf_counter()
        inp = wl.inputs(len(outputs))
        t0 = time.perf_counter()
        try:
            res = wl.run(inp)
            latencies.append(time.perf_counter() - t0)
            out = wl.normalise(res)
            out["floats"] = array("d", out["floats"])  # compact: peak RSS should not grow with ops
        except Exception:
            latencies.append(time.perf_counter() - t0)
            out = {"error": traceback.format_exc(limit=3).strip().splitlines()[-1]}
        outputs.append(out)
        segments.append(time.perf_counter() - t_iter)
        if cal:
            cal.step()
        if traced_left:
            traced_left -= 1
            if not traced_left:
                traced_wall, traced_ops = time.perf_counter() - t_loop, len(outputs)
                raw = wl.stop_trace(os.path.join(args.work_dir, f"trace-{args.workload}.json"))
                t_untraced = time.perf_counter()
    # the loop's wall time leaves out the reference parts
    wall = sum(segments) if cal else time.perf_counter() - t_loop
    if cal:
        speeds = local_speeds(cal.logs)
        summary.update(speeds=speeds, ref_ops_per_s=len(outputs) / sum(g / f for g, f in zip(segments, speeds)))
    summary["peak_rss_mb"] = peak_rss_mb(args.workload)
    if args.trace and raw is None:  # fewer operations than the traced block (smoke runs)
        traced_wall, traced_ops = wall, len(outputs)
        raw = wl.stop_trace(os.path.join(args.work_dir, f"trace-{args.workload}.json"))
        t_untraced = t_loop + wall

    if args.workload == "cli_cold":
        pinned_import()
    failed, messages = wl.check_all(outputs)
    fixed = wl.fixed_checks()
    summary.update(attempted=len(outputs), failed=failed, fixed_failures=fixed, messages=messages,
                   latencies=latencies, wall=wall, ops_per_s=len(outputs) / wall)
    if args.trace:
        untraced_wall, untraced_ops = wall - (t_untraced - t_loop), len(outputs) - traced_ops
        summary.update(raw=raw, traced_ops_per_s=traced_ops / traced_wall,
                       untraced_ops_per_s=untraced_ops / untraced_wall if untraced_ops else 0.0)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump([dict(out, floats=list(out.get("floats", ()))) for out in outputs], fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
