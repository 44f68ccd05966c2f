"""cliffmod benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from a checkout: the code under test is the checkout's src/, put on
PYTHONPATH (nothing is installed).  Each run starts fresh interpreters
(bench/worker.py), one at a time, so caches and peak memory never carry
over between runs or workloads.

--trace 0 prints the end-to-end metrics; setup_s is the median over
SETUPS set-ups (SETUPS - 1 set-up-only processes and the measured one).
Timings are reported at reference speed: each operation's and each
set-up's wall time is divided by its speed factor from calibrate.py,
measured in the same process (a '#' line gives the wall-clock figures).
--trace 1 prints the per-layer metrics of a traced run.  Lines starting
with '#' describe the run; the others before the last give a metric's
name, value and unit; the last stdout line is the JSON result.  --smoke runs every workload briefly in both modes and
checks that every metric of BENCHMARK.json is printed with its unit,
that no operation failed, and that each per-layer metric is nonzero on
the workloads it is mapped to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("series_points", "lattice_jets", "cli_cold")
SETUPS = 3
BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

# per-layer metric -> workloads where it must be nonzero (the smoke check)
LAYER_HOME = {
    "congruence.enumerate_calls": ["series_points", "cli_cold"],
    "congruence.enumerate_s": ["series_points", "cli_cold"],
    "congruence.ball_build_s": ["series_points", "cli_cold"],
    "congruence.ball_elements": ["series_points", "cli_cold"],
    "congruence.coset_yield": ["series_points", "cli_cold"],
    "congruence.membership_calls": ["series_points", "cli_cold"],
    "series.evals": ["series_points", "lattice_jets"],
    "series.terms": ["series_points", "lattice_jets"],
    "series.self_s": ["series_points"],
    "series.cosets_s": ["series_points"],
    "series.lattice_sums": ["lattice_jets"],
    "series.lattice_s": ["lattice_jets"],
    "vahlen.mat_mul_calls": ["series_points", "cli_cold"],
    "vahlen.mat_mul_s": ["series_points", "cli_cold"],
    "vahlen.to_float_calls": ["series_points"],
    "vahlen.to_float_s": ["series_points"],
    "vahlen.mobius_apply_calls": ["lattice_jets"],
    "vahlen.mobius_apply_s": ["lattice_jets"],
    "clifford.exact_products": ["cli_cold"],
    "clifford.exact_product_s": ["cli_cold"],
    "clifford.float_products": ["series_points"],
    "clifford.float_product_s": ["series_points"],
    "clifford.blade_pairs": ["series_points", "cli_cold"],
    "jets.products": ["lattice_jets"],
    "jets.product_s": ["lattice_jets"],
    "jets.term_pairs": ["lattice_jets"],
    "jets.pair_yield": ["lattice_jets"],
    "jets.power_calls": ["lattice_jets"],
    "jets.power_s": ["lattice_jets"],
    "kernels.kernel_jets": ["lattice_jets"],
    "kernels.kernel_jet_s": ["lattice_jets"],
    "kernels.q0_general_calls": ["series_points"],
    "kernels.q0_general_s": ["series_points"],
    "harness.checks": ["cli_cold"],
    "harness.check_s": ["cli_cold"],
    "cli.startup_s": ["cli_cold"],
    "cli.main_s": ["cli_cold"],
    "cli.emit_s": ["cli_cold"],
    "cli.output_bytes": ["cli_cold"],
    "trace.spans": list(WORKLOADS),
    "trace.traced_ops_per_s": list(WORKLOADS),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")


def check_checkout():
    """Refuse to run unless cliffmod imports from this checkout's src/."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cliffmod", "__init__.py")):
        raise BenchError(f"no cliffmod sources under {os.path.join(ROOT, 'src')}")
    probe = subprocess.run([sys.executable, "-c", "import cliffmod; print(cliffmod.__file__)"],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise BenchError(f"import cliffmod failed: {probe.stderr.strip()[-300:]}")
    src = os.path.realpath(os.path.join(ROOT, "src"))
    where = os.path.realpath(probe.stdout.strip())
    if os.path.commonpath([src, where]) != src:
        raise BenchError(f"cliffmod resolves to {where}, outside {src}")


def environment() -> dict:
    """What the result was measured on: code revision, interpreter, machine load."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    return {"git_revision": rev, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": sorted(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def run_worker(args, deadline: float, extra=(), timeout: float | None = None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    launch = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--launch", repr(launch), "--work-dir", args.work_dir, *extra]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    # own session, so a timeout also stops the command-line processes a worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=min(remaining, timeout or remaining))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {args.workload} timed out") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker {args.workload} exited {proc.returncode}: {stderr.strip()[-800:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def measure(args, deadline: float) -> tuple[dict, dict]:
    """The result JSON, and the worker's summary for the printed lines."""
    if args.trace:
        s = run_worker(args, deadline)
        from tracing import per_layer, PER_LAYER
        metrics = per_layer(s["raw"])
        untraced = s["untraced_ops_per_s"]
        metrics.update({"trace.traced_ops_per_s": s["traced_ops_per_s"],
                        "trace.untraced_ops_per_s": untraced,
                        "trace.slowdown": untraced / s["traced_ops_per_s"] if untraced else 0.0})
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setups = [run_worker(args, deadline, ["--setup-only"], timeout=60) for _ in range(SETUPS - 1)]
        s = run_worker(args, deadline)
        setups.append(s)
        lat_ms = [x * 1e3 for x in s["latencies"]]
        p90 = quantile(lat_ms, 90)
        wall = {
            "ops_per_s": s["ops_per_s"],
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": p90,
            "setup_s": statistics.median(x["setup_s"] for x in setups),
        }
        # timings at reference speed: each divided by its speed factor from calibrate.py
        ref_ms = [x / f for x, f in zip(lat_ms, s["speeds"])]
        metrics = {
            "ops_per_s": s["ref_ops_per_s"],
            "latency_p50_ms": statistics.median(ref_ms),
            "latency_p90_ms": quantile(ref_ms, 90),
            "setup_s": statistics.median(x["setup_s"] / x["setup_speed"] for x in setups),
            "peak_rss_mb": s["peak_rss_mb"],
            "ok_frac": (s["attempted"] - s["failed"]) / s["attempted"],
        }
        units = dict(END_TO_END)
        s["samples"] = len(lat_ms)
        s["beyond_p90"] = sum(1 for x in ref_ms if x > metrics["latency_p90_ms"])
        s["wall"] = wall
        s["setup_speeds"] = [x["setup_speed"] for x in setups]
    result = {"correct": s["failed"] == 0 and not s["fixed_failures"],
              "attempted": s["attempted"], "failed": s["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, s


def report(args, env: dict, result: dict, s: dict):
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"env={json.dumps(env, separators=(',', ':'))}")
    if not args.trace:
        print(f"# samples={s['samples']} beyond_p90={s['beyond_p90']} "
              f"median_speed={statistics.median(s['speeds']):.4f} "
              f"setup_speeds={[round(x, 4) for x in s['setup_speeds']]}")
        print("# wall clock, before dividing by the speed factor: "
              + " ".join(f"{k}={v:.6g}" for k, v in s["wall"].items()))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {result['failed'] / result['attempted']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} operations)")
    for msg in s["fixed_failures"] + s["messages"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))


def smoke() -> int:
    """Every workload, both modes, a handful of operations each."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--max-ops", "3"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: failed_frac {result['failed']}/{result['attempted']}; "
                                f"{proc.stderr.strip()[-500:]}")
            if not trace and not any(line.split()[:3] == ["failed_frac", "0", "ratio"] for line in lines):
                problems.append(f"{where}: failed_frac 0 not printed")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                printed = any(line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
                              for line in lines[:-1])
                if got is None or got["unit"] != m["unit"] or not printed:
                    problems.append(f"{where}: metric {m['name']} [{m['unit']}] missing")
                elif trace and workload in LAYER_HOME.get(m["name"], ()) and not got["value"]:
                    problems.append(f"{where}: {m['name']} is 0 on its home workload")
                elif not trace and not got["value"]:
                    problems.append(f"{where}: {m['name']} is 0")
            print(f"smoke {where}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}")
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None, help="stop after this many operations")
    ap.add_argument("--smoke", action="store_true", help="check every workload and metric briefly")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    # one CPU for this process and all it starts: the reference parts of
    # calibrate.py then time the CPU the operations ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        check_checkout()
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        args.work_dir = os.path.join(BENCH_DIR, ".work")
        os.makedirs(args.work_dir, exist_ok=True)
        env = environment()
        result, s = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, env, result, s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
