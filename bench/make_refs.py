"""Regenerate the stored reference outputs in bench/refs/ from the
checkout's current code:

    python3 bench/make_refs.py

For seeds 0 (the default) and 1 (held out) it records the first
operations of every workload, and from cli_cold the output of each
command of the cycle (eval: its counts only, its values depend on the
seeded points).  References pin behaviour: regenerate them only for a
change that is meant to alter results, and say so.
"""

import json
import os
import subprocess
import sys
import time

from run import BENCH_DIR, ROOT, child_env
from workloads import CLI_CYCLE, REFS_DIR, CliCold

RECORD_OPS = {"series_points": 40, "lattice_jets": 20, "cli_cold": 2 * len(CLI_CYCLE)}
SEEDS = (0, 1)


def record(workload: str, seed: int, ops: int, work_dir: str) -> list:
    path = os.path.join(work_dir, f"record-{workload}-{seed}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1e6", "--launch", repr(time.monotonic()),
           "--work-dir", work_dir, "--max-ops", str(ops), "--record", path]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    with open(path) as fh:
        outputs = json.load(fh)
    os.remove(path)
    if any("error" in out for out in outputs):
        raise SystemExit(f"{workload} seed {seed}: an operation raised: {outputs}")
    return outputs


def main():
    work_dir = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_dir, exist_ok=True)
    for name in os.listdir(REFS_DIR):
        os.remove(os.path.join(REFS_DIR, name))
    commands = {}
    for workload, ops in RECORD_OPS.items():
        for seed in SEEDS:
            outputs = record(workload, seed, ops, work_dir)
            with open(os.path.join(REFS_DIR, f"{workload}-seed{seed}.json"), "w") as fh:
                json.dump(outputs, fh)
            if workload == "cli_cold" and seed == 0:
                cycle = CliCold(seed, ROOT, work_dir).cycle
                for i, out in enumerate(outputs):
                    template = cycle[i % len(cycle)]
                    commands[template] = {"exact": out["exact"],
                                          "floats": [] if "{points}" in template else out["floats"]}
    with open(os.path.join(REFS_DIR, "cli_cold-commands.json"), "w") as fh:
        json.dump(commands, fh, indent=1)


if __name__ == "__main__":
    main()
