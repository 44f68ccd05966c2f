"""The three benchmark workloads: inputs from the seed, one operation, checks.

An operation's output is normalised to {"exact": {...}, "floats": [...]}:
exact parts (term and coset counts, exit codes, JSON counts) must match
exactly, float parts within a tolerance.  Every output is checked after
the timed loop against
- fixed expectations (the ROADMAP's pinned figures and this commit's counts),
- the independent float oracle in `oracle.py`, within 1e-12 of the summed
  magnitude,
- stored references from `refs/` (seeds 0 and 1), within 1e-12 * max(1, |ref|).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
REF_TOL = 1e-12
ORACLE_TOL = 1e-12

# |m| = 3 multi-indices in four variables
M3 = [(a, b, c, 3 - a - b - c) for a in range(4) for b in range(4 - a) for c in range(4 - a - b)]


def strip_point(rng: random.Random, n: int) -> list[float]:
    """A point of the strip |x_1..x_{n-1}| <= 1, 0.5 <= x_n <= 2."""
    return [rng.uniform(-1.0, 1.0) for _ in range(n - 1)] + [rng.uniform(0.5, 2.0)]


def dense(value, n: int) -> list[float]:
    return [float(value.coeffs.get(m, 0.0)) for m in range(1 << n)]


def load_ref(name: str):
    path = os.path.join(REFS_DIR, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def compare(out: dict, ref: dict, what: str) -> list[str]:
    errors = []
    if out["exact"] != ref["exact"]:
        errors.append(f"{what}: exact part {out['exact']} != reference {ref['exact']}")
    errors += compare_floats(out["floats"], ref["floats"], what)
    return errors


def compare_floats(got, want, what: str, mass: float | None = None) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} floats, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        tol = (ORACLE_TOL * max(1.0, mass)) if mass is not None else REF_TOL * max(1.0, abs(w))
        if not abs(g - w) <= tol:
            return [f"{what}: float {i} is {g!r}, expected {w!r} (tol {tol:.1e})"]
    return []


class Workload:
    """Base: subclasses define setup, inputs, run and check."""

    name = ""
    trace_ops = 0  # operations in the traced block of a --trace 1 run

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    # tracing hooks; in-process workloads trace this interpreter
    def start_trace(self):
        from tracing import Tracer
        self.tracer = Tracer()
        self.tracer.install()

    def stop_trace(self, dump_path: str) -> dict:
        from tracing import raw_totals
        self.tracer.uninstall()
        self.tracer.dump(dump_path)
        return raw_totals(self.tracer.spans)

    def check_all(self, outputs) -> tuple[int, list[str]]:
        """Number of failed operations, and the first few messages.
        Inputs are regenerated from (seed, i) rather than kept."""
        refs = load_ref(f"{self.name}-seed{self.seed}.json") or []
        failed, messages = 0, []
        for i, out in enumerate(outputs):
            inp = self.inputs(i)
            errs = [out["error"]] if "error" in out else self.check(inp, out)
            if not errs and i < len(refs):
                errs = compare(out, refs[i], f"op {i} vs stored reference")
            if errs:
                failed += 1
                messages += errs[:1]
        return failed, messages[:5]

    def fixed_checks(self) -> list[str]:
        return []


# ---- series_points ----------------------------------------------------------------


class SeriesPoints(Workload):
    """Scalar (n=5, p=1, s=2, L=10), biregular (n=4, s=t=1, L=8) and odd-weight
    (n=4, principal[3], L=8) series at fresh strip points: one fixed
    (group, L) set, re-evaluated at new points."""

    name = "series_points"
    trace_ops = 10
    # (n_terms, coset_count_c0) at this commit; scalar's are the ROADMAP's figures
    EXPECT = {"scalar": [328, 4], "biregular": [112, 4], "oddweight": [3, 1]}

    def setup(self):
        from cliffmod import GroupDescriptor, SeriesSpec
        self.specs = {
            "scalar": SeriesSpec("scalar", GroupDescriptor.full(5, 1), s=2, word_limit=10),
            "biregular": SeriesSpec("biregular", GroupDescriptor.full(4, 1), s=1, t=1, word_limit=8),
            "oddweight": SeriesSpec("oddweight", GroupDescriptor.principal(4, 1, 3), s=1, word_limit=8),
        }
        self.run(self.inputs("warmup"))

    def inputs(self, i):
        rng = self.rng(i)
        return {"scalar": strip_point(rng, 5), "biregular": (strip_point(rng, 4), strip_point(rng, 4)),
                "oddweight": strip_point(rng, 4)}

    def run(self, inp):
        from cliffmod import Multivector, biregular_eisenstein, odd_weight_eisenstein, scalar_eisenstein
        x, (bx, by), ox = inp["scalar"], inp["biregular"], inp["oddweight"]
        return {
            "scalar": scalar_eisenstein(Multivector.vector(x), self.specs["scalar"]),
            "biregular": biregular_eisenstein(Multivector.vector(bx), Multivector.vector(by),
                                              self.specs["biregular"]),
            "oddweight": odd_weight_eisenstein(Multivector.vector(ox), self.specs["oddweight"]),
        }

    def normalise(self, res):
        return {"exact": {k: [r.n_terms, r.coset_count_c0] for k, r in res.items()},
                "floats": [v for k in ("scalar", "biregular", "oddweight")
                           for v in dense(res[k].value, self.specs[k].group.n)]}

    def check(self, inp, out):
        if out["exact"] != self.EXPECT:
            return [f"term/c0 counts {out['exact']} != {self.EXPECT}"]
        if not hasattr(self, "_oracles"):
            from cliffmod.series import series_cosets
            self._oracles = {k: oracle.CosetData(series_cosets(s.group, s.word_limit), s.group.n)
                             for k, s in self.specs.items()}
        o = self._oracles
        sums = [o["scalar"].scalar(inp["scalar"], 2), o["biregular"].biregular(*inp["biregular"], 1, 1),
                o["oddweight"].odd_weight(inp["oddweight"], 1)]
        errors, pos = [], 0
        for k, total in zip(("scalar", "biregular", "oddweight"), sums):
            n = self.specs[k].group.n
            want = oracle.components(total.value, n)
            errors += compare_floats(out["floats"][pos:pos + len(want)], want, f"{k} vs oracle", total.mass)
            pos += len(want)
        return errors

    def fixed_checks(self):
        from cliffmod import GroupDescriptor, enumerate_cosets
        from cliffmod.congruence import gamma_ball
        errors = []
        sizes = {L: len(gamma_ball(5, 1, L)) for L in (6, 8, 10)}
        if sizes != {6: 220, 8: 678, 10: 1930}:
            errors.append(f"word balls n=5 p=1 at L=6,8,10: {sizes}, expected 220, 678, 1930")
        theta = len(enumerate_cosets(GroupDescriptor.theta(5, 1), 10))
        if theta != 144:
            errors.append(f"theta n=5 L=10: {theta} cosets, expected 144")
        return errors


# ---- lattice_jets ---------------------------------------------------------------------


class LatticeJets(Workload):
    """Derivative-kernel lattice sums: lattice_G_m (n=4, R=1) and the vector
    series (n=4, L=2, R=1), each at a fresh point with a fresh |m| = 3 index."""

    name = "lattice_jets"
    trace_ops = 6
    EXPECT = [2, 2]  # vector series (n_terms, coset_count_c0)

    def setup(self):
        from cliffmod import GroupDescriptor, SeriesSpec
        group = GroupDescriptor.full(4, 1)
        self.specs = {m: SeriesSpec("vector", group, s=1, m=m, word_limit=2, box_radius=1) for m in M3}
        self.run(self.inputs("warmup"))

    def inputs(self, i):
        rng = self.rng(i)
        return {"g_point": strip_point(rng, 4), "g_m": rng.choice(M3),
                "v_point": strip_point(rng, 4), "v_m": rng.choice(M3)}

    def run(self, inp):
        from cliffmod import Multivector, vector_eisenstein
        from cliffmod.series import lattice_G_m
        return (lattice_G_m(Multivector.vector(inp["g_point"]), inp["g_m"], 1),
                vector_eisenstein(Multivector.vector(inp["v_point"]), self.specs[inp["v_m"]]))

    def normalise(self, res):
        g, v = res
        return {"exact": [v.n_terms, v.coset_count_c0], "floats": dense(g, 4) + dense(v.value, 4)}

    def check(self, inp, out):
        if out["exact"] != self.EXPECT:
            return [f"vector series counts {out['exact']} != {self.EXPECT}"]
        if not hasattr(self, "_oracle"):
            from cliffmod.series import series_cosets
            spec = self.specs[M3[0]]
            self._oracle = oracle.CosetData(series_cosets(spec.group, spec.word_limit), 4)
        g = oracle.lattice_G_m(inp["g_point"], inp["g_m"], 1)
        v = self._oracle.vector(inp["v_point"], 1, inp["v_m"], 1)
        return (compare_floats(out["floats"][:16], oracle.components(g.value, 4), "lattice_G_m vs oracle", g.mass)
                + compare_floats(out["floats"][16:], oracle.components(v.value, 4), "vector series vs oracle",
                                 v.mass))


# ---- cli_cold -------------------------------------------------------------------------

# One fixed cycle; the seed shuffles its order and draws the eval points.
CLI_CYCLE = [
    "cosets --n 5 --p 1 --group theta --maxlen 9",
    "cosets --n 5 --p 2 --maxlen 5",
    "cosets --n 8 --p 2 --group theta --maxlen 5",
    "cosets --n 8 --p 1 --maxlen 9",
    "eval --n 5 --p 1 --series scalar --s 2 --maxlen 8 --points {points}",
    "limits --n 5 --p 1 --series scalar --s 2 --maxlen 8",
    "verify --check cosets --check collapse --check abscissa",
]


class CliCold(Workload):
    """Each operation is one fresh `python -m cliffmod` process."""

    name = "cli_cold"
    trace_ops = len(CLI_CYCLE)
    EVAL_POINTS = 2

    def __init__(self, seed: int, root: str, work_dir: str):
        super().__init__(seed)
        self.root, self.work_dir = root, work_dir
        self.cycle = list(CLI_CYCLE)
        random.Random(f"{self.name}:{seed}").shuffle(self.cycle)
        self.launch = 0
        self.raw = None

    def setup(self):
        for kind in ("cosets", "eval", "limits", "verify"):
            template = next(t for t in CLI_CYCLE if t.startswith(kind))
            self.run(self.make_input(template, "warmup"))

    def make_input(self, template, i):
        points = None
        if "{points}" in template:
            rng = self.rng(i)
            points = [strip_point(rng, 5) for _ in range(self.EVAL_POINTS)]
        args = template.format(points=os.path.join(self.work_dir, "points.json")).split()
        return {"template": template, "args": args, "points": points}

    def inputs(self, i):
        return self.make_input(self.cycle[i % len(self.cycle)], i)

    def start_trace(self):
        self.raw = {}  # each launch's totals are added here; its spans stay in its own file

    def stop_trace(self, dump_path: str) -> dict:
        raw, self.raw = self.raw, None
        return raw

    def run(self, inp):
        if inp["points"] is not None:
            with open(os.path.join(self.work_dir, "points.json"), "w") as fh:
                json.dump(inp["points"], fh)
        if self.raw is None:
            cmd = [sys.executable, "-m", "cliffmod", *inp["args"]]
            spans_path = None
        else:
            self.launch += 1
            spans_path = os.path.join(self.work_dir, f"launch-{self.launch}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py"), spans_path, *inp["args"]]
        env = dict(os.environ, BENCH_SPAWN_T=repr(time.monotonic()))
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=120)
        if spans_path and os.path.exists(spans_path):
            from tracing import merge
            with open(spans_path) as fh:
                merge(self.raw, json.load(fh)["raw"])
        return proc.returncode, proc.stdout

    def normalise(self, res):
        rc, stdout = res
        out = {"exact": {"rc": rc}, "floats": []}
        if rc != 0:
            return out
        data = json.loads(stdout)
        ex = out["exact"]
        if "cosets" in data:
            for key in ("count", "count_c_zero", "contains_neg_identity", "translation_lattice_scale"):
                ex[key] = data[key]
            rows = [[r["word_length"], r["c_zero"], r["a"], r["b"], r["c"], r["d"]] for r in data["cosets"]]
            ex["rows"] = len(rows)
            ex["rows_sha256"] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            out["floats"] = [r["height"] for r in data["cosets"]]
        elif "results" in data:
            ex["n_terms"] = [r["n_terms"] for r in data["results"]]
            ex["coset_count_c0"] = [r["coset_count_c0"] for r in data["results"]]
            for r in data["results"]:
                comps = r["value"]["components"]
                out["floats"] += [comps.get(format(m, "b").zfill(5)[::-1], 0.0) for m in range(32)]
        elif "reports" in data:
            ex["all_passed"] = data["all_passed"]
            ex["reports"] = [[r["check"], r["pass"], r.get("count"), r.get("target")] for r in data["reports"]]
            out["floats"] = [r["residual"] for r in data["reports"] if "residual" in r]
        else:
            ex["pass"], ex["target"] = data["pass"], data.get("target")
            out["floats"] = [data["residual"]]
        return out

    def check(self, inp, out):
        if out["exact"]["rc"] != 0:
            return [f"{inp['template']}: exit code {out['exact']['rc']}"]
        ref = self.command_refs().get(inp["template"])
        if ref is None:
            return [f"no stored reference for {inp['template']!r}"]
        if inp["points"] is None:
            return compare(out, ref, inp["template"])
        if out["exact"] != ref["exact"]:
            return [f"eval counts {out['exact']} != reference {ref['exact']}"]
        if not hasattr(self, "_oracle"):
            from cliffmod import GroupDescriptor
            from cliffmod.series import series_cosets
            self._oracle = oracle.CosetData(series_cosets(GroupDescriptor.full(5, 1), 8), 5)
        errors = []
        for k, x in enumerate(inp["points"]):
            total = self._oracle.scalar(x, 2)
            errors += compare_floats(out["floats"][32 * k:32 * (k + 1)], oracle.components(total.value, 5),
                                     f"eval point {k} vs oracle", total.mass)
        return errors

    def command_refs(self) -> dict:
        if not hasattr(self, "_command_refs"):
            self._command_refs = load_ref("cli_cold-commands.json") or {}
        return self._command_refs


WORKLOADS = {"series_points": SeriesPoints, "lattice_jets": LatticeJets, "cli_cold": CliCold}
