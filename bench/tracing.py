"""Layer-boundary tracing of cliffmod, installed from outside the package.

`Tracer.install()` replaces public functions and methods of the layers
with wrappers that record one span per call: (kind, start, end, parent
span, count, count2).  `series`, `harness` and `cli` bind names with
`from .congruence import enumerate_cosets`, so each wrapper is patched
into every loaded cliffmod namespace that holds the original object;
otherwise calls between layers would bypass it.  `uninstall()` puts the
originals back.

Spans stay in memory; `raw_totals` folds them into additive sums (so
totals from several processes can be added) and `per_layer` derives the
reported metrics.  A layer's self time is its spans' time minus the part
covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (metric, unit, better): the per-layer metrics every traced run prints
PER_LAYER = [
    ("congruence.enumerate_calls", "count", "lower"),
    ("congruence.enumerate_s", "s", "lower"),
    ("congruence.ball_build_s", "s", "lower"),
    ("congruence.ball_elements", "count", "lower"),
    ("congruence.coset_yield", "ratio", "higher"),
    ("congruence.membership_calls", "count", "lower"),
    ("series.evals", "count", "higher"),
    ("series.terms", "count", "higher"),
    ("series.self_s", "s", "lower"),
    ("series.cosets_s", "s", "lower"),
    ("series.lattice_sums", "count", "higher"),
    ("series.lattice_s", "s", "lower"),
    ("vahlen.mat_mul_calls", "count", "lower"),
    ("vahlen.mat_mul_s", "s", "lower"),
    ("vahlen.to_float_calls", "count", "lower"),
    ("vahlen.to_float_s", "s", "lower"),
    ("vahlen.mobius_apply_calls", "count", "lower"),
    ("vahlen.mobius_apply_s", "s", "lower"),
    ("clifford.exact_products", "count", "lower"),
    ("clifford.exact_product_s", "s", "lower"),
    ("clifford.float_products", "count", "lower"),
    ("clifford.float_product_s", "s", "lower"),
    ("clifford.blade_pairs", "count", "lower"),
    ("jets.products", "count", "lower"),
    ("jets.product_s", "s", "lower"),
    ("jets.term_pairs", "count", "lower"),
    ("jets.pair_yield", "ratio", "higher"),
    ("jets.power_calls", "count", "lower"),
    ("jets.power_s", "s", "lower"),
    ("kernels.kernel_jets", "count", "lower"),
    ("kernels.kernel_jet_s", "s", "lower"),
    ("kernels.q0_general_calls", "count", "lower"),
    ("kernels.q0_general_s", "s", "lower"),
    ("harness.checks", "count", "higher"),
    ("harness.check_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.traced_ops_per_s", "ops/s", "higher"),
    ("trace.untraced_ops_per_s", "ops/s", "higher"),
    ("trace.slowdown", "ratio", "lower"),
]

# span kind -> (module, attribute path) of the traced callables
TARGETS = {
    "congruence.enumerate": [("congruence", "enumerate_cosets")],
    "congruence.ball": [("congruence", "_gamma_ball")],
    "congruence.membership": [("congruence", "is_member"), ("congruence", "contains_neg_identity"),
                              ("congruence", "same_coset")],
    "series.eval": [("series", "scalar_eisenstein"), ("series", "odd_weight_eisenstein"),
                    ("series", "vector_eisenstein"), ("series", "biregular_eisenstein")],
    "series.cosets": [("series", "series_cosets")],
    "series.lattice": [("series", "lattice_G_m"), ("series", "zeta_m_table"),
                       ("series", "zeta_m"), ("series", "epsilon_m")],
    "vahlen.mat_mul": [("vahlen", "mat_mul")],
    "vahlen.to_float": [("vahlen", "VahlenMatrix.to_float")],
    "vahlen.mobius_apply": [("vahlen", "mobius_apply")],
    "clifford.product": [("clifford", "Multivector.__mul__")],
    "jets.product": [("jets", "Jet.__mul__")],
    "jets.power": [("jets", "Jet.power")],
    "kernels.kernel_jet": [("kernels", "KernelJet.__init__")],
    "kernels.q0_general": [("kernels", "q0_general")],
    "harness.check": [("harness", name) for name in (
        "check_clifford_relations", "check_mobius_homomorphism", "check_kernel_multiplicativity",
        "check_kernel_monogenicity", "check_jet_vs_fd", "check_coset_counts", "check_limits",
        "check_cancellation", "check_automorphy", "check_series_monogenicity",
        "check_zeta_nonvanishing", "check_abscissa")],
    "cli.main": [("cli", "main")],
    "cli.emit": [("cli", "_emit"), ("cli", "_json_dumps")],
}


def _len_result(args, out):
    return len(out), 0


def _n_terms(args, out):
    return out.n_terms, 0


def _emit_bytes(args, out):
    return len(args[0].encode()), 0


def _blade_pairs(args, out):
    return len(args[0].coeffs) * len(args[1].coeffs), 0


def _jet_pairs(args, out):
    """(term pairs visited, pairs within the truncation order)."""
    a, b = args
    by_degree = {}
    for m in b.terms:
        d = sum(m)
        by_degree[d] = by_degree.get(d, 0) + 1
    within = 0
    for m in a.terms:
        da = sum(m)
        within += sum(c for d, c in by_degree.items() if da + d <= a.order)
    return len(a.terms) * len(b.terms), within


# attribute path -> counter(args, result) giving a span's (count, count2)
COUNTERS = {
    "enumerate_cosets": _len_result,
    "_gamma_ball": _len_result,
    "scalar_eisenstein": _n_terms,
    "odd_weight_eisenstein": _n_terms,
    "vector_eisenstein": _n_terms,
    "biregular_eisenstein": _n_terms,
    "Multivector.__mul__": _blade_pairs,
    "Jet.__mul__": _jet_pairs,
    "_emit": _emit_bytes,
}


def _classify_mv_product(args):
    """Products by a scalar are not Clifford products and get no span."""
    a, b = args
    if not hasattr(b, "coeffs"):
        return None
    exact = not any(isinstance(c, float) for c in (*a.coeffs.values(), *b.coeffs.values()))
    return "clifford.exact_product" if exact else "clifford.float_product"


def _classify_jet_product(args):
    return "jets.product" if hasattr(args[1], "terms") else None


# attribute path -> classify(args) giving the span kind, or None for no span
CLASSIFY = {"Multivector.__mul__": _classify_mv_product, "Jet.__mul__": _classify_jet_product}


class Tracer:
    """Records spans for calls into cliffmod's layers while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, kind, fn, counter, classify):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = classify(args) if classify else kind
            if label is None:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                span[4], span[5] = counter(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", kind)
        return traced

    def install(self):
        for module in {module for targets in TARGETS.values() for module, _ in targets}:
            importlib.import_module(f"cliffmod.{module}")
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "cliffmod" or name.startswith("cliffmod."))]
        for kind, targets in TARGETS.items():
            for module, path in targets:
                owner = sys.modules[f"cliffmod.{module}"]
                cls_name, _, attr = path.rpartition(".")
                counter, classify = COUNTERS.get(path), CLASSIFY.get(path)
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, original, self._wrap(kind, original, counter, classify))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(kind, original, counter, classify)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, name, original, wrapper)

    def _set(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def raw_totals(spans) -> dict:
    """Additive totals: '<kind>.calls', '<kind>.s' (outermost spans of a
    kind only, so nesting is not counted twice), '<kind>.count',
    '<kind>.count2', '<layer>.self_s', and 'congruence.scanned' (ball
    elements returned to enumerate_cosets)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict = {"trace.spans": len(spans)}

    def bump(key, value):
        out[key] = out.get(key, 0) + value

    for i, (kind, start, end, parent, count, count2) in enumerate(spans):
        dur = end - start
        bump(kind + ".calls", 1)
        bump(kind + ".count", count)
        bump(kind + ".count2", count2)
        bump(kind.split(".")[0] + ".self_s", dur - child_time[i])
        p, nested = parent, False
        while p >= 0 and not nested:
            nested = spans[p][0] == kind
            p = spans[p][3]
        if not nested:
            bump(kind + ".s", dur)
        if kind == "congruence.ball" and parent >= 0 and spans[parent][0] == "congruence.enumerate":
            bump("congruence.scanned", count)
    return out


def merge(into: dict, more: dict):
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


def per_layer(raw: dict) -> dict:
    """The PER_LAYER metrics (except trace.*_ops_per_s) from raw totals."""
    g = lambda key: raw.get(key, 0)
    ratio = lambda num, den: num / den if den else 0.0
    return {
        "congruence.enumerate_calls": g("congruence.enumerate.calls"),
        "congruence.enumerate_s": g("congruence.enumerate.s"),
        "congruence.ball_build_s": g("congruence.ball.s"),
        "congruence.ball_elements": g("congruence.ball.count"),
        "congruence.coset_yield": ratio(g("congruence.enumerate.count"), g("congruence.scanned")),
        "congruence.membership_calls": g("congruence.membership.calls"),
        "series.evals": g("series.eval.calls"),
        "series.terms": g("series.eval.count"),
        "series.self_s": g("series.self_s"),
        "series.cosets_s": g("series.cosets.s"),
        "series.lattice_sums": g("series.lattice.calls"),
        "series.lattice_s": g("series.lattice.s"),
        "vahlen.mat_mul_calls": g("vahlen.mat_mul.calls"),
        "vahlen.mat_mul_s": g("vahlen.mat_mul.s"),
        "vahlen.to_float_calls": g("vahlen.to_float.calls"),
        "vahlen.to_float_s": g("vahlen.to_float.s"),
        "vahlen.mobius_apply_calls": g("vahlen.mobius_apply.calls"),
        "vahlen.mobius_apply_s": g("vahlen.mobius_apply.s"),
        "clifford.exact_products": g("clifford.exact_product.calls"),
        "clifford.exact_product_s": g("clifford.exact_product.s"),
        "clifford.float_products": g("clifford.float_product.calls"),
        "clifford.float_product_s": g("clifford.float_product.s"),
        "clifford.blade_pairs": g("clifford.exact_product.count") + g("clifford.float_product.count"),
        "jets.products": g("jets.product.calls"),
        "jets.product_s": g("jets.product.s"),
        "jets.term_pairs": g("jets.product.count"),
        "jets.pair_yield": ratio(g("jets.product.count2"), g("jets.product.count")),
        "jets.power_calls": g("jets.power.calls"),
        "jets.power_s": g("jets.power.s"),
        "kernels.kernel_jets": g("kernels.kernel_jet.calls"),
        "kernels.kernel_jet_s": g("kernels.kernel_jet.s"),
        "kernels.q0_general_calls": g("kernels.q0_general.calls"),
        "kernels.q0_general_s": g("kernels.q0_general.s"),
        "harness.checks": g("harness.check.calls"),
        "harness.check_s": g("harness.check.s"),
        "cli.startup_s": g("cli.startup_s"),
        "cli.main_s": g("cli.main.s"),
        "cli.emit_s": g("cli.emit.s"),
        "cli.output_bytes": g("cli.emit.count"),
        "trace.spans": g("trace.spans"),
    }
