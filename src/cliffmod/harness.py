"""Numeric verification checks with uniform reporting.

Each check samples deterministically from a seeded RNG, measures a
residual or a count, compares against a threshold or target from
DEFAULT_THRESHOLDS (overridable per call), and returns a
VerificationReport.  The CLI `verify` subcommand serializes these
reports; the acceptance tests pin the same checks at the documented
tolerances.  A size that no caller varies (a dimension, word limit,
step or sample count) is a constant in the check's body and is still
reported in `params`.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
import time
from dataclasses import dataclass

from .clifford import Multivector
from .congruence import (GroupDescriptor, bottom_row_key, contains_neg_identity,
                         enumerate_cosets, gamma_ball, gamma_generators, is_member,
                         same_coset)
from .jets import multi_indices, multi_indices_upto
from .kernels import KernelJet, dirac_fd, dirac_power_fd, fd_partial, kernel_multiplicativity_check, q0
from .series import (EISENSTEIN_KINDS, SeriesSpec, abscissa_diagnostic, automorphy_residual, coset_counts,
                     evaluate, odd_weight_eisenstein, scalar_eisenstein, zeta_m_table)
from .vahlen import VahlenMatrix, in_half_space, make_translation, mat_mul, mobius_apply

THRESHOLDS_VERSION = "1"

DEFAULT_THRESHOLDS = {
    "mobius_homomorphism": 1e-9,
    "kernel_multiplicativity": 1e-10,
    "kernel_monogenicity": 1e-6,
    "kernel_monogenicity_ratio": (3.0, 5.0),
    "jet_vs_fd_relative": 1e-5,
    "limit_final_error": 0.05,
    "oddweight_collapse": 1e-12,
    "series_monogenicity": 1e-2,
    "zeta_tail_factor": 10.0,
}


# The optional measurements of a report, in output order, with their summary-line format.
_REPORT_FIELDS = {"residual": "residual={:.3e}", "count": "count={}",
                  "threshold": "threshold={:.3e}", "target": "target={}"}


@dataclass
class VerificationReport:
    """One check: what was measured, against what, and the verdict."""

    check: str
    params: dict
    passed: bool
    residual: float | None = None
    count: int | None = None
    threshold: float | None = None
    target: object = None
    seconds: float = 0.0
    note: str = ""

    def _measures(self) -> dict:
        return {k: getattr(self, k) for k in _REPORT_FIELDS if getattr(self, k) is not None}

    def to_json_dict(self) -> dict:
        out = {"check": self.check, "params": self.params, "pass": self.passed,
               "seconds": self.seconds, **self._measures()}
        if self.note:
            out["note"] = self.note
        return out

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        bits = [_REPORT_FIELDS[k].format(v) for k, v in self._measures().items()]
        if self.note:
            bits.append(self.note)
        return f"[{verdict}] {self.check}: " + "  ".join(bits)


def _require_c_nonzero_coset(group: GroupDescriptor, word_limit: int):
    """Refuse a truncation of only c = 0 cosets: a series over it is a
    constant, which says nothing about limits or automorphy."""
    terms, c0 = coset_counts(group, word_limit)
    if terms == c0:
        raise ValueError(f"{group.label} has no coset with c != 0 within word length {word_limit}; "
                         "raise the word limit")


def _require_eisenstein_kind(kind: str, statement: str):
    """Admit only the f~ = 1 kinds: the limit and automorphy checks build their specs from the kind alone."""
    if kind not in EISENSTEIN_KINDS:
        raise ValueError(f"no {statement} statement for series kind {kind!r}; choose from {EISENSTEIN_KINDS}")


def _threshold(overrides: dict | None, key: str):
    if overrides and key in overrides:
        return overrides[key]
    return DEFAULT_THRESHOLDS[key]


def _timed(check):
    """Time each call of `check` into its report's `seconds`, rounded to 6 digits."""
    @functools.wraps(check)
    def timed(*args, **kwargs) -> VerificationReport:
        t0 = time.perf_counter()
        rep = check(*args, **kwargs)
        rep.seconds = round(time.perf_counter() - t0, 6)
        return rep
    return timed


def median_halving_ratio(coarse: list[float], fine: list[float]) -> float:
    """Median over points of residual(h) / residual(h/2): about 4 where the
    residual is the h^2 error of a central-difference stencil, about 1 where
    it does not depend on h."""
    return statistics.median(c / f if f else math.inf for c, f in zip(coarse, fine))


# ---- samplers ----------------------------------------------------------------


def sample_strip_point(rng: random.Random, n: int, xn_range: tuple[float, float],
                       base_radius: float = 1.0) -> Multivector:
    """Random float point with underscored components uniform in
    [-base_radius, base_radius] and x_n uniform in xn_range."""
    comps = [rng.uniform(-base_radius, base_radius) for _ in range(n - 1)]
    comps.append(rng.uniform(*xn_range))
    return Multivector.vector(comps)


def sample_group_elements(rng: random.Random, group: GroupDescriptor, count: int) -> list[VahlenMatrix]:
    """Random non-identity members of the group from the word ball of length 4."""
    pool = [m for m in gamma_ball(group.n, group.p, 4) if m.word and is_member(m, group)]
    if not pool:
        raise ValueError(f"no non-identity members of {group.label} at word length 4")
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def random_word_matrix(rng: random.Random, n: int, p: int, max_len: int = 6) -> VahlenMatrix:
    """Random generator word of length 1..max_len (a Gamma_p element)."""
    gens = gamma_generators(n, p)
    m = VahlenMatrix.identity(n)
    for _ in range(rng.randint(1, max_len)):
        m = mat_mul(m, gens[rng.randrange(len(gens))])
    return m


# ---- checks -------------------------------------------------------------------


@_timed
def check_clifford_relations(seed: int = 0) -> VerificationReport:
    """Generator relations exactly, plus random exact associativity and
    anti-automorphism identities on sparse multivectors."""
    dims, samples = (4, 8), 1000
    rng = random.Random(seed)
    failures = 0
    for n in dims:
        for i in range(1, n + 1):
            ei = Multivector.basis(n, i)
            for j in range(1, n + 1):
                ej = Multivector.basis(n, j)
                anti = ei * ej + ej * ei
                expect = Multivector.scalar(n, -2 if i == j else 0)
                if anti != expect:
                    failures += 1

    def random_mv(n: int) -> Multivector:
        coeffs = {}
        for _ in range(6):
            coeffs[rng.randrange(1 << n)] = rng.randint(-9, 9)
        return Multivector(n, coeffs)

    per_dim = samples // len(dims)
    for n in dims:
        for _ in range(per_dim):
            a, b, c = random_mv(n), random_mv(n), random_mv(n)
            if (a * b) * c != a * (b * c):
                failures += 1
            if (a * b).conjugate() != b.conjugate() * a.conjugate():
                failures += 1
            if (a * b).reverse() != b.reverse() * a.reverse():
                failures += 1
    return VerificationReport(
        check="clifford_relations", params={"dims": list(dims), "samples": samples, "seed": seed},
        passed=failures == 0, count=failures, target=0,
        note="exact relation/associativity/anti-automorphism failures")


@_timed
def check_mobius_homomorphism(pairs: int = 200, points: int = 20, seed: int = 0,
                              thresholds: dict | None = None) -> VerificationReport:
    """(M1 M2)<x> == M1<M2<x>> in floats, and images stay in the half-space."""
    n, p = 4, 1
    rng = random.Random(seed)
    tol = _threshold(thresholds, "mobius_homomorphism")
    pts = [sample_strip_point(rng, n, xn_range=(0.3, 2.0), base_radius=2.0)
           for _ in range(points)]
    worst = 0.0
    halfspace_ok = True
    for _ in range(pairs):
        m1 = random_word_matrix(rng, n, p)
        m2 = random_word_matrix(rng, n, p)
        prod = mat_mul(m1, m2).to_float()
        m1f, m2f = m1.to_float(), m2.to_float()
        for x in pts:
            lhs = mobius_apply(prod, x)
            mid = mobius_apply(m2f, x)
            rhs = mobius_apply(m1f, mid)
            worst = max(worst, (lhs - rhs).norm())
            if not (in_half_space(lhs) and in_half_space(mid)):
                halfspace_ok = False
    return VerificationReport(
        check="mobius_homomorphism",
        params={"n": n, "p": p, "pairs": pairs, "points": points, "seed": seed},
        passed=worst < tol and halfspace_ok, residual=worst, threshold=tol,
        note="" if halfspace_ok else "half-space violated")


@_timed
def check_kernel_multiplicativity(pairs: int = 500, seed: int = 0,
                                  thresholds: dict | None = None) -> VerificationReport:
    dims, weights = (4, 5), (1, 2)
    rng = random.Random(seed)
    tol = _threshold(thresholds, "kernel_multiplicativity")
    worst = 0.0
    for n in dims:
        for _ in range(pairs // len(dims)):
            a = Multivector.vector([rng.uniform(-2, 2) for _ in range(n)])
            b = Multivector.vector([rng.uniform(-2, 2) for _ in range(n)])
            if a.norm() < 1e-3 or b.norm() < 1e-3:
                continue
            for s in weights:
                worst = max(worst, kernel_multiplicativity_check(a, b, s))
    return VerificationReport(
        check="kernel_multiplicativity",
        params={"pairs": pairs, "dims": list(dims), "weights": list(weights), "seed": seed},
        passed=worst < tol, residual=worst, threshold=tol)


@_timed
def check_kernel_monogenicity(seed: int = 0, thresholds: dict | None = None) -> VerificationReport:
    """D q0 = 0 away from the origin, by central differences, with the
    h-halving ratio confirming the h^2 error model."""
    n, s, h, points = 4, 1, 1e-4, 10
    rng = random.Random(seed)
    tol = _threshold(thresholds, "kernel_monogenicity")
    lo, hi = _threshold(thresholds, "kernel_monogenicity_ratio")
    pts = [sample_strip_point(rng, n, xn_range=(1.0, 1.8)) for _ in range(points)]
    kernel = lambda y: q0(y, s)
    coarse = [dirac_fd(kernel, x, h).norm() for x in pts]
    fine = [dirac_fd(kernel, x, h / 2).norm() for x in pts]
    worst = max(coarse)
    med_ratio = median_halving_ratio(coarse, fine)
    ok = worst < tol and lo <= med_ratio <= hi
    return VerificationReport(
        check="kernel_monogenicity",
        params={"n": n, "s": s, "h": h, "points": points, "seed": seed},
        passed=ok, residual=worst, threshold=tol,
        note=f"median halving ratio {med_ratio:.2f} (expect within [{lo}, {hi}])")


@_timed
def check_jet_vs_fd(points: int = 50, s: int = 1, seed: int = 0,
                    thresholds: dict | None = None) -> VerificationReport:
    """Jet-evaluated q_m against Richardson-extrapolated central differences."""
    n, max_order, h = 4, 3, 1e-3
    rng = random.Random(seed)
    tol = _threshold(thresholds, "jet_vs_fd_relative")
    worst = 0.0
    indices = multi_indices_upto(n, max_order)
    for _ in range(points):
        comps = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        x = Multivector.vector(comps)
        scale = rng.uniform(1.0, 2.0) / max(x.norm(), 1e-9)
        x = x * scale  # keep |x| in [1, 2]: away from the pole, FD well-conditioned
        kj = KernelJet(x, s, max_order)
        for m in indices:
            jet_val = kj.q_m(m)
            fd_val = fd_partial(lambda y: q0(y, s), x, m, h, richardson=True)
            rel = (jet_val - fd_val).norm() / max(1.0, jet_val.norm(), fd_val.norm())
            worst = max(worst, rel)
    return VerificationReport(
        check="jet_vs_fd",
        params={"n": n, "points": points, "max_order": max_order, "h": h, "s": s, "seed": seed},
        passed=worst < tol, residual=worst, threshold=tol)


@_timed
def check_coset_counts() -> VerificationReport:
    """c = 0 coset counts against the predicted values, the theta count
    against an oracle-derived partition, and key-vs-oracle agreement."""
    n, p, word_limit = 4, 1, 6
    notes = []
    ok = True

    full = GroupDescriptor.full(n, p)
    reps = enumerate_cosets(full, word_limit)
    full_c0 = sum(1 for r in reps if r.is_c_zero())
    expect_full = 2 ** (p + 1)
    ok &= full_c0 == expect_full
    notes.append(f"full c0={full_c0}/{expect_full}")

    for level in (3, 4):
        g = GroupDescriptor.principal(n, p, level)
        c0 = sum(1 for r in enumerate_cosets(g, word_limit) if r.is_c_zero())
        ok &= c0 == 1
        notes.append(f"principal[{level}] c0={c0}/1")

    theta = GroupDescriptor.theta(n, p)
    theta_reps = enumerate_cosets(theta, word_limit)
    theta_c0 = sum(1 for r in theta_reps if r.is_c_zero())
    ok &= 1 <= theta_c0 <= expect_full
    # independent derivation: partition the c=0 members by the same_coset oracle
    members = [m for m in gamma_ball(n, p, word_limit)
               if m.c.is_zero() and is_member(m, theta)]
    classes: list[VahlenMatrix] = []
    for m in members:
        if not any(same_coset(m, c, theta) for c in classes):
            classes.append(m)
    ok &= len(classes) == theta_c0
    notes.append(f"theta c0={theta_c0} oracle={len(classes)}")

    # key agreement with the pairwise oracle on the full group's ball
    mats = [r.matrix for r in reps]
    keys = [r.key for r in reps]
    agree = all((keys[i] == keys[j]) == same_coset(mats[i], mats[j], full)
                for i in range(len(mats)) for j in range(i, len(mats)))
    # positive cases: translates of a rep share its coset and its key
    for r in reps[:10]:
        for i in range(1, p + 1):
            t = make_translation(Multivector.basis(n, i))
            shifted = mat_mul(t, r.matrix)
            agree &= bottom_row_key(shifted) == r.key and same_coset(shifted, r.matrix, full)
    ok &= agree
    notes.append(f"key-vs-oracle {'agree' if agree else 'DISAGREE'}")
    return VerificationReport(
        check="coset_counts", params={"n": n, "p": p, "word_limit": word_limit},
        passed=bool(ok), count=full_c0, target=expect_full, note="; ".join(notes))


@_timed
def check_limits(kind: str, n: int, p: int, s: int, t: int | None = None,
                 level: int | None = None, variant: str | None = None,
                 word_limit: int = 8, t_values=(10, 30, 100),
                 thresholds: dict | None = None) -> VerificationReport:
    """Values at x = e_n * t approach the c = 0 coset count as t grows,
    with strictly decreasing error.  A truncation without a c != 0 coset
    raises ValueError: its series is the count itself at every t.  So do
    fewer than two heights (one error decreases trivially) or a non-finite one."""
    tol = _threshold(thresholds, "limit_final_error")
    try:
        heights = [float(tv) for tv in t_values]
    except OverflowError as exc:
        raise ValueError("a height is too large for a float") from exc
    if len(heights) < 2 or not all(map(math.isfinite, heights)):
        raise ValueError(f"the limit check needs at least two finite heights, got {heights}")
    _require_eisenstein_kind(kind, "limit")
    group = GroupDescriptor(n, p, variant, level)
    spec = SeriesSpec(kind, group, s=s, t=t, word_limit=word_limit)
    _require_c_nonzero_coset(group, word_limit)
    errors = []
    target = None
    for tv in heights:
        res = evaluate(spec, Multivector.vector([0.0] * (n - 1) + [tv]))
        target = res.coset_count_c0
        errors.append((res.value - Multivector.scalar(n, float(target))).norm())
    decreasing = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    ok = decreasing and errors[-1] < tol
    return VerificationReport(
        check=f"limit_{kind}",
        params={"n": n, "p": p, "s": s, "t": t, "group": group.label, "level": level,
                "word_limit": word_limit, "t_values": list(t_values)},
        passed=ok, residual=errors[-1], threshold=tol, target=target,
        note="errors " + ", ".join(f"{e:.3e}" for e in errors)
             + ("" if decreasing else " (not strictly decreasing)"))


@_timed
def check_cancellation(thresholds: dict | None = None) -> VerificationReport:
    """Odd-weight series collapse to zero over every -I-containing variant,
    and do not collapse over principal[3]."""
    n, p, s, word_limit = 4, 1, 1, 6
    tol = _threshold(thresholds, "oddweight_collapse")
    x = Multivector.vector(([0.25, -0.1, 0.3] + [0.05] * n)[:n - 1] + [1.2])
    groups = [GroupDescriptor.full(n, p), GroupDescriptor.principal(n, p, 2),
              GroupDescriptor.theta(n, p), GroupDescriptor.upper0(n, p, 2),
              GroupDescriptor.lower0(n, p, 2)]
    worst = 0.0
    notes = []
    ok = True
    for g in groups:
        if not contains_neg_identity(g):
            ok = False
            notes.append(f"{g.label}: -I missing")
            continue
        res = odd_weight_eisenstein(x, SeriesSpec("oddweight", g, s=s, word_limit=word_limit))
        worst = max(worst, res.value.norm())
        notes.append(f"{g.label}: {res.value.norm():.1e}")
    ok &= worst < tol
    g3 = GroupDescriptor.principal(n, p, 3)
    res3 = odd_weight_eisenstein(x, SeriesSpec("oddweight", g3, s=s, word_limit=8))
    nonzero = res3.value.norm() > 1e-3
    ok &= nonzero and not contains_neg_identity(g3)
    notes.append(f"{g3.label}: {res3.value.norm():.2e} (expect nonzero)")
    return VerificationReport(
        check="oddweight_collapse", params={"n": n, "p": p, "s": s, "word_limit": word_limit},
        passed=bool(ok), residual=worst, threshold=tol, note="; ".join(notes))


@_timed
def check_automorphy(kind: str, n: int, p: int, s: int, t: int | None = None,
                     variant: str | None = None, level: int | None = None,
                     word_limits=(5, 8), seed: int = 0) -> VerificationReport:
    """Median modular-transformation residual shrinks as the word limit grows.

    Meaningful only where the truncated series is not identically zero;
    the odd-weight kind needs a group without -I (e.g. principal[3]).  A
    non-Eisenstein kind, fewer than two strictly increasing word limits (a
    single median decreases trivially) or a smallest truncation without a
    c != 0 coset raises ValueError."""
    _require_eisenstein_kind(kind, "automorphy")
    if len(word_limits) < 2 or any(a >= b for a, b in zip(word_limits, word_limits[1:])):
        raise ValueError(f"the automorphy check needs at least two strictly increasing word limits, "
                         f"got {list(word_limits)}")
    rng = random.Random(seed)
    group = GroupDescriptor(n, p, variant, level)
    _require_c_nonzero_coset(group, word_limits[0])
    mats = sample_group_elements(rng, group, 10)
    pts = [sample_strip_point(rng, n, xn_range=(0.8, 1.8)) for _ in range(10)]
    pts2 = [sample_strip_point(rng, n, xn_range=(0.8, 1.8)) for _ in range(10)]
    mfs = [m.to_float() for m in mats]
    medians = []
    for L in word_limits:
        spec = SeriesSpec(kind, group, s=s, t=t, word_limit=L)
        ys = pts2 if spec.two_sided else [None] * len(pts)
        resids = [r.norm() for x, y in zip(pts, ys) for r in automorphy_residual(spec, mfs, x, y)]
        medians.append(statistics.median(resids))
    ok = all(medians[i + 1] < medians[i] for i in range(len(medians) - 1))
    return VerificationReport(
        check=f"automorphy_{kind}",
        params={"n": n, "p": p, "s": s, "t": t, "group": group.label,
                "word_limits": list(word_limits), "elements": len(mats),
                "points": len(pts), "seed": seed},
        passed=ok, residual=medians[-1],
        note="medians " + " -> ".join(f"{m:.3e}" for m in medians))


@_timed
def check_series_monogenicity(seed: int = 0, thresholds: dict | None = None) -> VerificationReport:
    """D^s annihilates the truncated scalar series, by nested central
    differences at interior points with stencil margin."""
    n, p, s, h, word_limit, points = 5, 1, 2, 1e-2, 8, 10
    rng = random.Random(seed)
    tol = _threshold(thresholds, "series_monogenicity")
    group = GroupDescriptor.full(n, p)
    spec = SeriesSpec("scalar", group, s=s, word_limit=word_limit)
    pts = [sample_strip_point(rng, n, xn_range=(1.1, 1.7), base_radius=0.5) for _ in range(points)]
    f = lambda y: scalar_eisenstein(y, spec).value
    resids = [dirac_power_fd(f, x, h, s, min_last_coord=0.0).norm() for x in pts]
    worst = max(resids)
    return VerificationReport(
        check="series_monogenicity",
        params={"n": n, "p": p, "s": s, "h": h, "word_limit": word_limit,
                "points": points, "seed": seed},
        passed=worst < tol, residual=worst, threshold=tol,
        note=f"median {statistics.median(resids):.3e}")


@_timed
def check_zeta_nonvanishing(radii=(6, 8), thresholds: dict | None = None) -> VerificationReport:
    """Some derivative kernel sums stay far above their own tail delta."""
    n, order = 4, 3
    if not radii[0] < radii[1]:
        raise ValueError(f"the zeta check needs two radii r0 < r1 to measure a tail, got {list(radii)}")
    factor = _threshold(thresholds, "zeta_tail_factor")
    ms = multi_indices(n, order)
    small = zeta_m_table(ms, n, radii[0])
    large = zeta_m_table(ms, n, radii[1])
    best_m, best_ratio, best_norm = None, 0.0, 0.0
    for m in ms:
        delta = (large[m] - small[m]).norm()
        norm = large[m].norm()
        ratio = norm / delta if delta > 0 else math.inf
        if ratio > best_ratio:
            best_m, best_ratio, best_norm = m, ratio, norm
    ok = best_ratio > factor and best_norm > 0
    return VerificationReport(
        check="zeta_nonvanishing", params={"n": n, "order": order, "radii": list(radii)},
        passed=ok, residual=best_norm, threshold=factor,
        note=f"best m={best_m} ratio={best_ratio:.1f}")


@_timed
def check_abscissa() -> VerificationReport:
    """Coset norm sums: increments decay above the abscissa p + 1 and
    fail to decay below it."""
    n, p, word_limit, alphas = 4, 1, 8, (3.5, 1.5)
    notes = []
    ok = True
    for alpha, rep in abscissa_diagnostic(GroupDescriptor.full(n, p), alphas, word_limit).items():
        should_decay = not rep["below_abscissa"]
        ok &= rep["tail_decreasing"] == should_decay
        notes.append(f"alpha={alpha}: tail_ratio={rep['tail_ratio']:.3f} "
                     f"{'decays' if rep['tail_decreasing'] else 'grows'}"
                     f" (expected {'decay' if should_decay else 'growth'})")
    return VerificationReport(
        check="convergence_abscissa", params={"n": n, "p": p, "word_limit": word_limit,
                                              "alphas": list(alphas)},
        passed=bool(ok), note="; ".join(notes))


# ---- orchestration -------------------------------------------------------------

CHECK_BUILDERS = {
    "clifford": lambda seed, thr: check_clifford_relations(seed=seed),
    "mobius": lambda seed, thr: check_mobius_homomorphism(seed=seed, pairs=50, points=5, thresholds=thr),
    "kernel": lambda seed, thr: check_kernel_multiplicativity(seed=seed, pairs=200, thresholds=thr),
    "monogenic": lambda seed, thr: check_kernel_monogenicity(seed=seed, thresholds=thr),
    "jets": lambda seed, thr: check_jet_vs_fd(seed=seed, points=10, thresholds=thr),
    "cosets": lambda seed, thr: check_coset_counts(),
    "limits": lambda seed, thr: check_limits("scalar", n=5, p=1, s=2, thresholds=thr),
    "collapse": lambda seed, thr: check_cancellation(thresholds=thr),
    "automorphy": lambda seed, thr: check_automorphy("scalar", n=5, p=1, s=2, seed=seed),
    "polymono": lambda seed, thr: check_series_monogenicity(seed=seed, thresholds=thr),
    "zeta": lambda seed, thr: check_zeta_nonvanishing(radii=(4, 6), thresholds=thr),
    "abscissa": lambda seed, thr: check_abscissa(),
}


def run_checks(names=None, seed: int = 0, thresholds: dict | None = None) -> list[VerificationReport]:
    """Run the named checks (all by default) and return their reports.
    Bad check names and threshold overrides (unknown, the wrong arity, not
    a number, non-finite or negative values, a pair with lo > hi) raise ValueError first."""
    names = list(CHECK_BUILDERS) if names is None else list(names)
    unknown = [k for k in names if k not in CHECK_BUILDERS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {sorted(CHECK_BUILDERS)}")
    for key, value in (thresholds or {}).items():
        if key not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown threshold {key!r}; names: {', '.join(sorted(DEFAULT_THRESHOLDS))}")
        pair = isinstance(DEFAULT_THRESHOLDS[key], tuple)
        values = value if pair and isinstance(value, tuple) else (value,)
        if len(values) != 1 + pair or not all(type(v) in (int, float) for v in values):
            raise ValueError(f"threshold {key!r} takes {'a pair (lo, hi)' if pair else 'a number'}, "
                             f"got {value!r}")
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError(f"threshold {key!r} must be finite and >= 0, got {value!r}")
        if pair and value[0] > value[1]:
            raise ValueError(f"threshold {key!r} takes a pair (lo, hi) with lo <= hi, got {value!r}")
    return [CHECK_BUILDERS[name](seed, thresholds) for name in names]
