"""Acceptance gate: one test per release criterion, each printing a verdict
line.  Parameters and tolerances are pinned; loosening them here is a release
decision, not a test fix.

Release decision on criterion 9b: it used to assert that the finite-difference
residual of the scalar series shrinks from L = 8 to L = 10.  Every summand is
annihilated exactly, so that residual is stencil error alone and grows with L;
the assertion could hold at no h and 9b never passed.  It now asserts that
the terms the deepening adds are annihilated too, through the h-halving ratio
of their residual, in the window criterion 3 uses.  Its inputs (n, p, s, h,
word limits, points, seed) are unchanged and no tolerance was widened."""

import random
import statistics

import pytest

from cliffmod.clifford import Multivector
from cliffmod.harness import (DEFAULT_THRESHOLDS, check_abscissa, check_automorphy,
                              check_cancellation, check_clifford_relations, check_coset_counts,
                              check_jet_vs_fd, check_kernel_monogenicity,
                              check_kernel_multiplicativity, check_limits,
                              check_mobius_homomorphism, check_series_monogenicity,
                              check_zeta_nonvanishing)
from cliffmod.congruence import GroupDescriptor
from cliffmod.kernels import dirac_power_fd
from cliffmod.series import SeriesSpec, scalar_eisenstein

from conftest import median_halving_ratio, record_criterion


def _verdict(number: str, passed: bool, text: str) -> str:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {text}"
    record_criterion(line)
    return line


def test_criterion_01_exact_clifford_relations():
    rep = check_clifford_relations(seed=1)
    assert rep.params == {"dims": [4, 8], "samples": 1000, "seed": 1}
    in_time = rep.seconds < 5.0
    line = _verdict("1", rep.passed and in_time,
                    f"generator relations for n=4,8 and 1000 random associativity/"
                    f"anti-automorphism identities exact, {rep.count} failures "
                    f"({rep.seconds:.2f}s < 5s)")
    assert rep.passed and in_time, line


def test_criterion_02_mobius_composition_and_half_space():
    rep = check_mobius_homomorphism(pairs=200, points=20, seed=2)
    assert rep.params == {"n": 4, "p": 1, "pairs": 200, "points": 20, "seed": 2}
    line = _verdict("2", rep.passed,
                    f"composition residual {rep.residual:.2e} < {rep.threshold:.0e} over "
                    f"200 word pairs x 20 strip points, images stay in the half-space")
    assert rep.passed, line


def test_criterion_03_kernel_multiplicativity_and_monogenicity():
    rep_mult = check_kernel_multiplicativity(pairs=500, seed=3)
    rep_mono = check_kernel_monogenicity(seed=3)
    assert rep_mult.params == {"pairs": 500, "dims": [4, 5], "weights": [1, 2], "seed": 3}
    assert rep_mono.params == {"n": 4, "s": 1, "h": 1e-4, "points": 10, "seed": 3}
    ok = rep_mult.passed and rep_mono.passed
    line = _verdict("3", ok,
                    f"multiplicativity residual {rep_mult.residual:.2e} < "
                    f"{rep_mult.threshold:.0e} (500 pairs, s=1,2, n=4,5); "
                    f"monogenicity residual {rep_mono.residual:.2e} < "
                    f"{rep_mono.threshold:.0e} at h=1e-4; {rep_mono.note}")
    assert ok, line


def test_criterion_04_jet_derivatives_match_finite_differences():
    reps = [check_jet_vs_fd(points=25, s=s, seed=4) for s in (1, 2)]
    assert [r.params for r in reps] == [{"n": 4, "points": 25, "max_order": 3, "h": 1e-3, "s": s, "seed": 4}
                                        for s in (1, 2)]
    worst = max(r.residual for r in reps)
    ok = all(r.passed for r in reps)
    line = _verdict("4", ok,
                    f"jet kernels vs Richardson differences: worst relative "
                    f"deviation {worst:.2e} < 1e-5 over all |m| <= 3 at 50 points (n=4)")
    assert ok, line


def test_criterion_05_coset_counts_and_oracle_agreement():
    rep = check_coset_counts()
    assert rep.params == {"n": 4, "p": 1, "word_limit": 6}
    in_time = rep.seconds < 30.0
    line = _verdict("5", rep.passed and in_time,
                    f"L=6 translation-coset counts ({rep.note}) ({rep.seconds:.2f}s < 30s)")
    assert rep.passed and in_time, line


def test_criterion_06_large_height_limits():
    rep_s = check_limits("scalar", n=5, p=1, s=2, word_limit=8, t_values=(10, 30, 100))
    rep_o = check_limits("oddweight", n=4, p=1, s=1, level=3, word_limit=8,
                         t_values=(10, 30, 100))
    rep_b = check_limits("biregular", n=4, p=1, s=1, t=1, word_limit=8,
                         t_values=(10, 30, 100))
    targets_ok = (rep_s.target, rep_o.target, rep_b.target) == (4, 1, 4)
    ok = rep_s.passed and rep_o.passed and rep_b.passed and targets_ok
    line = _verdict("6", ok,
                    f"series at e_n*t for t=10,30,100 approach their c=0 counts "
                    f"(scalar->{rep_s.target}, odd->{rep_o.target}, "
                    f"biregular->{rep_b.target}) with strictly decreasing errors; "
                    f"final errors {rep_s.residual:.1e}, {rep_o.residual:.1e}, "
                    f"{rep_b.residual:.1e} < 0.05")
    assert ok, line


def test_criterion_07_odd_weight_cancellation():
    rep = check_cancellation()
    assert rep.params == {"n": 4, "p": 1, "s": 1, "word_limit": 6}
    line = _verdict("7", rep.passed,
                    f"symmetrized odd-weight sums vanish to {rep.residual:.1e} < "
                    f"{rep.threshold:.0e} on all five sign-symmetric variants "
                    f"and stay nonzero without -I ({rep.note.split(';')[-1].strip()})")
    assert rep.passed, line


def test_criterion_08_automorphy_residual_decreases():
    rep_s = check_automorphy("scalar", n=5, p=1, s=2, word_limits=(5, 8), seed=0)
    rep_b = check_automorphy("biregular", n=4, p=1, s=1, t=1, word_limits=(5, 8), seed=0)
    ok = rep_s.passed and rep_b.passed
    line = _verdict("8", ok,
                    f"median transformation residual shrinks from L=5 to L=8: "
                    f"scalar {rep_s.note.removeprefix('medians ')}, "
                    f"biregular {rep_b.note.removeprefix('medians ')} "
                    f"(10 elements x 10 points)")
    assert ok, line


def test_criterion_09a_series_annihilated_at_interior_points():
    rep = check_series_monogenicity(seed=0)
    assert rep.params == {"n": 5, "p": 1, "s": 2, "h": 1e-2, "word_limit": 8, "points": 10, "seed": 0}
    line = _verdict("9a", rep.passed,
                    f"iterated-operator residual of the truncated scalar series "
                    f"{rep.residual:.2e} < {rep.threshold:.0e} at 10 interior points "
                    f"(n=5, s=2, h=1e-2, L=8)")
    assert rep.passed, line


def test_criterion_09b_deepening_the_sum_does_not_shrink_the_residual():
    """Deepening the coset sum from L = 8 to L = 10 keeps it annihilated.

    Every summand ||c x + d||^{s-n} of the n = 5, s = 2 scalar series
    equals |c|^{-3} |x + c^{-1} d|^{-3} (or a constant when c = 0), and
    r^a with a = -3 in five variables satisfies a (a + n - 2) = 0: each
    term, hence every truncation, is annihilated exactly by the iterated
    operator.  The finite-difference residual is therefore pure h^2
    stencil error of the terms present, and adding coset terms adds to it;
    "the residual shrinks with L" can hold at no h.

    What is asserted instead is the h^2 error model itself, by halving h.
    The stencil is linear, so D_h S_10 - D_h S_8 is the residual of the
    terms the deepening adds.  Its median h-halving ratio, and that of the
    L = 10 sum, must lie in the kernel_monogenicity_ratio window that
    criterion 3 uses for the same error model.  A term that the operator
    did not annihilate leaves an h-independent residual and pulls the ratio
    towards 1: the check fails once that residual exceeds about 1/8 of the
    increment's stencil error.
    """
    lo, hi = DEFAULT_THRESHOLDS["kernel_monogenicity_ratio"]
    rng = random.Random(0)
    n, s, h = 5, 2, 1e-2
    group = GroupDescriptor.full(n, 1)
    pts = [Multivector.vector([rng.uniform(-0.5, 0.5) for _ in range(n - 1)]
                              + [rng.uniform(1.1, 1.7)]) for _ in range(10)]
    stencil = {}
    for word_limit in (8, 10):
        spec = SeriesSpec("scalar", group, s=s, word_limit=word_limit)
        f = lambda y: scalar_eisenstein(y, spec).value
        for step in (h, h / 2):
            stencil[word_limit, step] = [dirac_power_fd(f, x, step, s, min_last_coord=0.0)
                                         for x in pts]
    increment = {step: [(d10 - d8).norm() for d8, d10 in
                        zip(stencil[8, step], stencil[10, step])] for step in (h, h / 2)}
    deepened = {step: [d.norm() for d in stencil[10, step]] for step in (h, h / 2)}
    ratios = [median_halving_ratio(r[h], r[h / 2]) for r in (increment, deepened)]
    ok = all(lo <= ratio <= hi for ratio in ratios)
    line = _verdict("9b", ok,
                    f"median residual at h=1e-2: L=8->10 increment "
                    f"{statistics.median(increment[h]):.3e}, L=10 sum "
                    f"{statistics.median(deepened[h]):.3e}; h-halving ratios "
                    f"{ratios[0]:.3f}, {ratios[1]:.3f} (expect within [{lo}, {hi}] "
                    f"for pure h^2 stencil error; n=5, s=2, 10 points)")
    assert ok, line


def test_criterion_10_lattice_kernel_sums_do_not_vanish():
    rep = check_zeta_nonvanishing(radii=(6, 8))
    assert rep.params == {"n": 4, "order": 3, "radii": [6, 8]}
    line = _verdict("10", rep.passed,
                    f"some |m|=3 lattice kernel sum at R=8 has norm {rep.residual:.1f}, "
                    f"more than {rep.threshold:.0f}x its R=6->8 tail delta ({rep.note})")
    assert rep.passed, line


def test_criterion_11_convergence_abscissa():
    rep = check_abscissa()
    assert rep.params == {"n": 4, "p": 1, "word_limit": 8, "alphas": [3.5, 1.5]}
    line = _verdict("11", rep.passed,
                    f"coset-sum increments decay for alpha=3.5 > p+1 and grow for "
                    f"alpha=1.5 < p+1 ({rep.note})")
    assert rep.passed, line
