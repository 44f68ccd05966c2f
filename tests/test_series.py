"""Series layer: spec validation, lattice sums against finite-difference
oracles, coset sums against explicit loops, signed cancellation, and the
convergence diagnostics."""

import dataclasses
import itertools
import math
import random

import pytest

from cliffmod.clifford import Multivector
from cliffmod.congruence import GroupDescriptor, contains_neg_identity, enumerate_cosets, gamma_generators
from cliffmod.harness import DEFAULT_THRESHOLDS
from cliffmod.jets import multi_indices
from cliffmod.kernels import KernelJet, dirac_power_fd, fd_partial, q0, q0_general, left_factor
from cliffmod.series import (MAX_BOX_POINTS, SeriesResult, SeriesSpec, _box_points, _closed_term, _coset_row,
                             _coset_table, _factors, _sandwich, _vector_f_tilde, abscissa_diagnostic,
                             automorphy_residual, biregular_eisenstein, coset_counts, coset_norm_sums,
                             epsilon_m, evaluate, lattice_G_m, odd_weight_eisenstein, poincare_general,
                             scalar_eisenstein, series_cosets, tail_report, translation_invariance_residual,
                             vector_eisenstein, zeta_m, zeta_m_table)
from cliffmod.vahlen import VahlenMatrix, mobius_apply

from conftest import median_halving_ratio

FULL41 = GroupDescriptor.full(4, 1)
FULL51 = GroupDescriptor.full(5, 1)


# ---- spec validation ---------------------------------------------------------


def test_spec_accepts_valid_combinations():
    SeriesSpec("scalar", FULL51, 2)
    SeriesSpec("oddweight", FULL41, 1)
    SeriesSpec("vector", FULL41, 1, m=(0, 0, 0, 3))
    SeriesSpec("poincare", FULL41, 1)
    SeriesSpec("biregular", FULL41, 1, t=1)


def test_spec_rejections():
    with pytest.raises(ValueError):
        SeriesSpec("fourier", FULL41, 1)
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL51, 0)
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL51, 5)
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL41, 2)  # p = 1 not < n-1-s = 1
    with pytest.raises(ValueError):
        SeriesSpec("oddweight", FULL51, 2)  # even weight
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL51, 3)  # odd weight
    with pytest.raises(ValueError):
        SeriesSpec("vector", FULL41, 1)  # missing m
    with pytest.raises(ValueError):
        SeriesSpec("vector", FULL41, 1, m=(0, 0, 0, 2))  # even |m|
    with pytest.raises(ValueError):
        SeriesSpec("vector", FULL41, 1, m=(0, 0, 1))  # wrong length
    with pytest.raises(ValueError, match="budget"):
        SeriesSpec("vector", FULL41, 1, m=(99, 0, 0, 0))  # jet of order 99 in 4 variables
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL51, 2, m=(0, 0, 0, 0, 3))
    with pytest.raises(ValueError):
        SeriesSpec("biregular", FULL41, 1)  # missing t
    with pytest.raises(ValueError):
        SeriesSpec("biregular", FULL41, 1, t=2)  # even t
    with pytest.raises(ValueError):
        SeriesSpec("biregular", FULL41, 3, t=3)  # bound min(n, 2n-2-s-t) = 0
    with pytest.raises(ValueError):
        SeriesSpec("poincare", FULL41, 1, t=1)
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL51, 2, word_limit=-1)
    with pytest.raises(ValueError):
        SeriesSpec("scalar", FULL51, 2, box_radius=0)


def test_partial_at_lookup():
    res = SeriesResult(Multivector.scalar(4, 1.0), [(0, Multivector.zero(4))])
    assert res.partial_at(0).is_zero()
    with pytest.raises(KeyError):
        res.partial_at(3)


# ---- lattice sums ------------------------------------------------------------


def test_zeta_matches_fd_oracle():
    n, m = 4, (0, 0, 0, 3)
    got = zeta_m(m, n, 1)
    total = Multivector.zero(n)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for c in (-1, 0, 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                w = Multivector.vector([float(a), float(b), float(c), 0.0])
                total = total + fd_partial(lambda y: q0(y, 1), w, m, 1e-3, richardson=True)
    assert (got - total).norm() < 1e-5 * max(1.0, got.norm())


def test_zeta_table_consistent():
    ms = [(0, 0, 0, 3), (1, 2, 0, 0), (0, 0, 3, 0)]
    table = zeta_m_table(ms, 4, 2)
    for m in ms:
        assert (table[m] - zeta_m(m, 4, 2)).norm() < 1e-13
    with pytest.raises(ValueError):
        zeta_m_table(ms, 4, 0)


def test_zeta_parity_vanishing():
    # each component of d^m q0 is odd in some coordinate for this m, so
    # the per-axis symmetric box cancels to roundoff
    assert zeta_m((1, 1, 1, 0), 4, 2).norm() < 1e-12


def test_epsilon_pole_and_shift():
    z = Multivector.vector([0.5, 0.25, 0.0, 0.0])
    val = epsilon_m(z, (0, 0, 0, 3), box_radius=2)
    assert val.norm() > 0
    with pytest.raises(ValueError):
        epsilon_m(Multivector.vector([1.0, 0.0, 0.0, 0.0]), (0, 0, 0, 3), box_radius=2)
    with pytest.raises(ValueError):
        epsilon_m(Multivector.scalar(4, 0.5), (0, 0, 0, 3))


def test_lattice_G_m_splits_off_zeta():
    # the alpha = 0 slice of G_m is exactly zeta_m; the rest decays as the
    # base point moves up the axis
    m = (0, 0, 0, 3)
    zeta = zeta_m(m, 4, 2)
    diffs = []
    for t in (2.0, 4.0, 8.0):
        x = Multivector.vector([0.0, 0.0, 0.0, t])
        diffs.append((lattice_G_m(x, m, box_radius=2) - zeta).norm())
    assert diffs[0] > diffs[1] > diffs[2]
    with pytest.raises(ValueError):
        lattice_G_m(Multivector.vector([0.0, 0.0, 0.0, -1.0]), m)
    with pytest.raises(ValueError):
        lattice_G_m(Multivector.vector([0.0, 0.0, 0.0, 1.0]), (1, 0, 0, 0))


def _explicit_G_m():
    x = Multivector.vector([0.3, -0.7, 0.2, 1.4])
    m = (1, 0, 2, 0)
    total = Multivector.zero(4)
    for alpha in (-1, 0, 1):
        for omega in itertools.product((-1, 0, 1), repeat=3):
            if alpha or any(omega):
                arg = x * float(alpha) + Multivector.vector([float(k) for k in omega] + [0.0])
                total = total + KernelJet(arg, 1, 3).q_m(m)
    return lattice_G_m(x, m, box_radius=1), total


def _explicit_zeta_m():
    m = (0, 0, 0, 3)
    total = Multivector.zero(4)
    for omega in itertools.product(range(-2, 3), repeat=3):
        if any(omega):
            total = total + KernelJet(Multivector.vector([float(k) for k in omega] + [0.0]), 1, 3).q_m(m)
    return zeta_m_table([m], 4, 2)[m], total


def test_lattice_G_m_is_the_explicit_box_sum():
    # pins the point set: alpha x + omega (for zeta_m, omega) over the whole
    # box, the zero point excluded, though the library sums one point per pair
    for value, total in (_explicit_G_m(), _explicit_zeta_m()):
        assert (value - total).norm() <= 1e-14 * total.norm()


@pytest.mark.parametrize("dim, radius", [(d, r) for d in range(1, 6) for r in range(1, 4)])
def test_half_box_holds_one_point_of_each_pair(dim, radius):
    half = list(_box_points(dim, radius, pairs=True))
    negatives = [tuple(-k for k in pt) for pt in half]
    box = set(itertools.product(range(-radius, radius + 1), repeat=dim)) - {(0,) * dim}
    assert len(half) + len(negatives) == len(box)
    assert set(half) | set(negatives) == box
    assert all(next(k for k in pt if k) > 0 for pt in half)


_M3 = (0, 0, 0, 3)


@pytest.mark.parametrize("call", [
    lambda: lattice_G_m(Multivector.vector([math.inf, 0.0, 0.0, 1.0]), _M3, 1),
    lambda: lattice_G_m(Multivector.vector([0.0, math.nan, 0.0, 1.0]), _M3, 1),
    lambda: lattice_G_m(Multivector.vector([0.0, 0.0, 0.0, math.inf]), _M3, 1),
    lambda: epsilon_m(Multivector.vector([math.inf, 0.0, 0.0, 0.0]), _M3, box_radius=1),
    lambda: epsilon_m(Multivector.vector([0.5, math.nan, 0.0, 0.0]), _M3, box_radius=1),
    lambda: lattice_G_m(Multivector.vector([0.0, 0.0, 0.0, 1.0]), _M3, box_radius=0),
    lambda: epsilon_m(Multivector.vector([0.5, 0.25, 0.0, 0.0]), _M3, box_radius=0),
], ids=["G-inf", "G-nan", "G-inf-height", "eps-inf", "eps-nan", "G-radius-0", "eps-radius-0"])
def test_lattice_sums_refuse_non_finite_points_and_empty_boxes(call):
    with pytest.raises(ValueError):
        call()


# ---- coset exhaustion --------------------------------------------------------


def test_series_cosets_sign_closure():
    for group in (FULL41, GroupDescriptor.theta(4, 1), GroupDescriptor.principal(4, 1, 2)):
        reps = series_cosets(group, 5)
        keys = {r.key for r in reps}
        for key in keys:
            negated = tuple(tuple((mask, -num, den) for mask, num, den in part) for part in key)
            assert negated in keys


def test_series_cosets_without_neg_identity_is_plain_enumeration():
    g = GroupDescriptor.principal(4, 1, 3)
    assert not contains_neg_identity(g)
    assert series_cosets(g, 6) == enumerate_cosets(g, 6)


# ---- coset tables --------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    SeriesSpec("scalar", FULL51, 2, word_limit=10),
    SeriesSpec("scalar", GroupDescriptor.theta(5, 1), 2, word_limit=10),
    SeriesSpec("biregular", FULL41, 1, t=1, word_limit=8),
    SeriesSpec("oddweight", GroupDescriptor.principal(4, 1, 3), 1, word_limit=8),
], ids=lambda spec: f"{spec.kind}-{spec.group.variant}-L{spec.word_limit}")
def test_closed_form_summand_equals_factor_sandwich(spec):
    """Every c != 0 row: |c| |x + v| closed form against L R from `_factors`."""
    rng = random.Random(3)
    n = spec.group.n
    rows = [row for row in _coset_table(spec.group, spec.word_limit).rows if row.shift is not None]
    assert rows
    for _ in range(3):
        xf, yf = (Multivector.vector([rng.uniform(-1.0, 1.0) for _ in range(n - 1)]
                                     + [rng.uniform(0.5, 2.0)]) for _ in range(2))
        if not spec.two_sided:
            yf = None
        for row in rows:
            got = _closed_term(spec, row, xf.vector_components(),
                               None if yf is None else yf.vector_components())
            left, right = _factors(spec, row.rep.matrix.to_float(), xf, yf)
            want = _sandwich(left, None, right)
            assert (got - want).norm() <= 1e-14 * want.norm()


def test_coset_table_equals_fresh_enumeration():
    for group, word_limit in ((FULL51, 10), (GroupDescriptor.theta(5, 1), 10),
                              (GroupDescriptor.principal(4, 1, 3), 8), (FULL41, 0)):
        table = _coset_table(group, word_limit)
        fresh = sorted(series_cosets(group, word_limit), key=lambda rep: rep.word_length)
        assert [row.rep for row in table.rows] == fresh
        assert table.level_ends == tuple(sum(rep.word_length <= k for rep in fresh)
                                         for k in range(word_limit + 1))
        assert coset_counts(group, word_limit) == (len(fresh), sum(rep.is_c_zero() for rep in fresh))


def test_coset_table_is_shared_and_immutable():
    table = _coset_table(FULL41, 6)
    assert _coset_table(FULL41, 6) is table
    row = table.rows[-1]
    with pytest.raises(TypeError):
        table.rows[0] = row
    with pytest.raises(AttributeError):
        table.rows.append(row)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.c0 = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.shift = (0.0,) * 4
    assert isinstance(row.shift, tuple) and isinstance(table.level_ends, tuple)


def test_coset_row_refuses_a_bottom_row_that_is_not_vahlen():
    """Negative control for the exact checks the closed forms rest on."""
    row = next(row for row in _coset_table(FULL41, 4).rows if row.shift is not None)
    assert _coset_row(row.rep) == row
    m = row.rep.matrix
    # d + c e12 makes c^{-1} d = v + e12, which is not a vector
    doctored = VahlenMatrix(m.a, m.b, m.c, m.d + m.c * Multivector.blade(4, (1, 2)))
    with pytest.raises(ValueError, match="not a Vahlen bottom row"):
        _coset_row(dataclasses.replace(row.rep, matrix=doctored))
    # c = 1 + e1 + e23 has conj(c) c = 3 - 2 e123, not |c|^2 = 3
    c = Multivector.from_string(4, "1 + e1 + e23")
    doctored = VahlenMatrix(m.a, m.b, c, m.d)
    with pytest.raises(ValueError, match="conj"):
        _coset_row(dataclasses.replace(row.rep, matrix=doctored))


def test_lattice_boxes_over_budget_are_refused():
    assert 9 ** 4 <= MAX_BOX_POINTS < 17 ** 4
    x = Multivector.vector([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="budget"):
        lattice_G_m(x, (0, 0, 0, 3), box_radius=8)
    with pytest.raises(ValueError, match="budget"):
        zeta_m((0, 0, 0, 3), 4, 10 ** 6)
    with pytest.raises(ValueError, match="budget"):
        SeriesSpec("vector", FULL41, 1, m=(0, 0, 0, 3), box_radius=8)


# ---- coset series ------------------------------------------------------------


def scalar_point():
    return Multivector.vector([0.3, 0.1, -0.2, 0.4, 1.2])


def test_scalar_series_equals_explicit_loop():
    spec = SeriesSpec("scalar", FULL51, 2, word_limit=4)
    x = scalar_point()
    res = scalar_eisenstein(x, spec)
    total = 0.0
    for rep in series_cosets(FULL51, 4):
        mf = rep.matrix.to_float()
        total += (mf.c * x + mf.d).norm() ** float(spec.s - spec.group.n)
    assert res.value.scalar_part() == pytest.approx(total, rel=1e-12)
    assert res.value.is_scalar()
    assert res.partial_at(spec.word_limit).scalar_part() == pytest.approx(res.value.scalar_part())
    # positive terms: partial sums are nondecreasing
    vals = [v.scalar_part() for _, v in res.partial_sums]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert res.coset_count_c0 == 2  # (0, 1) and (0, -1); the rest need longer words
    assert res.n_terms == len(series_cosets(FULL51, 4))


def test_halving_ratio_flags_an_operator_that_does_not_annihilate():
    """Negative control for criterion 9b: D^1 of the s = 2 scalar series is
    not zero, so its stencil value barely moves when h is halved and the
    median ratio falls outside the window that 9b asserts for D^2."""
    lo, hi = DEFAULT_THRESHOLDS["kernel_monogenicity_ratio"]
    rng = random.Random(0)
    spec = SeriesSpec("scalar", FULL51, 2, word_limit=8)
    f = lambda y: scalar_eisenstein(y, spec).value
    h = 1e-2
    pts = [Multivector.vector([rng.uniform(-0.5, 0.5) for _ in range(4)]
                              + [rng.uniform(1.1, 1.7)]) for _ in range(3)]
    coarse, fine = ([dirac_power_fd(f, x, step, 1, min_last_coord=0.0).norm() for x in pts]
                    for step in (h, h / 2))
    ratio = median_halving_ratio(coarse, fine)
    assert not lo <= ratio <= hi
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_every_scalar_summand_is_annihilated_by_the_laplacian():
    """Per term and without stencil error, what criterion 9b sees through
    its h-halving ratio: at every c != 0 row of the n = 5, s = 2, L = 10
    table the summand is |c|^{s-n} q0(x + v), and the trace of the order-2
    kernel jet of q0 there (the Laplacian, -D^2) vanishes to roundoff of
    the second derivatives it cancels."""
    spec = SeriesSpec("scalar", FULL51, 2, word_limit=10)
    n, s = spec.group.n, spec.s
    rows = [row for row in _coset_table(spec.group, spec.word_limit).rows if row.shift is not None]
    assert len(rows) > 300
    squares = [m for m in multi_indices(n, 2) if 2 in m]
    rng = random.Random(9)
    for _ in range(3):
        x = [rng.uniform(-0.5, 0.5) for _ in range(n - 1)] + [rng.uniform(0.5, 1.5)]
        for row in rows:
            jet = KernelJet(Multivector.vector([a + b for a, b in zip(x, row.shift)]), s, 2)
            term = _closed_term(spec, row, x, None).scalar_part()
            value = jet.q_m((0,) * n).scalar_part() * row.c_norm ** (s - n)
            assert value == pytest.approx(term, rel=1e-14)
            second = [jet.q_m(m).scalar_part() for m in squares]
            assert abs(sum(second)) <= 1e-12 * sum(map(abs, second))


def test_scalar_series_requires_even_weight_and_half_space():
    spec = SeriesSpec("scalar", FULL51, 2, word_limit=2)
    with pytest.raises(ValueError):
        scalar_eisenstein(Multivector.vector([0.0, 0.0, 0.0, 0.0, -1.0]), spec)
    with pytest.raises(ValueError):
        scalar_eisenstein(Multivector.scalar(5, 1.0), spec)
    odd_spec = SeriesSpec("oddweight", FULL51, 1, word_limit=2)
    with pytest.raises(ValueError):
        scalar_eisenstein(scalar_point(), odd_spec)
    with pytest.raises(ValueError):
        odd_weight_eisenstein(scalar_point(), spec)


def test_odd_weight_collapse():
    x = scalar_point()
    spec = SeriesSpec("oddweight", FULL51, 1, word_limit=4)
    assert odd_weight_eisenstein(x, spec).value.norm() < 1e-12
    # without -I the series survives
    g3 = GroupDescriptor.principal(5, 1, 3)
    spec3 = SeriesSpec("oddweight", g3, 1, word_limit=4)
    assert odd_weight_eisenstein(x, spec3).value.norm() > 0.1


def test_vector_series_is_a_poincare_series():
    m = (0, 0, 0, 3)
    vspec = SeriesSpec("vector", FULL41, 1, m=m, word_limit=2, box_radius=1)
    pspec = SeriesSpec("poincare", FULL41, 1, word_limit=2)
    x = Multivector.vector([0.2, -0.1, 0.3, 1.1])
    direct = vector_eisenstein(x, vspec)
    via_poincare = poincare_general(_vector_f_tilde(m, 1), pspec)(x)
    assert (direct.value - via_poincare.value).norm() < 1e-14 * max(1.0, direct.value.norm())
    assert direct.n_terms == via_poincare.n_terms


def test_vector_f_tilde_is_lattice_periodic():
    m = (3, 0, 0, 0)
    f_tilde = _vector_f_tilde(m, 1)
    raw = lambda u: lattice_G_m(u + Multivector.basis(4, 4), m, box_radius=1)
    group = GroupDescriptor.full(4, 3)  # translations along e1, e2 and e3
    pts = [Multivector.vector([0.1, 0.2, -0.1, 1.1]), Multivector.vector([0.45, -0.3, 0.05, 0.7])]
    size = max(f_tilde(x).norm() for x in pts)
    assert translation_invariance_residual(f_tilde, group, pts) <= 1e-12 * size
    # the raw box sum is not periodic at finite R
    assert translation_invariance_residual(raw, group, pts) > 1e-2 * size


def test_vector_series_collapses_over_groups_with_neg_identity():
    # the cosets pair as M and T_b(-M); with a periodic f~ the two terms
    # cancel, so the truncated series is zero
    x = Multivector.vector([0.1, 0.2, -0.1, 1.1])
    for group, word_limit in ((FULL41, 4), (GroupDescriptor.theta(4, 1), 6),
                              (GroupDescriptor.principal(4, 1, 2), 6)):
        spec = SeriesSpec("vector", group, 1, m=(3, 0, 0, 0), word_limit=word_limit, box_radius=1)
        assert evaluate(spec, x).value.norm() <= 1e-12
    # without -I nothing pairs off
    g3 = SeriesSpec("vector", GroupDescriptor.principal(4, 1, 3), 1, m=(3, 0, 0, 0), word_limit=2,
                    box_radius=1)
    assert evaluate(g3, x).value.norm() > 1.0


def test_vector_series_weight_parity():
    with pytest.raises(ValueError):
        # spec construction rejects the even weight
        vector_eisenstein(Multivector.vector([0.0, 0.0, 0.0, 0.0, 1.0]),
                          SeriesSpec("vector", FULL51, 2, m=(0, 0, 0, 0, 3), word_limit=2))


def test_biregular_series_equals_explicit_loop():
    spec = SeriesSpec("biregular", FULL41, 1, t=1, word_limit=3)
    x = Multivector.vector([0.25, -0.4, 0.1, 1.3])
    y = Multivector.vector([-0.3, 0.2, 0.0, 0.9])
    res = biregular_eisenstein(x, y, spec)
    total = Multivector.zero(4)
    for rep in series_cosets(FULL41, 3):
        mf = rep.matrix.to_float()
        left = left_factor(mf.c * x + mf.d, 1)
        right = q0_general(y * mf.c.reverse() + mf.d.reverse(), 1)
        total = total + left * right
    assert (res.value - total).norm() < 1e-12 * max(1.0, total.norm())
    with pytest.raises(ValueError):
        biregular_eisenstein(x, Multivector.vector([0.0, 0.0, 0.0, -0.5]), spec)


def test_evaluate_is_every_named_series():
    x = Multivector.vector([0.25, -0.4, 0.1, 1.3])
    y = Multivector.vector([-0.3, 0.2, 0.0, 0.9])
    odd = SeriesSpec("oddweight", GroupDescriptor.principal(4, 1, 3), 1, word_limit=3)
    vec = SeriesSpec("vector", FULL41, 1, m=(0, 0, 0, 3), word_limit=2, box_radius=1)
    bi = SeriesSpec("biregular", FULL41, 1, t=1, word_limit=3)
    scalar = SeriesSpec("scalar", FULL51, 2, word_limit=3)
    x5 = scalar_point()
    assert evaluate(scalar, x5).value == scalar_eisenstein(x5, scalar).value
    assert evaluate(odd, x).value == odd_weight_eisenstein(x, odd).value
    assert evaluate(vec, x).value == vector_eisenstein(x, vec).value
    assert evaluate(bi, x, y).value == biregular_eisenstein(x, y, bi).value
    assert evaluate(bi, x).value == biregular_eisenstein(x, x, bi).value  # y defaults to x
    with pytest.raises(ValueError):
        evaluate(odd, x, y)  # one-sided series take no second point
    with pytest.raises(ValueError):
        evaluate(SeriesSpec("poincare", FULL41, 1), x)  # f~ must come from the caller
    with pytest.raises(ValueError):
        vector_eisenstein(x, odd)  # the named doors keep their kind


@pytest.mark.parametrize("spec", [SeriesSpec("scalar", FULL51, 2, word_limit=3),
                                  SeriesSpec("biregular", FULL41, 1, t=1, word_limit=3)])
def test_automorphy_residual_of_a_list_equals_one_element_calls(spec):
    n = spec.group.n
    gens = gamma_generators(n, 1)
    ms = [gens[0].to_float(), gens[-1].to_float()]  # T_{e_1} and J
    x = Multivector.vector([0.1] * (n - 1) + [1.2])
    y = Multivector.vector([-0.2] * (n - 1) + [0.9]) if spec.two_sided else None
    both = automorphy_residual(spec, ms, x, y)
    assert [r.coeffs for r in both] == [automorphy_residual(spec, [m], x, y)[0].coeffs for m in ms]
    assert both[1].norm() > 0  # J moves x: the truncation misses something


def test_translation_invariance_residual():
    f = lambda x: Multivector.scalar(4, 2.5)
    pts = [Multivector.vector([0.1, 0.2, 0.3, 1.0])]
    assert translation_invariance_residual(f, FULL41, pts) == 0.0
    g = lambda x: Multivector.scalar(4, float(x.component(1)))
    assert translation_invariance_residual(g, FULL41, pts) == pytest.approx(1.0)


# ---- diagnostics -------------------------------------------------------------


def test_coset_norm_sums_monotone():
    sums = coset_norm_sums(FULL41, 3.5, 6)
    assert [lvl for lvl, _ in sums] == list(range(7))
    vals = [v for _, v in sums]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    expect = sum(rep.height ** -3.5 for rep in series_cosets(FULL41, 6))
    assert vals[-1] == pytest.approx(expect, rel=1e-12)


def test_tail_report_shapes():
    spec = SeriesSpec("scalar", FULL51, 2, word_limit=6)
    res = scalar_eisenstein(scalar_point(), spec)
    rep = tail_report(res)
    assert rep["levels"] == list(range(7))
    assert len(rep["deltas"]) == 6
    assert rep["final_delta"] == rep["deltas"][-1]
    assert rep["tail_decreasing"] == (rep["tail_ratio"] < 1.0)
    with pytest.raises(ValueError):
        tail_report([(0, 1.0)])
    with pytest.raises(ValueError):
        tail_report(SeriesResult(Multivector.zero(4), [(0, Multivector.zero(4)), (1, Multivector.zero(4))]))


def test_abscissa_diagnostic_flags():
    diag = abscissa_diagnostic(FULL41, [1.5, 3.5], word_limit=6)
    assert diag[1.5]["below_abscissa"] is True
    assert diag[3.5]["below_abscissa"] is False
    assert diag[3.5]["tail_ratio"] < diag[1.5]["tail_ratio"]
