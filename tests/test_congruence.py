"""Congruence subgroups: order membership, certified group membership,
the residue rules against coefficientwise conditions, translation
lattices, coset keys against the same_coset oracle, and the breadth-first
enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffmod.clifford import Multivector
from cliffmod.congruence import (MAX_BALL_ESTIMATE, GroupDescriptor, _congruence_conditions,
                                 ball_size_estimate, bottom_row_key, contains_neg_identity,
                                 enumerate_cosets, gamma_ball, gamma_generators, in_order, is_member,
                                 is_translation, same_coset, translation_lattice)
from cliffmod.harness import random_word_matrix
from cliffmod.vahlen import VahlenMatrix, make_inversion, make_rotation, make_translation, mat_inv, mat_mul


def test_descriptor_validation():
    GroupDescriptor.full(4, 3)
    GroupDescriptor.principal(4, 1, 2)
    with pytest.raises(ValueError):
        GroupDescriptor.full(4, 4)  # p must be < n
    with pytest.raises(ValueError):
        GroupDescriptor(4, 1, "nonsense")
    with pytest.raises(ValueError):
        GroupDescriptor.principal(4, 1, 1)  # level >= 2
    with pytest.raises(ValueError):
        GroupDescriptor(4, 1, "theta", 2)  # theta takes no level
    with pytest.raises(ValueError):
        GroupDescriptor(4, 1, "full", 3)
    # without a variant, a level names the principal congruence subgroup and no level the full group
    assert GroupDescriptor(5, 1) == GroupDescriptor.full(5, 1)
    assert GroupDescriptor(5, 1, level=3) == GroupDescriptor.principal(5, 1, 3)


def test_in_order():
    p = 2
    assert in_order(Multivector.from_string(4, "1 + 2*e1 - e12"), p)
    assert not in_order(Multivector.basis(4, 3), p)  # outside the e_1..e_p span
    assert not in_order(Multivector.scalar(4, Fraction(1, 2)), p)
    assert in_order(Multivector.scalar(4, 6), p, level=3)
    assert not in_order(Multivector.scalar(4, 4), p, level=3)
    assert in_order(Multivector.zero(4), p, level=5)
    with pytest.raises(TypeError):
        in_order(Multivector.scalar(4, 1.0), p)


def test_membership_requires_certificate():
    g = GroupDescriptor.full(4, 1)
    m = mat_mul(make_translation(Multivector.basis(4, 1)), make_inversion(4))
    assert is_member(m, g)
    with pytest.raises(ValueError):
        is_member(VahlenMatrix(*m.entries()), g)  # no word
    with pytest.raises(ValueError):
        is_member(make_rotation([Multivector.basis(4, 1)]), g)  # uncertified token
    with pytest.raises(ValueError):
        is_member(make_translation(Multivector.basis(4, 2)), g)  # offset outside e_1..e_p
    with pytest.raises(ValueError):
        is_member(m, GroupDescriptor.full(5, 1))  # dimension mismatch


def test_translations_by_two_digit_generators_certify():
    """The provenance word of T(e10) names e10 in a form that parses back,
    so ball members built from it certify and invert."""
    g = GroupDescriptor.full(11, 10)
    members = [m for m in gamma_ball(11, 10, 1) if m.word in (("T(e10)",), ("T(-e10)",))]
    assert len(members) == 2
    identity = VahlenMatrix.identity(11)
    for m in members:
        assert is_member(m, g)
        inv = mat_inv(m)
        assert is_member(inv, g)
        assert mat_mul(m, inv).entries_equal(identity)


def _reference_conditions(m: VahlenMatrix, group: GroupDescriptor) -> bool:
    """The congruence conditions coefficientwise, variant by variant: an
    independent statement of each rule, by `in_order` on whole entries."""
    p, variant, level = group.p, group.variant, group.level
    if variant == "full":
        return True
    if variant == "principal":
        one = Multivector.scalar(group.n, 1)
        return (in_order(m.a - one, p, level) and in_order(m.b, p, level)
                and in_order(m.c, p, level) and in_order(m.d - one, p, level))
    if variant == "upper0":
        return in_order(m.b, p, level)
    if variant == "lower0":
        return in_order(m.c, p, level)
    # theta: principal[2] or principal[2] * J
    pr2 = GroupDescriptor.principal(group.n, p, 2)
    return (_reference_conditions(m, pr2)
            or _reference_conditions(mat_mul(m, mat_inv(make_inversion(group.n))), pr2))


def _groups(n: int, p: int) -> list[GroupDescriptor]:
    """Every variant, at levels 2, 3 and 4 where it takes one."""
    return [GroupDescriptor.full(n, p), GroupDescriptor.theta(n, p)] + [
        GroupDescriptor(n, p, variant, level) for variant in ("principal", "upper0", "lower0")
        for level in (2, 3, 4)]


@pytest.mark.parametrize("n, p, max_len", [(4, 1, 8), (5, 2, 4)])
def test_residue_rules_match_coefficientwise_conditions_on_a_ball(n, p, max_len):
    ball = gamma_ball(n, p, max_len)
    for group in _groups(n, p):
        for m in ball:
            assert _congruence_conditions(m, group) == _reference_conditions(m, group), (group.label, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(4, 1), (5, 2), (6, 3)]), st.randoms(use_true_random=False))
def test_residue_rules_match_coefficientwise_conditions_on_random_words(n_p, rng):
    m = random_word_matrix(rng, *n_p, max_len=14)
    for group in _groups(*n_p):
        assert is_member(m, group) == _reference_conditions(m, group), group.label


def test_membership_of_float_entries_is_refused_except_in_the_full_group():
    """A certified word with float entries: full needs no residue and keeps
    it; every other variant refuses to reduce floats."""
    n, p = 4, 1
    m = mat_mul(make_translation(Multivector.basis(n, 1)), make_inversion(n)).to_float()
    for group in _groups(n, p):
        if group.variant == "full":
            assert is_member(m, group)
        else:
            with pytest.raises(TypeError):
                is_member(m, group)


def test_congruence_conditions_on_generators():
    n, p = 4, 1
    t = make_translation(Multivector.basis(n, 1))
    t2 = mat_mul(t, t)
    t3 = mat_mul(t2, t)
    j = make_inversion(n)
    assert is_member(t, GroupDescriptor.full(n, p))
    assert not is_member(t, GroupDescriptor.principal(n, p, 2))
    assert is_member(t2, GroupDescriptor.principal(n, p, 2))
    assert is_member(t3, GroupDescriptor.principal(n, p, 3))
    assert not is_member(t3, GroupDescriptor.principal(n, p, 2))
    assert is_member(t2, GroupDescriptor.upper0(n, p, 2))
    assert is_member(t, GroupDescriptor.lower0(n, p, 2))  # c = 0 always qualifies
    assert not is_member(j, GroupDescriptor.upper0(n, p, 2))  # b = -1 odd


def test_j_memberships():
    n, p = 4, 1
    j = make_inversion(n)
    assert is_member(j, GroupDescriptor.full(n, p))
    assert not is_member(j, GroupDescriptor.principal(n, p, 2))
    assert is_member(j, GroupDescriptor.theta(n, p))  # J = I * J with I in principal[2]
    assert not is_member(j, GroupDescriptor.lower0(n, p, 2))


def test_neg_identity_membership_is_computed():
    n, p = 4, 1
    expectations = {
        ("full", None): True,
        ("principal", 2): True,
        ("principal", 3): False,
        ("principal", 4): False,
        ("upper0", 2): True,
        ("lower0", 2): True,
        ("theta", None): True,
    }
    for (variant, level), expect in expectations.items():
        g = GroupDescriptor(n, p, variant, level)
        assert contains_neg_identity(g) == expect, g.label


def test_translation_lattices():
    n, p = 4, 1
    cases = {
        GroupDescriptor.full(n, p): 1,
        GroupDescriptor.principal(n, p, 3): 3,
        GroupDescriptor.upper0(n, p, 4): 4,
        GroupDescriptor.lower0(n, p, 5): 1,
        GroupDescriptor.theta(n, p): 2,
    }
    for g, scale in cases.items():
        lat = translation_lattice(g)
        assert lat.scale == scale, g.label
        b = Multivector.basis(n, 1) * scale
        assert lat.contains(b)
        if scale > 1:
            assert not lat.contains(Multivector.basis(n, 1))
        # the lattice statement is an actual membership statement
        assert is_member(make_translation(b), g), g.label


def test_theta_lattice_has_no_odd_translations():
    # no theta element is an odd translation: scan the whole ball
    g = GroupDescriptor.theta(4, 1)
    for m in gamma_ball(4, 1, 6):
        if is_translation(m) and is_member(m, g):
            assert translation_lattice(g).contains(m.b)


def test_ball_growth_and_determinism():
    b4 = gamma_ball(4, 1, 4)
    b6 = gamma_ball(4, 1, 6)
    assert len(b4) < len(b6)
    keys4 = {bottom_row_key(m) + bottom_row_key(mat_mul(m, VahlenMatrix.identity(4))) for m in b4}
    assert len(b4) >= len(keys4) // 2  # sanity only: dedup happened
    assert [m.word for m in gamma_ball(4, 1, 4)] == [m.word for m in b4]
    for m in b4:
        assert len(m.word) <= 4
        assert is_member(m, GroupDescriptor.full(4, 1))


def test_ball_is_a_prefix_of_every_larger_ball():
    big = gamma_ball(5, 1, 10)
    sizes = {L: len(gamma_ball(5, 1, L)) for L in (6, 8, 10)}
    assert sizes == {6: 220, 8: 678, 10: 1930}
    for L in (0, 6, 8):
        small = gamma_ball(5, 1, L)
        assert [m.word for m in small] == [m.word for m in big[:len(small)]]
        assert all(a.entries_equal(b) for a, b in zip(small, big))
    assert len(enumerate_cosets(GroupDescriptor.theta(5, 1), 10)) == 144


def test_ball_budget_is_checked_before_any_work():
    assert ball_size_estimate(1, 10) == 3070 and ball_size_estimate(2, 5) == 1706
    assert max(ball_size_estimate(1, 10), ball_size_estimate(2, 5)) <= MAX_BALL_ESTIMATE
    assert ball_size_estimate(1, 11) > MAX_BALL_ESTIMATE and ball_size_estimate(2, 6) > MAX_BALL_ESTIMATE
    assert len(gamma_ball(4, 1, 10)) <= ball_size_estimate(1, 10)
    assert len(gamma_ball(4, 2, 4)) <= ball_size_estimate(2, 4)
    for n, p, L in ((5, 1, 11), (5, 2, 6), (5, 1, 30), (12, 11, 10 ** 6)):
        with pytest.raises(ValueError, match="budget"):
            gamma_ball(n, p, L)
    with pytest.raises(ValueError, match="budget"):
        enumerate_cosets(GroupDescriptor.full(5, 1), 30)


def test_coset_counts_and_structure():
    g = GroupDescriptor.full(4, 1)
    reps = enumerate_cosets(g, 6)
    c0 = [r for r in reps if r.is_c_zero()]
    assert len(c0) == 4
    # the four c=0 bottom rows are (0, +-1), (0, +-e1)
    d_strings = sorted(r.matrix.d.to_string() for r in c0)
    assert d_strings == ["-1", "-e1", "1", "e1"]
    assert all(r.word_length <= 6 for r in reps)
    keys = [r.key for r in reps]
    assert len(set(keys)) == len(keys)
    heights = [r.height for r in reps]
    assert heights == sorted(heights)


def test_coset_keys_match_oracle():
    g = GroupDescriptor.full(4, 1)
    reps = enumerate_cosets(g, 4)
    mats = [r.matrix for r in reps]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert not same_coset(mats[i], mats[j], g)  # distinct keys, distinct cosets
    t = make_translation(Multivector.basis(4, 1))
    for r in reps[:8]:
        shifted = mat_mul(t, r.matrix)
        assert bottom_row_key(shifted) == r.key
        assert same_coset(shifted, r.matrix, g)


def test_same_coset_respects_lattice_scale():
    # two principal[2] members differing by an odd translation are in
    # different cosets even though T_b is in the full group
    g2 = GroupDescriptor.principal(4, 1, 2)
    t2 = mat_mul(make_translation(Multivector.basis(4, 1)), make_translation(Multivector.basis(4, 1)))
    ident = VahlenMatrix.identity(4)
    assert same_coset(t2, ident, g2)
    g_full = GroupDescriptor.full(4, 1)
    t1 = make_translation(Multivector.basis(4, 1))
    assert same_coset(t1, ident, g_full)
    with pytest.raises(ValueError):
        same_coset(t1, ident, g2)  # t1 is not a member of principal[2]


def test_enumeration_is_monotone_in_word_limit():
    g = GroupDescriptor.theta(4, 1)
    keys4 = {r.key for r in enumerate_cosets(g, 4)}
    keys6 = {r.key for r in enumerate_cosets(g, 6)}
    assert keys4 <= keys6


def test_principal_count_is_one_at_small_word_length():
    for level in (3, 4):
        g = GroupDescriptor.principal(4, 1, level)
        reps = enumerate_cosets(g, 6)
        assert len(reps) == 1 and reps[0].is_c_zero()
        assert reps[0].matrix.entries_equal(VahlenMatrix.identity(4))


def test_generators_cover_p():
    gens = gamma_generators(5, 2)
    assert len(gens) == 5  # 2 translations x 2 signs + J
    offsets = {g.b.to_string() for g in gens if is_translation(g)}
    assert offsets == {"e1", "-e1", "e2", "-e2"}
