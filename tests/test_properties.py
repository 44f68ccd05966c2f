"""Property tests (hypothesis): word balls grow by prefix, and coset keys
do not see a left translation by the group's translation lattice."""

from hypothesis import given, settings, strategies as st

from cliffmod.clifford import Multivector
from cliffmod.congruence import (GroupDescriptor, bottom_row_key, gamma_ball, is_member, same_coset,
                                 translation_lattice)
from cliffmod.vahlen import make_translation, mat_mul

# (p, largest word length) pairs that keep each example cheap
_BALLS = st.sampled_from([(1, 7), (2, 4)])


@settings(max_examples=25, deadline=None)
@given(_BALLS.flatmap(lambda pl: st.tuples(st.just(pl[0]), st.integers(0, pl[1]), st.integers(0, pl[1]))),
       st.sampled_from([4, 5]))
def test_ball_of_radius_L_is_a_prefix_of_radius_L_prime(p_lengths, n):
    p, l1, l2 = p_lengths
    small, big = gamma_ball(n, p, min(l1, l2)), gamma_ball(n, p, max(l1, l2))
    assert len(small) <= len(big)
    assert [m.word for m in small] == [m.word for m in big[:len(small)]]
    assert all(a.entries_equal(b) for a, b in zip(small, big))


_GROUPS = [GroupDescriptor.full(4, 1), GroupDescriptor.principal(4, 1, 2),
           GroupDescriptor.principal(4, 1, 3), GroupDescriptor.upper0(4, 1, 2),
           GroupDescriptor.lower0(4, 1, 3), GroupDescriptor.theta(4, 1),
           GroupDescriptor.full(5, 2), GroupDescriptor.theta(5, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_GROUPS), st.data())
def test_coset_key_is_invariant_under_lattice_translation(group, data):
    members = [m for m in gamma_ball(group.n, group.p, 4) if is_member(m, group)]
    m = data.draw(st.sampled_from(members))
    lattice = translation_lattice(group)
    b = Multivector.zero(group.n)
    for e in lattice.basis_vectors(group.n):
        b = b + e * data.draw(st.integers(-3, 3))
    shifted = mat_mul(make_translation(b), m)
    assert is_member(shifted, group)
    assert bottom_row_key(shifted) == bottom_row_key(m)
    assert same_coset(shifted, m, group)
