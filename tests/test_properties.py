"""Property tests (hypothesis): exact multivectors round-trip through
their string form, exact products associate and both involutions reverse
them, exact generator words times their inverses are the identity, the
exact Moebius action is a homomorphism on rational points, word balls
grow by prefix, coset keys do not see a left translation by the group's
translation lattice, the indexed jet product agrees with a naive
convolution of multi-index dicts, and the odd-weight derivative kernels
of odd order are even, bit for bit."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cliffmod.clifford import MAX_DIM, Multivector
from cliffmod.congruence import (GroupDescriptor, bottom_row_key, gamma_ball, is_member, same_coset,
                                 translation_lattice)
from cliffmod.harness import random_word_matrix
from cliffmod.jets import Jet, multi_indices_upto
from cliffmod.kernels import KernelJet
from cliffmod.vahlen import VahlenMatrix, make_translation, mat_inv, mat_mul, mobius_apply


_EXACT_COEFF = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                         st.fractions(max_denominator=10 ** 4).filter(lambda c: abs(c) < 10 ** 6))


def _exact_multivectors_in(dim: int):
    return st.dictionaries(st.integers(0, (1 << dim) - 1), _EXACT_COEFF,
                           max_size=6).map(lambda coeffs: Multivector(dim, coeffs))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_DIM).flatmap(_exact_multivectors_in))
def test_exact_multivectors_round_trip_through_their_string_form(v):
    back = Multivector.from_string(v.dim, v.to_string())
    assert back == v and back.to_string() == v.to_string()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_DIM).flatmap(lambda dim: st.tuples(*[_exact_multivectors_in(dim)] * 3)))
def test_exact_products_associate_and_both_involutions_reverse_them(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert (a * b).reverse() == b.reverse() * a.reverse()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (4, 1), (5, 2), (6, 3), (11, 10)]), st.randoms(use_true_random=False))
def test_exact_generator_words_times_their_inverses_are_the_identity(n_p, rng):
    m = random_word_matrix(rng, *n_p, max_len=12)
    assert m.is_exact()
    identity = VahlenMatrix.identity(m.dim)
    assert mat_mul(m, mat_inv(m)).entries_equal(identity)
    assert mat_mul(mat_inv(m), m).entries_equal(identity)


_RATIONAL = st.fractions(min_value=-10, max_value=10, max_denominator=50)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4, 1), (5, 2)]), st.randoms(use_true_random=False), st.data())
def test_exact_moebius_action_is_a_homomorphism_on_rational_points(n_p, rng, data):
    n, p = n_p
    m1, m2 = random_word_matrix(rng, n, p, max_len=6), random_word_matrix(rng, n, p, max_len=6)
    base = data.draw(st.lists(_RATIONAL, min_size=n - 1, max_size=n - 1))
    x_n = data.draw(st.fractions(min_value=Fraction(1, 50), max_value=10, max_denominator=50))
    x = Multivector.vector(base + [x_n])
    assert mobius_apply(mat_mul(m1, m2), x) == mobius_apply(m1, mobius_apply(m2, x))


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


# ---- jets ------------------------------------------------------------------------


def _naive_product(a: dict, b: dict, order: int) -> tuple[dict, dict]:
    """The truncated product of two tuple-keyed coefficient dicts by direct
    convolution, and per coefficient the sum of |products| that fed it."""
    out, scale = {}, {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if sum(ma) + sum(mb) <= order:
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = out.get(m, 0.0) + ca * cb
                scale[m] = scale.get(m, 0.0) + abs(ca * cb)
    return out, scale


_COEFF = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_subnormal=False))


@st.composite
def _jet_pairs(draw):
    nvars, order = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    indices = multi_indices_upto(nvars, order)
    a, b = ({m: draw(_COEFF) for m in indices} for _ in range(2))
    return nvars, order, a, b


@settings(max_examples=60, deadline=None)
@given(_jet_pairs())
def test_indexed_jet_product_matches_naive_convolution_both_ways(pair):
    nvars, order, a, b = pair
    ja, jb = Jet(nvars, order, a), Jet(nvars, order, b)
    want, scale = _naive_product(a, b, order)
    for got in ((ja * jb).terms, (jb * ja).terms):
        for m in set(got) | set(want):
            assert abs(got.get(m, 0.0) - want.get(m, 0.0)) <= 1e-14 * scale.get(m, 0.0)


@st.composite
def _positive_jets(draw):
    nvars, order = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    terms = {m: draw(st.floats(-0.5, 0.5)) for m in multi_indices_upto(nvars, order)}
    terms[(0,) * nvars] = draw(st.floats(1.0, 2.0))
    return Jet(nvars, order, terms)


@settings(max_examples=60, deadline=None)
@given(_positive_jets(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_jet_powers_multiply_by_adding_exponents(jet, p, q):
    lhs, rhs = jet.power(p) * jet.power(q), jet.power(p + q)
    size = max(max(map(abs, lhs.coeffs)), max(map(abs, rhs.coeffs)))
    assert all(abs(x - y) <= 1e-13 * size for x, y in zip(lhs.coeffs, rhs.coeffs))


# ---- kernels ---------------------------------------------------------------------


@st.composite
def _odd_kernel_points(draw):
    n = draw(st.integers(3, 6))
    s, order = draw(st.sampled_from(range(1, n, 2))), draw(st.integers(1, 5))
    y = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n).filter(
        lambda y: sum(c * c for c in y) >= 0.01))
    return s, order, y


@settings(max_examples=60, deadline=None)
@given(_odd_kernel_points())
def test_odd_order_kernels_of_odd_weight_are_even_exactly(case):
    # the symmetric lattice sums of series.py sum each pair +-omega as
    # twice one kernel jet, which needs q_m(-y) == q_m(y) for odd s, |m|
    s, order, y = case
    jet = KernelJet(Multivector.vector(y), s, order)
    mirrored = KernelJet(Multivector.vector([-c for c in y]), s, order)
    for m in multi_indices_upto(len(y), order):
        if sum(m) % 2:
            assert mirrored.q_m(m) == jet.q_m(m)
