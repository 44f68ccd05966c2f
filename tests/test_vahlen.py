"""Vahlen matrices: generator forms, the inverse formula against a
brute-force oracle, pseudo-determinants, the Moebius action and its
homomorphism/half-space properties, strip membership."""

import math
import random
from fractions import Fraction

import pytest

from cliffmod.clifford import Multivector, clifford_group_inverse
from cliffmod.congruence import certified_in_gamma
from cliffmod.vahlen import (GradedResidueError, VahlenMatrix, in_half_space, in_strip,
                             is_vahlen, make_dilatation, make_inversion, make_rotation,
                             make_translation, mat_inv, mat_mul, mobius_apply, pseudo_det)


def random_word(rng, n, p, length):
    gens = []
    for i in range(1, p + 1):
        e = Multivector.basis(n, i)
        gens += [make_translation(e), make_translation(-e)]
    gens.append(make_inversion(n))
    m = VahlenMatrix.identity(n)
    for _ in range(length):
        m = mat_mul(m, gens[rng.randrange(len(gens))])
    return m


def test_generator_shapes_and_actions():
    n = 4
    b = Multivector.vector([1, 0, 2, 0])
    t = make_translation(b)
    x = Multivector.vector([Fraction(1), Fraction(2), Fraction(0), Fraction(3)])
    assert mobius_apply(t, x) == x + b
    j = make_inversion(n)
    # J<x> = -x^{-1} = x / |x|^2
    assert mobius_apply(j, x) == x / Fraction(x.norm_sq())
    d = make_dilatation(n, Fraction(2))
    assert mobius_apply(d, x) == x * 4
    with pytest.raises(ValueError):
        make_translation(Multivector.scalar(n, 1))
    with pytest.raises(ValueError):
        make_dilatation(n, 0)



@pytest.mark.parametrize("alpha, inv", [(3, Fraction(1, 3)), (-7, Fraction(-1, 7)), (True, 1),
                                        (Fraction(2, 3), Fraction(3, 2)), (0.5, 2.0), (1e-300, 1.0 / 1e-300)])
def test_dilatation_inverse_entry_keeps_the_exactness_of_alpha(alpha, inv):
    d = make_dilatation(4, alpha).d.scalar_part()
    assert d == inv and isinstance(d, float) == isinstance(alpha, float)


def test_dilatation_refuses_zero_and_a_non_real_factor():
    for zero in (0, 0.0, Fraction(0)):
        with pytest.raises(ValueError, match="nonzero"):
            make_dilatation(4, zero)
    for bad in (1j, "2", None):
        with pytest.raises(TypeError):
            make_dilatation(4, bad)

def test_rotation_preserves_norm_and_is_vahlen():
    n = 4
    u = Multivector.basis(n, 1)
    v = Multivector.vector([0.6, 0.8, 0.0, 0.0])
    r = make_rotation([u, v])
    assert is_vahlen(r) is True
    x = Multivector.vector([0.3, -1.0, 0.2, 0.9])
    y = mobius_apply(r, x)
    assert math.isclose(y.norm(), x.norm(), rel_tol=1e-12)
    with pytest.raises(ValueError):
        make_rotation([Multivector.vector([1, 1, 0, 0])])  # not unit
    with pytest.raises(ValueError):
        make_rotation([])


def test_make_rotation_judges_an_exact_factor_exactly():
    # |u|^2 - 1 = 9e-14 is within the float tolerance, but R_u would not preserve |x|
    near = Multivector.vector([Fraction(3, 5), Fraction(4, 5), Fraction(3, 10 ** 7), Fraction(0)])
    with pytest.raises(ValueError, match="unit vector"):
        make_rotation([near])
    assert is_vahlen(make_rotation([near.to_float()])) is True  # floats keep the 1e-12 tolerance
    r = make_rotation([Multivector.vector([Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0)])])
    x = Multivector.vector([Fraction(1, 2), Fraction(0), Fraction(0), Fraction(2)])
    assert mobius_apply(r, x).norm_sq() == x.norm_sq()


def test_pseudo_det_of_words_is_one():
    rng = random.Random(0)
    for _ in range(50):
        m = random_word(rng, 4, 2, rng.randint(0, 6))
        assert pseudo_det(m) == Multivector.scalar(4, 1)


def test_mat_inv_brute_force_oracle():
    rng = random.Random(1)
    ident = VahlenMatrix.identity(4)
    for _ in range(60):
        m = random_word(rng, 4, 1, rng.randint(0, 7))
        inv = mat_inv(m)
        assert mat_mul(m, inv).entries_equal(ident)
        assert mat_mul(inv, m).entries_equal(ident)
        # inverse word, when present, rebuilds the inverse matrix
        if inv.word is not None:
            rebuilt = VahlenMatrix.identity(4)
            for tok in inv.word:
                if tok == "J":
                    rebuilt = mat_mul(rebuilt, make_inversion(4))
                else:
                    rebuilt = mat_mul(rebuilt, make_translation(Multivector.from_string(4, tok[2:-1])))
            assert rebuilt.entries_equal(inv)


def test_word_provenance_rules():
    n = 4
    t = make_translation(Multivector.basis(n, 1))
    j = make_inversion(n)
    m = mat_mul(t, j)
    assert m.word == ("T(e1)", "J")
    assert mat_inv(m).word == ("J", "J", "J", "T(-e1)")
    r = make_rotation([Multivector.basis(n, 2)])
    assert mat_inv(r).word is None  # rotations do not invert tokenwise
    wordless = VahlenMatrix(*m.entries())
    assert wordless.word is None
    assert mat_mul(wordless, j).word is None
    assert (-m).word == ("J", "J", "T(e1)", "J")
    assert (-m).entries_equal(VahlenMatrix(-m.a, -m.b, -m.c, -m.d))



def test_translation_tokens_are_read_alike_by_the_inverse_and_the_certificate():
    n = 4
    one = VahlenMatrix.identity(n).entries()
    m = VahlenMatrix(*one, word=("T(2*e1)", "J", "T(-e1)"))
    garbled = VahlenMatrix(*one, word=("T(e1)", "T(x)"))
    for _ in range(2):  # the token readers cache: a second read must agree, and a garbled token raise again
        assert mat_inv(m).word == ("T(e1)", "J", "J", "J", "T(-2*e1)")
        assert certified_in_gamma(m, 1)
        with pytest.raises(ValueError):
            mat_inv(garbled)
        assert not certified_in_gamma(garbled, 1)

def test_is_vahlen_three_states():
    n = 4
    m = mat_mul(make_translation(Multivector.basis(n, 1)), make_inversion(n))
    assert is_vahlen(m) is True
    assert is_vahlen(VahlenMatrix(*m.entries())) is None  # passes but uncertified
    bad = VahlenMatrix(Multivector.blade(n, (1, 2)), Multivector.zero(n),
                       Multivector.zero(n), Multivector.scalar(n, 1))
    assert is_vahlen(bad) is False  # pseudo-determinant not scalar
    zero = VahlenMatrix(*(Multivector.zero(n),) * 4)
    assert is_vahlen(zero) is False
    nonvec = VahlenMatrix(Multivector.scalar(n, 1), Multivector.blade(n, (1, 2)),
                          Multivector.zero(n), Multivector.scalar(n, 1))
    assert is_vahlen(nonvec) is False  # a^{-1} b is not a vector


@pytest.mark.parametrize("eps, verdict", [(1e-9, False), (1e-12, None)])
def test_float_pseudo_det_off_scalar_part_boundary(eps, verdict):
    n = 4
    one, zero = Multivector.scalar(n, 1.0), Multivector.zero(n)
    a = one + Multivector.blade(n, (1, 2), eps)  # pseudo-determinant 1 + eps e12
    assert is_vahlen(VahlenMatrix(a, zero, zero, one)) is verdict


def test_float_vanishing_rule_is_relative_to_the_scale():
    # at |x| ~ 1e8 roundoff leaves grade residues near 1e-9, above FLOAT_TOL in absolute terms
    big = 1e8
    r = make_rotation([Multivector.vector([0.6, 0.8, 0.0, 0.0]), Multivector.vector([0.0, 0.6, 0.0, 0.8])])
    x = Multivector.vector([0.3 * big, -0.7 * big, 0.2 * big, 0.9 * big])
    assert math.isclose(mobius_apply(r, x).norm(), x.norm(), rel_tol=1e-12)
    far = mat_mul(r, make_translation(Multivector.vector([0.3 * big, -0.7 * big, 0.2 * big, 0.0])))
    assert is_vahlen(far) is True


def test_mobius_homomorphism_exact():
    rng = random.Random(2)
    x = Multivector.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(2)])
    for _ in range(25):
        m1 = random_word(rng, 4, 1, rng.randint(1, 5))
        m2 = random_word(rng, 4, 1, rng.randint(1, 5))
        lhs = mobius_apply(mat_mul(m1, m2), x)
        rhs = mobius_apply(m1, mobius_apply(m2, x))
        assert lhs == rhs  # exact rational arithmetic end to end


def test_half_space_preservation_float():
    rng = random.Random(3)
    for _ in range(40):
        m = random_word(rng, 5, 2, rng.randint(1, 6)).to_float()
        x = Multivector.vector([rng.uniform(-2, 2) for _ in range(4)] + [rng.uniform(0.1, 3.0)])
        y = mobius_apply(m, x)
        assert in_half_space(y)


def test_equivalent_form_identity():
    # (a x + b)(c x + d)^{-1} == (x rev(c) + rev(d))^{-1} (x rev(a) + rev(b))
    rng = random.Random(4)
    x = Multivector.vector([Fraction(2, 5), Fraction(1, 7), Fraction(0), Fraction(3, 2)])
    for _ in range(20):
        m = random_word(rng, 4, 1, rng.randint(1, 6))
        lhs = mobius_apply(m, x)
        den = x * m.c.reverse() + m.d.reverse()
        num = x * m.a.reverse() + m.b.reverse()
        rhs = clifford_group_inverse(den) * num
        assert rhs == lhs


def test_mobius_errors():
    n = 4
    j = make_inversion(n)
    with pytest.raises(ValueError):
        mobius_apply(j, Multivector.zero(n))  # denominator x not invertible at 0
    with pytest.raises(ValueError):
        mobius_apply(j.to_float(), Multivector.vector([0.0, 0.0, 0.0, 1e-8]))  # |x|^2 < 1e-14
    assert math.isclose(mobius_apply(j.to_float(), Multivector.vector([0.0, 0.0, 0.0, 1e-6])).component(n), 1e6)
    tiny = Fraction(1, 10 ** 8)  # exact input is refused only at an exact zero
    assert mobius_apply(j, Multivector.vector([0, 0, 0, tiny])) == Multivector.vector([0, 0, 0, 1 / tiny])
    with pytest.raises(ValueError):
        mobius_apply(j, Multivector.scalar(n, 1))  # not grade 1
    with pytest.raises(ValueError):
        mobius_apply(j, Multivector.vector([1, 0, 0]))  # dim mismatch
    skew = VahlenMatrix(Multivector.scalar(n, 1), Multivector.blade(n, (1, 2)),
                        Multivector.zero(n), Multivector.scalar(n, 1))
    with pytest.raises(GradedResidueError):
        mobius_apply(skew, Multivector.vector([1, 0, 0, 2]))



@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_mobius_apply_refuses_a_non_finite_point(bad, exact):
    n = 4
    for m in (VahlenMatrix.identity(n), make_inversion(n)):
        m = m if exact else m.to_float()
        for x in ([0.0, 0.0, 0.0, bad], [bad, 0.5, 0.0, 1.0]):
            with pytest.raises(ValueError, match="finite coordinates"):
                mobius_apply(m, Multivector.vector(x))

def test_in_strip():
    x = Multivector.vector([1.0, 0.0, 0.0, 0.5])
    assert in_strip(x, 0.25)
    assert not in_strip(x, 0.6)  # x_n too small
    far = Multivector.vector([9.0, 0.0, 0.0, 1.0])
    assert not in_strip(far, 0.25)  # base part outside 1/eps
    with pytest.raises(ValueError):
        in_strip(x, 0.0)
    with pytest.raises(ValueError):
        in_strip(Multivector.scalar(4, 1), 0.25)


def test_mixed_dimension_entries_rejected():
    with pytest.raises(ValueError):
        VahlenMatrix(Multivector.scalar(3, 1), Multivector.zero(4),
                     Multivector.zero(4), Multivector.scalar(4, 1))
    with pytest.raises(ValueError):
        mat_mul(VahlenMatrix.identity(3), VahlenMatrix.identity(4))
