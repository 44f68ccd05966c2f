"""Core algebra: products against a naive rewriting oracle, involutions,
norms, inverses, serialization."""

import math
import random
from fractions import Fraction

import pytest

from cliffmod.clifford import (Multivector, blade_mask, blade_product_sign,
                               clifford_group_inverse, mask_indices, scalar_product, vector_inverse)


def naive_blade_product(idx_a, idx_b):
    """Multiply e_A e_B by literal letter rewriting: bubble equal letters
    together (one sign per transposition), erase squares as -1."""
    seq = list(idx_a) + list(idx_b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                del seq[i:i + 2]
                sign = -sign
                changed = True
                break
    return sign, tuple(seq)


def test_blade_sign_matches_naive_oracle_exhaustive_n4():
    for a in range(16):
        for b in range(16):
            sign, rest = naive_blade_product(mask_indices(a), mask_indices(b))
            assert blade_product_sign(a, b) == sign
            assert a ^ b == blade_mask(rest)


def test_blade_sign_matches_naive_oracle_random_n8():
    rng = random.Random(42)
    for _ in range(500):
        a, b = rng.randrange(256), rng.randrange(256)
        sign, rest = naive_blade_product(mask_indices(a), mask_indices(b))
        assert blade_product_sign(a, b) == sign and a ^ b == blade_mask(rest)


def test_generator_relations():
    for n in (1, 3, 4, 12):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ei, ej = Multivector.basis(n, i), Multivector.basis(n, j)
                assert ei * ej + ej * ei == Multivector.scalar(n, -2 if i == j else 0)


def _random_mv(rng, n, blades=5):
    return Multivector(n, {rng.randrange(1 << n): rng.randint(-9, 9) for _ in range(blades)})


def test_associativity_and_distributivity_exact():
    rng = random.Random(7)
    for n in (3, 5):
        for _ in range(100):
            a, b, c = (_random_mv(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_anti_automorphisms():
    rng = random.Random(11)
    for n in (2, 4, 6):
        for _ in range(100):
            a, b = _random_mv(rng, n), _random_mv(rng, n)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()
            assert (a * b).reverse() == b.reverse() * a.reverse()
            assert a.conjugate().conjugate() == a
            assert a.reverse().reverse() == a
    # conjugation negates vectors, reversion fixes them
    x = Multivector.vector([1, -2, 3])
    assert x.conjugate() == -x and x.reverse() == x
    e12 = Multivector.blade(2, (1, 2))
    assert e12.conjugate() == -e12 and e12.reverse() == -e12


def test_norm_is_coefficient_norm_and_scalar_product():
    rng = random.Random(3)
    for _ in range(50):
        a = _random_mv(rng, 4)
        assert scalar_product(a, a) == a.norm_sq()
        assert (a * a.conjugate()).scalar_part() == a.norm_sq()
        assert math.isclose(a.norm(), math.sqrt(a.norm_sq()))


def test_grade_projection_and_parts():
    a = Multivector.from_string(4, "2 + 3*e1 - e12 + 5*e134")
    assert a.grade_project(0) == Multivector.scalar(4, 2)
    assert a.grade_project(1) == Multivector.basis(4, 1) * 3
    assert a.grade_project(2) == -Multivector.blade(4, (1, 2))
    assert a.grades() == (0, 1, 2, 3)
    assert a.scalar_part() == 2
    assert a.component(1) == 3 and a.component(2) == 0
    assert not a.is_vector()
    assert (a - a).is_zero()


def test_vector_inverse_exact_and_float():
    x = Multivector.vector([Fraction(1, 2), 0, Fraction(3, 4)])
    inv = vector_inverse(x)
    assert inv * x == Multivector.scalar(3, 1)
    assert x * inv == Multivector.scalar(3, 1)
    assert inv.is_exact
    y = Multivector.vector([0.5, -1.25, 2.0])
    assert (vector_inverse(y) * y - Multivector.scalar(3, 1.0)).norm() < 1e-14
    with pytest.raises(ValueError):
        vector_inverse(Multivector.zero(3))
    with pytest.raises(ValueError):
        vector_inverse(Multivector.scalar(3, 2))


def test_clifford_group_inverse_on_vector_products():
    rng = random.Random(5)
    for _ in range(30):
        vecs = [Multivector.vector([rng.randint(-3, 3) for _ in range(4)]) for _ in range(3)]
        if any(v.is_zero() for v in vecs):
            continue
        a = vecs[0] * vecs[1] * vecs[2]
        inv = clifford_group_inverse(a)
        assert inv * a == Multivector.scalar(4, 1)
        assert a * inv == Multivector.scalar(4, 1)
    with pytest.raises(ValueError):
        clifford_group_inverse(Multivector.zero(4))


def test_exactness_preservation_and_division():
    a = Multivector.from_string(3, "1/2 + 2*e1")
    b = Multivector.from_string(3, "3 - e12")
    assert (a * b).is_exact and (a + b).is_exact and a.conjugate().is_exact
    assert (a / 2).is_exact and (a / Fraction(1, 3)) == a * 3
    assert not a.to_float().is_exact
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_dimension_validation_and_mismatch():
    with pytest.raises(ValueError):
        Multivector(0, {})
    with pytest.raises(ValueError):
        Multivector(13, {})
    with pytest.raises(ValueError):
        Multivector(2, {4: 1})  # blade outside the algebra
    with pytest.raises(ValueError):
        Multivector.basis(3, 1) + Multivector.basis(4, 1)
    with pytest.raises(ValueError):
        Multivector.basis(3, 4)


def test_string_roundtrip():
    cases = [
        Multivector.from_string(4, "1 + 2*e1 - 3*e12"),
        Multivector.scalar(4, Fraction(-7, 3)) + Multivector.blade(4, (2, 4), Fraction(1, 6)),
        Multivector(4, {0: 1.5e-05, 1: -2.0, 9: 3.25}),
        Multivector.zero(4),
        -Multivector.basis(4, 3),
        Multivector.blade(12, (1, 10, 12)),  # multi-digit indices
    ]
    for v in cases:
        assert Multivector.from_string(v.dim, v.to_string()) == v
    assert Multivector.from_string(4, "e1") == Multivector.basis(4, 1)
    assert Multivector.from_string(4, "-e12") == -Multivector.blade(4, (1, 2))
    assert Multivector.from_string(12, "e1_10_12") == Multivector.blade(12, (1, 10, 12))


def test_blade_names_round_trip_in_dims_10_to_12():
    """In dims >= 10 blade indices are `_`-separated and a digit run is one
    index, so every blade name parses back to its own blade."""
    rng = random.Random(10)
    for n in (10, 11, 12):
        for mask in range(1 << n):
            blade = Multivector(n, {mask: 1})
            assert Multivector.from_string(n, blade.to_string()) == blade
        for _ in range(50):
            v = Multivector(n, {rng.randrange(1 << n): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(6)})
            assert Multivector.from_string(n, v.to_string()) == v
    assert Multivector.basis(10, 10).to_string() == "e10"
    assert Multivector.basis(12, 12).to_string() == "e12"
    assert Multivector.blade(12, (1, 2)).to_string() == "e1_2"
    assert Multivector.from_string(12, "e12") == Multivector.basis(12, 12)
    assert Multivector.from_string(12, "e1_2") == Multivector.blade(12, (1, 2))
    # dims <= 9 keep one digit per index
    assert Multivector.blade(9, (1, 2)).to_string() == "e12"
    assert Multivector.from_string(9, "e12") == Multivector.from_string(9, "e1_2")


def test_string_parse_errors():
    for bad in ("", "e21", "e0x", "2**e1", "+ ", "e1 e2"):
        with pytest.raises(ValueError):
            Multivector.from_string(4, bad)
    with pytest.raises(ValueError):
        Multivector.from_string(2, "e3")  # out of range for dim
    for bad in ("e13", "e2_1", "e012", "e1_0"):
        with pytest.raises(ValueError):
            Multivector.from_string(12, bad)


def test_immutability():
    a = Multivector.basis(3, 1)
    with pytest.raises(AttributeError):
        a.dim = 5
