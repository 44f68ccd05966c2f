"""Kernels and jets: base kernel identities, multiplicativity, monogenicity
against finite differences, and exactness of the truncated Taylor machinery."""

import math
import random
import time

import pytest

from cliffmod.clifford import Multivector
from cliffmod.harness import check_jet_vs_fd
from cliffmod.jets import (Jet, factorial_prod, jet_norm_sq, multi_indices, multi_indices_upto,
                           require_jet_budget)
from cliffmod.kernels import (KernelJet, dirac_fd, dirac_power_fd, fd_partial,
                              kernel_multiplicativity_check, left_factor, q0, q0_general, q_m)


def jet_lift(point, order: int) -> list[Jet]:
    """Coordinate jets of a point: each x_i, Taylor-expanded there."""
    comps = [float(c) for c in point]
    n = len(comps)
    lifts = []
    for i, c in enumerate(comps):
        terms = {(0,) * n: c}
        if order:
            terms[tuple(int(j == i) for j in range(n))] = 1.0
        lifts.append(Jet(n, order, terms))
    return lifts


def rand_vector(rng, n, lo=-2.0, hi=2.0):
    return Multivector.vector([rng.uniform(lo, hi) for _ in range(n)])


# ---- base kernel -----------------------------------------------------------


def test_q0_matches_closed_form():
    x = Multivector.vector([3.0, 0.0, 4.0, 0.0])
    r = 5.0
    odd = q0(x, 1)
    assert odd.component(1) == pytest.approx(3.0 / r ** 4)
    assert odd.component(3) == pytest.approx(4.0 / r ** 4)
    even = q0(x, 2)
    assert even.is_scalar()
    assert even.scalar_part() == pytest.approx(r ** -2)


def test_q0_general_extends_q0():
    rng = random.Random(20)
    for s in (1, 2, 3):
        for _ in range(10):
            x = rand_vector(rng, 5)
            assert (q0(x, s) - q0_general(x, s)).norm() < 1e-15


def test_weight_validation():
    x = Multivector.vector([1.0, 0.0, 0.0, 1.0])
    for bad in (0, 4, 5, -1):
        with pytest.raises(ValueError):
            q0(x, bad)
    with pytest.raises(ValueError):
        q0(Multivector.zero(4), 1)
    with pytest.raises(ValueError):
        q0(Multivector.scalar(4, 1.0), 1)  # not grade 1
    with pytest.raises(ValueError):
        q0_general(Multivector.zero(4), 1)


def test_multiplicativity_on_vectors():
    rng = random.Random(21)
    for s in (1, 2, 3):
        worst = 0.0
        for _ in range(40):
            a = rand_vector(rng, 4)
            b = rand_vector(rng, 4)
            worst = max(worst, kernel_multiplicativity_check(a, b, s))
        assert worst < 1e-12


def test_multiplicativity_extends_to_vector_products():
    # q0(abc) = q0(c) q0(ab) with ab a grade-0+2 element
    rng = random.Random(22)
    s = 1
    for _ in range(20):
        a, b, c = (rand_vector(rng, 4) for _ in range(3))
        lhs = q0_general(a * b * c, s)
        rhs = q0_general(c, s) * q0_general(a * b, s)
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_left_factor():
    rng = random.Random(23)
    for _ in range(10):
        a = rand_vector(rng, 5) * rand_vector(rng, 5)
        assert (left_factor(a, 2) - q0_general(a, 2)).norm() < 1e-15
        # odd s: conjugate(a) scaled by |a|^-(n+1-s)
        expect = a.conjugate().to_float() * a.norm() ** -5.0
        assert (left_factor(a, 1) - expect).norm() < 1e-14 * expect.norm()


# ---- monogenicity oracles --------------------------------------------------


def test_q0_monogenic_s1():
    for n in (4, 5):
        x = Multivector.vector([0.3, -0.7, 1.1, 0.9, 0.4][:n])
        res = dirac_fd(lambda y: q0(y, 1), x, 1e-4)
        assert res.norm() < 1e-6


def test_q0_harmonic_s2():
    for n in (4, 5):
        x = Multivector.vector([0.3, -0.7, 1.1, 0.9, 0.4][:n])
        fine = dirac_power_fd(lambda y: q0(y, 2), x, 1e-3, 2).norm()
        coarse = dirac_power_fd(lambda y: q0(y, 2), x, 3e-3, 2).norm()
        assert fine < 1e-5
        assert 8.0 < coarse / fine < 10.0  # pure h^2 stencil error


def test_dirac_fd_linear_exact():
    # D applied to x_1 e_2 gives e_1 e_2 exactly (no truncation error)
    f = lambda y: Multivector.basis(4, 2) * y.component(1)
    x = Multivector.vector([0.5, 0.25, -1.0, 2.0])
    got = dirac_fd(f, x, 0.1)
    expect = Multivector.basis(4, 1) * Multivector.basis(4, 2)
    assert (got - expect.to_float()).norm() < 1e-12


def test_dirac_power_domain_guard():
    f = lambda y: q0(y, 1)
    x = Multivector.vector([0.0, 0.0, 0.0, 0.05])
    with pytest.raises(ValueError):
        dirac_power_fd(f, x, 0.03, 2, min_last_coord=0.0)
    dirac_power_fd(f, x, 0.01, 2, min_last_coord=0.0)  # fits


def test_dirac_fd_argument_checks():
    f = lambda y: y
    with pytest.raises(ValueError):
        dirac_fd(f, Multivector.scalar(4, 1.0), 0.1)
    with pytest.raises(ValueError):
        dirac_fd(f, Multivector.vector([1.0, 0.0, 0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        dirac_power_fd(f, Multivector.vector([1.0, 0.0, 0.0, 1.0]), 0.1, 0)


# ---- jets ------------------------------------------------------------------


def test_multi_index_enumeration():
    assert len(multi_indices(3, 3)) == 10
    assert multi_indices(2, 0) == [(0, 0)]
    assert set(multi_indices(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert len(multi_indices_upto(2, 2)) == 6
    assert factorial_prod((3, 0, 2)) == 12


def test_jet_arithmetic_against_closed_forms():
    # f = 1/r in two variables at (3, 4); r = 5
    x, y = jet_lift([3.0, 4.0], 3)
    r2 = x * x + y * y
    f = r2.power(-0.5)
    assert f.value() == pytest.approx(0.2)
    assert f.derivative((1, 0)) == pytest.approx(-3.0 / 125.0)
    assert f.derivative((0, 1)) == pytest.approx(-4.0 / 125.0)
    # d2/dx2 (1/r) = -r^-3 + 3 x^2 r^-5
    assert f.derivative((2, 0)) == pytest.approx(-1.0 / 125.0 + 27.0 / 3125.0)
    assert f.derivative((1, 1)) == pytest.approx(3.0 * 3.0 * 4.0 / 3125.0)


def test_jet_product_rule():
    x, y = jet_lift([1.5, -0.5], 2)
    g = (x * y + Jet.constant(2, 2, 2.0)) * (x - y)
    # g = (xy + 2)(x - y); dg/dx = y(x - y) + (xy + 2)
    assert g.derivative((1, 0)) == pytest.approx(-0.5 * 2.0 + (1.5 * -0.5 + 2.0))
    assert g.derivative((0, 1)) == pytest.approx(1.5 * 2.0 - (1.5 * -0.5 + 2.0))
    assert g.derivative((1, 1)) == pytest.approx(2.0 * 1.5 - 2.0 * -0.5)


def test_jet_power_requires_positive_value():
    x, y = jet_lift([0.0, 0.0], 2)
    with pytest.raises(ValueError):
        (x * x + y * y).power(-0.5)
    with pytest.raises(ValueError):
        (x - Jet.constant(2, 2, 1.0)).power(0.5)


def test_jet_order_mismatch_rejected():
    a = Jet.constant(2, 2, 1.0)
    b = Jet.constant(2, 3, 1.0)
    c = Jet.constant(3, 2, 1.0)
    for other in (b, c):
        with pytest.raises(ValueError):
            a + other


def test_jet_terms_are_a_read_only_view_of_the_nonzero_coefficients():
    """The interface per-layer tracing reads: `terms` maps multi-index tuples
    (whose sum is the degree) to the nonzero coefficients; `order` is the
    truncation order."""
    x, y, z = jet_lift([0.5, 0.0, -1.5], 3)
    f = (x * y + z * z * x).power(1.0) + 2.0
    terms = f.terms
    assert terms and f.order == 3 and f.nvars == 3
    for m, c in terms.items():
        assert isinstance(m, tuple) and len(m) == 3 and all(isinstance(k, int) for k in m)
        assert 0 <= sum(m) <= f.order
        assert c != 0.0 and c == f.derivative(m) / factorial_prod(m)
    assert set(terms) == {m for m in multi_indices_upto(3, 3) if f.derivative(m)}
    with pytest.raises(TypeError):
        terms[(0, 0, 0)] = 1.0
    assert Jet(3, 2, {(0, 1, 1): 2.5}).terms == {(0, 1, 1): 2.5}
    with pytest.raises(ValueError):
        Jet(3, 2, {(0, 3, 0): 1.0})  # above the order


def test_norm_sq_jet_is_the_sum_of_coordinate_squares():
    for order in (0, 1, 2, 4):
        coords = jet_lift([0.3, -1.2, 2.0], order)
        by_products = coords[0] * coords[0] + coords[1] * coords[1] + coords[2] * coords[2]
        assert jet_norm_sq([0.3, -1.2, 2.0], order).coeffs == by_products.coeffs


def test_kernel_jet_builds_through_jet_products_and_powers(monkeypatch):
    """`Jet.__mul__` (jet by jet) and `Jet.power` are the entry points that
    per-layer tracing patches; a KernelJet of either parity goes through them."""
    counts = {"products": 0, "powers": 0}
    mul, power = Jet.__mul__, Jet.power

    def counting_mul(self, other):
        counts["products"] += isinstance(other, Jet)
        return mul(self, other)

    def counting_power(self, exponent):
        counts["powers"] += 1
        return power(self, exponent)

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    monkeypatch.setattr(Jet, "power", counting_power)
    x = Multivector.vector([0.9, 0.2, -0.4, 1.1])
    for s in (1, 2):
        counts.update(products=0, powers=0)
        KernelJet(x, s, 3)
        assert counts["products"] > 0 and counts["powers"] > 0


def test_jet_shapes_over_budget_are_refused_before_any_work():
    jet_check = check_jet_vs_fd(points=1).params
    used = [(4, 7),  # test_q_m_order_cap
            (4, 5), (5, 5),  # zeta sums with |m| = 5
            (jet_check["n"], jet_check["max_order"])]
    for shape in used:
        require_jet_budget(*shape)
    x = Multivector.vector([0.3] * 12)
    start = time.perf_counter()
    for refuse in (lambda: Jet(4, 11), lambda: Jet.constant(10 ** 6, 1, 1.0), lambda: Jet(1, 10 ** 9),
                   lambda: jet_lift([1.0] * 10, 10), lambda: KernelJet(x, 1, 5),
                   lambda: q_m(x, (6,) + (0,) * 11, 1)):
        with pytest.raises(ValueError, match=r"order \d+ in \d+ variables .* budget"):
            refuse()
    assert time.perf_counter() - start < 1.0


# ---- derivative kernels ----------------------------------------------------


def test_q_m_order_zero_is_q0():
    x = Multivector.vector([0.4, -1.2, 0.8, 1.5])
    for s in (1, 2):
        assert (q_m(x, (0, 0, 0, 0), s) - q0(x, s)).norm() < 1e-14


def test_q_m_even_first_derivative_closed_form():
    # d_i |x|^(s-n) = (s-n) x_i |x|^(s-n-2)
    x = Multivector.vector([0.4, -1.2, 0.8, 1.5])
    n, s = 4, 2
    r = x.norm()
    for i in range(1, n + 1):
        m = tuple(1 if k == i else 0 for k in range(1, n + 1))
        got = q_m(x, m, s).scalar_part()
        expect = (s - n) * float(x.component(i)) * r ** (s - n - 2)
        assert got == pytest.approx(expect, rel=1e-12)


def test_q_m_matches_fd():
    x = Multivector.vector([1.0, -0.5, 0.75, 1.25])
    for s in (1, 2):
        for m in ((1, 0, 1, 0), (0, 2, 0, 0), (1, 1, 1, 0)):
            got = q_m(x, m, s)
            ref = fd_partial(lambda y: q0(y, s), x, m, 1e-3, richardson=True)
            # roundoff floor for a triple central difference at h=1e-3 is ~2e-7
            assert (got - ref).norm() < 1e-6 * max(1.0, got.norm())


def test_q_m_order_cap():
    x = Multivector.vector([1.0, 0.0, 0.0, 1.0])
    q_m(x, (7, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        q_m(x, (1, 0, 0), 1)  # wrong length
    with pytest.raises(ValueError):
        KernelJet(x, 1, 2).q_m((1, -1, 0, 0))


def test_odd_kernel_jet_matches_the_product_route():
    """The product rule (x_i g)_m = x0_i g_m + g_{m-e_i} against the jet
    product of the coordinate jet x_i with g = |x|^{-beta}."""
    rng = random.Random(31)
    for n in (4, 5):
        for s in (1, 3):
            for order in range(5):
                x = rand_vector(rng, n)
                point = x.vector_components()
                g = jet_norm_sq(point, order).power(-(n + 1 - s) / 2.0)
                products = [c * g for c in jet_lift(point, order)]
                jet = KernelJet(x, s, order)
                for m in multi_indices_upto(n, order):
                    oracle = Multivector.vector([c.derivative(m) for c in products])
                    got = jet.q_m(m)
                    largest = max((abs(c) for c in oracle.coeffs.values()), default=0.0)
                    assert (got - oracle).norm() <= 1e-14 * largest


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("coords", [[0.5, -0.25, math.inf, 1.0], [0.5, -0.25, math.nan, 1.0],
                                    [0.0, 0.0, 0.0, 1e300], [0.0, 0.0, 0.0, 1e-160]],
                         ids=["inf", "nan", "norm-overflows", "power-overflows"])
def test_kernel_point_rule_refuses_bad_points(s, coords):
    x = Multivector.vector(coords)
    for build in (lambda: q0(x, s), lambda: KernelJet(x, s, 2), lambda: q_m(x, (1, 0, 0, 1), s)):
        with pytest.raises(ValueError):
            build()


def test_kernel_jet_refuses_overflowing_coefficients():
    # |x|^-4 fits a float at |x| = 1e-50, but third derivatives (~|x|^-7) do not
    x = Multivector.vector([0.0, 0.0, 0.0, 1e-50])
    assert q0(x, 1).component(4) == pytest.approx(1e150)
    with pytest.raises(ValueError, match="overflows"):
        KernelJet(x, 1, 3)


def test_kernel_jet_shares_work():
    x = Multivector.vector([0.9, 0.2, -0.4, 1.1])
    jet = KernelJet(x, 1, 3)
    for m in multi_indices_upto(4, 3):
        assert (jet.q_m(m) - q_m(x, m, 1)).norm() < 1e-13


def test_fd_partial_richardson_improves():
    f = lambda y: Multivector.scalar(2, math.sin(float(y.component(1))))
    x = Multivector.vector([0.7, 0.0])
    m = (3, 0)
    true = -math.cos(0.7)
    plain = abs(fd_partial(f, x, m, 0.05).scalar_part() - true)
    better = abs(fd_partial(f, x, m, 0.05, richardson=True).scalar_part() - true)
    assert better < plain / 20.0
