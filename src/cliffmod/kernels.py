"""Fundamental solutions of iterated Dirac operators and their derivatives.

The base kernel on R^n \\ {0}, for integer 1 <= s < n, is

    q0(x) = x / |x|^beta,  beta = n + 1 - s    (s odd)
    q0(x) = 1 / |x|^beta,  beta = n - s        (s even),

a fundamental solution of D^s where D = sum_i e_i d/dx_i and D^2 is the
negative Laplacian.  Derivative kernels q_m = d^m q0 come from one jet of
|x|^{-beta} (for odd s by the product rule); central finite differences
are an independent cross-check, never the primary evaluation path.

On arguments that are products of nonzero vectors (Vahlen entries) the
kernel extends through reversion,

    q0(a) = reverse(a) / |a|^beta   (s odd),

which agrees with the vector formula (vectors are fixed by reversion)
and is exactly multiplicative the reversed way around:
q0(a b) = q0(b) q0(a).  Extending by a/|a|^beta instead would break
that identity already for a = e_1, b = e_2.
"""

from __future__ import annotations

import math

from .clifford import Multivector
from .jets import factorial_prod, jet_norm_sq


def _check_weight(s: int, n: int):
    if not isinstance(s, int) or not 1 <= s < n:
        raise ValueError(f"kernel weight must be an integer with 1 <= s < n, got s={s}, n={n}")


def _beta(s: int, n: int) -> int:
    """The exponent beta of the module docstring."""
    return n + 1 - s if s % 2 else n - s


def kernel_scale(r: float, s: int, n: int) -> float:
    """r^{-beta}: the size factor of the kernel at an argument of norm r.
    The one point rule of the kernels: refuses r = 0, an infinite or NaN r,
    and a power that overflows, with ValueError."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"kernel needs a nonzero finite argument, got |a| = {r}")
    try:
        return r ** float(-_beta(s, n))
    except OverflowError:
        raise ValueError(f"kernel overflows at |a| = {r:.3e}") from None


def q0_general(a: Multivector, s: int) -> Multivector:
    """Kernel on products of nonzero vectors (caller-asserted), via reversion."""
    n = a.dim
    _check_weight(s, n)
    scale = kernel_scale(a.norm(), s, n)
    if s % 2:
        return a.reverse().to_float() * scale
    return Multivector.scalar(n, scale)


def q0(x: Multivector, s: int) -> Multivector:
    """Base kernel at a nonzero vector: `q0_general`, as reversion fixes vectors."""
    if not x.is_vector() or x.is_zero():
        raise ValueError("q0 needs a nonzero grade-1 argument")
    return q0_general(x, s)


def left_factor(a: Multivector, s: int) -> Multivector:
    """conjugate(reverse(q0(a))): the factor multiplying two-sided series
    from the left.  For even s this is q0(a) itself."""
    return q0_general(a, s).reverse().conjugate()


def kernel_multiplicativity_check(a: Multivector, b: Multivector, s: int) -> float:
    """| q0(a b) - q0(b) q0(a) |; zero up to roundoff on vector arguments."""
    return (q0_general(a * b, s) - q0_general(b, s) * q0_general(a, s)).norm()


class KernelJet:
    """All partial derivatives q_m at one point, up to a fixed total order.

    Holds one jet, of g = |x|^{-beta} from the closed-form jet of |x|^2, and
    reads every q_m with |m| <= order from its coefficients: q0 = g for even
    s, and for odd s q0 = x g by the product rule (x_i g)_m = x0_i g_m +
    g_{m-e_i}.  Much cheaper than one finite-difference stencil per
    multi-index when whole derivative tables are needed.
    """

    def __init__(self, x: Multivector, s: int, order: int):
        n = x.dim
        _check_weight(s, n)
        if order < 0:
            raise ValueError("order must be >= 0")
        if not x.is_vector() or x.is_zero():
            raise ValueError("kernel jets need a nonzero grade-1 base point")
        kernel_scale(x.norm(), s, n)
        self.s = s
        self._point = [float(c) for c in x.vector_components()]
        self._g = jet_norm_sq(self._point, order).power(-_beta(s, n) / 2.0)
        if not math.isfinite(sum(self._g.coeffs)):
            raise ValueError(f"a kernel jet of order {order} overflows at |x| = {x.norm():.3e}")

    def q_m(self, m) -> Multivector:
        """The derivative kernel d^m q0 at the base point."""
        m = tuple(m)
        g = self._g
        if not self.s % 2:
            return Multivector.scalar(len(self._point), g.derivative(m))
        g_m = g.coefficient(m)
        scale = factorial_prod(m)
        return Multivector.vector([
            (xi * g_m + g.coefficient(m[:i] + (k - 1,) + m[i + 1:]) if k else xi * g_m) * scale
            for i, (xi, k) in enumerate(zip(self._point, m))])


def q_m(x: Multivector, m, s: int) -> Multivector:
    """One derivative kernel d^m q0(x), from a kernel jet of order |m|; the
    jet budget (`jets.MAX_JET_TABLE`) bounds |m|."""
    m = tuple(m)
    return KernelJet(x, s, sum(m)).q_m(m)


# ---- finite-difference oracles ---------------------------------------------


def dirac_fd(f, x: Multivector, h: float) -> Multivector:
    """Central-difference Dirac operator sum_i e_i (f(x+h e_i) - f(x-h e_i)) / 2h,
    from the first partials of `fd_partial`."""
    if not x.is_vector():
        raise ValueError("dirac_fd needs a grade-1 base point")
    if not h > 0:
        raise ValueError("step must be positive")
    n = x.dim
    return sum((Multivector.basis(n, i + 1) * fd_partial(f, x, [int(k == i) for k in range(n)], h)
                for i in range(n)), Multivector.zero(n))


def dirac_power_fd(f, x: Multivector, h: float, power: int,
                   min_last_coord: float | None = None) -> Multivector:
    """Nested central-difference D^power f at x.

    The stencil reaches coordinates x_i +- power*h; when f is only
    defined on the upper half-space pass min_last_coord=0.0 and the
    call refuses stencils that would cross it.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    if min_last_coord is not None:
        if float(x.component(x.dim)) - power * h <= min_last_coord:
            raise ValueError("finite-difference stencil would leave the domain")
    if power == 1:
        return dirac_fd(f, x, h)
    return dirac_fd(lambda y: dirac_power_fd(f, y, h, power - 1), x, h)


def fd_partial(f, x: Multivector, m, h: float, richardson: bool = False) -> Multivector:
    """Nested central differences for d^m f at x (the jet cross-check).

    With richardson=True the h and h/2 stencils are combined to cancel
    the leading h^2 error term.
    """
    m = tuple(m)
    if richardson:
        coarse = fd_partial(f, x, m, h)
        fine = fd_partial(f, x, m, h / 2.0)
        return (fine * 4.0 - coarse) * (1.0 / 3.0)
    i = next((k for k, v in enumerate(m) if v), None)
    if i is None:
        out = f(x)
        return out.to_float() if isinstance(out, Multivector) else Multivector.scalar(x.dim, float(out))
    rest = tuple(v - 1 if k == i else v for k, v in enumerate(m))
    e = Multivector.basis(x.dim, i + 1)
    step = e * h
    hi = fd_partial(f, x + step, rest, h)
    lo = fd_partial(f, x - step, rest, h)
    return (hi - lo) * (0.5 / h)
