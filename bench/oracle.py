"""Independent float re-evaluation of the series the benchmark calls.

The checks here share no arithmetic with cliffmod: multivectors are
plain {blade mask: float} dicts, the third derivatives of the weight-1
kernel come from a closed form instead of jets, and each coset's
contribution is rebuilt from its exact matrix entries.  cliffmod is used
only to list the coset representatives a series sums over, and the
counts of those lists are pinned separately against stored references.

Summation order differs from cliffmod's, so values agree to roundoff
relative to the summed magnitude, which `Sum` tracks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# ---- multivectors as {mask: float} ------------------------------------------


def _sign(a: int, b: int) -> int:
    """Sign of e_A e_B with e_i^2 = -1: interleaving swaps plus shared squares."""
    swaps = bin(a & b).count("1")
    t = a >> 1
    while t:
        swaps += bin(t & b).count("1")
        t >>= 1
    return -1 if swaps & 1 else 1


def mv(x) -> dict:
    """A cliffmod Multivector (exact or float) as a float dict."""
    return {m: float(Fraction(c)) if not isinstance(c, float) else c for m, c in x.coeffs.items()}


def vec(coords) -> dict:
    return {1 << i: float(c) for i, c in enumerate(coords) if c}


def mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            m = ma ^ mb
            out[m] = out.get(m, 0.0) + _sign(ma, mb) * ca * cb
    return out


def add(*terms: dict) -> dict:
    out: dict = {}
    for t in terms:
        for m, c in t.items():
            out[m] = out.get(m, 0.0) + c
    return out


def scale(x: dict, k: float) -> dict:
    return {m: c * k for m, c in x.items()}


def _grade_sign(x: dict, flip) -> dict:
    return {m: -c if flip(bin(m).count("1")) else c for m, c in x.items()}


def rev(x: dict) -> dict:
    return _grade_sign(x, lambda g: (g * (g - 1) // 2) & 1)


def conj(x: dict) -> dict:
    return _grade_sign(x, lambda g: (g * (g + 1) // 2) & 1)


def norm(x: dict) -> float:
    return math.sqrt(sum(c * c for c in x.values()))


def components(x: dict, n: int) -> list[float]:
    """Dense coefficient list over all 2^n blades, for comparisons."""
    return [x.get(m, 0.0) for m in range(1 << n)]


class Sum:
    """A running multivector sum that also tracks the summed magnitude."""

    def __init__(self):
        self.value: dict = {}
        self.mass = 0.0

    def add(self, term: dict):
        for m, c in term.items():
            self.value[m] = self.value.get(m, 0.0) + c
        self.mass += norm(term)


# ---- kernels ------------------------------------------------------------------


def q0(a: dict, n: int, s: int) -> dict:
    """q0 on products of vectors: reverse(a)/|a|^{n+1-s} (odd s), |a|^{s-n} (even s)."""
    r = norm(a)
    if s % 2:
        return scale(rev(a), r ** -(n + 1 - s))
    return {0: r ** (s - n)}


def q_m3(x: list[float], m) -> dict:
    """d^m of the weight-1 kernel x / |x|^n for |m| = 3, in closed form.

    With g = u(r^2), u(t) = t^{-n/2}:
      d_jkl g = 8 x_j x_k x_l u''' + 4 (d_jk x_l + d_jl x_k + d_kl x_j) u''
      d_jkl (x_i g) = x_i d_jkl g + d_ij d_kl g + d_ik d_jl g + d_il d_jk g
    """
    n = len(x)
    j, k, l = [i for i, mult in enumerate(m) for _ in range(mult)]
    t = sum(c * c for c in x)
    a = -n / 2.0
    u1 = a * t ** (a - 1)
    u2 = a * (a - 1) * t ** (a - 2)
    u3 = a * (a - 1) * (a - 2) * t ** (a - 3)
    d = lambda p, q: 1.0 if p == q else 0.0
    g2 = lambda p, q: 4 * x[p] * x[q] * u2 + 2 * d(p, q) * u1
    g3 = 8 * x[j] * x[k] * x[l] * u3 + 4 * (d(j, k) * x[l] + d(j, l) * x[k] + d(k, l) * x[j]) * u2
    out = {}
    for i in range(n):
        c = x[i] * g3 + d(i, j) * g2(k, l) + d(i, k) * g2(j, l) + d(i, l) * g2(j, k)
        if c:
            out[1 << i] = c
    return out


def lattice_G_m(x: list[float], m, radius: int) -> Sum:
    """sum of q_m(alpha x + omega) over |alpha| <= R, |omega|_inf <= R, not both 0."""
    n = len(x)
    total = Sum()
    for alpha in range(-radius, radius + 1):
        for omega in product(range(-radius, radius + 1), repeat=n - 1):
            if alpha == 0 and not any(omega):
                continue
            arg = [alpha * x[i] + (omega[i] if i < n - 1 else 0) for i in range(n)]
            total.add(q_m3(arg, m))
    return total


# ---- coset series ---------------------------------------------------------------


class CosetData:
    """Float entries of each coset matrix, with c e_i precomputed so that
    c x + d is a linear combination for any vector x."""

    def __init__(self, reps, n: int):
        self.n = n
        self.rows = []
        basis = [{1 << i: 1.0} for i in range(n)]
        for rep in reps:
            a, b, c, d = (mv(e) for e in rep.matrix.entries())
            self.rows.append({
                "a": a, "b": b, "d": d,
                "c_e": [mul(c, e) for e in basis],
                "e_revc": [mul(e, rev(c)) for e in basis],
                "revd": rev(d),
            })

    @staticmethod
    def _linear(base: dict, per_coord: list, x: list[float]) -> dict:
        return add(base, *(scale(t, xi) for t, xi in zip(per_coord, x) if xi))

    def denominator(self, row, x) -> dict:
        return self._linear(row["d"], row["c_e"], x)

    def scalar(self, x, s: int) -> Sum:
        total = Sum()
        for row in self.rows:
            total.add({0: norm(self.denominator(row, x)) ** (s - self.n)})
        return total

    def odd_weight(self, x, s: int) -> Sum:
        total = Sum()
        for row in self.rows:
            total.add(q0(self.denominator(row, x), self.n, s))
        return total

    def biregular(self, x, y, s: int, t: int) -> Sum:
        total = Sum()
        n = self.n
        for row in self.rows:
            a = self.denominator(row, x)
            left = scale(conj(a), norm(a) ** -(n + 1 - s))
            right = q0(self._linear(row["revd"], row["e_revc"], y), n, t)
            total.add(mul(left, right))
        return total

    def vector(self, x, s: int, m, radius: int) -> Sum:
        total = Sum()
        n = self.n
        xv = vec(x)
        for row in self.rows:
            den = self.denominator(row, x)
            den_inv = scale(conj(den), 1.0 / mul(conj(den), den).get(0, 0.0))
            image = mul(add(mul(row["a"], xv), row["b"]), den_inv)
            point = [image.get(1 << i, 0.0) for i in range(n)]
            point[-1] += 1.0
            total.add(mul(q0(den, n, s), lattice_G_m(point, m, radius).value))
        return total
