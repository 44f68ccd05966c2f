"""Sparse real Clifford algebras with negative-definite generators.

The algebra over R^n is generated by e_1..e_n subject to

    e_i e_j + e_j e_i = -2 delta_ij,

so every generator squares to -1.  Basis blades are encoded as n-bit
masks (bit i-1 set means e_i divides the blade); a multivector is a
sparse mask -> coefficient map.  Coefficients are either exact (int /
fractions.Fraction) or floats, and exact inputs are never silently
demoted: all structural operations (products, involutions, grade
projections) preserve exactness.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

MAX_DIM = 12

_EXACT_TYPES = (int, Fraction)


def blade_mask(indices) -> int:
    """Bitmask of a blade given 1-based generator indices."""
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def mask_indices(mask: int) -> tuple[int, ...]:
    """1-based generator indices of a blade mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def blade_product_sign(a: int, b: int) -> int:
    """Sign of e_A e_B; the resulting blade mask is a ^ b.

    Counts transpositions needed to interleave the two sorted index
    lists, plus one sign flip per shared index (e_i^2 = -1).
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    swaps += (a & b).bit_count()
    return -1 if swaps & 1 else 1


def _reverse_sign(grade: int) -> int:
    return -1 if (grade * (grade - 1) // 2) & 1 else 1


def _conjugate_sign(grade: int) -> int:
    return -1 if (grade * (grade + 1) // 2) & 1 else 1


class Multivector:
    """Immutable element of the Clifford algebra over R^n, 1 <= n <= 12.

    Use the classmethods (`scalar`, `vector`, `basis`, `blade`,
    `from_string`) rather than spelling out coefficient dicts.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict | None = None):
        if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension must be an int in 1..{MAX_DIM}, got {dim!r}")
        clean = {}
        if coeffs:
            top = 1 << dim
            for mask, c in coeffs.items():
                if not isinstance(mask, int) or not 0 <= mask < top:
                    raise ValueError(f"blade mask {mask!r} out of range for dim {dim}")
                if not isinstance(c, (float, int, Fraction)):
                    raise TypeError(f"unsupported coefficient type {type(c).__name__}")
                if c == 0:
                    continue
                clean[mask] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim, {})

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        return cls(dim, {0: value})

    @classmethod
    def basis(cls, dim: int, i: int) -> "Multivector":
        """The generator e_i, 1 <= i <= dim."""
        if not 1 <= i <= dim:
            raise ValueError(f"basis index {i} out of range 1..{dim}")
        return cls(dim, {1 << (i - 1): 1})

    @classmethod
    def blade(cls, dim: int, indices, coeff=1) -> "Multivector":
        mask = blade_mask(indices)
        if mask >> dim:
            raise ValueError(f"blade {indices} does not fit in dim {dim}")
        return cls(dim, {mask: coeff})

    @classmethod
    def vector(cls, components) -> "Multivector":
        """Grade-1 element from a full component sequence (length = dim)."""
        comps = list(components)
        return cls(len(comps), {1 << i: c for i, c in enumerate(comps)})

    # ---- basic structure ----------------------------------------------

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, _EXACT_TYPES) for c in self.coeffs.values())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self.coeffs)

    def is_vector(self) -> bool:
        """True for grade-1 elements; the zero element counts."""
        return all(m and (m & (m - 1)) == 0 for m in self.coeffs)

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self.coeffs}))

    def grade_project(self, k: int) -> "Multivector":
        return Multivector(self.dim, {m: c for m, c in self.coeffs.items() if m.bit_count() == k})

    def scalar_part(self):
        return self.coeffs.get(0, 0)

    def component(self, i: int):
        """Coefficient of e_i."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"component index {i} out of range 1..{self.dim}")
        return self.coeffs.get(1 << (i - 1), 0)

    def vector_components(self) -> list:
        if not self.is_vector():
            raise ValueError(f"not a grade-1 element: {self}")
        return [self.coeffs.get(1 << i, 0) for i in range(self.dim)]

    # ---- ring operations ----------------------------------------------

    def _check_dim(self, other: "Multivector"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Multivector(self.dim, out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Multivector(self.dim, out)

    def __neg__(self):
        return Multivector(self.dim, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_dim(other)
            out = {}
            for ma, ca in self.coeffs.items():
                for mb, cb in other.coeffs.items():
                    sign = blade_product_sign(ma, mb)
                    m = ma ^ mb
                    out[m] = out.get(m, 0) + (ca * cb if sign > 0 else -(ca * cb))
            return Multivector(self.dim, out)
        if isinstance(other, (int, Fraction, float)):
            return Multivector(self.dim, {m: c * other for m, c in self.coeffs.items()})
        return NotImplemented

    def __rmul__(self, other):
        # real scalars are central
        if isinstance(other, (int, Fraction, float)):
            return Multivector(self.dim, {m: other * c for m, c in self.coeffs.items()})
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of multivector by zero")
            inv = Fraction(1, 1) / Fraction(other)
            return Multivector(self.dim, {m: c * inv if isinstance(c, _EXACT_TYPES) else c / other
                                          for m, c in self.coeffs.items()})
        if isinstance(other, float):
            return Multivector(self.dim, {m: c / other for m, c in self.coeffs.items()})
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return self.dim == other.dim and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, float)):
            return self.coeffs == ({0: other} if other != 0 else {})
        return NotImplemented

    __hash__ = None

    # ---- involutions ---------------------------------------------------

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: negates vectors, reverses products."""
        return Multivector(self.dim, {m: c if _conjugate_sign(m.bit_count()) > 0 else -c
                                      for m, c in self.coeffs.items()})

    def reverse(self) -> "Multivector":
        """Reversion: fixes vectors, reverses products."""
        return Multivector(self.dim, {m: c if _reverse_sign(m.bit_count()) > 0 else -c
                                      for m, c in self.coeffs.items()})

    # ---- norms ----------------------------------------------------------

    def norm_sq(self):
        """Sum of squared coefficients (exact when coefficients are)."""
        return sum(c * c for c in self.coeffs.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    # ---- conversions ----------------------------------------------------

    def to_float(self) -> "Multivector":
        return Multivector(self.dim, {m: float(c) for m, c in self.coeffs.items()})

    # ---- serialization --------------------------------------------------

    def to_string(self) -> str:
        """Readable form like ``1 + 2*e1 - 3*e12``; round-trips via from_string."""
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs, key=lambda m: (m.bit_count(), m)):
            c = self.coeffs[mask]
            neg = (c < 0) if not isinstance(c, float) else math.copysign(1.0, c) < 0
            mag = -c if neg else c
            body = _format_coeff(mag)
            if mask:
                name = _blade_name(mask, self.dim)
                body = name if mag == 1 and not isinstance(mag, float) else f"{body}*{name}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    @classmethod
    def from_string(cls, dim: int, text: str) -> "Multivector":
        return _parse_multivector(cls, dim, text)

    def __repr__(self):
        return f"Multivector({self.dim}, '{self.to_string()}')"

    def __str__(self):
        return self.to_string()


def _format_coeff(c) -> str:
    if isinstance(c, Fraction) and c.denominator == 1:
        return str(c.numerator)
    return repr(c) if isinstance(c, float) else str(c)


def _blade_name(mask: int, dim: int) -> str:
    """The blade's name under the rule that `_parse_blade` reads."""
    return "e" + ("_" if dim > 9 else "").join(str(i) for i in mask_indices(mask))


_TERM_SPLIT = re.compile(r"(?<![eE/*])\s*([+-])\s*")
_BLADE_RE = re.compile(r"^e([1-9]\d*(?:_[1-9]\d*)*)$")


def _parse_blade(token: str, dim: int) -> int:
    m = _BLADE_RE.match(token)
    if not m:
        raise ValueError(f"bad blade token {token!r}")
    # The one blade-name rule: in dims >= 10 a digit run is one index (`e12` is e_12,
    # `e1_2` is e1 e2); in dims <= 9 a digit is one index unless `_` separates them.
    digits = m.group(1)
    idx = [int(s) for s in digits.split("_")] if dim > 9 or "_" in digits else [int(ch) for ch in digits]
    if idx != sorted(idx) or len(set(idx)) != len(idx):
        raise ValueError(f"blade indices must be strictly ascending in {token!r}")
    if any(not 1 <= i <= dim for i in idx):
        raise ValueError(f"blade {token!r} out of range for dim {dim}")
    return blade_mask(idx)


def _parse_coeff(token: str):
    if "/" in token:
        return Fraction(token)
    if any(ch in token for ch in ".eE") or token in ("inf", "-inf", "nan"):
        return float(token)
    return int(token)


def _parse_multivector(cls, dim: int, text: str):
    s = text.strip()
    if not s:
        raise ValueError("empty multivector string")
    pieces = _TERM_SPLIT.split(s)
    # pieces = [term0, sign1, term1, sign2, term2, ...]; term0 may be empty
    # when the string opens with a sign
    terms = []
    if pieces[0].strip():
        terms.append(pieces[0].strip())
    for k in range(1, len(pieces), 2):
        sign, body = pieces[k], pieces[k + 1].strip()
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        terms.append(sign + body)
    if not terms:
        raise ValueError(f"cannot parse {text!r}")
    coeffs: dict[int, object] = {}
    for term in terms:
        term = term.replace(" ", "")
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError(f"empty term in {text!r}")
        if "*" in term:
            cs, bs = term.split("*", 1)
            coeff, mask = _parse_coeff(cs), _parse_blade(bs, dim)
        elif term[0] == "e" and _BLADE_RE.match(term):
            coeff, mask = 1, _parse_blade(term, dim)
        else:
            coeff, mask = _parse_coeff(term), 0
        if sign < 0:
            coeff = -coeff
        coeffs[mask] = coeffs.get(mask, 0) + coeff
    return cls(dim, coeffs)


# ---- module-level operations -------------------------------------------


def scalar_product(a: Multivector, b: Multivector):
    """Sc(a * conjugate(b)); for equal arguments this is the squared norm."""
    a._check_dim(b)
    bc = b.conjugate().coeffs
    total = 0
    # only aligned blades contribute to the scalar part
    for m, ca in a.coeffs.items():
        cb = bc.get(m)
        if cb is not None:
            prod = ca * cb
            total = total + (prod if blade_product_sign(m, m) > 0 else -prod)
    return total


def vector_inverse(x: Multivector) -> Multivector:
    """Inverse of a nonzero vector: -x / |x|^2."""
    if not x.is_vector() or x.is_zero():
        raise ValueError("vector_inverse requires a nonzero grade-1 element")
    return -x / x.norm_sq()


def clifford_group_inverse(a: Multivector) -> Multivector:
    """Inverse of a product of nonzero vectors: conjugate(a) / Sc(conjugate(a) a).

    The caller asserts that `a` is indeed such a product; the only check
    performed is that the scalar denominator does not vanish.  Division
    keeps exact coefficients exact.
    """
    denom = (a.conjugate() * a).scalar_part()
    if denom == 0:
        raise ValueError("clifford_group_inverse: scalar Sc(conj(a) a) vanishes")
    return a.conjugate() / denom
