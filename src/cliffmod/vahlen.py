"""2x2 Vahlen matrices over Cl_n and their Moebius action on upper half-space.

A matrix M = (a b; c d) with Clifford entries acts on vectors by

    M<x> = (a x + b)(c x + d)^{-1},

and the group of interest is generated by translations, the inversion
J = (0 -1; 1 0), rotations and dilatations.  Matrices built from these
generators carry a `word` (tuple of generator tokens) as provenance;
products and inverses propagate it when they can.  The word is what
certifies "entries are products of vectors", which is not decidable
from the entries alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .clifford import Multivector, clifford_group_inverse, vector_inverse


# Relative tolerance of the float Vahlen conditions and Moebius grade residues.
FLOAT_TOL = 1e-10


def _vanishes(v: Multivector, scale: Multivector | None = None) -> bool:
    """The one vanishing rule of the group side: exact v must be 0; float v
    must have |v| <= FLOAT_TOL * max(1, |scale|)."""
    if v.is_exact:
        return v.is_zero()
    return v.norm() <= FLOAT_TOL * max(1.0, 0.0 if scale is None else scale.norm())


class GradedResidueError(ArithmeticError):
    """Moebius image failed to collapse to grade 1 within tolerance."""


@dataclass(frozen=True, slots=True)
class VahlenMatrix:
    """2x2 matrix over Cl_n with optional generator-word provenance."""

    a: Multivector
    b: Multivector
    c: Multivector
    d: Multivector
    word: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        dims = {self.a.dim, self.b.dim, self.c.dim, self.d.dim}
        if len(dims) != 1:
            raise ValueError(f"mixed entry dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.a.dim

    @classmethod
    def identity(cls, n: int) -> "VahlenMatrix":
        one, zero = Multivector.scalar(n, 1), Multivector.zero(n)
        return cls(one, zero, zero, one, word=())

    def entries(self) -> tuple[Multivector, Multivector, Multivector, Multivector]:
        return (self.a, self.b, self.c, self.d)

    def is_exact(self) -> bool:
        return all(e.is_exact for e in self.entries())

    def to_float(self) -> "VahlenMatrix":
        return VahlenMatrix(*(e.to_float() for e in self.entries()), word=self.word)

    def __mul__(self, other):
        if not isinstance(other, VahlenMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __neg__(self):
        # -M = J^2 M, so provenance survives negation
        word = ("J", "J") + self.word if self.word is not None else None
        return VahlenMatrix(-self.a, -self.b, -self.c, -self.d, word=word)

    def entries_equal(self, other: "VahlenMatrix") -> bool:
        """Entrywise equality, ignoring provenance words."""
        return self.entries() == other.entries()

    def to_strings(self) -> dict[str, str]:
        return {k: v.to_string() for k, v in zip("abcd", self.entries())}

    def __repr__(self):
        e = self.to_strings()
        w = "" if self.word is None else f", word={'.'.join(self.word) or 'id'}"
        return f"VahlenMatrix([{e['a']}, {e['b']}; {e['c']}, {e['d']}]{w})"


# ---- generators ----------------------------------------------------------


def make_translation(b: Multivector) -> VahlenMatrix:
    """T_b = (1 b; 0 1) for a vector b; acts as x -> x + b."""
    if not b.is_vector():
        raise ValueError("translation offset must be grade 1")
    n = b.dim
    one, zero = Multivector.scalar(n, 1), Multivector.zero(n)
    return VahlenMatrix(one, b, zero, one, word=(f"T({b.to_string()})",))


def make_inversion(n: int) -> VahlenMatrix:
    """J = (0 -1; 1 0); acts as x -> -x^{-1}."""
    one, zero = Multivector.scalar(n, 1), Multivector.zero(n)
    return VahlenMatrix(zero, -one, one, zero, word=("J",))


def make_rotation(units) -> VahlenMatrix:
    """Product of R_u = (reverse(u) 0; 0 u^{-1}) over unit vectors u.

    An exact u must have |u|^2 == 1; a float u, |u|^2 within 1e-12 of 1."""
    factors = list(units)
    if not factors:
        raise ValueError("make_rotation needs at least one unit vector")
    out = None
    for u in factors:
        if not u.is_vector() or u.is_zero():
            raise ValueError("rotation factors must be nonzero vectors")
        nsq = u.norm_sq()
        unit = nsq == 1 if u.is_exact else math.isclose(nsq, 1.0, rel_tol=0, abs_tol=1e-12)
        if not unit:
            raise ValueError(f"rotation factor must be a unit vector, |u|^2 = {nsq}")
        zero = Multivector.zero(u.dim)
        step = VahlenMatrix(u.reverse(), zero, zero, vector_inverse(u),
                            word=(f"R({u.to_string()})",))
        out = step if out is None else mat_mul(out, step)
    return out


def make_dilatation(n: int, alpha) -> VahlenMatrix:
    """D_alpha = (alpha 0; 0 1/alpha) for real alpha != 0; acts as x -> alpha^2 x."""
    if alpha == 0:
        raise ValueError("dilatation factor must be nonzero")
    a = Multivector.scalar(n, alpha)  # a non-real alpha raises TypeError here
    zero = Multivector.zero(n)
    return VahlenMatrix(a, zero, zero, Multivector.scalar(n, 1) / alpha,
                        word=(f"D({_format_scalar(alpha)})",))


@lru_cache(maxsize=1024)
def _translation_offset(tok: str, n: int) -> Multivector | None:
    """The offset b of a provenance token `T(b)`, None for any other token;
    a `T(...)` token whose offset does not parse raises ValueError (and is
    not cached, so it raises again on every call)."""
    if tok.startswith("T(") and tok.endswith(")"):
        return Multivector.from_string(n, tok[2:-1])
    return None


@lru_cache(maxsize=1024)
def _inverse_tokens(tok: str, n: int) -> tuple[str, ...] | None:
    """The provenance tokens of a token's inverse: J^{-1} = J J J and
    T_b^{-1} = T_{-b}; None for any other generator."""
    if tok == "J":
        return ("J", "J", "J")
    b = _translation_offset(tok, n)
    return None if b is None else (f"T({(-b).to_string()})",)


def _format_scalar(a) -> str:
    return repr(a) if isinstance(a, float) else str(a)


# ---- matrix algebra ------------------------------------------------------


def mat_mul(m1: VahlenMatrix, m2: VahlenMatrix) -> VahlenMatrix:
    if m1.dim != m2.dim:
        raise ValueError(f"dimension mismatch: {m1.dim} vs {m2.dim}")
    word = None
    if m1.word is not None and m2.word is not None:
        word = m1.word + m2.word
    return VahlenMatrix(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
        word=word,
    )


def mat_inv(m: VahlenMatrix) -> VahlenMatrix:
    """Inverse of a pseudo-determinant-1 Vahlen matrix:

        (a b; c d)^{-1} = (reverse(d), -reverse(b); -reverse(c), reverse(a)).

    Provenance: words over T and J invert token by token (J^{-1} = J J J,
    T_b^{-1} = T_{-b}); words containing other generators are dropped.
    """
    word = None
    if m.word is not None:
        toks: list[str] = []
        for tok in reversed(m.word):
            if (inv := _inverse_tokens(tok, m.dim)) is None:
                break
            toks.extend(inv)
        else:
            word = tuple(toks)
    return VahlenMatrix(m.d.reverse(), -m.b.reverse(), -m.c.reverse(), m.a.reverse(), word=word)


def pseudo_det(m: VahlenMatrix) -> Multivector:
    """a reverse(d) - b reverse(c); scalar for genuine Vahlen matrices."""
    return m.a * m.d.reverse() - m.b * m.c.reverse()


def is_vahlen(m: VahlenMatrix):
    """Check the decidable Vahlen conditions.

    Returns False when a condition fails, True when all pass and the
    matrix carries word provenance (entries certified as products of
    vectors), and None ("unknown") when all pass but there is no word.
    """
    pd = pseudo_det(m)
    sc = pd.grade_project(0)
    if _vanishes(sc) or not _vanishes(pd - sc, pd):
        return False
    one = Multivector.scalar(m.dim, 1)
    for u, v in ((m.a, m.b), (m.d, m.c)):
        # a^{-1} b and d^{-1} c must be vectors when defined
        if u.is_zero():
            continue
        try:
            u_inv = clifford_group_inverse(u)
        except ValueError:
            return False
        w = u_inv * v
        if not _vanishes(u_inv * u - one) or not _vanishes(w - w.grade_project(1), w):
            return False
    return True if m.word is not None else None


# ---- the Moebius action --------------------------------------------------


def mobius_apply(m: VahlenMatrix, x: Multivector) -> Multivector:
    """Evaluate M<x> = (a x + b)(c x + d)^{-1} for a vector x.

    The product is computed in the full algebra and then projected onto
    grade 1; for genuine group elements the residue vanishes, and a
    residue that does not vanish (exactly, or within `FLOAT_TOL` relative
    for floats) raises GradedResidueError.  A non-finite point, a zero
    denominator, or a float one with |c x + d|^2 < 1e-14, raises ValueError.
    """
    if not x.is_vector():
        raise ValueError("Moebius action is defined on grade-1 arguments")
    if any(isinstance(c, float) and not math.isfinite(c) for c in x.coeffs.values()):
        raise ValueError("Moebius action is defined at points with finite coordinates")
    if x.dim != m.dim:
        raise ValueError(f"dimension mismatch: point in dim {x.dim}, matrix in dim {m.dim}")
    den = m.c * x + m.d
    sc = (den.conjugate() * den).scalar_part()
    if sc == 0 or isinstance(sc, float) and abs(sc) < 1e-14:
        raise ValueError(f"denominator c x + d is not invertible at this point (|c x + d|^2 = {sc})")
    full = (m.a * x + m.b) * (den.conjugate() / sc)
    image = full.grade_project(1)
    if not _vanishes(full - image, full):
        raise GradedResidueError(f"Moebius image has grade residue {(full - image).norm():.3e}")
    return image


def in_half_space(x: Multivector) -> bool:
    """Strict upper half-space test: last component positive."""
    return float(x.component(x.dim)) > 0


def in_strip(x: Multivector, eps: float) -> bool:
    """Vertical strip: |underscored part| <= 1/eps and x_n > eps."""
    if not eps > 0:
        raise ValueError("strip parameter must be positive")
    if not x.is_vector():
        raise ValueError("strip membership is defined for grade-1 elements")
    comps = [float(c) for c in x.vector_components()]
    xn = comps[-1]
    base = math.sqrt(sum(c * c for c in comps[:-1]))
    return xn > eps and base <= 1.0 / eps
