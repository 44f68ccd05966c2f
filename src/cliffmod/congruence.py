"""Hypercomplex modular groups, congruence subgroups, coset enumeration.

For 1 <= p <= n-1 the group Gamma_p is generated by the translations
T_{e_1}..T_{e_p} and the inversion J.  Its entries live in the standard
order O_p, the integer span of all blades over e_1..e_p.  Each variant
is one rule (`_RULES`) on a matrix's entries reduced mod its modulus N:

- full:          N = 1, every residue is kept
- principal[N]:  the residue is I
- upper0[N]:     b = 0
- lower0[N]:     c = 0
- theta:         N = 2, the residue is I or J = (0 1; 1 0)

Reduction mod N is a ring map on O_p, so membership is one lookup, and
the translation lattice and whether -I is a member follow from the rule.

Membership testing requires generator-word provenance (a matrix built
by multiplying T/J generators); entries alone cannot certify that a
matrix belongs to Gamma_p.  Cosets of the translation subgroup are
canonically keyed by the exact bottom row (c, d): two members share a
coset of T(Lambda)\\Lambda exactly when their bottom rows agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

from .clifford import Multivector
from .vahlen import VahlenMatrix, _translation_offset, make_inversion, make_translation, mat_inv, mat_mul


def _residue(m: VahlenMatrix, modulus: int, entries: str) -> tuple[frozenset, ...]:
    """Per named entry of m, its nonzero (blade mask, coefficient mod N)
    pairs; a float coefficient raises TypeError, as in `in_order`."""
    out = []
    for name in entries:
        pairs = []
        for mask, c in getattr(m, name).coeffs.items():
            if isinstance(c, float):
                raise TypeError("a residue mod N needs exact entries")
            if r := c % modulus:
                pairs.append((mask, r))
        out.append(frozenset(pairs))
    return tuple(out)


class _Rule(NamedTuple):
    label: str            # formatted with p and the level N
    modulus: int | None   # fixed, or None for the group's level N >= 2
    entries: str          # the entries of (a b; c d) that the rule reads
    kept: frozenset       # the residues of those entries that it keeps


_ZERO, _ONE = frozenset(), frozenset({(0, 1)})  # 0 and 1 mod any N >= 2
_I, _J = (_ONE, _ZERO, _ZERO, _ONE), (_ZERO, _ONE, _ONE, _ZERO)  # J = (0 -1; 1 0) mod 2
_RULES = {
    "full": _Rule("Gamma_{p}", 1, "", frozenset({()})),
    "principal": _Rule("Gamma_{p}[{N}]", None, "abcd", frozenset({_I})),
    "upper0": _Rule("Gamma_{p}^0[{N}]", None, "b", frozenset({(_ZERO,)})),
    "lower0": _Rule("Gamma_{p}_0[{N}]", None, "c", frozenset({(_ZERO,)})),
    "theta": _Rule("Gamma_{p}_theta", 2, "abcd", frozenset({_I, _J})),
}
VARIANTS = tuple(_RULES)


@dataclass(frozen=True)
class GroupDescriptor:
    """A congruence subgroup of Gamma_p acting on H^+ in R^n.  Without a
    variant, a level names principal[N] and no level the full group."""

    n: int
    p: int
    variant: str | None = None
    level: int | None = None

    def __post_init__(self):
        if self.variant is None:
            object.__setattr__(self, "variant", "full" if self.level is None else "principal")
        if not 1 <= self.p <= self.n - 1:
            raise ValueError(f"need 1 <= p <= n-1, got p={self.p}, n={self.n}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if _RULES[self.variant].modulus is None:
            if not isinstance(self.level, int) or self.level < 2:
                raise ValueError(f"variant {self.variant!r} needs an integer level >= 2")
        elif self.level is not None:
            raise ValueError(f"variant {self.variant!r} takes no level")

    @classmethod
    def full(cls, n: int, p: int) -> "GroupDescriptor":
        return cls(n, p, "full")

    @classmethod
    def principal(cls, n: int, p: int, level: int) -> "GroupDescriptor":
        return cls(n, p, "principal", level)

    @classmethod
    def upper0(cls, n: int, p: int, level: int) -> "GroupDescriptor":
        return cls(n, p, "upper0", level)

    @classmethod
    def lower0(cls, n: int, p: int, level: int) -> "GroupDescriptor":
        return cls(n, p, "lower0", level)

    @classmethod
    def theta(cls, n: int, p: int) -> "GroupDescriptor":
        return cls(n, p, "theta")

    @property
    def label(self) -> str:
        return _RULES[self.variant].label.format(p=self.p, N=self.level)


# ---- the standard order ---------------------------------------------------


def in_order(a: Multivector, p: int, level: int = 1) -> bool:
    """Whether every coefficient of `a` lies in level*Z over blades of e_1..e_p.

    Exact coefficients are required; float input raises TypeError so a
    rounding artifact can never silently certify membership.
    """
    if not a.is_exact:
        raise TypeError("order membership needs exact coefficients")
    span = (1 << p) - 1
    for mask, c in a.coeffs.items():
        if mask & ~span:
            return False
        if c.denominator != 1 or c.numerator % level:
            return False
    return True


# ---- generators and word certification -------------------------------------


def gamma_generators(n: int, p: int) -> list[VahlenMatrix]:
    """T_{e_1}..T_{e_p}, their inverses, and J: a generating set of Gamma_p."""
    gens = []
    for i in range(1, p + 1):
        e = Multivector.basis(n, i)
        gens.append(make_translation(e))
        gens.append(make_translation(-e))
    gens.append(make_inversion(n))
    return gens


def certified_in_gamma(m: VahlenMatrix, p: int) -> bool:
    """True when the provenance word uses only J and integer translations
    supported on e_1..e_p, i.e. the matrix is certified to lie in Gamma_p."""
    if m.word is None:
        return False
    for tok in m.word:
        if tok == "J":
            continue
        try:
            b = _translation_offset(tok, m.dim)
        except ValueError:
            return False
        if b is None or not (b.is_vector() and b.is_exact and in_order(b, p)):
            return False
    return True


def is_member(m: VahlenMatrix, group: GroupDescriptor) -> bool:
    """Membership in the congruence subgroup, certified by provenance.

    Raises ValueError when the matrix has no generator-word certificate
    for Gamma_p (entries alone cannot decide that).
    """
    if m.dim != group.n:
        raise ValueError(f"matrix dim {m.dim} does not match group n={group.n}")
    if not certified_in_gamma(m, group.p):
        raise ValueError("membership requires generator-word provenance over Gamma_p "
                         "(build the matrix from make_translation/make_inversion products)")
    return _congruence_conditions(m, group)


def _congruence_conditions(m: VahlenMatrix, group: GroupDescriptor) -> bool:
    """One lookup of m's residue in its variant's kept set; full (N = 1)
    keeps every residue, so it reduces nothing."""
    rule = _RULES[group.variant]
    modulus = rule.modulus or group.level
    return modulus == 1 or _residue(m, modulus, rule.entries) in rule.kept


# ---- translation lattices ---------------------------------------------------


@dataclass(frozen=True)
class TranslationLattice:
    """The lattice of offsets b with T_b in the group: scale * Z^p."""

    p: int
    scale: int

    def contains(self, b: Multivector) -> bool:
        return b.is_vector() and in_order(b, self.p, self.scale)

    def basis_vectors(self, n: int) -> list[Multivector]:
        return [Multivector.basis(n, i) * self.scale for i in range(1, self.p + 1)]


def translation_lattice(group: GroupDescriptor) -> TranslationLattice:
    """T(G) = scale * Z^p, scale the least k > 0 with T_{k e_1} kept: the
    rules treat e_1..e_p alike, and T_{N e_1} = I mod N is always kept."""
    e1 = Multivector.basis(group.n, 1)
    return TranslationLattice(group.p, next(k for k in count(1)
                                            if _congruence_conditions(make_translation(e1 * k), group)))


def is_translation(m: VahlenMatrix) -> bool:
    n = m.dim
    one, zero = Multivector.scalar(n, 1), Multivector.zero(n)
    return m.a == one and m.d == one and m.c == zero and m.b.is_vector()


# ---- cosets of the translation subgroup -------------------------------------


def _mv_key(v: Multivector) -> tuple:
    # exact coefficients only: int and Fraction both carry numerator/denominator
    return tuple((mask, c.numerator, c.denominator) for mask, c in sorted(v.coeffs.items()))


def _negated_key(key: tuple) -> tuple:
    return tuple(tuple((mask, -num, den) for mask, num, den in part) for part in key)


def bottom_row_key(m: VahlenMatrix) -> tuple:
    """Canonical exact key (c, d) labelling the coset T(G) m."""
    if not m.is_exact():
        raise TypeError("coset keys need exact entries")
    return (_mv_key(m.c), _mv_key(m.d))


def same_coset(m1: VahlenMatrix, m2: VahlenMatrix, group: GroupDescriptor) -> bool:
    """Oracle: m1, m2 lie in one T(G)-coset iff m1 m2^{-1} is a lattice translation."""
    if not (is_member(m1, group) and is_member(m2, group)):
        raise ValueError("same_coset needs two members of the group")
    q = mat_mul(m1, mat_inv(m2))
    return is_translation(q) and translation_lattice(group).contains(q.b)


@dataclass(frozen=True, slots=True)
class CosetRep:
    """A shortest-word representative of one coset of T(G) in G."""

    matrix: VahlenMatrix
    key: tuple
    word_length: int
    height: float  # |c e_n + d|, the growth weight of the bottom row

    def is_c_zero(self) -> bool:
        return self.matrix.c.is_zero()


# Word balls whose size estimate exceeds this are refused before any work:
# it admits p = 1 up to L = 10 (3070) and p = 2 up to L = 5 (1706).
MAX_BALL_ESTIMATE = 4000


def ball_size_estimate(p: int, max_len: int) -> int:
    """Reduced words of length <= max_len in g = 2p + 1 generators,
    1 + g((g-1)^L - 1)/(g-2): the free-group size of a word ball.  The
    measured balls of Gamma_p stay under it (1930 of 3070 at p = 1,
    L = 10; 716 of 1706 at p = 2, L = 5)."""
    g = 2 * p + 1
    return 1 + g * ((g - 1) ** max_len - 1) // (g - 2)


class _GrowingBall:
    """The breadth-first word ball of Gamma_p in R^n, grown one level at a
    time, so the ball of radius L is a prefix of every larger one.  The
    exact keys that deduplicate it are rebuilt for each growth rather than
    kept, and equal entries of different elements share one (immutable)
    Multivector: both would otherwise outweigh the ball's other memory."""

    def __init__(self, n: int, p: int):
        self.gens = gamma_generators(n, p)
        self.elements = [VahlenMatrix.identity(n)]
        self.frontier = list(self.elements)  # the elements of the outermost level
        self.level_ends = [1]  # elements[:level_ends[L]] is the ball of radius L

    def upto(self, max_len: int) -> tuple[VahlenMatrix, ...]:
        if len(self.level_ends) <= max_len:
            seen, shared = set(), {}
            for m in self.elements:
                k = _matrix_key(m)
                seen.add(k)
                shared.update(zip(k, m.entries()))
            while len(self.level_ends) <= max_len:
                new_frontier = []
                for m in self.frontier:
                    for g in self.gens:
                        q = mat_mul(m, g)
                        k = _matrix_key(q)
                        if k not in seen:
                            seen.add(k)
                            entries = (shared.setdefault(ek, e) for ek, e in zip(k, q.entries()))
                            new_frontier.append(VahlenMatrix(*entries, word=q.word))
                self.elements += new_frontier
                self.frontier = new_frontier
                self.level_ends.append(len(self.elements))
        return tuple(self.elements[:self.level_ends[max_len]])


_BALLS: dict[tuple[int, int], _GrowingBall] = {}


def _gamma_ball(n: int, p: int, max_len: int) -> tuple[VahlenMatrix, ...]:
    """All distinct Gamma_p elements that are generator words of length <= max_len.

    Breadth-first over right multiplication, deduplicated on exact
    entries, so each element is reached by a shortest word and the
    enumeration order is deterministic.  One ball per (n, p) grows as
    larger radii are asked for; a radius whose ball_size_estimate exceeds
    MAX_BALL_ESTIMATE is refused before any work.
    """
    if max_len < 0:
        raise ValueError("word length bound must be >= 0")
    # the estimate is at least 2^max_len, so a long bound is refused without computing it
    if max_len >= MAX_BALL_ESTIMATE.bit_length() or ball_size_estimate(p, max_len) > MAX_BALL_ESTIMATE:
        raise ValueError(f"a word ball of length {max_len} over p = {p} may hold more than the budget "
                         f"of {MAX_BALL_ESTIMATE} matrices; lower the word length bound")
    if (n, p) not in _BALLS:
        _BALLS[n, p] = _GrowingBall(n, p)
    return _BALLS[n, p].upto(max_len)


def _matrix_key(m: VahlenMatrix) -> tuple:
    return (_mv_key(m.a), _mv_key(m.b), _mv_key(m.c), _mv_key(m.d))


def gamma_ball(n: int, p: int, max_len: int) -> list[VahlenMatrix]:
    return list(_gamma_ball(n, p, max_len))


def enumerate_cosets(group: GroupDescriptor, max_len: int) -> list[CosetRep]:
    """Representatives of T(G)\\G found within generator words of length <= max_len.

    The list is sorted by (height, word_length, key) so truncated series
    built on it are reproducible.  Raising max_len never removes cosets:
    the ball only grows and keys are stable.
    """
    e_n = Multivector.basis(group.n, group.n)
    reps: dict[tuple, VahlenMatrix] = {}
    for m in _gamma_ball(group.n, group.p, max_len):
        if not _congruence_conditions(m, group):
            continue
        k = bottom_row_key(m)
        if k not in reps:
            reps[k] = m
    out = []
    for k, m in reps.items():
        height = (m.c * e_n + m.d).norm()
        out.append(CosetRep(matrix=m, key=k, word_length=len(m.word), height=height))
    out.sort(key=lambda r: (r.height, r.word_length, r.key))
    return out


def contains_neg_identity(group: GroupDescriptor) -> bool:
    """Whether -I belongs to the group: whether its residue is kept."""
    return _congruence_conditions(-VahlenMatrix.identity(group.n), group)
