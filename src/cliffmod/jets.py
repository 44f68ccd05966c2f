"""Truncated multivariate Taylor arithmetic (jets) with float coefficients.

A jet stores the Taylor coefficients f_m = (d^m f)(x0) / m! of a smooth
function around a base point, for all multi-indices m with |m| <= order.
Sums, products and real powers of jets then yield exact derivative
values of composite expressions, with no step-size error; this is what
the kernel derivative tables are built from (finite differences serve
only as an independent cross-check).

Layout.  A jet keeps its coefficients in one flat list, ordered like
`multi_indices_upto(nvars, order)`: by total degree, and within a degree
in the stars-and-bars order of `multi_indices`.  Everything that depends
only on the shape (nvars, order) lives in one cached `_Shape` per shape:
the multi-index of each position and its inverse map, and the
product-pair table.  Row i of that table lists, for every position j
with |m_i| + |m_j| <= order, the position of m_i + m_j.  Because the
order is graded, those j are a prefix of the layout, so a row is a
tuple indexed by j.  A product of two jets walks only those admissible
pairs and skips zero coefficients; it builds no tuples (indexed
Taylor-mode arithmetic, Griewank & Walther, *Evaluating Derivatives*,
ch. 13).

The pair table of a shape holds C(2 nvars + order, order) entries (one
per pair of multi-indices whose degrees add up to at most the order),
the multi-index list nvars C(nvars + order, order).  Shapes where either
exceeds `MAX_JET_TABLE` are refused with ValueError before anything is
built.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType


def multi_indices(nvars: int, total: int) -> list[tuple[int, ...]]:
    """All multi-indices over nvars variables with |m| == total."""
    out = []
    # stars and bars over the ordered compositions
    for bars in combinations(range(total + nvars - 1), nvars - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(total + nvars - 2 - prev)
        out.append(tuple(parts))
    return out


def multi_indices_upto(nvars: int, order: int) -> list[tuple[int, ...]]:
    out = []
    for k in range(order + 1):
        out.extend(multi_indices(nvars, k))
    return out


def factorial_prod(m: tuple[int, ...]) -> int:
    out = 1
    for k in m:
        out *= math.factorial(k)
    return out


# Shapes whose tables hold more entries than this are refused before any
# work.  It admits order 3 in up to 21 variables, order 5 in up to nine,
# order 7 in up to five and order 10 in four; the largest shape the repo
# uses is order 7 in four variables (6435 entries).
MAX_JET_TABLE = 50_000


def _table_size(nvars: int, order: int) -> int:
    """Entries of a (nvars, order) shape's tables: the larger of its pair
    table, C(2 nvars + order, order), and its multi-index list,
    nvars C(nvars + order, order)."""
    return max(math.comb(2 * nvars + order, order), nvars * math.comb(nvars + order, order))


def require_jet_budget(nvars: int, order: int):
    """Refuse a jet shape that is invalid or over `MAX_JET_TABLE`."""
    if nvars < 1 or order < 0:
        raise ValueError("need nvars >= 1 and order >= 0")
    # the table size is at least nvars + order, so a larger sum needs no binomials
    if nvars + order > MAX_JET_TABLE or _table_size(nvars, order) > MAX_JET_TABLE:
        raise ValueError(f"a jet of order {order} in {nvars} variables needs more than the "
                         f"budget of {MAX_JET_TABLE} table entries; lower the order")


class _Shape:
    """The flat layout of one (nvars, order) and its product-pair table."""

    __slots__ = ("nvars", "order", "size", "indices", "position", "pairs", "units", "squares")

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        self.indices = tuple(multi_indices_upto(nvars, order))
        self.size = len(self.indices)
        self.position = position = {m: i for i, m in enumerate(self.indices)}
        # positions with degree <= k are the prefix of length upto[k]
        upto = [math.comb(nvars + k, k) for k in range(order + 1)]
        self.pairs = tuple(
            tuple(position[tuple(x + y for x, y in zip(mi, mj))]
                  for mj in self.indices[:upto[order - sum(mi)]])
            for mi in self.indices
        )
        # positions of e_i and of 2 e_i, where the order admits them
        eye = [tuple(int(j == i) for j in range(nvars)) for i in range(nvars)] if order else []
        self.units = tuple(position[e] for e in eye)
        self.squares = tuple(position[tuple(2 * k for k in e)] for e in eye) if order >= 2 else ()


@lru_cache(maxsize=None)
def _shape(nvars: int, order: int) -> _Shape:
    """The one shared `_Shape` of (nvars, order); a refused shape is not cached."""
    require_jet_budget(nvars, order)
    return _Shape(nvars, order)


class Jet:
    """Taylor coefficients of one scalar function, truncated at `order`.

    `coeffs` is the flat coefficient list over the shape's layout; `terms`
    is a read-only view of the nonzero ones keyed by multi-index.
    """

    __slots__ = ("_shape", "coeffs")

    def __init__(self, nvars: int, order: int, terms=None):
        """A jet from a mapping of multi-indices (|m| <= order) to coefficients."""
        self._shape = shape = _shape(nvars, order)
        self.coeffs = [0.0] * shape.size
        for m, c in (terms or {}).items():
            i = shape.position.get(tuple(m))
            if i is None:
                raise ValueError(f"multi-index {m} does not fit a jet of order {order} "
                                 f"in {nvars} variables")
            self.coeffs[i] = float(c)

    @classmethod
    def _from_coeffs(cls, shape: _Shape, coeffs: list) -> "Jet":
        jet = cls.__new__(cls)
        jet._shape = shape
        jet.coeffs = coeffs
        return jet

    @property
    def nvars(self) -> int:
        return self._shape.nvars

    @property
    def order(self) -> int:
        return self._shape.order

    @property
    def terms(self):
        return MappingProxyType({m: c for m, c in zip(self._shape.indices, self.coeffs) if c})

    @classmethod
    def constant(cls, nvars: int, order: int, value: float) -> "Jet":
        shape = _shape(nvars, order)
        return cls._from_coeffs(shape, [float(value)] + [0.0] * (shape.size - 1))

    def _check(self, other: "Jet"):
        if self._shape is not other._shape:
            raise ValueError("jet shape mismatch")

    def value(self) -> float:
        return self.coeffs[0]

    def coefficient(self, m: tuple[int, ...]) -> float:
        """The Taylor coefficient f_m = (d^m f)(x0) / m!."""
        shape = self._shape
        if len(m) != shape.nvars:
            raise ValueError(f"multi-index length {len(m)} != jet variables {shape.nvars}")
        if sum(m) > shape.order:
            raise ValueError(f"derivative order {sum(m)} exceeds jet order {shape.order}")
        i = shape.position.get(tuple(m))
        if i is None:
            raise ValueError(f"{m} is not a multi-index")
        return self.coeffs[i]

    def derivative(self, m: tuple[int, ...]) -> float:
        """(d^m f)(x0): Taylor coefficient rescaled by m!."""
        return self.coefficient(m) * factorial_prod(m)

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet._from_coeffs(self._shape, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        if isinstance(other, (int, float)):
            out = list(self.coeffs)
            out[0] += float(other)
            return Jet._from_coeffs(self._shape, out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet._from_coeffs(self._shape, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (Jet, int, float)):
            return self + (-other if isinstance(other, Jet) else -float(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            shape = self._shape
            b = other.coeffs
            out = [0.0] * shape.size
            for ca, row in zip(self.coeffs, shape.pairs):
                if ca:
                    # zip stops at the row's end: the pairs within the order
                    for k, cb in zip(row, b):
                        if cb:
                            out[k] += ca * cb
            return Jet._from_coeffs(shape, out)
        if isinstance(other, (int, float)):
            k = float(other)
            return Jet._from_coeffs(self._shape, [c * k for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def power(self, exponent: float) -> "Jet":
        """Real power of a jet whose value is positive, via the binomial series.

        Writes self = u0 (1 + w) with w the zero-value part; the series
        terminates exactly at the truncation order.
        """
        u0 = self.value()
        if u0 <= 0.0:
            raise ValueError("jet power needs a positive value at the base point")
        shape = self._shape
        inv = 1.0 / u0
        w = Jet._from_coeffs(shape, [0.0] + [c * inv for c in self.coeffs[1:]])
        out = [1.0] + [0.0] * (shape.size - 1)
        acc = w
        coeff = 1.0
        for k in range(1, shape.order + 1):
            coeff *= (exponent - (k - 1)) / k
            if k > 1:
                acc = acc * w
            out = [o + coeff * a for o, a in zip(out, acc.coeffs)]
        scale = u0 ** exponent
        return Jet._from_coeffs(shape, [c * scale for c in out])


def jet_norm_sq(point, order: int) -> Jet:
    """The jet of |x|^2 at a point, from its closed form: |x0|^2, then
    2 x0_i on each e_i and 1 on each 2 e_i (truncated at the order)."""
    comps = [float(c) for c in point]
    out = Jet.constant(len(comps), order, sum(c * c for c in comps))
    for k, c in zip(out._shape.units, comps):
        out.coeffs[k] = 2.0 * c
    for k in out._shape.squares:
        out.coeffs[k] = 1.0
    return out
