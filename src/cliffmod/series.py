"""Truncated lattice and coset series attached to the Dirac kernels.

Two truncation parameters appear throughout and are reported, never
hidden: `box_radius` R bounds lattice points in the sup norm, and
`word_limit` L bounds the generator-word length of the coset
representatives a series is summed over.  Every coset series records
its partial sums level by level so convergence diagnostics work on the
actual summation order (height-sorted within each word-length level).

Every coset series is one Poincare-type sum over the cosets M = (a b; c d)
of T(G)\\G,

    f(x, y) = sum_M  L(M, x) f~(M<x>) R(M, y),

with automorphy factors L = q0_s(c x + d) and no R for the one-sided
kinds, and L = conj(rev(q0_s(c x + d))), R = q0_t(y rev(c) + rev(d)) for
the two-sided ("biregular") series.  The Eisenstein kinds have f~ = 1;
the vector series has f~ = G_m(. + e_n) with the argument reduced mod
Z^{n-1}, so that it is periodic at every box radius; a "poincare" spec
takes the caller's f~ through `poincare_general`.  `evaluate` is the entry point.

The cosets of each (group, L) are enumerated once into a cached table.
For c != 0 the Vahlen conditions make v = c^{-1} d a vector, so
c x + d = c (x + v) and |c x + d| = |c| |x + v|; the f~ = 1 summands
are summed in that closed form.  `_factors` stays the one definition of
the automorphy factors: it serves the c = 0 rows, the kinds with
f~ != 1 and `automorphy_residual`, and is the oracle of the closed forms.

Weights must satisfy the convergence constraint p < n - 1 - s (scalar /
one-sided series, with s the kernel weight) or p < min(n, 2n - 2 - s - t)
for the two-sided series; SeriesSpec enforces this at construction, and
`coset_norm_sums` exposes the growth of sum |c e_n + d|^{-alpha} that
the constraint comes from (convergence abscissa alpha = p + 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product

from .clifford import Multivector
from .congruence import (CosetRep, GroupDescriptor, _negated_key, contains_neg_identity,
                         enumerate_cosets, translation_lattice)
from .jets import require_jet_budget
from .kernels import KernelJet, kernel_scale, left_factor, q0_general
from .vahlen import in_half_space, mobius_apply

# f~ = 1: the large-x_n limit of these is the count of c = 0 cosets
EISENSTEIN_KINDS = ("scalar", "oddweight", "biregular")
# kinds whose f~ the spec fixes, so `evaluate` needs nothing else
EVALUATE_KINDS = EISENSTEIN_KINDS + ("vector",)
SERIES_KINDS = EVALUATE_KINDS + ("poincare",)
# the parity of s each kind needs (0 even, 1 odd); a poincare spec takes either
_WEIGHT_PARITY = {"scalar": 0, "oddweight": 1, "vector": 1, "biregular": 1}


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one truncated series, validated for convergence."""

    kind: str
    group: GroupDescriptor
    s: int
    t: int | None = None
    m: tuple[int, ...] | None = None
    word_limit: int = 6
    box_radius: int = 4

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}; choose from {SERIES_KINDS}")
        n, p = self.group.n, self.group.p
        if not isinstance(self.s, int) or not 1 <= self.s < n:
            raise ValueError(f"weight s must be an integer in 1..{n - 1}, got {self.s}")
        if self.word_limit < 0 or self.box_radius < 1:
            raise ValueError("need word_limit >= 0 and box_radius >= 1")
        parity = _WEIGHT_PARITY.get(self.kind)
        if parity is not None and self.s % 2 != parity:
            raise ValueError(f"{self.kind} series needs {('even', 'odd')[parity]} s, got s={self.s}")
        if self.two_sided:
            if self.t is None or not isinstance(self.t, int) or not 1 <= self.t < n:
                raise ValueError("biregular series needs a second weight t in 1..n-1")
            if self.t % 2 == 0:
                raise ValueError("biregular series needs odd weights on both sides")
            bound = min(n, 2 * n - 2 - self.s - self.t)
            if not p < bound:
                raise ValueError(f"two-sided convergence needs p < min(n, 2n-2-s-t) = {bound}, got p={p}")
        else:
            if self.t is not None:
                raise ValueError(f"{self.kind} series takes no second weight")
            if not p < n - 1 - self.s:
                raise ValueError(f"convergence needs p < n - 1 - s = {n - 1 - self.s}, got p={p} "
                                 "(the coset sums diverge at and below the abscissa p + 1)")
        if self.kind == "vector":
            if self.m is None:
                raise ValueError("vector series needs a derivative multi-index m")
            _check_multi_index(self.m, n, minimum=3)
            _box_points(n, self.box_radius, pairs=False)  # refuses an over-budget box now
            require_jet_budget(n, sum(self.m))  # and an over-budget jet
        elif self.m is not None:
            raise ValueError(f"{self.kind} series takes no multi-index")

    @property
    def two_sided(self) -> bool:
        """Whether the series has a right factor in a second point y."""
        return self.kind == "biregular"


def _check_multi_index(m, n: int, minimum: int):
    m = tuple(m)
    if len(m) != n or any(not isinstance(k, int) or k < 0 for k in m):
        raise ValueError(f"multi-index must be {n} nonnegative integers, got {m}")
    total = sum(m)
    if total < minimum or total % 2 == 0:
        raise ValueError(f"need |m| odd and >= {minimum}, got |m| = {total}")


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus its level-by-level partial sums."""

    value: Multivector
    partial_sums: list[tuple[int, Multivector]] = field(compare=False)
    coset_count_c0: int = 0
    n_terms: int = 0

    def partial_at(self, level: int) -> Multivector:
        for lvl, val in self.partial_sums:
            if lvl == level:
                return val
        raise KeyError(f"no partial sum recorded at level {level}")


# ---- pure lattice series ----------------------------------------------------

# Lattice boxes of more points than this are refused before any work (each
# point, or each +-omega pair of a symmetric sum, costs one kernel jet).  It
# admits radius 2 in up to six variables and radius 8 in three (the zeta
# sums of criterion 10 at n = 4).  The full box is counted either way.
MAX_BOX_POINTS = 20_000


def _box_points(dim: int, radius: int, pairs: bool):
    """Z^dim points with sup norm <= radius, a symmetric exhaustion, as an
    iterator.  With `pairs` it yields one point of each pair +-omega != 0:
    the points after zero in product order, whose first nonzero coordinate
    is positive.  That suffices for a sum of q_m with q0 odd and |m| odd,
    since q_m is then even.  The radius (>= 1) and the MAX_BOX_POINTS
    budget are checked when it is called, before any point is produced."""
    if radius < 1:
        raise ValueError(f"a lattice box needs box_radius >= 1, got {radius}")
    size = (2 * radius + 1) ** dim
    if size > MAX_BOX_POINTS:
        raise ValueError(f"a box of radius {radius} in {dim} variables has more than the budget "
                         f"of {MAX_BOX_POINTS} lattice points; lower the box radius")
    box = product(range(-radius, radius + 1), repeat=dim)
    return islice(box, (size + 1) // 2, None) if pairs else box


def _kernel_sum(points, ms, n: int) -> dict:
    """{m: sum of q_m(point) over the float points} (s = 1) for each
    multi-index m, from one kernel jet per point.  The one point rule of
    the lattice sums: a point needs 1e-12 <= |point| < inf, which refuses
    lattice poles and NaN or infinite coordinates alike."""
    order = max(sum(m) for m in ms)
    totals = {m: Multivector.zero(n) for m in ms}
    for pt in points:
        x = Multivector.vector(pt)
        if not 1e-12 <= x.norm() < math.inf:
            raise ValueError(f"lattice kernel sum at a point with |x| = {x.norm()}: the argument "
                             "must avoid the lattice poles and have finite coordinates")
        kj = KernelJet(x, 1, order)
        for m in ms:
            totals[m] = totals[m] + kj.q_m(m)
    return totals


def zeta_m(m, n: int, box_radius: int) -> Multivector:
    """Lattice kernel sum  sum_{omega in Z^{n-1}, 0 < |omega|_inf <= R} q_m(omega).

    Needs |m| >= 3 odd: the summand then decays like |omega|^{-n-|m|+1}
    and the symmetric box exhaustion converges absolutely.  q0 is odd and
    |m| is odd, so q_m is even and each pair +-omega is summed as twice
    one kernel jet.
    """
    m = tuple(m)
    return zeta_m_table([m], n, box_radius)[m]


def zeta_m_table(ms, n: int, box_radius: int) -> dict:
    """Several zeta_m values sharing one kernel jet per lattice point."""
    ms = [tuple(m) for m in ms]
    for m in ms:
        _check_multi_index(m, n, minimum=3)
    points = ([float(k) for k in omega] + [0.0]
              for omega in _box_points(n - 1, box_radius, pairs=True))
    return {m: total * 2.0 for m, total in _kernel_sum(points, ms, n).items()}


def epsilon_m(z: Multivector, m, box_radius: int = 4) -> Multivector:
    """Shifted lattice sum  sum_{|omega|_inf <= R} q_m(z + omega), z not in Z^{n-1}."""
    n = z.dim
    m = tuple(m)
    _check_multi_index(m, n, minimum=3)
    if not z.is_vector():
        raise ValueError("epsilon_m needs a grade-1 argument")
    zs = [float(c) for c in z.vector_components()]
    points = ([a + k for a, k in zip(zs, omega + (0,))]
              for omega in _box_points(n - 1, box_radius, pairs=False))
    return _kernel_sum(points, [m], n)[m]


def lattice_G_m(x: Multivector, m, box_radius: int = 4) -> Multivector:
    """Two-parameter lattice series  sum_{(alpha, omega) != 0} q_m(alpha x + omega)
    over |alpha| <= R, |omega|_inf <= R, for x in the upper half-space.
    q0 is odd and |m| is odd, so q_m is even: the points -(alpha x + omega)
    and alpha x + omega share one kernel jet."""
    n = x.dim
    m = tuple(m)
    _check_multi_index(m, n, minimum=3)
    _require_half_space(x)
    xs = [float(c) for c in x.vector_components()]
    points = ([alpha * a + k for a, k in zip(xs, (*omega, 0))]
              for alpha, *omega in _box_points(n, box_radius, pairs=True))
    return _kernel_sum(points, [m], n)[m] * 2.0


# ---- coset series -----------------------------------------------------------


def series_cosets(group: GroupDescriptor, word_limit: int) -> list[CosetRep]:
    """The exhaustion a truncated coset series is summed over.

    When -I lies in the group, cosets come in (c, d) / (-c, -d) pairs
    and signed summands cancel pairwise; a word-length ball need not
    contain both partners, so representatives whose partner is missing
    are dropped.  This is the coset analogue of the symmetric lattice
    boxes: it makes signed truncations cancel exactly instead of up to
    a stray unpaired term.
    """
    reps = enumerate_cosets(group, word_limit)
    if not contains_neg_identity(group):
        return reps
    keys = {rep.key for rep in reps}
    return [rep for rep in reps if _negated_key(rep.key) in keys]


@dataclass(frozen=True, slots=True)
class _CosetRow:
    """One coset of a series table: its representative and, for c != 0, what
    the closed-form summands need: |c|, float rev(c) and the shift
    v = c^{-1} d, a vector, so that c x + d = c (x + v).  To keep tables
    small no float matrix is stored: the c = 0 rows and the f~ != 1 kinds
    convert the exact one per term."""

    rep: CosetRep
    c_norm: float = 0.0
    rev_c: Multivector | None = None
    shift: tuple[float, ...] | None = None  # None on c = 0 rows


@dataclass(frozen=True, slots=True)
class _CosetTable:
    """The series cosets of one (group, L), level by level and height-sorted
    within a level; rows[:level_ends[k]] are those of word length <= k."""

    rows: tuple[_CosetRow, ...]
    level_ends: tuple[int, ...]
    c0: int


def _coset_row(rep: CosetRep) -> _CosetRow:
    """The table row of one representative.  The closed forms rest on two
    Vahlen facts, checked exactly: conj(c) c = |c|^2 and c^{-1} d is a vector."""
    m = rep.matrix
    if rep.is_c_zero():
        return _CosetRow(rep)
    c_sq = m.c.norm_sq()
    if m.c.conjugate() * m.c != Multivector.scalar(m.dim, c_sq):
        raise ValueError(f"coset row with c = {m.c} breaks conj(c) c = |c|^2")
    shift = m.c.conjugate() * m.d / c_sq
    if not shift.is_vector():
        raise ValueError(f"coset row with c^-1 d = {shift} is not a Vahlen bottom row")
    return _CosetRow(rep, math.sqrt(c_sq), m.c.reverse().to_float(),
                     tuple(float(v) for v in shift.vector_components()))


@lru_cache(maxsize=None)
def _coset_table(group: GroupDescriptor, word_limit: int) -> _CosetTable:
    """The one table per (group, L) that every coset series and coset_norm_sums walk."""
    reps = sorted(series_cosets(group, word_limit), key=lambda rep: rep.word_length)  # stable
    lengths = [rep.word_length for rep in reps]
    return _CosetTable(rows=tuple(_coset_row(rep) for rep in reps),
                       level_ends=tuple(bisect_right(lengths, k) for k in range(word_limit + 1)),
                       c0=sum(1 for rep in reps if rep.is_c_zero()))


def coset_counts(group: GroupDescriptor, word_limit: int) -> tuple[int, int]:
    """(terms, c = 0 cosets) of the truncation a coset series sums over."""
    table = _coset_table(group, word_limit)
    return len(table.rows), table.c0


def _level_walk(table: _CosetTable, term, total) -> list:
    """Add term(row) to total over the table; returns the running total
    after each word-length level."""
    partials, start = [], 0
    for level, end in enumerate(table.level_ends):
        for row in table.rows[start:end]:
            total = total + term(row)
        partials.append((level, total))
        start = end
    return partials


def _require_half_space(x: Multivector):
    if not x.is_vector() or not in_half_space(x):
        raise ValueError("series are evaluated on the open upper half-space (x_n > 0)")
    if not all(math.isfinite(float(c)) for c in x.coeffs.values()):
        raise ValueError("series are evaluated at points with finite coordinates")


def _float_points(spec: SeriesSpec, x: Multivector, y: Multivector | None):
    """The checked float points of one evaluation: y defaults to x for a
    two-sided series and is None for a one-sided one."""
    if spec.two_sided:
        y = x if y is None else y
    elif y is not None:
        raise ValueError(f"{spec.kind} series is one-sided and takes no second point")
    _require_half_space(x)
    if y is None:
        return x.to_float(), None
    _require_half_space(y)
    return x.to_float(), y.to_float()


def _factors(spec: SeriesSpec, m, x: Multivector, y: Multivector | None):
    """The automorphy factors (L, R) of a float coset matrix m: the summand
    at m is L f~(m<x>) R, and the full series satisfies f(x, y) =
    L f(m<x>, m<y>) R for group elements m.  R is None when y is."""
    den = m.c * x + m.d
    if y is None:
        return q0_general(den, spec.s), None
    return left_factor(den, spec.s), q0_general(y * m.c.reverse() + m.d.reverse(), spec.t)


def _sandwich(left: Multivector, middle, right):
    """left * middle * right, where a None middle or right is a factor 1."""
    out = left if middle is None else left * middle
    return out if right is None else out * right


def _shifted(row: _CosetRow, x: list, s: int, n: int) -> tuple[list, float]:
    """The coordinates of x + v and the kernel size factor at |c x + d| = |c| |x + v|."""
    w = [a + b for a, b in zip(x, row.shift)]
    return w, kernel_scale(row.c_norm * math.sqrt(sum(a * a for a in w)), s, n)


def _closed_term(spec: SeriesSpec, row: _CosetRow, x: list, y: list | None) -> Multivector:
    """The f~ = 1 summand L R at a c != 0 row, from c x + d = c (x + v), with
    r_x = |c| |x + v| (x and y are coordinate lists):
    scalar r_x^{s-n}; odd weight (x + v) rev(c) r_x^{-(n+1-s)};
    two-sided -(x + v)(y + v) |c|^2 r_x^{-(n+1-s)} r_y^{-(n+1-t)}."""
    n = spec.group.n
    wx, sx = _shifted(row, x, spec.s, n)
    if y is not None:
        wy, sy = _shifted(row, y, spec.t, n)
        return Multivector.vector(wx) * Multivector.vector(wy) * (-row.c_norm * row.c_norm * sx * sy)
    if spec.s % 2:
        return Multivector.vector(wx) * row.rev_c * sx
    return Multivector.scalar(n, sx)


def _coset_series(spec: SeriesSpec, f_tilde, x: Multivector, y: Multivector | None = None) -> SeriesResult:
    """The one driver: sum L f~(M<x>) R over the cosets; f~ None means 1."""
    xf, yf = _float_points(spec, x, y)
    xs = xf.vector_components()
    ys = None if yf is None else yf.vector_components()
    table = _coset_table(spec.group, spec.word_limit)

    def term(row: _CosetRow) -> Multivector:
        if f_tilde is None and row.shift is not None:
            return _closed_term(spec, row, xs, ys)
        mf = row.rep.matrix.to_float()
        left, right = _factors(spec, mf, xf, yf)
        middle = None if f_tilde is None else f_tilde(mobius_apply(mf, xf))
        return _sandwich(left, middle, right)

    partials = _level_walk(table, term, Multivector.zero(spec.group.n))
    return SeriesResult(value=partials[-1][1], partial_sums=partials, coset_count_c0=table.c0,
                        n_terms=len(table.rows))


def evaluate(spec: SeriesSpec, x: Multivector, y: Multivector | None = None) -> SeriesResult:
    """The truncated series `spec` at x, and at y for the two-sided series
    (y defaults to x there; one-sided series take no y).

    f~ is 1 for the Eisenstein kinds and G_m(. + e_n) of the argument
    reduced mod Z^{n-1} for the vector series; a "poincare" spec needs the
    caller's f~ (`poincare_general`).
    """
    if spec.kind not in EVALUATE_KINDS:
        raise ValueError(f"a {spec.kind} series needs the caller's f~; use poincare_general")
    f_tilde = _vector_f_tilde(spec.m, spec.box_radius) if spec.kind == "vector" else None
    return _coset_series(spec, f_tilde, x, y)


def _vector_f_tilde(m, box_radius: int):
    """f~ of the vector series: u -> G_m(u' + e_n), where u' is u with its
    first n - 1 coordinates reduced to [-1/2, 1/2).  A box sum at finite R
    is not periodic, so without the reduction the +-M coset pairs of a
    group containing -I would not cancel; with it f~ is Z^{n-1}-periodic
    at every R, as poincare_general requires (and jumps across the cell
    walls u_i = +-1/2 by the box truncation error)."""
    def f_tilde(u: Multivector) -> Multivector:
        *head, last = u.vector_components()
        return lattice_G_m(Multivector.vector([a - math.floor(a + 0.5) for a in head] + [last + 1.0]),
                           m, box_radius)
    return f_tilde


def automorphy_residual(spec: SeriesSpec, ms, x: Multivector,
                        y: Multivector | None = None) -> list[Multivector]:
    """f(x, y) - L f(m<x>, m<y>) R for each float group element m of `ms`,
    with automorphy factors (L, R), and f(x, y) evaluated once: zero for
    the full series, so its size measures what the truncation misses."""
    xf, yf = _float_points(spec, x, y)
    value = evaluate(spec, xf, yf).value
    out = []
    for m in ms:
        image = evaluate(spec, mobius_apply(m, xf), None if yf is None else mobius_apply(m, yf)).value
        left, right = _factors(spec, m, xf, yf)
        out.append(value - _sandwich(left, image, right))
    return out


def _require_kind(spec: SeriesSpec, kind: str):
    if spec.kind != kind:
        raise ValueError(f"spec.kind must be {kind!r}")


def scalar_eisenstein(x: Multivector, spec: SeriesSpec) -> SeriesResult:
    """sum over cosets of |c x + d|^{s - n}, for even s (scalar-valued)."""
    _require_kind(spec, "scalar")
    return evaluate(spec, x)


def odd_weight_eisenstein(x: Multivector, spec: SeriesSpec) -> SeriesResult:
    """sum over cosets of q0(c x + d) for odd s; identically zero whenever
    -I lies in the group (terms cancel in +-M pairs)."""
    _require_kind(spec, "oddweight")
    return evaluate(spec, x)


def vector_eisenstein(x: Multivector, spec: SeriesSpec) -> SeriesResult:
    """sum over cosets of q0(c x + d) G_m(M<x> + e_n), M<x> reduced mod
    Z^{n-1}: the lattice average of the derivative kernel, made automorphic."""
    _require_kind(spec, "vector")
    return evaluate(spec, x)


def biregular_eisenstein(x: Multivector, y: Multivector, spec: SeriesSpec) -> SeriesResult:
    """Two-sided series  sum conj(rev(q0_s(c x + d))) q0_t(y rev(c) + rev(d))
    over cosets; left-regular in x and right-regular in y."""
    _require_kind(spec, "biregular")
    return evaluate(spec, x, y)


def poincare_general(f_tilde, spec: SeriesSpec):
    """General one-sided series  x -> sum q0(c x + d) f~(M<x>).

    f~ must be invariant under the group's translation lattice
    (caller-asserted; see `translation_invariance_residual`).  Returns
    an evaluator mapping points to SeriesResult.
    """
    _require_kind(spec, "poincare")
    return lambda x: _coset_series(spec, f_tilde, x)


def translation_invariance_residual(f, group: GroupDescriptor, points) -> float:
    """max |f(x + b) - f(x)| over lattice basis offsets b and sample points:
    a spot check for poincare_general inputs."""
    lat = translation_lattice(group)
    worst = 0.0
    for x in points:
        fx = f(x)
        for b in lat.basis_vectors(group.n):
            diff = f(x + b.to_float()) - fx
            worst = max(worst, diff.norm())
    return worst


# ---- convergence diagnostics -------------------------------------------------


def coset_norm_sums(group: GroupDescriptor, alpha: float, word_limit: int) -> list[tuple[int, float]]:
    """Cumulative sums of |c e_n + d|^{-alpha} by word-length level.

    This is the comparison series behind every convergence statement;
    it has abscissa alpha = p + 1 (diverges at and below, converges
    above, in the full-group limit).
    """
    return _level_walk(_coset_table(group, word_limit), lambda row: row.rep.height ** (-alpha), 0.0)


def tail_report(result_or_partials) -> dict:
    """Level-to-level increments of a partial-sum record: a SeriesResult, or
    (level, value) pairs with Multivector or float values.

    Returns dict with levels, increment norms, the final increment, and
    `tail_ratio`: (mass of the last half of the increments) / (mass of
    the first half); a ratio below 1 indicates decay of new
    contributions, the truncated-series analogue of convergence.
    """
    partials = list(getattr(result_or_partials, "partial_sums", result_or_partials))
    steps = [b - a for (_, a), (_, b) in zip(partials, partials[1:])]
    deltas = [d.norm() if isinstance(d, Multivector) else abs(d) for d in steps]
    if len(deltas) < 2:
        raise ValueError("tail_report needs at least two recorded levels")
    half = len(deltas) // 2
    head, tail = sum(deltas[:half]), sum(deltas[half:])
    ratio = math.inf if head == 0 and tail > 0 else (tail / head if head else 0.0)
    return {
        "levels": [lvl for lvl, _ in partials],
        "deltas": deltas,
        "final_delta": deltas[-1],
        "tail_ratio": ratio,
        "tail_decreasing": ratio < 1.0,
    }


def abscissa_diagnostic(group: GroupDescriptor, alphas, word_limit: int) -> dict:
    """tail_report of coset_norm_sums for each exponent, flagging the
    expected divergence at alpha <= p + 1."""
    out = {}
    for alpha in alphas:
        rep = tail_report(coset_norm_sums(group, alpha, word_limit))
        rep["alpha"] = alpha
        rep["below_abscissa"] = alpha <= group.p + 1
        out[alpha] = rep
    return out
