"""Propositional logic of threshold atoms over measures.

Atoms assert that the measure of a subject is at least (``GE``) or strictly
below (``LT``) an exact rational threshold; subjects are either elements of a
finite lattice (measure semantics) or first-order formulas (structure
semantics, where the measure is the tagged Stone pairing).  Formulas close
the atoms under conjunction, disjunction and negation, with ``fo``'s own
nodes: a threshold formula is a tree of ``fo.Const``, ``Not``, ``And`` and
``Or`` whose leaves are ``GE`` and ``LT``.

The inference rules checked here, over thresholds p, q, r and subjects a, b:

    L1  GE(q, a) entails GE(p, a)                       for p <= q
    L2  GE(0, bottom) and GE(q, top) hold; GE(p, bottom) is absurd for p > 0
    L3  GE(q, a) entails GE(q, b)                       for a <= b
    L4  GE(p, a) and GE(q, b) entail
        GE(p + q - r, a v b) or GE(r, a ^ b)            for 0 <= p+q-r <= 1
    L5  GE(p + q - r, a v b) and GE(r, a ^ b) entail
        GE(p, a) or GE(q, b)                            for 0 <= p+q-r <= 1
    L6  LT(q, a) is the complement of GE(q, a)

Entailment is decided over the finite universe of grid measures: measures
whose values live on a resolution-k grid of the doubled interval.  A grid
countermodel refutes an entailment outright; "holds on the grid" is evidence,
not a validity claim, so reports always carry the lattice and grid they were
computed on.

The grid measures are one int64 rank table, viewed by ``grid_measures``;
every threshold atom is read from one packed table of rows "rank at a >=
v" (``_atom_rows``), which entailment folds and soundness gathers, and
objects are built only for reported countermodels.  Every rule instance
is a clause p1 & p2 |- c1 | c2, a row of four literal ids in the rule
table, and soundness ANDs the gathered rows of p1, p2, ~c1 and ~c2, with
two gathered tables live at a time.  Each array of this work is checked
against the one memory budget (``fo.check_bytes``) before it is
allocated, so oversized work is a ``SizeError``.

A filter presentation is a level vector, one level per element: how many
of the thresholds 0, 1/k, ..., 1 it holds.  ``presentation_of_measure``
projects each value onto the grid with ``gamma.project_of_ranks``, and
``filter_to_measure`` tests order closure on the vector.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from numbers import Integral

import numpy as np

from . import fo, gamma
from .errors import DomainError, InternalInvariantError, ParseError, PresentationError
from .fo import And, Const, FiniteStructure, Formula, Not, Or, Signature
from .gamma import GammaValue, grid_rationals
from .lattice import FiniteLattice
from .measure import Measure, validate_measure
from .pairing import stone_pairing


@dataclass(frozen=True)
class _Threshold:
    """An atom comparing the measure of ``subject`` with ``threshold``
    tagged exact; ``GE`` and ``LT`` are its two kinds."""

    threshold: Fraction
    subject: object  # lattice element index or first-order Formula

    def __post_init__(self) -> None:
        t = gamma.as_fraction(self.threshold)
        if not 0 <= t <= 1:
            raise DomainError(f"threshold {t} outside [0, 1]")
        object.__setattr__(self, "threshold", t)

    def holds_at(self, value: GammaValue) -> bool:
        """Whether a subject measuring ``value`` satisfies the atom."""
        at_least = value >= gamma.iota_exact(self.threshold)
        return at_least if isinstance(self, GE) else not at_least


@dataclass(frozen=True)
class GE(_Threshold):
    """The measure of ``subject`` is at least ``threshold`` tagged exact."""


@dataclass(frozen=True)
class LT(_Threshold):
    """The measure of ``subject`` is strictly below ``threshold`` tagged exact."""


def _eval(phi: Formula, atom_value) -> bool:
    match phi:
        case Const(value):
            return value
        case _Threshold():
            return atom_value(phi)
        case Not(body):
            return not _eval(body, atom_value)
        case And(l, r):
            return _eval(l, atom_value) and _eval(r, atom_value)
        case Or(l, r):
            return _eval(l, atom_value) or _eval(r, atom_value)
    raise DomainError(f"not a threshold-logic node: {phi!r}")


def _check_subject(atom, D: FiniteLattice) -> int:
    a = atom.subject
    if not isinstance(a, int) or not 0 <= a < D.n:
        raise DomainError(f"atom subject {a!r} is not an element of the lattice")
    return a


def eval_pl_measure(mu: Measure, phi: Formula) -> bool:
    """Evaluate against a measure; atoms compare mu(a) with the threshold."""
    return _eval(phi, lambda atom: atom.holds_at(mu(_check_subject(atom, mu.lattice))))


def eval_pl_structure(A: FiniteStructure, phi: Formula) -> bool:
    """Evaluate against a finite structure; atoms pair their formula with A."""

    def atom_value(atom: _Threshold) -> bool:
        subject = atom.subject
        if not isinstance(subject, Formula):
            raise DomainError(f"atom subject {subject!r} is not a formula")
        return atom.holds_at(stone_pairing(A, subject).gamma)

    return _eval(phi, atom_value)


# -- grid semantics ----------------------------------------------------------------


def _grid_ranks(D: FiniteLattice, k: int) -> np.ndarray:
    """The rank table of ``grid_measures`` (D has at least two elements).

    Bottom and top are fixed at ranks 0 and 2k; the other elements are
    placed one level at a time in index order.  Every row of the table is
    expanded over the interval its placed lower and upper neighbours leave
    (each row's children contiguous and ascending, so the rows stay in
    lexicographic order), then the rows failing an incomparable pair whose
    last free member this is are dropped, all pairs of the level at once.
    Each level, with the four rank gathers of the pairs it tests, is checked
    against the memory budget before it is built.
    """
    n, top = D.n, 2 * k
    leq, meet, join = D._order_arrays
    placed = np.zeros(n, dtype=bool)
    placed[[D.bottom, D.top]] = True
    # columns (a, b, meet, join) of incomparable pairs (never bottom or top),
    # each tested when the last of its free members is placed
    a, b = np.nonzero(~(leq | leq.T))
    quads = np.array((a, b, meet[a, b], join[a, b]))
    last = np.where(placed[quads], -1, quads).max(axis=0, initial=-1)
    R = np.zeros((1, n), dtype=np.int64)
    R[0, D.top] = top
    for e in np.flatnonzero(~placed).tolist():
        lo = R[:, placed & leq[:, e]].max(axis=1)
        hi = R[:, placed & leq[e]].min(axis=1)
        tests = quads[:, last == e]
        counts = hi - lo + 1  # positive: placed comparable pairs are monotone
        fo.check_bytes("the grid search", int(counts.sum()) * (n + tests.size) * 8)
        R = R.repeat(counts, axis=0)
        R[:, e] = np.arange(len(R)) - np.repeat(counts.cumsum() - counts - lo, counts)
        placed[e] = True
        if tests.size and len(R):
            # [x, pair, row]: the ranks of x = a, b, meet, join
            left, right = gamma.additivity_of_ranks(*R.T[tests])
            R = R[~(left | right).any(axis=0)]
    return R


class GridMeasures(Sequence):
    """A read-only sequence over a rank table, one int64 row of ranks 0..2k
    per grid measure (``ranks``); indexing and iteration build a ``Measure``
    on demand, each grid point once per view."""

    def __init__(self, D: FiniteLattice, k: int, ranks: np.ndarray):
        ranks.flags.writeable = False
        self.lattice, self.ranks = D, ranks
        self._point = cache(lambda r: gamma.point_of_rank(r, k))

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i: int) -> Measure:
        return Measure(self.lattice, tuple(map(self._point, self.ranks[i].tolist())))


def grid_measures(D: FiniteLattice, k: int) -> GridMeasures:
    """All measures on D with values on the resolution-k grid.

    Enumerated in lexicographic order of the value tuple (elements in index
    order, grid points ascending), as ranks 0..2k on the denominator k.
    Bottom and top are fixed at ranks 0 and 2k before the search, so a
    one-element lattice, whose bottom is its top, has no grid measure.  The
    search is level-wise on an int64 table of partial assignments: each
    other element, in index order, takes every rank in the interval left
    by its placed lower and upper neighbours, so every comparable pair is
    monotone by construction; the additivity inequalities of an
    incomparable pair are tested, in ranks on whole columns, as soon as its
    last free member is placed (the fixed endpoints count as placed), where
    the pair, its meet and its join all lie in the domains of ``mip`` and
    ``miss``.  The result is a view of the final table that builds a
    ``Measure`` only when asked.  The 2k + 1 int64 ranks and each level are
    checked against the memory budget (``fo.check_bytes``) first.
    """
    gamma.check_resolution(k)
    fo.check_bytes("the grid's ranks", 8 * (2 * k + 1))
    if D.bottom == D.top:
        ranks = np.empty((0, D.n), dtype=np.int64)
    else:
        ranks = _grid_ranks(D, k)
    return GridMeasures(D, k, ranks)


def _atom_rows(ranks: np.ndarray, k: int) -> np.ndarray:
    """The one table both grid checks read their threshold atoms from: row
    a (2k + 1) + v says which grid measures have rank at least v at element
    a, and the last row is all true.  Bit i of a row is measure i, packed
    little-endian into ⌈M/8⌉ bytes with padding bits 0.  GE atoms are rows,
    LT atoms and false their complements.  The boolean table and the int64
    ranks 0..2k it compares with are charged to the budget together."""
    M, n = ranks.shape
    levels = 2 * k + 1
    fo.check_bytes("the atom table", (n * levels + 1) * M + 8 * levels)
    table = np.empty((n * levels + 1, M), dtype=bool)
    at_least = table[:-1].reshape(n, levels, M)
    np.greater_equal(ranks.T[:, None, :], np.arange(levels)[:, None], out=at_least)
    table[-1] = True
    return np.packbits(table, axis=1, bitorder="little")


def _satisfying(phi: Formula, D: FiniteLattice, k: int, rows: np.ndarray) -> np.ndarray:
    """The packed row of the grid measures satisfying ``phi``, one bit per
    measure as in ``_atom_rows``; its padding bits are arbitrary.  Every
    atom is checked against D, whatever the connectives."""
    match phi:  # atoms first: most nodes met are atoms
        case _Threshold():
            a = _check_subject(phi, D)
            # the least rank at or above the threshold tagged exact: 2c at
            # the grid point c/k, 2c + 1 (an approximation) strictly after it
            c, rest = divmod(phi.threshold.numerator * k, phi.threshold.denominator)
            row = rows[a * (2 * k + 1) + 2 * c + (rest != 0)]
            return ~row if isinstance(phi, LT) else row
        case And(l, r):
            return _satisfying(l, D, k, rows) & _satisfying(r, D, k, rows)
        case Or(l, r):
            return _satisfying(l, D, k, rows) | _satisfying(r, D, k, rows)
        case Const(value):
            return rows[-1] if value else ~rows[-1]
        case Not(body):
            return ~_satisfying(body, D, k, rows)
    raise DomainError(f"not a threshold-logic node: {phi!r}")


def _first_set(bits: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a packed bit table (bit i of a row is measure i) that have
    a bit set below m, and the lowest such bit of each.  The padding bits
    from m on, which a negation sets, are cleared first, in place."""
    if m % 8:
        bits[:, -1] &= (1 << m % 8) - 1
    hit = np.flatnonzero(bits.any(axis=1))
    if not len(hit):
        return hit, hit
    byte = (bits[hit] != 0).argmax(axis=1)
    low = np.unpackbits(bits[hit, byte][:, None], axis=1, bitorder="little").argmax(axis=1)
    return hit, 8 * byte + low


@dataclass(frozen=True)
class EntailmentResult:
    holds: bool
    countermodel: Measure | None
    lattice: FiniteLattice
    k: int
    measures_checked: int


def entails_grid(
    lhs: Formula, rhs: Formula, D: FiniteLattice, k: int
) -> EntailmentResult:
    """Whether every grid measure satisfying lhs satisfies rhs.

    Returns the first countermodel in enumeration order, if any.  The result
    is relative to the grid: countermodels are conclusive, "holds" is not.
    Both sides are evaluated on the packed rows of ``_atom_rows``, and the
    countermodel is the lowest bit of ``lhs & ~rhs``, the only ``Measure``
    built.
    """
    measures = grid_measures(D, k)
    rows = _atom_rows(measures.ranks, k)
    bad = _satisfying(lhs, D, k, rows) & ~_satisfying(rhs, D, k, rows)
    _, first = _first_set(bad[None], len(measures))
    countermodel = measures[first[0]] if len(first) else None
    return EntailmentResult(countermodel is None, countermodel, D, k, len(measures))


# -- rule instances and soundness ---------------------------------------------------


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    params: tuple[Fraction, ...]
    elements: tuple[int, ...]
    premise: Formula
    conclusion: Formula


_RULES = ("L1", "L2", "L3", "L4", "L5", "L6")
# Every rule instance is a clause p1 & p2 |- c1 | c2 over four literals.
# Columns of the rule table: the rule's position in _RULES, three grid
# indices and two elements (-1 pads both), two premise literal ids padded
# with true and two conclusion literal ids padded with false.  Literal 2r is
# row r of ``_atom_rows`` and 2r + 1 its complement: GE(i/k, a) is
# 2 (a (2k + 1) + 2i) and LT(i/k, a) the next one; the all-true row gives
# the last two ids, true and false.
_RULE, _INDICES, _ELEMENTS = 0, slice(1, 4), slice(4, 6)
_PREMISE, _CONCLUSION = slice(6, 8), slice(8, 10)


def _put(cols: np.ndarray, start: int, shape: tuple[int, ...], at, *columns) -> int:
    """Write a family's ten ``columns`` into rows ``start``.. of the
    column-major table ``cols``, viewed with ``shape`` (its loop axes) and
    indexed by ``at``, and return the next row.  A column is a scalar, an
    array broadcast over the view, or a pair of such written as its sum."""
    stop = start + int(np.prod(shape))
    for column, value in zip(cols, columns):
        view = column[start:stop].reshape(shape)[at]
        if isinstance(value, tuple):
            np.add(*value, out=view)
        else:
            view[...] = value
    return stop


def _rule_table(D: FiniteLattice, k: int) -> np.ndarray:
    """All instances of L1..L6 as the rows of one int64 table, in
    ``rule_instances`` order (columns described above ``_put``).

    Grid index i stands for the threshold i/k.  Each family's rows run in C
    order over its loop axes: L1 (a, j, i <= j), L3 (a <= b, j), L4 and L5
    together (a, b, i, j, l, t), t = 0 for L4, and L6 (a, j, t).  The L4/L5
    side condition 0 <= p + q - r <= 1 leaves T triples 0 <= i + j - l <= k.

    The row count has a closed form, and each family is broadcast straight
    into its slice of the table (80 bytes a row).  Live beside the table
    are the g^3 sums i + j - l and their masks (12 g^3 bytes), the triples'
    indices, sums and literal terms (64 T), the pairs a <= b and element
    terms (32 n^2), and numpy's ufunc buffers (three int64 operands of
    ``np.getbufsize()``); all of it is checked against the memory budget
    before anything is built.
    """
    n, g = D.n, k + 1
    levels = 2 * k + 1
    true, false = 2 * n * levels, 2 * n * levels + 1
    leq, meet, join = D._order_arrays
    # (i, j, l) with 0 <= i + j - l <= k: for s = i + j there are
    # min(s, 2k - s) + 1 pairs (i, j), and as many l
    triples = g * (g + 1) * (2 * g + 1) // 6 + k * g * (2 * k + 1) // 6
    rows = n * g * (g + 1) // 2 + 2 * g + int(leq.sum()) * g + 2 * n * n * triples + 2 * n * g
    loops = 12 * g**3 + 64 * triples + 32 * n * n + 24 * np.getbufsize()
    fo.check_bytes("the rule table", 80 * rows + loops)

    def ge(a, i, negated=0):
        """GE(i/k, a), or LT(i/k, a) if negated, as its two terms."""
        return 2 * levels * a + negated, 4 * i

    cols = np.empty((10, rows), dtype=np.int64)
    up = np.arange(g)
    el = np.arange(n)[:, None]
    j, i = np.nonzero(np.tri(g, dtype=bool))
    done = _put(cols, 0, (n, len(i)), ..., 0, i, j, -1, el, -1, ge(el, j), true, ge(el, i), false)
    bot, top = D.bottom, D.top
    done = _put(cols, done, (1,), ..., 1, 0, -1, -1, bot, -1, true, true, ge(bot, 0), false)
    done = _put(cols, done, (g,), ..., 1, up, -1, -1, top, -1, true, true, ge(top, up), false)
    done = _put(cols, done, (k,), ..., 1, up[1:], -1, -1, bot, -1, ge(bot, up[1:]), true, false, false)
    a, b = (x[:, None] for x in np.nonzero(leq))
    done = _put(cols, done, (len(a), g), ..., 2, up, -1, -1, a, b, ge(a, up), true, ge(b, up), false)
    s = up[:, None, None] + up[:, None] - up  # s[i, j, l] = i + j - l
    i, j, l = np.nonzero((s >= 0) & (s <= k))
    s = s[i, j, l]
    a, b = el[..., None], el
    both = (ge(a, i), ge(b, j))
    bounds = (ge(join[:, :, None], s), ge(meet[:, :, None], l))
    _put(cols, done, (n, n, len(i), 2), (..., 0), 3, i, j, l, a, b, *both, *bounds)
    done = _put(cols, done, (n, n, len(i), 2), (..., 1), 4, i, j, l, a, b, *bounds, *both)
    both = (ge(el, up, negated=1), ge(el, up))
    _put(cols, done, (n, g, 2), (..., 0), 5, up, -1, -1, el, -1, *both, false, false)
    done = _put(cols, done, (n, g, 2), (..., 1), 5, up, -1, -1, el, -1, true, true, *both)
    if done != rows:
        raise InternalInvariantError(f"the rule table has {done} rows, not the {rows} counted")
    return cols.T


def _instance_renderer(D: FiniteLattice, k: int):
    """Turns ``_rule_table`` rows, as lists, into ``RuleInstance``s whose
    atoms are built once per renderer and shared."""
    Q, levels = grid_rationals(k), 2 * k + 1
    atoms = {
        2 * (a * levels + 2 * i) + negated: kind(q, a)
        for a in range(D.n) for i, q in enumerate(Q) for negated, kind in enumerate((GE, LT))
    }
    true, false = 2 * D.n * levels, 2 * D.n * levels + 1

    def side(ids: list[int], ctor, pad: int, empty: Const) -> Formula:
        parts = [atoms[x] for x in ids if x != pad]
        return reduce(ctor, parts) if parts else empty

    def render(row: list[int]) -> RuleInstance:
        return RuleInstance(
            _RULES[row[_RULE]],
            tuple(Q[i] for i in row[_INDICES] if i >= 0),
            tuple(a for a in row[_ELEMENTS] if a >= 0),
            side(row[_PREMISE], And, true, fo.TRUE),
            side(row[_CONCLUSION], Or, false, fo.FALSE),
        )

    return render


def rule_instances(D: FiniteLattice, k: int) -> Iterator[RuleInstance]:
    """All instances of L1..L6 with thresholds on the resolution-k chain and
    subjects in D, side conditions enforced before generation.

    The rows of ``_rule_table`` rendered as objects, each as it is yielded:
    the atoms GE(i/k, a) and LT(i/k, a) are built once per call and shared
    by every instance that mentions them.
    """
    table = _rule_table(D, k)  # checked against the budget before the atoms
    return map(_instance_renderer(D, k), map(np.ndarray.tolist, table))


@dataclass(frozen=True)
class SoundnessReport:
    lattice: FiniteLattice
    k: int
    instance_counts: dict[str, int]
    failures: tuple[tuple[RuleInstance, Measure], ...]
    measures_checked: int

    @property
    def total_instances(self) -> int:
        return sum(self.instance_counts.values())


def _refuted(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``premise & ~conclusion`` of every clause of the rule table over the
    packed atom rows: bit i of row r says the i-th measure refutes rule row
    r; the padding bits are arbitrary.

    A clause p1 & p2 |- c1 | c2 is refuted where p1 & p2 & ~c1 & ~c2 holds;
    complementing a literal flips the low bit of its id.
    """
    literals = np.stack((rows, ~rows), axis=1).reshape(2 * len(rows), rows.shape[1])
    (p1, p2), (c1, c2) = table[:, _PREMISE].T, table[:, _CONCLUSION].T
    bad = literals[p1]
    bad &= literals[p2]
    bad &= literals[c1 ^ 1]
    bad &= literals[c2 ^ 1]
    return bad


def check_soundness_grid(D: FiniteLattice, k: int) -> SoundnessReport:
    """Check premise-entails-conclusion for every rule instance over every
    grid measure.  The expected failure list is empty.

    Every clause of ``_rule_table`` is decided at once: the rows of its two
    premise literals and of the complements of its two conclusion literals
    are gathered from ``_atom_rows`` over the M grid measures and ANDed, so
    ``premise & ~conclusion`` marks the measures refuting the row.  Each
    gathered table holds rows x ⌈M/8⌉ bytes and two are live at the peak
    (the running AND and the next gather); the two are checked together
    against the memory budget before the atom table is built (on chain(6)
    at k = 6, 17045 rows of 228 bytes, 3.9 MB a table).  A
    ``RuleInstance`` is built only for a failing row; its countermodel is
    the measure at the row's lowest set bit, the first refuting measure in
    enumeration order.
    """
    measures = grid_measures(D, k)
    table = _rule_table(D, k)
    fo.check_bytes("the soundness gathers", 2 * len(table) * -(-len(measures) // 8))
    hit, first = _first_set(_refuted(_atom_rows(measures.ranks, k), table), len(measures))
    failures: list[tuple[RuleInstance, Measure]] = []
    if len(hit):
        render = _instance_renderer(D, k)
        for r, i in zip(hit.tolist(), first.tolist()):
            failures.append((render(table[r].tolist()), measures[i]))
    counts = np.bincount(table[:, _RULE], minlength=len(_RULES)).tolist()
    return SoundnessReport(D, k, dict(zip(_RULES, counts)), tuple(failures), len(measures))


# -- filter presentations -------------------------------------------------------------


@dataclass(frozen=True)
class FilterPresentation:
    """A finite fragment of a prime filter of threshold atoms, as one level
    per element: (i/k, a) belongs to it iff i < ``levels[a]``, so a level
    lies in 0..k + 1 and each element's thresholds are a prefix of the grid
    (rule L1).  Levels are kept as Python ints, as k may exceed int64."""

    lattice: FiniteLattice
    k: int
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        gamma.check_resolution(self.k)
        D, levels = self.lattice, tuple(self.levels)
        if len(levels) != D.n:
            raise DomainError(f"{len(levels)} levels for the {D.n} elements of the lattice")
        for label, level in zip(D.labels, levels):
            if not isinstance(level, Integral) or not 0 <= level <= self.k + 1:
                raise DomainError(f"level {level!r} of {label} is not an integer in 0..{self.k + 1}")
        object.__setattr__(self, "levels", tuple(map(int, levels)))


def filter_to_measure(F: FilterPresentation) -> Measure:
    """The measure sending a to the largest asserted threshold, tagged exact
    (0 when a has none).

    The presentation must be upward closed along the lattice order (rule
    L3): a <= b needs ``levels[a] <= levels[b]``, one test on the level
    vector against the lowest level on or above each element.  The first
    violation in (element, threshold) order is a ``PresentationError`` with
    its failing pair, and so is an induced map that does not validate as a
    measure.
    """
    D, k = F.lattice, F.k
    levels = np.array(F.levels)  # an object array past int64
    leq = D._order_arrays[0]
    lowest = np.where(leq, levels, levels.max()).min(axis=1)
    unclosed = np.flatnonzero(lowest < levels)
    if len(unclosed):
        a = unclosed[0]
        b = np.argmax(leq[a] & (levels <= lowest[a]))
        q = Fraction(int(lowest[a]), k)
        raise PresentationError(
            f"order closure fails: ({q}, {D.labels[a]}) present but ({q}, {D.labels[b]}) missing"
        )
    mu = Measure(D, tuple(gamma.point_of_rank(2 * max(level - 1, 0), k) for level in F.levels))
    bad = validate_measure(mu)
    if bad:
        raise PresentationError(
            f"presentation does not induce a measure: {bad[0].render(D)}"
        )
    return mu


def presentation_of_measure(mu: Measure, k: int) -> FilterPresentation:
    """The grid fragment of the filter of a measure: all (q, a) with
    q^o <= mu(a).  Element a's level is one more than the projection of
    mu(a) onto the resolution-k chain (``gamma.project_of_ranks``)."""
    gamma.check_resolution(k)
    levels = tuple(
        gamma.project_of_ranks(gamma.rank(x, x.value.denominator), k, x.value.denominator) + 1
        for x in mu.values
    )
    return FilterPresentation(mu.lattice, k, levels)


# -- concrete syntax -----------------------------------------------------------------


class _PLParser(fo._FormulaParser):
    """``fo``'s parser without '->' and quantifiers, whose atoms are
    threshold atoms."""

    BINARY = {"|": (2, 3, Or), "&": (3, 4, And)}
    QUANTIFIERS = {}

    def __init__(self, text: str, signature: Signature | None, lattice: FiniteLattice | None):
        if (signature is None) == (lattice is None):
            raise DomainError("pass exactly one of signature or lattice")
        super().__init__(text, signature)
        self.lattice = lattice

    def atom(self) -> Formula:
        tok = self.advance()
        if tok.kind != "[":
            raise self.expected("a formula", tok)
        kind = self.advance()
        if kind.kind not in (">=", "<"):
            raise self.error("expected '>=' or '<'", kind)
        q, self.pos = gamma.read_rational(self.text, self.pos, "a rational threshold")
        if not 0 <= q <= 1:
            raise ParseError.at(f"threshold {q} outside [0, 1]", self.text, self.pos)
        self.expect("]", "expected ']'")
        self.expect("{", "expected '{'")
        return (GE if kind.kind == ">=" else LT)(q, self.subject())

    def subject(self) -> object:
        """The subject after '{' and its '}': a first-order formula parsed in
        place, or the index of a lattice label."""
        if self.lattice is None:
            inner = fo._FormulaParser(self.text, self.signature, self.pos, closer="}")
            phi = inner.parse()
            close = inner.peek()
            if close.at == len(self.text):
                raise self.error("expected '}'", close)
            self.pos = close.end
            return phi
        close = self.text.find("}", self.pos)
        if close < 0:
            raise ParseError.at("expected '}'", self.text, self.pos)
        body = self.text[self.pos:close]
        label = body.strip()
        if label not in self.lattice.labels:
            at = close - len(body.lstrip())
            raise ParseError.at(f"unknown element label {label!r}", self.text, at)
        self.pos = close + 1
        return self.lattice.index_of(label)


def parse_pl_formula(
    text: str,
    *,
    signature: Signature | None = None,
    lattice: FiniteLattice | None = None,
) -> Formula:
    """Parse the threshold-logic syntax, whose grammar is in ``fo``'s module
    docstring, into ``fo`` connectives over ``GE``/``LT`` leaves.

    Exactly one of ``signature`` (subjects are first-order formulas) and
    ``lattice`` (subjects are element labels) must be given.
    """
    return _PLParser(text, signature, lattice).parse()
