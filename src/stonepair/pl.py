"""Propositional logic of threshold atoms over measures.

Atoms assert that the measure of a subject is at least (``GE``) or strictly
below (``LT``) an exact rational threshold; subjects are either elements of a
finite lattice (measure semantics) or first-order formulas (structure
semantics, where the measure is the tagged Stone pairing).  Formulas close
the atoms under conjunction, disjunction and negation.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator

from . import gamma
from .errors import DomainError, ParseError, PresentationError, SizeError
from .fo import MAX_NESTING, FiniteStructure, Formula, Signature, parse_formula
from .gamma import GammaGrid, grid_rationals
from .lattice import FiniteLattice
from .measure import Measure, validate_measure
from .pairing import stone_pairing

MAX_LATTICE = 6
MAX_GRID = 6


class PLFormula:
    """Base class for threshold-logic AST nodes."""


@dataclass(frozen=True)
class PLConst(PLFormula):
    value: bool


PL_TRUE = PLConst(True)
PL_FALSE = PLConst(False)


@dataclass(frozen=True)
class GE(PLFormula):
    """The measure of ``subject`` is at least ``threshold`` tagged exact."""

    threshold: Fraction
    subject: object  # lattice element index or first-order Formula

    def __post_init__(self) -> None:
        t = Fraction(self.threshold)
        if not 0 <= t <= 1:
            raise DomainError(f"threshold {t} outside [0, 1]")
        object.__setattr__(self, "threshold", t)


@dataclass(frozen=True)
class LT(PLFormula):
    """The measure of ``subject`` is strictly below ``threshold`` tagged exact."""

    threshold: Fraction
    subject: object

    def __post_init__(self) -> None:
        t = Fraction(self.threshold)
        if not 0 <= t <= 1:
            raise DomainError(f"threshold {t} outside [0, 1]")
        object.__setattr__(self, "threshold", t)


@dataclass(frozen=True)
class PLNot(PLFormula):
    body: PLFormula


@dataclass(frozen=True)
class PLAnd(PLFormula):
    left: PLFormula
    right: PLFormula


@dataclass(frozen=True)
class PLOr(PLFormula):
    left: PLFormula
    right: PLFormula


def _eval(phi: PLFormula, atom_value) -> bool:
    match phi:
        case PLConst(value):
            return value
        case GE(_, _) | LT(_, _):
            return atom_value(phi)
        case PLNot(body):
            return not _eval(body, atom_value)
        case PLAnd(l, r):
            return _eval(l, atom_value) and _eval(r, atom_value)
        case PLOr(l, r):
            return _eval(l, atom_value) or _eval(r, atom_value)
    raise DomainError(f"not a threshold-logic node: {phi!r}")


def _check_subject(atom, D: FiniteLattice) -> int:
    a = atom.subject
    if not isinstance(a, int) or not 0 <= a < D.n:
        raise DomainError(f"atom subject {a!r} is not an element of the lattice")
    return a


def eval_pl_measure(mu: Measure, phi: PLFormula) -> bool:
    """Evaluate against a measure; atoms compare mu(a) with the threshold."""

    def atom_value(atom) -> bool:
        a = _check_subject(atom, mu.lattice)
        bound = gamma.iota_exact(atom.threshold)
        if isinstance(atom, GE):
            return mu(a) >= bound
        return mu(a) < bound

    return _eval(phi, atom_value)


def eval_pl_structure(A: FiniteStructure, phi: PLFormula) -> bool:
    """Evaluate against a finite structure; atoms pair their formula with A."""

    def atom_value(atom) -> bool:
        subject = atom.subject
        if not isinstance(subject, Formula):
            raise DomainError(f"atom subject {subject!r} is not a formula")
        value = stone_pairing(A, subject).gamma
        bound = gamma.iota_exact(atom.threshold)
        if isinstance(atom, GE):
            return value >= bound
        return value < bound

    return _eval(phi, atom_value)


# -- grid semantics ----------------------------------------------------------------


def _guard(D: FiniteLattice, k: int) -> None:
    if D.n > MAX_LATTICE:
        raise SizeError(f"lattice has {D.n} elements; the guard is {MAX_LATTICE}")
    if k > MAX_GRID:
        raise SizeError(f"grid resolution {k} exceeds the guard {MAX_GRID}")
    if k < 1:
        raise DomainError("grid resolution must be positive")


class _GridMeasures(list):
    """The list ``grid_measures`` returns; ``ranks`` holds each measure's
    values as ranks 0..2k on the denominator k, for the bitset kernels."""

    ranks: list[tuple[int, ...]]


def grid_measures(D: FiniteLattice, k: int) -> _GridMeasures:
    """All measures on D with values on the resolution-k grid.

    Enumerated in lexicographic order of the value tuple (elements in index
    order, grid points ascending), as ranks 0..2k on the denominator k.  Each
    element's rank ranges over the interval left by its already-placed lower
    and upper neighbours, and the additivity inequalities of every pair are
    tested in ranks as soon as the pair, its meet and its join are placed.
    Monotone maps pass every comparable pair, so only incomparable pairs are
    tested, and the placed ranks always lie in the domains of ``mip`` and
    ``miss``.  The survivors become ``Measure``s on the ``GammaGrid(k)``
    points; the list keeps their rank tuples too, on which entailment and
    soundness tabulate atoms.
    """
    _guard(D, k)
    n, top = D.n, 2 * k
    below = [[d for d in range(e) if D.leq(d, e)] for e in range(n)]
    above = [[d for d in range(e) if D.leq(e, d)] for e in range(n)]
    # pairs (a, b, meet, join) to test once their highest index e is placed
    pairs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if not (D.leq(a, b) or D.leq(b, a)):
                quad = (a, b, D.meet(a, b), D.join(a, b))
                pairs[max(quad)].append(quad)
    mip, miss = gamma.mip_of_ranks, gamma.miss_of_ranks
    r = [0] * n
    found: list[tuple[int, ...]] = []

    def extend(e: int) -> None:
        if e == n:
            found.append(tuple(r))
            return
        lo = max([r[d] for d in below[e]], default=0)
        hi = min([r[d] for d in above[e]], default=top)
        if e == D.bottom:
            hi = min(hi, 0)
        if e == D.top:
            lo = max(lo, top)
        for v in range(lo, hi + 1):
            r[e] = v
            for a, b, m, j in pairs[e]:
                x, y, meet, join = r[a], r[b], r[m], r[j]
                if miss(x, meet) > mip(join, y) or mip(x, meet) < miss(join, y):
                    break
            else:
                extend(e + 1)

    extend(0)
    point = GammaGrid(k).points.__getitem__
    measures = _GridMeasures(Measure(D, tuple(map(point, ranks))) for ranks in found)
    measures.ranks = found
    return measures


def _grid_atoms(D: FiniteLattice, k: int) -> list[tuple[type, int, int]]:
    """The atoms GE(i/k, a) and LT(i/k, a) as ``(kind, a, i)``; a position in
    this list is the atom's number in ``_rule_rows``."""
    return [(kind, a, i) for a in range(D.n) for i in range(k + 1) for kind in (GE, LT)]


class _AtomBits:
    """Threshold formulas as bitsets over the grid measures.

    Bit i of a formula's bitset says whether the i-th measure satisfies it,
    read off per-element tables of the measures whose rank at the element is
    at least each grid rank.
    """

    def __init__(self, D: FiniteLattice, k: int, ranks: list[tuple[int, ...]]):
        self.lattice = D
        self.k = k
        self.full = (1 << len(ranks)) - 1
        # at_least[a][v]: the measures whose rank at a is >= v
        self.at_least = [[0] * (2 * k + 1) for _ in range(D.n)]
        for i, measure_ranks in enumerate(ranks):
            bit = 1 << i
            for row, v in zip(self.at_least, measure_ranks):
                row[v] |= bit
        for row in self.at_least:
            for v in range(2 * k - 1, -1, -1):
                row[v] |= row[v + 1]

    def __call__(self, phi: PLFormula) -> int:
        match phi:  # atoms first: most nodes met are atoms
            case GE() | LT():
                a = _check_subject(phi, self.lattice)
                # the least grid rank at or above the threshold tagged exact
                c, rest = divmod(phi.threshold.numerator * self.k, phi.threshold.denominator)
                return self._atom(type(phi), a, 2 * c + (rest != 0))
            case PLAnd(l, r):
                return self(l) & self(r)
            case PLOr(l, r):
                return self(l) | self(r)
            case PLConst(value):
                return self.full if value else 0
            case PLNot(body):
                return self.full ^ self(body)
        raise DomainError(f"not a threshold-logic node: {phi!r}")

    def _atom(self, kind: type, a: int, v: int) -> int:
        """GE or LT at element a, the threshold at grid rank v."""
        bits = self.at_least[a][v]
        return bits ^ self.full if kind is LT else bits

    def grid_atoms(self) -> list[int]:
        """The bitsets of the atoms of ``_grid_atoms``, in its order."""
        return [self._atom(kind, a, 2 * i) for kind, a, i in _grid_atoms(self.lattice, self.k)]


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


@dataclass(frozen=True)
class EntailmentResult:
    holds: bool
    countermodel: Measure | None
    lattice: FiniteLattice
    k: int
    measures_checked: int


def entails_grid(
    lhs: PLFormula, rhs: PLFormula, D: FiniteLattice, k: int
) -> EntailmentResult:
    """Whether every grid measure satisfying lhs satisfies rhs.

    Returns the first countermodel in enumeration order, if any.  The result
    is relative to the grid: countermodels are conclusive, "holds" is not.
    Every atom of both sides is checked against D, whatever the connectives.
    """
    measures = grid_measures(D, k)
    bits = _AtomBits(D, k, measures.ranks)
    bad = bits(lhs) & ~bits(rhs)
    if bad:
        return EntailmentResult(False, measures[_lowest(bad)], D, k, len(measures))
    return EntailmentResult(True, None, D, k, len(measures))


# -- rule instances and soundness ---------------------------------------------------


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    params: tuple[Fraction, ...]
    elements: tuple[int, ...]
    premise: PLFormula
    conclusion: PLFormula


# the empty conjunction and disjunction
_TRUE_SIDE = (PLAnd, ())
_FALSE_SIDE = (PLOr, ())


def _rule_rows(D: FiniteLattice, k: int) -> Iterator[tuple]:
    """All instances of L1..L6 as index rows, in ``rule_instances`` order.

    A row is ``(rule, grid indices, elements, premise, conclusion)``: grid
    index i stands for the threshold i/k, and each side is ``(PLAnd, ids)``
    or ``(PLOr, ids)``, the connective folded over the atoms numbered by
    ``_grid_atoms`` (empty: true and false).  Side conditions are enforced
    before generation: the L4/L5 condition 0 <= p + q - r <= 1 is
    0 <= i + j - l <= k.
    """
    grid = range(k + 1)
    number = {atom: x for x, atom in enumerate(_grid_atoms(D, k))}
    ge = [[number[GE, a, i] for i in grid] for a in range(D.n)]
    lt = [[number[LT, a, i] for i in grid] for a in range(D.n)]
    for a in range(D.n):
        for j in grid:
            premise = (PLAnd, (ge[a][j],))
            for i in range(j + 1):
                yield "L1", (i, j), (a,), premise, (PLOr, (ge[a][i],))
    bot, top = D.bottom, D.top
    yield "L2", (0,), (bot,), _TRUE_SIDE, (PLOr, (ge[bot][0],))
    for j in grid:
        yield "L2", (j,), (top,), _TRUE_SIDE, (PLOr, (ge[top][j],))
    for i in range(1, k + 1):
        yield "L2", (i,), (bot,), (PLAnd, (ge[bot][i],)), _FALSE_SIDE
    for a in range(D.n):
        for b in range(D.n):
            if D.leq(a, b):
                for j in grid:
                    yield "L3", (j,), (a, b), (PLAnd, (ge[a][j],)), (PLOr, (ge[b][j],))
    for a in range(D.n):
        for b in range(D.n):
            pair, lo, hi = (a, b), ge[D.meet(a, b)], ge[D.join(a, b)]
            for i in grid:
                for j in grid:
                    both = (ge[a][i], ge[b][j])
                    # s = i + j - l must lie in 0..k
                    for l in range(max(i + j - k, 0), min(i + j, k) + 1):
                        bounds = (hi[i + j - l], lo[l])
                        yield "L4", (i, j, l), pair, (PLAnd, both), (PLOr, bounds)
                        yield "L5", (i, j, l), pair, (PLAnd, bounds), (PLOr, both)
    for a in range(D.n):
        for j in grid:
            both = (lt[a][j], ge[a][j])
            yield "L6", (j,), (a,), (PLAnd, both), _FALSE_SIDE
            yield "L6", (j,), (a,), _TRUE_SIDE, (PLOr, both)


def _instance_renderer(D: FiniteLattice, k: int):
    """Turns ``_rule_rows`` rows into ``RuleInstance``s whose atoms are built
    once per renderer and shared."""
    Q = grid_rationals(k)
    atoms = [kind(Q[i], a) for kind, a, i in _grid_atoms(D, k)]

    def side(connective, ids) -> PLFormula:
        if not ids:
            return PL_TRUE if connective is PLAnd else PL_FALSE
        return reduce(connective, (atoms[x] for x in ids))

    def render(row) -> RuleInstance:
        rule, indices, elements, premise, conclusion = row
        return RuleInstance(
            rule, tuple(Q[i] for i in indices), elements, side(*premise), side(*conclusion)
        )

    return render


def rule_instances(D: FiniteLattice, k: int) -> Iterator[RuleInstance]:
    """All instances of L1..L6 with thresholds on the resolution-k chain and
    subjects in D, side conditions enforced before generation.

    The rows of ``_rule_rows`` rendered as objects: the atoms GE(i/k, a) and
    LT(i/k, a) are built once per call and shared by every instance that
    mentions them.
    """
    render = _instance_renderer(D, k)
    for row in _rule_rows(D, k):
        yield render(row)


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


def _side_bits(side: tuple, bits: list[int], full: int) -> int:
    connective, ids = side
    if connective is PLAnd:
        acc = full
        for x in ids:
            acc &= bits[x]
    else:
        acc = 0
        for x in ids:
            acc |= bits[x]
    return acc


def check_soundness_grid(D: FiniteLattice, k: int) -> SoundnessReport:
    """Check premise-entails-conclusion for every rule instance over every
    grid measure.  The expected failure list is empty.

    Each row of ``_rule_rows`` is decided on the bitsets of its grid atoms
    over the grid measures' rank tuples; a ``RuleInstance`` is built only for
    a failing row.
    """
    measures = grid_measures(D, k)
    atoms = _AtomBits(D, k, measures.ranks)
    bits, full = atoms.grid_atoms(), atoms.full
    counts: dict[str, int] = {f"L{i}": 0 for i in range(1, 7)}
    failures: list[tuple[RuleInstance, Measure]] = []
    render = None
    for row in _rule_rows(D, k):
        rule, _, _, premise, conclusion = row
        counts[rule] += 1
        bad = _side_bits(premise, bits, full) & ~_side_bits(conclusion, bits, full)
        if bad:
            render = render or _instance_renderer(D, k)
            failures.append((render(row), measures[_lowest(bad)]))
    return SoundnessReport(D, k, counts, tuple(failures), len(measures))


# -- filter presentations -------------------------------------------------------------


@dataclass(frozen=True)
class FilterPresentation:
    """A finite fragment of a prime filter of threshold atoms: the pairs
    (q, a) asserted to belong to it, with thresholds on the grid."""

    lattice: FiniteLattice
    k: int
    members: frozenset[tuple[Fraction, int]]

    def __post_init__(self) -> None:
        Q = set(grid_rationals(self.k))
        for q, a in self.members:
            if q not in Q:
                raise DomainError(f"threshold {q} is not on the resolution-{self.k} grid")
            if not 0 <= a < self.lattice.n:
                raise DomainError(f"element index {a} out of range")


def filter_to_measure(F: FilterPresentation) -> Measure:
    """The measure sending a to the largest asserted threshold, tagged exact.

    The presentation must be downward closed in the threshold and upward
    closed along the lattice order (the two monotonicity rules); the induced
    map must validate as a measure.  Violations of either are reported as
    ``PresentationError`` with a failing pair.
    """
    D, Q = F.lattice, grid_rationals(F.k)
    for q, a in F.members:
        for p in Q:
            if p <= q and (p, a) not in F.members:
                raise PresentationError(
                    f"threshold closure fails: ({q}, {D.labels[a]}) present "
                    f"but ({p}, {D.labels[a]}) missing"
                )
        for b in range(D.n):
            if D.leq(a, b) and (q, b) not in F.members:
                raise PresentationError(
                    f"order closure fails: ({q}, {D.labels[a]}) present "
                    f"but ({q}, {D.labels[b]}) missing"
                )
    values = []
    for a in range(D.n):
        qs = [q for q, b in F.members if b == a]
        values.append(gamma.iota_exact(max(qs)) if qs else gamma.ZERO)
    mu = Measure(D, tuple(values))
    bad = validate_measure(mu)
    if bad:
        raise PresentationError(
            f"presentation does not induce a measure: {bad[0].render(D)}"
        )
    return mu


def presentation_of_measure(mu: Measure, k: int) -> FilterPresentation:
    """The grid fragment of the filter of a measure: all (q, a) with
    q^o <= mu(a)."""
    members = frozenset(
        (q, a)
        for a in range(mu.lattice.n)
        for q in grid_rationals(k)
        if gamma.iota_exact(q) <= mu(a)
    )
    return FilterPresentation(mu.lattice, k, members)


# -- concrete syntax -----------------------------------------------------------------
#
# Threshold atoms are written  [>= 2/3]{ subject }  and  [< 2/3]{ subject },
# combinable with & | ! and parentheses; true and false are literals.  The
# subject between braces is a first-order formula when a signature is given,
# or a lattice element label when a lattice is given.


class _PLParser:
    def __init__(self, text: str, signature: Signature | None, lattice: FiniteLattice | None):
        if (signature is None) == (lattice is None):
            raise DomainError("pass exactly one of signature or lattice")
        self.text = text
        self.signature = signature
        self.lattice = lattice
        self.pos = 0

    def error(self, message: str) -> ParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return ParseError(message, line=line, column=column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def nested(self, at: int, levels: int) -> int:
        """``levels``, or a ``ParseError`` at offset ``at`` when past ``MAX_NESTING``."""
        if levels > MAX_NESTING:
            self.pos = at
            raise self.error(f"formula nests deeper than {MAX_NESTING} levels")
        return levels

    def parse(self) -> PLFormula:
        phi, _ = self.formula(0, 0)
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        return phi

    def formula(self, power: int, depth: int) -> tuple[PLFormula, int]:
        """The longest formula whose operators bind at least ``power`` (``|``
        1, ``&`` 2, ``!`` 3), with its height; nesting is bounded as in the
        first-order parser."""
        self.skip_ws()
        start = self.pos
        if self.take("!"):
            body, height = self.formula(3, self.nested(start, depth + 1))
            left, height = PLNot(body), self.nested(start, height + 1)
        elif self.take("("):
            left, height = self.formula(0, self.nested(start, depth + 1))
            if not self.take(")"):
                raise self.error("expected ')'")
        elif self.take("true"):
            left, height = PL_TRUE, 0
        elif self.take("false"):
            left, height = PL_FALSE, 0
        elif self.take("["):
            left, height = self.atom_tail(), 0
        else:
            raise self.error("expected a formula")
        while True:
            self.skip_ws()
            at = self.pos
            if power <= 1 and self.take("|"):
                ctor, op_power = PLOr, 1
            elif power <= 2 and self.take("&"):
                ctor, op_power = PLAnd, 2
            else:
                return left, height
            right, right_height = self.formula(op_power + 1, self.nested(at, depth + 1))
            left, height = ctor(left, right), self.nested(at, max(height, right_height) + 1)

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a rational threshold")
        num = int(self.text[start:self.pos])
        den = 1
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                raise self.error("expected a denominator")
            den = int(self.text[dstart:self.pos])
            if den == 0:
                raise self.error("zero denominator")
        return Fraction(num, den)

    def atom_tail(self) -> PLFormula:
        if self.take(">="):
            ctor = GE
        elif self.take("<"):
            ctor = LT
        else:
            raise self.error("expected '>=' or '<'")
        q = self.rational()
        if not 0 <= q <= 1:
            raise self.error(f"threshold {q} outside [0, 1]")
        if not self.take("]"):
            raise self.error("expected ']'")
        if not self.take("{"):
            raise self.error("expected '{'")
        close = self.text.find("}", self.pos)
        if close < 0:
            raise self.error("expected '}'")
        start, body = self.pos, self.text[self.pos:close]
        self.pos = close + 1
        if self.signature is not None:
            try:
                subject: object = parse_formula(body, self.signature)
            except ParseError as exc:
                # report the position in the whole text, not in the subject
                line_start = 0
                for _ in range(exc.line - 1):
                    line_start = body.index("\n", line_start) + 1
                self.pos = start + line_start + exc.column - 1
                raise self.error(exc.message) from None
        else:
            label = body.strip()
            if label not in self.lattice.labels:
                self.pos = start + len(body) - len(body.lstrip())
                raise self.error(f"unknown element label {label!r}")
            subject = self.lattice.index_of(label)
        return ctor(q, subject)


def parse_pl_formula(
    text: str,
    *,
    signature: Signature | None = None,
    lattice: FiniteLattice | None = None,
) -> PLFormula:
    """Parse the threshold-logic syntax.

    Exactly one of ``signature`` (subjects are first-order formulas) and
    ``lattice`` (subjects are element labels) must be given.
    """
    return _PLParser(text, signature, lattice).parse()
