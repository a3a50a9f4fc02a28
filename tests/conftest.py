"""Shared strategies and corpus generators for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cache, cached_property

import hypothesis.strategies as st
import numpy as np

from stonepair import fo, gamma, lattice, pairing
from stonepair.chains import ChainElement, ChainPoint
from stonepair.errors import DomainError, InternalInvariantError, LatticeError, PresentationError
from stonepair.gamma import GammaValue
from stonepair.lattice import FiniteLattice, LatticeHom
from stonepair.measure import ClassicalMeasure, Measure, MeasureViolation
from stonepair.pl import (
    GE,
    LT,
    FilterPresentation,
    RuleInstance,
)

BINARY_SIG = fo.Signature((("r", 2),))
TERNARY_SIG = fo.Signature((("r", 2), ("t", 3)))

rationals01 = st.fractions(min_value=Fraction(0), max_value=Fraction(1))


@st.composite
def gamma_values(draw):
    from stonepair import gamma

    q = draw(rationals01)
    if q == 0:
        return gamma.ZERO
    return gamma.GammaValue(q, draw(st.booleans()))


@st.composite
def structures(draw, max_size: int = 4, ternary: bool = False):
    """Structures over ``r/2``, plus ``t/3`` when ``ternary``."""
    n = draw(st.integers(1, max_size))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    relations = {"r": draw(st.frozensets(pairs, max_size=n * n))}
    if not ternary:
        return fo.FiniteStructure(BINARY_SIG, n, relations)
    triples = st.tuples(*[st.integers(0, n - 1)] * 3)
    relations["t"] = draw(st.frozensets(triples, max_size=n**3))
    return fo.FiniteStructure(TERNARY_SIG, n, relations)


def _formula(
    draw, scope: tuple[str, ...], depth: int, ternary: bool = False, rebind: bool = False
) -> fo.Formula:
    """Atoms draw their arguments from ``scope`` (so repeats like r(x, x)
    occur); ``ternary`` adds t(u, v, w) atoms in any argument order;
    ``rebind`` lets a quantifier re-bind a variable already in scope."""
    def var() -> str:
        return scope[draw(st.integers(0, len(scope) - 1))]

    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.integers(0, 4 if ternary else 3))
        if kind == 0:
            return fo.TRUE
        if kind == 1:
            return fo.FALSE
        if kind == 4:
            return fo.Atom("t", (var(), var(), var()))
        v, w = var(), var()
        return fo.Eq(v, w) if kind == 2 else fo.Atom("r", (v, w))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return fo.Not(_formula(draw, scope, depth - 1, ternary, rebind))
    if kind <= 3:
        ctor = (fo.And, fo.Or, fo.Implies)[kind - 1]
        return ctor(
            _formula(draw, scope, depth - 1, ternary, rebind),
            _formula(draw, scope, depth - 1, ternary, rebind),
        )
    var_name = var() if rebind and draw(st.booleans()) else f"z{len(scope)}"
    inner = scope if var_name in scope else scope + (var_name,)
    body = _formula(draw, inner, depth - 1, ternary, rebind)
    return fo.Exists(var_name, body) if kind == 4 else fo.Forall(var_name, body)


@st.composite
def formulas(
    draw,
    scope: tuple[str, ...] = ("x", "y"),
    depth: int = 3,
    ternary: bool = False,
    rebind: bool = False,
):
    return _formula(draw, scope, depth, ternary, rebind)


# -- seeded corpus generators (plain random module, used by acceptance too) -------


def random_structure(rng: random.Random, max_size: int = 5) -> fo.FiniteStructure:
    n = 1 + rng.randrange(max_size)
    tuples = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.randrange(2)
    )
    return fo.FiniteStructure(BINARY_SIG, n, {"r": tuples})


def reference_fence(n: int) -> fo.FiniteStructure:
    """The n-th member of the alternating chain family built from its tuples:
    the strict order on a (k+1)-chain, plus an isolated point for even n."""
    k = (n + 1) // 2
    chain_len = k + 1
    size = chain_len + (1 if n % 2 == 0 else 0)
    tuples = frozenset((i, j) for i in range(chain_len) for j in range(i + 1, chain_len))
    return fo.FiniteStructure(fo.POSET_SIGNATURE, size, {"lt": tuples})


def relation_tuples(A: fo.FiniteStructure) -> dict[str, frozenset[tuple[int, ...]]]:
    """Each relation of ``A`` as its set of tuples, read cell by cell from
    its table."""
    return {
        name: frozenset(t for t in np.ndindex(table.shape) if table[t])
        for name, table in A.tables.items()
    }


def random_formula(
    rng: random.Random, depth: int, scope: tuple[str, ...] = ("x", "y")
) -> fo.Formula:
    if depth == 0 or rng.randrange(3) == 0:
        kind = rng.randrange(6)
        if kind == 0:
            return fo.TRUE
        if kind == 1:
            return fo.FALSE
        v = scope[rng.randrange(len(scope))]
        w = scope[rng.randrange(len(scope))]
        return fo.Eq(v, w) if kind == 2 else fo.Atom("r", (v, w))
    kind = rng.randrange(6)
    if kind == 0:
        return fo.Not(random_formula(rng, depth - 1, scope))
    if kind == 1:
        return fo.And(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    if kind == 2:
        return fo.Or(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    if kind == 3:
        return fo.Implies(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    var = f"z{len(scope)}"
    body = random_formula(rng, depth - 1, scope + (var,))
    return fo.Exists(var, body) if kind == 4 else fo.Forall(var, body)


def small_lattice_corpus(max_size: int = 16) -> list[FiniteLattice]:
    """Chains, Boolean algebras, and products of chains up to ``max_size``.

    Starts at two elements: the one-element lattice has bottom equal to top
    and so admits no probability measure.
    """
    out: list[FiniteLattice] = []
    out.extend(lattice.chain(n) for n in range(2, 9) if n <= max_size)
    for atoms in (1, 2, 3, 4):
        if 2**atoms <= max_size:
            out.append(lattice.boolean_algebra(atoms))
    for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        if a * b <= max_size:
            out.append(lattice.product_lattice(lattice.chain(a), lattice.chain(b)))
    return out


def random_classical_measure(L: FiniteLattice, rng: random.Random) -> ClassicalMeasure:
    """A random valuation: rational weights on the join-irreducibles summing
    to 1, each element measuring the weight below it."""
    J = L.join_irreducibles()
    denom = 1 + rng.randrange(24)
    cuts = sorted(rng.randrange(denom + 1) for _ in range(len(J) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    weight = {j: Fraction(p, denom) for j, p in zip(J, parts)}
    values = tuple(
        sum((weight[j] for j in J if L.leq(j, a)), Fraction(0)) for a in range(L.n)
    )
    return ClassicalMeasure(L, values)


# -- small objects only the tests build ----------------------------------------------


def chain_elements(n: int) -> tuple[ChainElement, ...]:
    """All of L_n in ascending order: 0, 1/n, ..., 1, T."""
    return tuple(ChainElement(n, a) for a in range(n + 1)) + (ChainElement(n, None),)


def chain_leq(u: ChainElement, v: ChainElement) -> bool:
    if u.n != v.n:
        raise DomainError(f"mismatched chains: {u.n} vs {v.n}")
    return u.rank() <= v.rank()


def identity_hom(L: FiniteLattice) -> LatticeHom:
    return LatticeHom(L, L, tuple(range(L.n)))


def diamond_m3() -> FiniteLattice:
    """Five elements, three incomparable atoms: the standard non-distributive
    modular lattice, used to exercise validation."""
    labels = ["0", "x", "y", "z", "1"]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return FiniteLattice(labels, pairs)


class ConstantFamily(pairing.StructureFamily):
    """Every index yields the same structure."""

    name = "constant"

    def __init__(self, A: fo.FiniteStructure):
        self._A = A

    def structure(self, index: int) -> fo.FiniteStructure:
        return self._A


# -- reference oracles for the formula analysis ---------------------------------


def reference_free_vars(phi: fo.Formula) -> tuple[str, ...]:
    """Free variables in first-occurrence order, by a walk that carries the
    bound variables down the tree."""
    out: list[str] = []

    def walk(node: fo.Formula, bound: frozenset[str]) -> None:
        match node:
            case fo.Atom(_, args):
                for v in args:
                    if v not in bound and v not in out:
                        out.append(v)
            case fo.Eq(left, right):
                for v in (left, right):
                    if v not in bound and v not in out:
                        out.append(v)
            case fo.Not(body):
                walk(body, bound)
            case fo.And(l, r) | fo.Or(l, r) | fo.Implies(l, r):
                walk(l, bound)
                walk(r, bound)
            case fo.Exists(var, body) | fo.Forall(var, body):
                walk(body, bound | {var})

    walk(phi, frozenset())
    return tuple(out)


def reference_quantifier_rank(phi: fo.Formula) -> int:
    """The quantifier rank by its recursive definition: 0 at a leaf, the
    larger side's at a binary connective, one more than the body's at a
    quantifier."""
    match phi:
        case fo.Not(body):
            return reference_quantifier_rank(body)
        case fo.And(l, r) | fo.Or(l, r) | fo.Implies(l, r):
            return max(reference_quantifier_rank(l), reference_quantifier_rank(r))
        case fo.Exists(_, body) | fo.Forall(_, body):
            return 1 + reference_quantifier_rank(body)
    return 0


# -- reference oracles for the rank kernel and the rule instances -------------------


def reference_mip(x: GammaValue, y: GammaValue) -> GammaValue:
    """Truncated subtraction by its case split on the tags, in ``Fraction``
    arithmetic; same domain and message as ``gamma.mip``."""
    if not y <= x:
        raise DomainError(f"mip undefined: {y} > {x}")
    d = x.value - y.value
    if x.exact:
        return GammaValue(d, True)
    if y.exact:
        # y^o <= x^- forces a strictly positive difference.
        return GammaValue(d, False)
    return GammaValue(d, True)


def reference_miss(x: GammaValue, y: GammaValue) -> GammaValue:
    """Co-subtraction by its case split, as ``reference_mip``."""
    if not y <= x:
        raise DomainError(f"miss undefined: {y} > {x}")
    if x == y:
        return gamma.ZERO
    d = x.value - y.value
    if x.exact and not y.exact:
        return GammaValue(d, True)
    # Remaining cases have y < x with equal-or-stronger minuend tag, so d > 0.
    return GammaValue(d, False)


def reference_plus(x: GammaValue, y: GammaValue) -> GammaValue:
    """Partial addition in ``Fraction`` arithmetic, as ``reference_mip``."""
    s = x.value + y.value
    if s > 1:
        raise DomainError(f"plus undefined: {x} + {y} exceeds 1")
    return GammaValue(s, x.exact and y.exact)


def reference_gamma_sum(xs) -> GammaValue:
    """Left fold of ``reference_plus``; the empty sum is 0^o."""
    acc = gamma.ZERO
    for x in xs:
        acc = reference_plus(acc, x)
    return acc


def reference_project_gamma(x: GammaValue, n: int) -> ChainPoint:
    """The projection onto the n-chain by floor and ceiling of x.value * n:
    floor(qn) for q^o, ceil(rn) - 1 for r^-."""
    if n < 1:
        raise DomainError("chain parameter must be positive")
    scaled = x.value * n
    return ChainPoint(n, math.floor(scaled) if x.exact else math.ceil(scaled) - 1)


_grid_rationals = cache(gamma.grid_rationals)  # the filter loops below run per level vector


def reference_presentation_of_measure(mu: Measure, k: int) -> FilterPresentation:
    """Each element's level counts the q on the grid with q^o <= mu(a), one
    comparison each."""
    levels = tuple(
        sum(gamma.iota_exact(q) <= mu(a) for q in _grid_rationals(k))
        for a in range(mu.lattice.n)
    )
    return FilterPresentation(mu.lattice, k, levels)


def prefix_members(F: FilterPresentation) -> frozenset[tuple[Fraction, int]]:
    """The (threshold, element) pairs of a presentation: (i/k, a) for every
    i below a's level."""
    Q = _grid_rationals(F.k)
    return frozenset((Q[i], a) for a, level in enumerate(F.levels) for i in range(level))


def reference_filter_to_measure(
    D: FiniteLattice, k: int, members: frozenset[tuple[Fraction, int]]
) -> Measure:
    """The order-closure loop over a member set of (threshold, element)
    pairs, in (element, threshold) order, keeping the largest threshold of
    each element; the values, tagged exact, are validated by
    ``reference_validate_measure``.  Threshold closure is not tested: a
    level vector's member set is a prefix of the grid at every element."""
    values = []
    for a in range(D.n):
        largest = None
        for q in _grid_rationals(k):
            if (q, a) not in members:
                continue
            largest = q
            for b in range(D.n):
                if D.leq(a, b) and (q, b) not in members:
                    raise PresentationError(
                        f"order closure fails: ({q}, {D.labels[a]}) present "
                        f"but ({q}, {D.labels[b]}) missing"
                    )
        values.append(gamma.ZERO if largest is None else gamma.iota_exact(largest))
    mu = Measure(D, tuple(values))
    bad = reference_validate_measure(mu)
    if bad:
        raise PresentationError(f"presentation does not induce a measure: {bad[0].render(D)}")
    return mu


def reference_distributivity(L) -> list[str]:
    """The distributivity failures of a lattice by the cubic loop over all
    triples (a, b, c), in the messages and order of ``validate``."""
    out = []
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                if L.meet(a, L.join(b, c)) != L.join(L.meet(a, b), L.meet(a, c)):
                    out.append(
                        f"distributivity fails on ({L.labels[a]}, {L.labels[b]}, {L.labels[c]})"
                    )
    return out


# -- reference oracles for the lattice tables ---------------------------------------


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def reference_closure(n: int, pairs) -> tuple[int, ...]:
    """Reflexive-transitive closure as bitmask rows: bit j of row i iff i <= j,
    by unions of rows until nothing changes."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"order pair ({i}, {j}) out of range for {n} elements")
        rows[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in _bits(acc):
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return tuple(rows)


class ReferenceLattice:
    """A lattice as bitmask rows of its order, every meet and join found by
    scanning the bitmask of common bounds, every check a loop over pairs:
    the same answers, in the same order, as ``FiniteLattice``."""

    def __init__(self, labels, relation):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.up = reference_closure(self.n, relation)
        below = [0] * self.n
        for i in range(self.n):
            for j in _bits(self.up[i]):
                below[j] |= 1 << i
        self.below = tuple(below)

    @classmethod
    def of(cls, L: FiniteLattice) -> "ReferenceLattice":
        """The reference form of L's labels and order."""
        return cls(L.labels, [(a, b) for a in range(L.n) for b in range(L.n) if L.leq(a, b)])

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def leq_table(self) -> list[list[bool]]:
        return [[self.leq(a, b) for b in range(self.n)] for a in range(self.n)]

    def upset(self, a: int) -> frozenset[int]:
        return frozenset(_bits(self.up[a]))

    def greatest(self, mask: int) -> int | None:
        """The greatest element of the masked subset, if it has one."""
        for g in _bits(mask):
            if mask & ~self.below[g] == 0:
                return g
        return None

    def least(self, mask: int) -> int | None:
        for g in _bits(mask):
            if mask & ~self.up[g] == 0:
                return g
        return None

    @cached_property
    def bottom(self) -> int:
        b = self.least((1 << self.n) - 1)
        if b is None:
            raise LatticeError("no bottom element")
        return b

    @cached_property
    def top(self) -> int:
        t = self.greatest((1 << self.n) - 1)
        if t is None:
            raise LatticeError("no top element")
        return t

    def _table(self, kind: str, bound, rows) -> tuple[tuple[int, ...], ...]:
        table = []
        for a in range(self.n):
            row = []
            for b in range(self.n):
                g = bound(rows[a] & rows[b])
                if g is None:
                    raise LatticeError(f"no {kind} for ({self.labels[a]}, {self.labels[b]})")
                row.append(g)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        return self._table("meet", self.greatest, self.below)

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        return self._table("join", self.least, self.up)

    def tables(self):
        """The meet and join tables, meets first, as ``_order_arrays`` builds them."""
        return self.meet_table, self.join_table

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def validate(self) -> list[str]:
        out: list[str] = []
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if self.leq(a, b) and self.leq(b, a):
                    out.append(
                        f"antisymmetry fails: {self.labels[a]} <= {self.labels[b]} <= {self.labels[a]}"
                    )
        if out:
            return out
        everything = (1 << self.n) - 1
        if self.least(everything) is None:
            out.append("no bottom element")
        if self.greatest(everything) is None:
            out.append("no top element")
        for a in range(self.n):
            for b in range(a, self.n):
                if self.greatest(self.below[a] & self.below[b]) is None:
                    out.append(f"no meet for ({self.labels[a]}, {self.labels[b]})")
                if self.least(self.up[a] & self.up[b]) is None:
                    out.append(f"no join for ({self.labels[a]}, {self.labels[b]})")
        return out or reference_distributivity(self)

    def irreducibles(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lower, upper = reference_covers(self)
        joins = tuple(j for j in range(self.n) if j != self.bottom and len(lower[j]) == 1)
        meets = tuple(m for m in range(self.n) if m != self.top and len(upper[m]) == 1)
        return joins, meets

    def kappa(self, j: int) -> int:
        """The join of {u : j not<= u} by a fold of the join table."""
        joins, meets = self.irreducibles()
        if j not in joins:
            raise DomainError(f"{self.labels[j]} is not join-irreducible")
        m = self.bottom
        for u in range(self.n):
            if not self.leq(j, u):
                m = self.join(m, u)
        if m not in meets:
            raise InternalInvariantError(
                f"kappa({self.labels[j]}) = {self.labels[m]} is not meet-irreducible"
            )
        return m

    def prime_filter_violations(self, members: frozenset[int]) -> list[str]:
        """The violations of ``PrimeFilter``, members in ascending order."""
        out: list[str] = []
        if not members:
            out.append("empty")
        if len(members) == self.n:
            out.append("not proper")
        for f in sorted(members):
            for u in range(self.n):
                if self.leq(f, u) and u not in members:
                    out.append(f"not an up-set: {self.labels[u]} missing above {self.labels[f]}")
        for a in sorted(members):
            for b in sorted(members):
                if self.meet(a, b) not in members:
                    out.append(f"not meet-closed on ({self.labels[a]}, {self.labels[b]})")
        for a in range(self.n):
            for b in range(self.n):
                if self.join(a, b) in members and a not in members and b not in members:
                    out.append(f"not prime on ({self.labels[a]}, {self.labels[b]})")
        return out


def reference_check_hom(src: ReferenceLattice, tgt: ReferenceLattice, f) -> list[str]:
    """``check_hom`` by its loop over the pairs a <= b."""
    out: list[str] = []
    if len(f) != src.n:
        return [f"mapping has {len(f)} entries for {src.n} elements"]
    if any(not 0 <= y < tgt.n for y in f):
        return ["mapping image out of range"]
    if f[src.bottom] != tgt.bottom:
        out.append("bottom not preserved")
    if f[src.top] != tgt.top:
        out.append("top not preserved")
    for a in range(src.n):
        for b in range(a, src.n):
            if f[src.meet(a, b)] != tgt.meet(f[a], f[b]):
                out.append(f"meet not preserved on ({src.labels[a]}, {src.labels[b]})")
            if f[src.join(a, b)] != tgt.join(f[a], f[b]):
                out.append(f"join not preserved on ({src.labels[a]}, {src.labels[b]})")
    return out


def reference_product_lattice(left: ReferenceLattice, right: ReferenceLattice) -> ReferenceLattice:
    """The componentwise order by its loop over all pairs of pairs."""
    labels = [f"{la}_{lb}" for la in left.labels for lb in right.labels]
    if len(set(labels)) != len(labels):
        labels = [f"p{i}" for i in range(left.n * right.n)]
    pairs = [
        (a1 * right.n + b1, a2 * right.n + b2)
        for a1 in range(left.n)
        for b1 in range(right.n)
        for a2 in range(left.n)
        for b2 in range(right.n)
        if left.leq(a1, a2) and right.leq(b1, b2)
    ]
    return ReferenceLattice(labels, pairs)


def reference_from_subsets(sets, labels=None) -> ReferenceLattice:
    """The inclusion order by its loop over all pairs of sets."""
    if labels is None:
        labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in sets]
    pairs = [(i, j) for i, si in enumerate(sets) for j, sj in enumerate(sets) if si <= sj]
    return ReferenceLattice(labels, pairs)


def reference_covers(L) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Lower and upper covers of every element by the cubic scan: i < j is
    covered by j when no third element lies strictly between them."""
    lower, upper = [], []
    for j in range(L.n):
        below = [i for i in range(L.n) if i != j and L.leq(i, j)]
        above = [i for i in range(L.n) if i != j and L.leq(j, i)]
        lower.append(tuple(
            i for i in below if not any(i != m != j and L.leq(i, m) for m in below)
        ))
        upper.append(tuple(
            i for i in above if not any(i != m != j and L.leq(m, i) for m in above)
        ))
    return lower, upper


def reference_validate_classical_measure(m: ClassicalMeasure) -> list[MeasureViolation]:
    """The classical axioms by loops over elements and pairs in ``Fraction``
    arithmetic: bottom, top, range, monotone, modular."""
    L = m.lattice
    out: list[MeasureViolation] = []
    if m(L.bottom) != 0:
        out.append(MeasureViolation("bottom"))
    if m(L.top) != 1:
        out.append(MeasureViolation("top"))
    for a in range(L.n):
        if not 0 <= m(a) <= 1:
            out.append(MeasureViolation("range", a, a))
    for a in range(L.n):
        for b in range(L.n):
            if a != b and L.leq(a, b) and not m(a) <= m(b):
                out.append(MeasureViolation("monotone", a, b))
    for a in range(L.n):
        for b in range(L.n):
            if m(a) + m(b) != m(L.join(a, b)) + m(L.meet(a, b)):
                out.append(MeasureViolation("modular", a, b))
    return out


def reference_grid_ranks(D: FiniteLattice, k: int) -> list[tuple[int, ...]]:
    """The rank tuples of the grid measures by a depth-first search over
    the elements in index order, each element's rank ranging over what its
    placed neighbours leave (bottom pinned to 0 and top to 2k when met), an
    incomparable pair tested once its highest-index member of the pair,
    meet and join is placed."""
    n, top = D.n, 2 * k
    below = [[d for d in range(e) if D.leq(d, e)] for e in range(n)]
    above = [[d for d in range(e) if D.leq(e, d)] for e in range(n)]
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
    return found


def reference_validate_measure(mu: Measure) -> list[MeasureViolation]:
    """The measure axioms checked with ``GammaValue`` comparisons and the
    ``Fraction``-based ``reference_mip``/``reference_miss``; same violations
    in the same order as ``validate_measure``."""
    L = mu.lattice
    out: list[MeasureViolation] = []
    if mu(L.bottom) != gamma.ZERO:
        out.append(MeasureViolation("bottom"))
    if mu(L.top) != gamma.ONE:
        out.append(MeasureViolation("top"))
    for a in range(L.n):
        for b in range(L.n):
            if a != b and L.leq(a, b) and not mu(a) <= mu(b):
                out.append(MeasureViolation("monotone", a, b))
    for a in range(L.n):
        for b in range(L.n):
            lo = mu(L.meet(a, b))
            hi = mu(L.join(a, b))
            if not (lo <= mu(a) and mu(b) <= hi):
                continue
            if not reference_miss(mu(a), lo) <= reference_mip(hi, mu(b)):
                out.append(MeasureViolation("additivity-left", a, b))
            if not reference_mip(mu(a), lo) >= reference_miss(hi, mu(b)):
                out.append(MeasureViolation("additivity-right", a, b))
    return out


def reference_grid_measures(D: FiniteLattice, k: int) -> list[Measure]:
    """Every map into ``GammaGrid(k)`` in lexicographic order, kept when the
    reference validator passes it."""
    points = gamma.GammaGrid(k).points
    out = []
    for combo in itertools.product(points, repeat=D.n):
        if combo[D.bottom] == gamma.ZERO and combo[D.top] == gamma.ONE:
            mu = Measure(D, combo)
            if not reference_validate_measure(mu):
                out.append(mu)
    return out


def reference_rule_instances(D: FiniteLattice, k: int):
    """Every instance of L1..L6 built atom by atom, with the L4/L5 side
    condition in ``Fraction`` arithmetic; same instances in the same order as
    ``pl.rule_instances``."""
    Q = gamma.grid_rationals(k)
    for a in range(D.n):
        for q in Q:
            for p in Q:
                if p <= q:
                    yield RuleInstance("L1", (p, q), (a,), GE(q, a), GE(p, a))
    bot, top = D.bottom, D.top
    yield RuleInstance("L2", (Fraction(0),), (bot,), fo.TRUE, GE(Fraction(0), bot))
    for q in Q:
        yield RuleInstance("L2", (q,), (top,), fo.TRUE, GE(q, top))
    for p in Q:
        if p > 0:
            yield RuleInstance("L2", (p,), (bot,), GE(p, bot), fo.FALSE)
    for a in range(D.n):
        for b in range(D.n):
            if D.leq(a, b):
                for q in Q:
                    yield RuleInstance("L3", (q,), (a, b), GE(q, a), GE(q, b))
    for a in range(D.n):
        for b in range(D.n):
            lo, hi = D.meet(a, b), D.join(a, b)
            for p in Q:
                for q in Q:
                    for r in Q:
                        if not 0 <= p + q - r <= 1:
                            continue
                        s = p + q - r
                        yield RuleInstance(
                            "L4",
                            (p, q, r),
                            (a, b),
                            fo.And(GE(p, a), GE(q, b)),
                            fo.Or(GE(s, hi), GE(r, lo)),
                        )
                        yield RuleInstance(
                            "L5",
                            (p, q, r),
                            (a, b),
                            fo.And(GE(s, hi), GE(r, lo)),
                            fo.Or(GE(p, a), GE(q, b)),
                        )
    for a in range(D.n):
        for q in Q:
            yield RuleInstance("L6", (q,), (a,), fo.And(LT(q, a), GE(q, a)), fo.FALSE)
            yield RuleInstance("L6", (q,), (a,), fo.TRUE, fo.Or(LT(q, a), GE(q, a)))


def reference_rule_table(D: FiniteLattice, k: int) -> np.ndarray:
    """The rule table built family by family, each read off a boolean mask
    over its loop variables by ``np.nonzero`` and stacked, then the families
    concatenated; same rows in the same order as ``pl._rule_table``."""
    n, g = D.n, k + 1
    true, false = 2 * n * (2 * k + 1), 2 * n * (2 * k + 1) + 1
    leq, meet, join = D._order_arrays

    def family(*columns):
        return np.stack(np.broadcast_arrays(*columns)).T

    def ge(a, i):
        return 2 * (a * (2 * k + 1) + 2 * i)

    a, j, i = np.nonzero(np.broadcast_to(np.tri(g, dtype=bool), (n, g, g)))
    L1 = family(0, i, j, -1, a, -1, ge(a, j), true, ge(a, i), false)
    bot, top = D.bottom, D.top
    L2 = np.array(
        [[1, 0, -1, -1, bot, -1, true, true, ge(bot, 0), false]]
        + [[1, j, -1, -1, top, -1, true, true, ge(top, j), false] for j in range(g)]
        + [[1, i, -1, -1, bot, -1, ge(bot, i), true, false, false] for i in range(1, g)],
        dtype=np.int64,
    )
    a, b, j = np.nonzero(np.broadcast_to(leq[:, :, None], (n, n, g)))
    L3 = family(2, j, -1, -1, a, b, ge(a, j), true, ge(b, j), false)
    up = np.arange(g)
    s = up[:, None, None] + up[:, None] - up  # s[i, j, l] = i + j - l
    mask = (s >= 0) & (s <= k)
    a, b, i, j, l, t = np.nonzero(np.broadcast_to(mask[..., None], (n, n, g, g, g, 2)))
    both = (ge(a, i), ge(b, j))
    bounds = (ge(join[a, b], i + j - l), ge(meet[a, b], l))
    premise, conclusion = np.where(t == 0, (both, bounds), (bounds, both))
    L45 = family(3 + t, i, j, l, a, b, *premise, *conclusion)
    a, j, t = np.nonzero(np.ones((n, g, 2), dtype=bool))
    both = (ge(a, j) + 1, ge(a, j))
    first = t == 0
    L6 = family(5, j, -1, -1, a, -1, *np.where(first, both, true), *np.where(first, false, both))
    return np.concatenate((L1, L2, L3, L45, L6))
