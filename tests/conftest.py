"""Shared strategies and corpus generators for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st

from stonepair import fo, gamma, lattice
from stonepair.chains import ChainPoint
from stonepair.errors import DomainError, PresentationError
from stonepair.gamma import GammaValue
from stonepair.lattice import FiniteLattice
from stonepair.measure import ClassicalMeasure, Measure, MeasureViolation
from stonepair.pl import (
    GE,
    LT,
    PL_FALSE,
    PL_TRUE,
    FilterPresentation,
    PLAnd,
    PLOr,
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


def reference_presentation_of_measure(mu: Measure, k: int) -> FilterPresentation:
    """Every (q, a) on the grid with q^o <= mu(a), one comparison each."""
    members = frozenset(
        (q, a)
        for a in range(mu.lattice.n)
        for q in gamma.grid_rationals(k)
        if gamma.iota_exact(q) <= mu(a)
    )
    return FilterPresentation(mu.lattice, k, members)


def reference_filter_to_measure(F: FilterPresentation) -> Measure:
    """The two closure loops over the members, in (element, threshold)
    order, threshold closure first; then the largest threshold of each
    element, tagged exact, validated by ``reference_validate_measure``."""
    D, Q = F.lattice, gamma.grid_rationals(F.k)
    members = sorted(F.members, key=lambda m: (m[1], m[0]))
    for q, a in members:
        for p in Q:
            if p <= q and (p, a) not in F.members:
                raise PresentationError(
                    f"threshold closure fails: ({q}, {D.labels[a]}) present "
                    f"but ({p}, {D.labels[a]}) missing"
                )
    for q, a in members:
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
    bad = reference_validate_measure(mu)
    if bad:
        raise PresentationError(f"presentation does not induce a measure: {bad[0].render(D)}")
    return mu


def reference_covers(L: FiniteLattice) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
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


def reference_distributivity(L: FiniteLattice) -> list[str]:
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
    yield RuleInstance("L2", (Fraction(0),), (bot,), PL_TRUE, GE(Fraction(0), bot))
    for q in Q:
        yield RuleInstance("L2", (q,), (top,), PL_TRUE, GE(q, top))
    for p in Q:
        if p > 0:
            yield RuleInstance("L2", (p,), (bot,), GE(p, bot), PL_FALSE)
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
                            PLAnd(GE(p, a), GE(q, b)),
                            PLOr(GE(s, hi), GE(r, lo)),
                        )
                        yield RuleInstance(
                            "L5",
                            (p, q, r),
                            (a, b),
                            PLAnd(GE(s, hi), GE(r, lo)),
                            PLOr(GE(p, a), GE(q, b)),
                        )
    for a in range(D.n):
        for q in Q:
            yield RuleInstance("L6", (q,), (a,), PLAnd(LT(q, a), GE(q, a)), PL_FALSE)
            yield RuleInstance("L6", (q,), (a,), PL_TRUE, PLOr(LT(q, a), GE(q, a)))
