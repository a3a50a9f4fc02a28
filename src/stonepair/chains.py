"""Finite chain lattices, their operators, and projections from the doubled
unit interval.

``L_n`` is the chain 0 < 1/n < ... < 1 < T with an adjoined top.  It carries
a truncated addition ``oplus`` (T absorbing, overflow to T) and its adjoint
partial subtraction ``ominus``; these satisfy

    u ominus v <= w  iff  u <= v oplus w.

The meet-irreducibles of L_n are exactly the points of the subdivision chain
{0, 1/n, ..., 1}, and the derived operations on those points are recovered
from the operators through the irreducibles isomorphism ``kappa``: partial
subtraction via ``kappa(ominus)`` and partial addition as the adjoint of
``ominus``.  Both derivations are checked cell by cell against direct
arithmetic.

The multiplication embeddings ``i(n, nm)`` preserve ``oplus`` but never
``ominus`` (for m >= 2 the top row disagrees), which is why the inverse
system defining the doubled interval is built on floor maps; floor and
ceiling on the point chains are the right and left adjoints of the point
embedding.  ``project_gamma`` maps the doubled interval onto each point
chain compatibly with the floor maps.  ``verify_duality`` runs all of these
checks as one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, InternalInvariantError
from .gamma import GammaGrid, GammaValue, format_gamma
from .lattice import FiniteLattice


@dataclass(frozen=True)
class ChainElement:
    """An element of L_n: the point a/n for 0 <= a <= n, or the top T."""

    n: int
    a: int | None  # None encodes T

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("chain parameter must be positive")
        if self.a is not None and not 0 <= self.a <= self.n:
            raise DomainError(f"{self.a}/{self.n} is not on the chain")

    @property
    def is_top(self) -> bool:
        return self.a is None

    def __str__(self) -> str:
        return "T" if self.a is None else f"{self.a}/{self.n}"

    def rank(self) -> int:
        return self.n + 1 if self.a is None else self.a


def top(n: int) -> ChainElement:
    return ChainElement(n, None)


def frac(n: int, a: int) -> ChainElement:
    return ChainElement(n, a)


def chain_elements(n: int) -> tuple[ChainElement, ...]:
    """All of L_n in ascending order: 0, 1/n, ..., 1, T."""
    return tuple(ChainElement(n, a) for a in range(n + 1)) + (top(n),)


def chain_leq(u: ChainElement, v: ChainElement) -> bool:
    _same_chain(u, v)
    return u.rank() <= v.rank()


def _same_chain(u: ChainElement, v: ChainElement) -> None:
    if u.n != v.n:
        raise DomainError(f"mismatched chains: {u.n} vs {v.n}")


@dataclass(frozen=True)
class ChainPoint:
    """A point a/n of the subdivision chain {0, 1/n, ..., 1}."""

    n: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("chain parameter must be positive")
        if not 0 <= self.a <= self.n:
            raise DomainError(f"{self.a}/{self.n} is not on the chain")

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, self.n)

    def __str__(self) -> str:
        return f"{self.a}/{self.n}"


# -- the operators on L_n --------------------------------------------------------


def oplus(u: ChainElement, v: ChainElement) -> ChainElement:
    """Truncated addition: T absorbing, sums beyond 1 overflow to T."""
    _same_chain(u, v)
    if u.is_top or v.is_top:
        return top(u.n)
    s = u.a + v.a
    return top(u.n) if s > u.n else frac(u.n, s)


def ominus(u: ChainElement, v: ChainElement) -> ChainElement:
    """The adjoint subtraction: largest w with u <= v oplus w."""
    _same_chain(u, v)
    n = u.n
    if v.is_top:
        return frac(n, 0)
    if u.is_top:
        return top(n) if v.a == 0 else frac(n, n - v.a + 1)
    return frac(n, max(u.a - v.a, 0))


@dataclass(frozen=True)
class AdjunctionViolation:
    u: ChainElement
    v: ChainElement
    w: ChainElement


class _OffChain:
    """A rank-table entry off L_n; comparing it raises its ``DomainError``."""

    def __init__(self, message: str):
        self.message = message

    def __le__(self, other):
        raise DomainError(self.message)

    __ge__ = __le__


def _rank_table(op, n: int, result_first: bool) -> list[list]:
    """The ranks of ``op(u, v)`` over L_n x L_n, row u, column v.

    A result off L_n becomes an entry whose comparison with a rank raises the
    ``DomainError`` that ``chain_leq`` raises for it, naming the result's
    chain first when ``result_first``; so a loop over the table stops where
    the same loop over ``chain_leq`` would.
    """
    elems = chain_elements(n)
    table = []
    for u in elems:
        row = []
        for v in elems:
            x = op(u, v)
            if x.n == n:
                row.append(x.rank())
            else:
                left, right = (x.n, n) if result_first else (n, x.n)
                row.append(_OffChain(f"mismatched chains: {left} vs {right}"))
        table.append(row)
    return table


def check_adjunction(n: int) -> AdjunctionViolation | None:
    """Exhaustively check ``u ominus v <= w iff u <= v oplus w`` on L_n.

    ``ominus`` and ``oplus`` are tabulated once as ranks; the first failing
    triple in (u, v, w) order is returned as elements.
    """
    minus = _rank_table(ominus, n, result_first=True)
    plus = _rank_table(oplus, n, result_first=False)
    size = n + 2
    for u in range(size):
        for v in range(size):
            d, row = minus[u][v], plus[v]
            for w in range(size):
                if (d <= w) != (u <= row[w]):
                    elems = chain_elements(n)
                    return AdjunctionViolation(elems[u], elems[v], elems[w])
    return None


# -- the multiplication embeddings ----------------------------------------------


def embed(u: ChainElement, m: int) -> ChainElement:
    """The lattice embedding of L_n into L_{nm}: a/n to am/(nm), T to T."""
    if m < 1:
        raise DomainError("embedding factor must be positive")
    if u.is_top:
        return top(u.n * m)
    return frac(u.n * m, u.a * m)


def check_oplus_preserved(n: int, m: int) -> tuple[ChainElement, ChainElement] | None:
    """First pair (if any) where the embedding fails to commute with oplus."""
    elems = chain_elements(n)
    for u in elems:
        for v in elems:
            if embed(oplus(u, v), m) != oplus(embed(u, m), embed(v, m)):
                return (u, v)
    return None


@dataclass(frozen=True)
class OminusWitness:
    u: ChainElement
    v: ChainElement
    embedded_of_result: ChainElement  # embed(u ominus v)
    result_of_embedded: ChainElement  # embed(u) ominus embed(v)


def find_ominus_counterexample(n: int, m: int) -> OminusWitness:
    """First pair, in ascending order, where the embedding fails to commute
    with ominus.  One always exists for m >= 2; failure to find one would
    contradict the adjunction analysis."""
    if m < 2:
        raise DomainError("the embedding is the identity for m = 1; need m >= 2")
    elems = chain_elements(n)
    for u in elems:
        for v in elems:
            lhs = embed(ominus(u, v), m)
            rhs = ominus(embed(u, m), embed(v, m))
            if lhs != rhs:
                return OminusWitness(u, v, lhs, rhs)
    raise InternalInvariantError(f"no ominus counterexample for n={n}, m={m}")


# -- floor, ceiling, and the point embedding --------------------------------------


def embed_point(p: ChainPoint, m: int) -> ChainPoint:
    """The inclusion of subdivision chains: a/n to am/(nm)."""
    if m < 1:
        raise DomainError("embedding factor must be positive")
    return ChainPoint(p.n * m, p.a * m)


def floor_map(n: int, m: int, x: ChainPoint) -> ChainPoint:
    """Round a/(nm) down to the coarser chain: right adjoint to inclusion."""
    if x.n != n * m:
        raise DomainError(f"point lives on chain {x.n}, expected {n * m}")
    return ChainPoint(n, x.a // m)


def ceiling_map(n: int, m: int, x: ChainPoint) -> ChainPoint:
    """Round a/(nm) up to the coarser chain: left adjoint to inclusion."""
    if x.n != n * m:
        raise DomainError(f"point lives on chain {x.n}, expected {n * m}")
    return ChainPoint(n, -(-x.a // m))


def check_floor_ceiling(n: int, m: int) -> tuple[ChainPoint, ChainPoint] | None:
    """First pair (x, y), x on the chain nm and y on the chain n, where the
    adjoint triple ceiling -| embed_point -| floor fails:
    ceiling(x) <= y iff x <= embed(y), and embed(y) <= x iff y <= floor(x)."""
    for xa in range(n * m + 1):
        x = ChainPoint(n * m, xa)
        up, down = ceiling_map(n, m, x).a, floor_map(n, m, x).a
        for ya in range(n + 1):
            y = ChainPoint(n, ya)
            e = embed_point(y, m).a
            if (up <= ya) != (xa <= e) or (e <= xa) != (ya <= down):
                return (x, y)
    return None


# -- deriving the partial operations on the point chain ----------------------------


def chain_lattice(n: int) -> FiniteLattice:
    """L_n as a lattice object, elements in ascending order, top labelled T."""
    labels = [f"{a}/{n}" for a in range(n + 1)] + ["T"]
    return FiniteLattice(labels, [(i, i + 1) for i in range(n + 1)])


def _element_of_index(n: int, i: int) -> ChainElement:
    return top(n) if i == n + 1 else frac(n, i)


def derive_partial_minus(n: int) -> dict[tuple[int, int], Fraction]:
    """Partial subtraction on the point chain, derived from the operators.

    For points x <= z the recipe is kappa(ominus(kappa_inverse(z), x)),
    with kappa the irreducibles isomorphism of L_n computed on the lattice
    object.  The table is checked cell by cell against direct subtraction;
    a mismatch would contradict the derivation and raises an internal error.
    """
    L = chain_lattice(n)
    kappa = {j: L.kappa(j) for j in L.join_irreducibles()}
    kappa_inv = {m: j for j, m in kappa.items()}
    table: dict[tuple[int, int], Fraction] = {}
    for za in range(n + 1):
        j = _element_of_index(n, kappa_inv[za])
        for xa in range(za + 1):
            x = ominus(j, frac(n, xa)).rank()
            # off the join-irreducibles, L.kappa raises its DomainError here
            derived = kappa[x] if x in kappa else L.kappa(x)
            if derived != za - xa:
                raise InternalInvariantError(
                    f"derived minus {za}/{n} - {xa}/{n} = {Fraction(derived, n)}, "
                    f"expected {Fraction(za - xa, n)}"
                )
            table[(za, xa)] = Fraction(derived, n)
    return table


def derive_partial_plus(n: int) -> dict[tuple[int, int], Fraction]:
    """Partial addition on the point chain, derived as the adjoint of ominus.

    The sum of x and z is the largest u in L_n with ominus(u, x) <= z,
    restricted to the point chain (defined when it is not T, i.e. when the
    values sum to at most 1).  Checked cell by cell against direct addition.
    """
    minus = _rank_table(ominus, n, result_first=True)
    table: dict[tuple[int, int], Fraction] = {}
    for xa in range(n + 1):
        for za in range(n + 1 - xa):
            best = max(u for u in range(n + 2) if minus[u][xa] <= za)
            if best == n + 1:
                raise InternalInvariantError(
                    f"derived plus {xa}/{n} + {za}/{n} escaped the point chain"
                )
            derived = Fraction(best, n)
            direct = Fraction(xa + za, n)
            if derived != direct:
                raise InternalInvariantError(
                    f"derived plus {xa}/{n} + {za}/{n} = {derived}, expected {direct}"
                )
            table[(xa, za)] = derived
    return table


# -- projections from the doubled interval -----------------------------------------


def project_gamma(x: GammaValue, n: int) -> ChainPoint:
    """The largest point of the subdivision chain whose exact copy is below x.

    Exact q^o projects to floor(qn)/n; an approximation r^- projects to the
    largest point strictly below r.  These projections commute with the
    floor maps, forming a cone over the inverse system of point chains.
    """
    if n < 1:
        raise DomainError("chain parameter must be positive")
    scaled = x.value * n
    if x.exact:
        a = math.floor(scaled)
    else:
        a = math.ceil(scaled) - 1
    return ChainPoint(n, a)


# -- the whole sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class DualityLine:
    """One line of the duality report; ``failed`` marks a FAIL line."""

    text: str
    failed: bool = False


def verify_duality(max_n: int, max_m: int) -> Iterator[DualityLine]:
    """Every chain duality check over 1 <= n <= max_n and 2 <= m <= max_m.

    Yields one line per check family (PASS with its case count) and one per
    ominus witness.  A failing check yields its FAIL line and ends the sweep.
    """
    ns = range(1, max_n + 1)
    nms = [(n, m) for n in ns for m in range(2, max_m + 1)]

    for n in ns:
        bad = check_adjunction(n)
        if bad is not None:
            yield DualityLine(
                f"adjunction n<={max_n}: FAIL at n={n} u={bad.u} v={bad.v} w={bad.w}", True
            )
            return
    triples = sum((n + 2) ** 3 for n in ns)
    yield DualityLine(f"adjunction n<={max_n}: {triples} triples: PASS")

    label = f"oplus-preservation n<={max_n} m<={max_m}"
    for n, m in nms:
        bad_pair = check_oplus_preserved(n, m)
        if bad_pair is not None:
            u, v = bad_pair
            yield DualityLine(f"{label}: FAIL at n={n} m={m} u={u} v={v}", True)
            return
    pairs = sum((n + 2) ** 2 for n, _ in nms)
    yield DualityLine(f"{label}: {pairs} pairs: PASS")

    for n, m in nms:
        w = find_ominus_counterexample(n, m)
        yield DualityLine(
            f"ominus-counterexample n={n} m={m}: u={w.u} v={w.v}: "
            f"embed(u ominus v)={w.embedded_of_result}, "
            f"embed(u) ominus embed(v)={w.result_of_embedded}"
        )

    for n in ns:
        derive_partial_minus(n)
        derive_partial_plus(n)
    yield DualityLine(f"derived-minus n<={max_n}: {max_n} tables: PASS")
    yield DualityLine(f"derived-plus n<={max_n}: {max_n} tables: PASS")

    label = f"floor-ceiling n<={max_n} m<={max_m}"
    for n, m in nms:
        bad_points = check_floor_ceiling(n, m)
        if bad_points is not None:
            x, y = bad_points
            yield DualityLine(f"{label}: FAIL at n={n} m={m} x={x} y={y}", True)
            return
    checked = sum((n * m + 1) * (n + 1) for n, m in nms)
    yield DualityLine(f"{label}: {checked} pairs: PASS")

    label = f"projection-cone grid=10 n<={max_n} m<={max_m}"
    points = GammaGrid(10).points
    for x in points:
        for n, m in nms:
            if floor_map(n, m, project_gamma(x, n * m)) != project_gamma(x, n):
                yield DualityLine(
                    f"{label}: FAIL at x={format_gamma(x)} n={n} m={m}", True
                )
                return
    yield DualityLine(f"{label}: {len(points) * len(nms)} cases: PASS")
