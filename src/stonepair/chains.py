"""Finite chain lattices, their operators, and projections from the doubled
unit interval.

``L_n`` is the chain 0 < 1/n < ... < 1 < T with an adjoined top.  It carries
a truncated addition ``oplus`` (T absorbing, overflow to T) and its adjoint
partial subtraction ``ominus``; these satisfy

    u ominus v <= w  iff  u <= v oplus w.

Every operator is one integer expression on ranks.  The element a/n of L_n
has rank a and T has rank n + 1, so the order of L_n is integer order, and
for the multiplication factor m:

* ``oplus`` is min(x + y, n + 1) and ``ominus`` is max(x - y, 0);
* ``embed`` is x * m on points and sends T to the top nm + 1 of L_{nm};
* ``floor_map`` is x // m and ``ceiling_map`` is -(-x // m).

The expressions (``oplus_of_ranks`` and its siblings) are branch-free, so
they take ints of any size or numpy arrays.  The public operators wrap them
for ``ChainElement``/``ChainPoint`` objects; the checks decide every case on
rank tables and build objects only for the witnesses they return.

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
chain compatibly with the floor maps; it is the rank expression
``gamma.project_of_ranks``, and the sweep decides the whole projection
cone on one table of it.  ``verify_duality`` runs all of these checks as
one report.  Each check charges its tables to the memory budget
(``fo.check_bytes``) before it builds them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import fo
from .errors import DomainError, InternalInvariantError, SizeError, require_integer
from .gamma import GammaValue, format_gamma, point_of_rank, project_of_ranks, rank
from .lattice import FiniteLattice, chain


def _require_chain(n: int) -> None:
    require_integer("chain parameter", n)
    if n < 1:
        raise DomainError("chain parameter must be positive")


def _require_factor(m: int) -> None:
    require_integer("embedding factor", m)
    if m < 1:
        raise DomainError("embedding factor must be positive")


def _require_point(n: int, a: int) -> None:
    """The one check of a point a/n: n is a chain parameter, a an integer in 0..n."""
    _require_chain(n)
    require_integer("point numerator", a)
    if not 0 <= a <= n:
        raise DomainError(f"{a}/{n} is not on the chain")


@dataclass(frozen=True)
class ChainElement:
    """An element of L_n: the point a/n for 0 <= a <= n, or the top T."""

    n: int
    a: int | None  # None encodes T

    def __post_init__(self) -> None:
        if self.a is None:
            _require_chain(self.n)
        else:
            _require_point(self.n, self.a)

    @classmethod
    def of_rank(cls, n: int, r: int) -> ChainElement:
        """The element of L_n with rank ``r``: r/n for r <= n, T for n + 1."""
        r = int(r)
        return cls(n, None if r == n + 1 else r)

    @property
    def is_top(self) -> bool:
        return self.a is None

    def __str__(self) -> str:
        return "T" if self.a is None else f"{self.a}/{self.n}"

    def rank(self) -> int:
        return self.n + 1 if self.a is None else self.a


def _same_chain(u: ChainElement, v: ChainElement) -> None:
    if u.n != v.n:
        raise DomainError(f"mismatched chains: {u.n} vs {v.n}")


@dataclass(frozen=True)
class ChainPoint:
    """A point a/n of the subdivision chain {0, 1/n, ..., 1}."""

    n: int
    a: int

    def __post_init__(self) -> None:
        _require_point(self.n, self.a)

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, self.n)

    def __str__(self) -> str:
        return f"{self.a}/{self.n}"


# -- the rank expressions --------------------------------------------------------


def oplus_of_ranks(x, y, n):
    """``oplus`` on the ranks of L_n: min(x + y, n + 1)."""
    s = x + y
    return s - (s > n + 1) * (s - n - 1)


def ominus_of_ranks(x, y, n):
    """``ominus`` on the ranks of L_n: max(x - y, 0), whatever n is."""
    return (x > y) * (x - y)


def embed_of_ranks(x, n, m):
    """The embedding of L_n into L_{nm} on ranks: x * m, and T to nm + 1.

    ``x // (n + 1)`` is 1 at T and 0 on the points; unlike a comparison it
    keeps an object array's Python integers when multiplied by a large m.
    """
    return x * m - x // (n + 1) * (m - 1)


def floor_of_ranks(x, m):
    """A point rank on the chain nm rounded down to the chain n."""
    return x // m


def ceiling_of_ranks(x, m):
    """A point rank on the chain nm rounded up to the chain n."""
    return -(-x // m)


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first true cell of ``bad`` in row-major order."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


# -- the operators on L_n --------------------------------------------------------


def oplus(u: ChainElement, v: ChainElement) -> ChainElement:
    """Truncated addition: T absorbing, sums beyond 1 overflow to T."""
    _same_chain(u, v)
    return ChainElement.of_rank(u.n, oplus_of_ranks(u.rank(), v.rank(), u.n))


def ominus(u: ChainElement, v: ChainElement) -> ChainElement:
    """The adjoint subtraction: largest w with u <= v oplus w."""
    _same_chain(u, v)
    return ChainElement.of_rank(u.n, ominus_of_ranks(u.rank(), v.rank(), u.n))


@dataclass(frozen=True)
class AdjunctionViolation:
    u: ChainElement
    v: ChainElement
    w: ChainElement


def check_adjunction(n: int) -> AdjunctionViolation | None:
    """Exhaustively check ``u ominus v <= w iff u <= v oplus w`` on L_n.

    One (v, w) table per u decides the triples; the first failing triple in
    (u, v, w) order is returned as elements.
    """
    _require_chain(n)
    # the sum table and the temporaries of its rank expression: four int64 tables
    fo.check_bytes("the adjunction tables", 4 * 8 * (n + 2) ** 2)
    r = np.arange(n + 2)
    v, w = r[:, None], r
    plus = oplus_of_ranks(v, w, n)
    for u in range(n + 2):
        hit = _first((ominus_of_ranks(u, v, n) <= w) != (u <= plus))
        if hit is not None:
            return AdjunctionViolation(*(ChainElement.of_rank(n, x) for x in (u, *hit)))
    return None


# -- the multiplication embeddings ----------------------------------------------


def embed(u: ChainElement, m: int) -> ChainElement:
    """The lattice embedding of L_n into L_{nm}: a/n to am/(nm), T to T."""
    _require_factor(m)
    return ChainElement.of_rank(u.n * m, embed_of_ranks(u.rank(), u.n, m))


def _embedded_tables(op, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """embed(u op v) and embed(u) op embed(v) on ranks, row u, column v.

    Every entry, x * m included, is at most (n + 2) * m: the bound from which
    ``fo._integer_dtype`` chooses the dtype, and the charge reads it.
    Five tables are alive at once: the two results and the temporaries of a
    rank expression.
    """
    dtype = fo._integer_dtype((n + 2) * m)
    cell = 8 + (dtype is object) * sys.getsizeof(2 * (n + 2) * m)  # a pointer and its integer
    fo.check_bytes("the embedded rank tables", 5 * cell * (n + 2) ** 2)
    r = np.arange(n + 2, dtype=dtype)
    e = embed_of_ranks(r, n, m)
    return embed_of_ranks(op(r[:, None], r, n), n, m), op(e[:, None], e, n * m)


def check_oplus_preserved(n: int, m: int) -> tuple[ChainElement, ChainElement] | None:
    """First pair (if any) where the embedding fails to commute with oplus."""
    _require_chain(n)
    _require_factor(m)
    lhs, rhs = _embedded_tables(oplus_of_ranks, n, m)
    hit = _first(lhs != rhs)
    return None if hit is None else tuple(ChainElement.of_rank(n, x) for x in hit)


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
    require_integer("embedding factor", m)
    if m < 2:
        raise DomainError("the embedding is the identity for m = 1; need m >= 2")
    _require_chain(n)
    lhs, rhs = _embedded_tables(ominus_of_ranks, n, m)
    hit = _first(lhs != rhs)
    if hit is None:
        raise InternalInvariantError(f"no ominus counterexample for n={n}, m={m}")
    return OminusWitness(
        ChainElement.of_rank(n, hit[0]),
        ChainElement.of_rank(n, hit[1]),
        ChainElement.of_rank(n * m, lhs[hit]),
        ChainElement.of_rank(n * m, rhs[hit]),
    )


# -- floor, ceiling, and the point embedding --------------------------------------


def embed_point(p: ChainPoint, m: int) -> ChainPoint:
    """The inclusion of subdivision chains: a/n to am/(nm)."""
    _require_factor(m)
    return ChainPoint(p.n * m, embed_of_ranks(p.a, p.n, m))


def _require_coarser(n: int, m: int, x: ChainPoint) -> None:
    """x on the chain nm, for chain n and factor m: the check of both roundings."""
    if x.n != n * m:
        raise DomainError(f"point lives on chain {x.n}, expected {n * m}")
    _require_chain(n)
    _require_factor(m)


def floor_map(n: int, m: int, x: ChainPoint) -> ChainPoint:
    """Round a/(nm) down to the coarser chain: right adjoint to inclusion."""
    _require_coarser(n, m, x)
    return ChainPoint(n, floor_of_ranks(x.a, m))


def ceiling_map(n: int, m: int, x: ChainPoint) -> ChainPoint:
    """Round a/(nm) up to the coarser chain: left adjoint to inclusion."""
    _require_coarser(n, m, x)
    return ChainPoint(n, ceiling_of_ranks(x.a, m))


def check_floor_ceiling(n: int, m: int) -> tuple[ChainPoint, ChainPoint] | None:
    """First pair (x, y), x on the chain nm and y on the chain n, where the
    adjoint triple ceiling -| embed_point -| floor fails:
    ceiling(x) <= y iff x <= embed(y), and embed(y) <= x iff y <= floor(x)."""
    _require_chain(n)
    _require_factor(m)
    # the four comparison tables and their disjunction, one byte a cell
    fo.check_bytes("the floor-ceiling tables", 5 * (n * m + 1) * (n + 1))
    x, y = np.arange(n * m + 1)[:, None], np.arange(n + 1)
    up, down, e = ceiling_of_ranks(x, m), floor_of_ranks(x, m), embed_of_ranks(y, n, m)
    hit = _first(((up <= y) != (x <= e)) | ((e <= x) != (y <= down)))
    return None if hit is None else (ChainPoint(n * m, hit[0]), ChainPoint(n, hit[1]))


# -- deriving the partial operations on the point chain ----------------------------


def chain_lattice(n: int) -> FiniteLattice:
    """L_n as a lattice object, elements in ascending order, top labelled T."""
    return chain(n + 2, [f"{a}/{n}" for a in range(n + 1)] + ["T"])


def _derived_bytes(n: int) -> int:
    """The bytes a derived table of the point chain n takes: an entry for
    each pair of points x <= z, its dict slot and its key of two integers,
    the Fraction shared.  The traced peak of ``derive_partial_plus``, one
    row's booleans included, was 70 to 140 bytes an entry for n from 30 to
    1000."""
    return 160 * ((n + 1) * (n + 2) // 2)


def derive_partial_minus(n: int) -> dict[tuple[int, int], Fraction]:
    """Partial subtraction on the point chain, derived from the operators.

    For points x <= z the recipe is kappa(ominus(kappa_inverse(z), x)),
    with kappa the irreducibles isomorphism of L_n computed on the lattice
    object.  The table is checked cell by cell against direct subtraction;
    a mismatch would contradict the derivation and raises an internal error.
    """
    _require_chain(n)
    fo.check_bytes("the derived differences", _derived_bytes(n))
    L = chain_lattice(n)
    kappa = {j: L.kappa(j) for j in L.join_irreducibles()}
    kappa_inv = {m: j for j, m in kappa.items()}
    fracs = [Fraction(a, n) for a in range(n + 1)]
    table: dict[tuple[int, int], Fraction] = {}
    for za in range(n + 1):
        row = ominus_of_ranks(kappa_inv[za], np.arange(za + 1), n)
        for xa, x in enumerate(row.tolist()):
            # off the join-irreducibles, L.kappa raises its DomainError here
            derived = kappa[x] if x in kappa else L.kappa(x)
            if derived != za - xa:
                raise InternalInvariantError(
                    f"derived minus {za}/{n} - {xa}/{n} = {Fraction(derived, n)}, "
                    f"expected {Fraction(za - xa, n)}"
                )
            table[(za, xa)] = fracs[derived]
    return table


def derive_partial_plus(n: int) -> dict[tuple[int, int], Fraction]:
    """Partial addition on the point chain, derived as the adjoint of ominus.

    The sum of x and z is the largest u in L_n with ominus(u, x) <= z,
    restricted to the point chain (defined when it is not T, i.e. when the
    values sum to at most 1).  Checked cell by cell against direct addition.
    """
    _require_chain(n)
    fo.check_bytes("the derived sums", _derived_bytes(n))
    u = np.arange(n + 2)
    fracs = [Fraction(a, n) for a in range(n + 1)]
    table: dict[tuple[int, int], Fraction] = {}
    for xa in range(n + 1):
        z = np.arange(n + 1 - xa)
        below = ominus_of_ranks(u, xa, n)[:, None] <= z  # row u, column z
        # the largest u below each z, -1 where there is none
        best = np.where(below.any(axis=0), n + 1 - np.argmax(below[::-1], axis=0), -1)
        hit = _first(best != xa + z)
        if hit is not None:
            za, b = hit[0], int(best[hit])
            got = "undefined" if b < 0 else "T" if b == n + 1 else Fraction(b, n)
            raise InternalInvariantError(
                f"derived plus {xa}/{n} + {za}/{n} = {got}, expected {fracs[xa + za]}"
            )
        table.update(((xa, za), fracs[xa + za]) for za in range(n + 1 - xa))
    return table


# -- projections from the doubled interval -----------------------------------------


def project_gamma(x: GammaValue, n: int) -> ChainPoint:
    """The largest point of the subdivision chain whose exact copy is below x.

    Exact q^o projects to floor(qn)/n; an approximation r^- projects to the
    largest point strictly below r.  These projections commute with the
    floor maps, forming a cone over the inverse system of point chains.
    Computed by ``gamma.project_of_ranks`` on the rank of x over its own
    denominator.
    """
    _require_chain(n)
    denom = x.value.denominator
    return ChainPoint(n, project_of_ranks(rank(x, denom), n, denom))


# -- the whole sweep ----------------------------------------------------------------

# The most cases (the four PASS-line counts together) one sweep may check;
# n <= 24, m <= 10 has 467 208.  Sweeps just under it (n <= 70, m <= 2;
# n <= 1, m <= 3000) took at most 1.3 s at 32 MiB peak RSS on a 2-vCPU host.
MAX_DUALITY_CASES = 10**7


@dataclass(frozen=True)
class DualityLine:
    """One line of the duality report; ``failed`` marks a FAIL line."""

    text: str
    failed: bool = False


def verify_duality(max_n: int, max_m: int) -> Iterator[DualityLine]:
    """Every chain duality check over 1 <= n <= max_n and 2 <= m <= max_m.

    Yields one line per check family (PASS with its case count) and one per
    ominus witness.  A failing check yields its FAIL line and ends the sweep.
    The case counts are closed forms, so a sweep past ``MAX_DUALITY_CASES``
    raises ``SizeError`` before any check runs.
    """
    require_integer("chain bound", max_n)
    require_integer("factor bound", max_m)
    n_count, m_count = max(max_n, 0), max(max_m - 1, 0)
    k = n_count + 2
    triples = (k * (k + 1) // 2) ** 2 - 9  # (n + 2)^3 for each n
    pairs = m_count * (k * (k + 1) * (2 * k + 1) // 6 - 5)  # (n + 2)^2 for each n, m
    # (nm + 1)(n + 1) for each n, m, from the sums of m, of n(n + 1) and of n + 1
    checked = (
        m_count * (m_count + 3) // 2 * n_count * (n_count + 1) * (n_count + 2) // 3
        + m_count * n_count * (n_count + 3) // 2
    )
    grid = 10
    cases = (2 * grid + 1) * n_count * m_count
    total = triples + pairs + checked + cases
    if total > MAX_DUALITY_CASES:
        raise SizeError(
            f"duality sweep n<={max_n} m<={max_m} has {total} cases; "
            f"the guard is {MAX_DUALITY_CASES}"
        )

    ns, ms = range(1, max_n + 1), range(2, max_m + 1)

    def nms() -> Iterator[tuple[int, int]]:
        return ((n, m) for n in ns for m in ms)

    for n in ns:
        bad = check_adjunction(n)
        if bad is not None:
            yield DualityLine(
                f"adjunction n<={max_n}: FAIL at n={n} u={bad.u} v={bad.v} w={bad.w}", True
            )
            return
    yield DualityLine(f"adjunction n<={max_n}: {triples} triples: PASS")

    label = f"oplus-preservation n<={max_n} m<={max_m}"
    for n, m in nms():
        bad_pair = check_oplus_preserved(n, m)
        if bad_pair is not None:
            u, v = bad_pair
            yield DualityLine(f"{label}: FAIL at n={n} m={m} u={u} v={v}", True)
            return
    yield DualityLine(f"{label}: {pairs} pairs: PASS")

    for n, m in nms():
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
    for n, m in nms():
        bad_points = check_floor_ceiling(n, m)
        if bad_points is not None:
            x, y = bad_points
            yield DualityLine(f"{label}: FAIL at n={n} m={m} x={x} y={y}", True)
            return
    yield DualityLine(f"{label}: {checked} pairs: PASS")

    # one table: row x (its rank over the grid), column (n, m)
    label = f"projection-cone grid={grid} n<={max_n} m<={max_m}"
    n, m = np.array(list(nms()), dtype=np.int64).reshape(-1, 2).T
    x = np.arange(2 * grid + 1)[:, None]
    coarse = floor_of_ranks(project_of_ranks(x, n * m, grid), m)
    hit = _first(coarse != project_of_ranks(x, n, grid))
    if hit is not None:
        r, pair = hit
        yield DualityLine(
            f"{label}: FAIL at x={format_gamma(point_of_rank(r, grid))} "
            f"n={n[pair]} m={m[pair]}", True
        )
        return
    yield DualityLine(f"{label}: {cases} cases: PASS")
