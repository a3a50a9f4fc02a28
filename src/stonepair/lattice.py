"""Finite bounded distributive lattices given extensionally by their order.

Elements are indices 0..n-1 with display labels.  The one stored form of a
lattice is ``_order_arrays``: the order (the closure of the given relation,
taken at construction; ``product_lattice`` and ``from_subsets`` build theirs
closed and hand it over as it is) as a read-only boolean table, and the
meet and join tables (built at first use) as element indices, each indexed
[a, b].  Validation, bounds, covers, irreducibles, the order isomorphism
``kappa`` between them, prime filters and homomorphism checks are
whole-array passes over these tables.  Each table is checked against the memory budget
(``fo.check_bytes``) before it is built, which covers any temporary no
larger than it.  The module also provides small factory lattices used
throughout the test corpus and a one-per-file text format.  Validation
checks the distributive law on all triples at once, on the meet and join
tables, not forbidden sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from . import fo
from .errors import DomainError, InternalInvariantError, LatticeError, ParseError, require_integer


# the most cells of scratch one block of the meet and join pass may take
_BLOCK_CELLS = 2**18


def _pairs_in_order(first: np.ndarray, second: np.ndarray) -> list[list[int]]:
    """[a, b, 0 or 1] for each pair a <= b (by index) flagged in ``first`` or
    ``second``, in row-major order, ``first`` before ``second`` on a pair."""
    return np.argwhere(np.triu(np.stack((first, second))).transpose(1, 2, 0)).tolist()


def _is_pair(p: object) -> bool:
    return isinstance(p, tuple) and len(p) == 2 and all(isinstance(x, Integral) for x in p)


class FiniteLattice:
    """A finite poset intended to be a bounded distributive lattice.

    Construction takes any relation on the labels' indices and closes it
    reflexively and transitively.  ``validate`` reports every way the result
    fails to be a bounded distributive lattice; the algebraic accessors
    (``meet``, ``join``, ``bottom``, ...) assume a valid lattice and raise
    ``LatticeError`` when the required structure is missing.
    """

    def __init__(self, labels: Sequence[str], relation: Iterable[tuple[int, int]]):
        n = self._set_labels(labels)
        pairs = [tuple(p) if isinstance(p, Iterable) else p for p in relation]
        bad = next((p for p in pairs if not _is_pair(p)), None)
        if bad is not None:
            raise DomainError(f"order pair must be a pair of integers: {bad!r}")
        # exact Python integers: a negative index must not wrap, a huge one overflow
        index = np.array(pairs, dtype=object).reshape(-1, 2)
        outside = ((index < 0) | (index >= n)).any(axis=1)
        if outside.any():
            i, j = pairs[int(outside.argmax())]
            raise DomainError(f"order pair ({i}, {j}) out of range for {n} elements")
        fo.check_bytes("the order", n * n)
        leq = np.eye(n, dtype=bool)
        leq[tuple(index.astype(np.intp).T)] = True
        for k in range(n):  # Warshall: whatever reaches k reaches what k reaches
            leq |= leq[:, k, None] & leq[k]
        self._leq = fo._read_only(leq)

    @classmethod
    def _from_closed_order(cls, labels: Sequence[str], leq: np.ndarray) -> FiniteLattice:
        """The lattice whose order is ``leq``, an n × n boolean table that is
        already reflexive and transitive, for n labels; the lattice takes it
        over as it is, with the constructor's label checks.  The caller
        charges the table to the memory budget before it builds it."""
        lattice = cls.__new__(cls)
        n = lattice._set_labels(labels)
        if leq.shape != (n, n):
            raise DomainError(f"{n} labels for an order table of shape {leq.shape}")
        lattice._leq = fo._read_only(leq)
        return lattice

    def _set_labels(self, labels: Sequence[str]) -> int:
        """Store the checked ``labels`` and their number n, and return n."""
        labels = tuple(labels)
        if not labels:
            raise DomainError("a lattice needs at least one element")
        if len(set(labels)) != len(labels):
            raise DomainError("element labels must be unique")
        self.labels = labels
        self.n = len(labels)
        return self.n

    # -- order -------------------------------------------------------------

    def _index(self, a: int) -> int:
        """``a``, or a ``DomainError`` when it is not an element index (none wraps)."""
        require_integer("element index", a)
        if not 0 <= a < self.n:
            raise DomainError(f"element index {a} out of range for {self.n} elements")
        return a

    def leq(self, a: int, b: int) -> bool:
        return bool(self._leq[self._index(a), self._index(b)])

    def upset(self, a: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._leq[self._index(a)]).tolist())

    def downset(self, a: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._leq[:, self._index(a)]).tolist())

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown element label {label!r}") from None

    # -- lattice structure ---------------------------------------------------

    @cached_property
    def bottom(self) -> int:
        """The lowest index whose row of the order is all true."""
        below_all = self._leq.all(axis=1)
        if not below_all.any():
            raise LatticeError("no bottom element")
        return int(below_all.argmax())

    @cached_property
    def top(self) -> int:
        """The lowest index whose column of the order is all true."""
        above_all = self._leq.all(axis=0)
        if not above_all.any():
            raise LatticeError("no top element")
        return int(above_all.argmax())

    def _bounds_pass(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The meet and join tables, and the masks of the pairs that have a
        meet and a join, built a block of rows a at a time.

        For the meet, the elements are sorted by downset size, descending,
        ties by index.  Row a takes, for every b, the first common lower
        bound of a and b in that order; it is their meet iff its downset
        holds every common lower bound, that is iff its downset size is
        their number.  The join is the dual, on upsets.  A block's scratch
        [a, b, c] is at most ``_BLOCK_CELLS`` cells, or one row.
        """
        n, leq = self.n, self._leq
        step = max(1, _BLOCK_CELLS // (n * n))
        tables, masks = [], []
        for kind, bound in (("meet", leq.T), ("join", leq)):
            # bound[b, c]: c is a lower (meet) or an upper (join) bound of b
            fo.check_bytes(f"the {kind} table", np.dtype(np.intp).itemsize * n * n)
            size = bound.sum(axis=1)
            by_size = np.argsort(-size, kind="stable")
            bounds = bound[:, by_size]
            table = np.empty((n, n), dtype=np.intp)
            found = np.empty((n, n), dtype=bool)
            for a in range(0, n, step):
                rows = slice(a, a + step)
                common = bounds & bounds[rows, None]
                table[rows] = by_size[common.argmax(axis=2)]
                found[rows] = size[table[rows]] == common.sum(axis=2)
            tables.append(table)
            masks.append(found)
        return tables, masks

    @cached_property
    def _order_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only order, meet and join tables, indexed [a, b]: ``leq``
        as booleans, meets and joins as element indices.  A missing meet is
        reported before a missing join, each at its first pair in row-major
        order."""
        (meet, join), masks = self._bounds_pass()
        for kind, found in zip(("meet", "join"), masks):
            if not found.all():
                a, b = np.argwhere(~found)[0].tolist()
                raise LatticeError(f"no {kind} for ({self.labels[a]}, {self.labels[b]})")
        return self._leq, fo._read_only(meet), fo._read_only(join)

    def meet(self, a: int, b: int) -> int:
        return int(self._order_arrays[1][self._index(a), self._index(b)])

    def join(self, a: int, b: int) -> int:
        return int(self._order_arrays[2][self._index(a), self._index(b)])

    def join_all(self, elems: Iterable[int]) -> int:
        return reduce(self.join, elems, self.bottom)

    def meet_all(self, elems: Iterable[int]) -> int:
        return reduce(self.meet, elems, self.top)

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """All violations of the bounded-distributive-lattice requirements:
        antisymmetry, then the bounds, then the meet and the join of each
        pair a <= b in index order, then distributivity on every triple."""
        leq, labels = self._leq, self.labels
        twins = np.argwhere(np.triu(leq & leq.T, 1)).tolist()
        if twins:
            return [
                f"antisymmetry fails: {labels[a]} <= {labels[b]} <= {labels[a]}"
                for a, b in twins
            ]
        out: list[str] = []
        if not leq.all(axis=1).any():
            out.append("no bottom element")
        if not leq.all(axis=0).any():
            out.append("no top element")
        try:
            _, meet, join = self._order_arrays
        except LatticeError:
            _, (has_meet, has_join) = self._bounds_pass()
            out.extend(
                f"no {('meet', 'join')[kind]} for ({labels[a]}, {labels[b]})"
                for a, b, kind in _pairs_in_order(~has_meet, ~has_join)
            )
        if out:
            return out
        # [a, b, c]: a ^ (b v c) against (a ^ b) v (a ^ c), all triples at once
        fo.check_bytes("the distributivity check", 2 * meet.itemsize * self.n**3)
        fails = meet[:, join] != join[meet[:, :, None], meet[:, None, :]]
        out.extend(
            f"distributivity fails on ({labels[a]}, {labels[b]}, {labels[c]})"
            for a, b, c in np.argwhere(fails).tolist()
        )
        return out

    # -- irreducibles ----------------------------------------------------------

    def _cover_table(self) -> np.ndarray:
        """[i, j]: j covers i, that is i < j with nothing strictly between."""
        strict = self._leq & ~np.eye(self.n, dtype=bool)
        return strict & ~(strict @ strict)

    @cached_property
    def _irreducibles(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The join- and the meet-irreducibles, ascending: the elements with
        exactly one lower (upper) cover, bottom (top) excluded."""
        covers = self._cover_table()
        joins, meets = covers.sum(axis=0) == 1, covers.sum(axis=1) == 1
        joins[self.bottom] = meets[self.top] = False
        return tuple(np.flatnonzero(joins).tolist()), tuple(np.flatnonzero(meets).tolist())

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover (bottom excluded)."""
        return self._irreducibles[0]

    def meet_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one upper cover (top excluded)."""
        return self._irreducibles[1]

    @cached_property
    def _kappa_table(self) -> np.ndarray:
        """Entry j, for each join-irreducible j: the join of {u : j not<= u},
        the least of its upper bounds (the upper bound with the smallest
        downset); -1 elsewhere.  Like any join it needs the tables, so a
        missing meet or join raises ``LatticeError``."""
        leq, n = self._order_arrays[0], self.n
        joins = list(self._irreducibles[0])
        # [j, c]: every u with j not<= u lies below c
        bounds = ~(~leq[joins] @ ~leq)
        table = np.full(n, -1, dtype=np.intp)
        table[joins] = np.where(bounds, leq.sum(axis=0), n + 1).argmin(axis=1)
        return fo._read_only(table)

    def kappa(self, j: int) -> int:
        """The meet-irreducible ``join of {u : j not<= u}`` paired with j.

        Restricted to join-irreducibles this is an order isomorphism onto the
        meet-irreducibles, characterised by ``u <= kappa(j) iff j not<= u``.
        """
        joins, meets = self._irreducibles
        if self._index(j) not in joins:
            raise DomainError(f"{self.labels[j]} is not join-irreducible")
        m = int(self._kappa_table[j])
        if m not in meets:
            raise InternalInvariantError(
                f"kappa({self.labels[j]}) = {self.labels[m]} is not meet-irreducible"
            )
        return m

    def kappa_inverse(self, m: int) -> int:
        inv = {self.kappa(j): j for j in self._irreducibles[0]}
        if self._index(m) not in inv:
            raise DomainError(f"{self.labels[m]} is not in the image of kappa")
        return inv[m]

    def prime_filters(self) -> tuple["PrimeFilter", ...]:
        """All prime filters; for a distributive lattice these are the
        principal up-sets of the join-irreducibles."""
        return tuple(
            PrimeFilter(self, self.upset(j)) for j in self.join_irreducibles()
        )

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.labels)!r})"


@dataclass(frozen=True)
class PrimeFilter:
    """A candidate prime filter: nonempty proper up-set, meet-closed, prime."""

    lattice: FiniteLattice
    members: frozenset[int]

    def __post_init__(self) -> None:
        for m in self.members:
            require_integer("filter member", m)

    def violations(self) -> list[str]:
        """Every failure, kind by kind (empty, not proper, up-set,
        meet-closure, primeness), each kind in ascending order of its
        elements."""
        L = self.lattice
        if any(not 0 <= m < L.n for m in self.members):
            raise DomainError(f"filter members must be element indices 0..{L.n - 1}")
        leq, meet, join = L._order_arrays
        labels = L.labels
        inside = np.zeros(L.n, dtype=bool)
        inside[list(self.members)] = True
        outside = ~inside
        out: list[str] = []
        if not self.members:
            out.append("empty")
        if len(self.members) == L.n:
            out.append("not proper")
        out.extend(
            f"not an up-set: {labels[u]} missing above {labels[f]}"
            for f, u in np.argwhere(inside[:, None] & leq & outside).tolist()
        )
        out.extend(
            f"not meet-closed on ({labels[a]}, {labels[b]})"
            for a, b in np.argwhere(inside[:, None] & inside & outside[meet]).tolist()
        )
        out.extend(
            f"not prime on ({labels[a]}, {labels[b]})"
            for a, b in np.argwhere(inside[join] & outside[:, None] & outside).tolist()
        )
        return out


@dataclass(frozen=True)
class LatticeHom:
    """A map of element indices intended to preserve meets, joins and bounds."""

    source: FiniteLattice
    target: FiniteLattice
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        for y in self.mapping:
            require_integer("mapping entry", y)

    def __call__(self, a: int) -> int:
        return self.mapping[self.source._index(a)]

    def compose(self, other: "LatticeHom") -> "LatticeHom":
        """The composite ``self . other`` (apply ``other`` first)."""
        if other.target is not self.source:
            raise DomainError("homomorphisms do not compose: target/source mismatch")
        return LatticeHom(
            other.source, self.target, tuple(self.mapping[x] for x in other.mapping)
        )


def check_hom(h: LatticeHom) -> list[str]:
    """Violations of homomorphism-hood: bounds, then the meet and the join
    of each pair a <= b in index order."""
    src, tgt, f = h.source, h.target, h.mapping
    out: list[str] = []
    if len(f) != src.n:
        return [f"mapping has {len(f)} entries for {src.n} elements"]
    if any(not 0 <= y < tgt.n for y in f):
        return ["mapping image out of range"]
    if f[src.bottom] != tgt.bottom:
        out.append("bottom not preserved")
    if f[src.top] != tgt.top:
        out.append("top not preserved")
    _, meet, join = src._order_arrays
    _, tgt_meet, tgt_join = tgt._order_arrays
    f = np.array(f, dtype=np.intp)
    out.extend(
        f"{('meet', 'join')[kind]} not preserved on ({src.labels[a]}, {src.labels[b]})"
        for a, b, kind in _pairs_in_order(
            f[meet] != tgt_meet[f[:, None], f], f[join] != tgt_join[f[:, None], f]
        )
    )
    return out


# -- factories ----------------------------------------------------------------


def chain(n: int, labels: Sequence[str] | None = None) -> FiniteLattice:
    """The n-element chain c0 < c1 < ... with optional custom labels."""
    require_integer("chain length", n)
    if n < 1:
        raise DomainError("a chain needs at least one element")
    if labels is None:
        labels = [f"c{i}" for i in range(n)]
    return FiniteLattice(labels, [(i, i + 1) for i in range(n - 1)])


_ATOM_NAMES = "abcdefgh"


def boolean_algebra(num_atoms: int) -> FiniteLattice:
    """The powerset of ``num_atoms`` atoms, elements indexed by subset bitmask.

    Labels: "0" for the empty set, "1" for the full set, otherwise the
    concatenated atom letters (e.g. "ac").
    """
    require_integer("atom count", num_atoms)
    if not 0 <= num_atoms <= len(_ATOM_NAMES):
        raise DomainError(f"supported atom counts are 0..{len(_ATOM_NAMES)}")
    size = 1 << num_atoms
    labels = []
    for s in range(size):
        if s == 0:
            labels.append("0")
        elif s == size - 1:
            labels.append("1")
        else:
            labels.append("".join(a for i, a in enumerate(_ATOM_NAMES) if s >> i & 1))
    pairs = [(s, s | 1 << i) for s in range(size) for i in range(num_atoms) if not s >> i & 1]
    return FiniteLattice(labels, pairs)


def product_lattice(left: FiniteLattice, right: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered product; labels joined with an underscore.

    Pair (a, b) has index a * right.n + b, and its order is one outer
    product of the two order tables."""
    labels = [f"{la}_{lb}" for la in left.labels for lb in right.labels]
    if len(set(labels)) != len(labels):
        labels = [f"p{i}" for i in range(left.n * right.n)]
    n = left.n * right.n
    fo.check_bytes("the product order", n * n)
    leq = left._leq[:, None, :, None] & right._leq[None, :, None, :]
    return FiniteLattice._from_closed_order(labels, leq.reshape(n, n))


def from_subsets(
    sets: Sequence[frozenset[int]], labels: Sequence[str] | None = None
) -> FiniteLattice:
    """The inclusion order on the given distinct subsets: S <= T iff no point
    of S lies outside T, one product of the membership matrix with its
    complement."""
    sets = list(sets)
    if len(set(sets)) != len(sets):
        raise DomainError("subsets must be distinct")
    if labels is None:
        labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in sets]
    points = {p: i for i, p in enumerate(dict.fromkeys(p for s in sets for p in s))}
    fo.check_bytes("the membership matrix", len(sets) * len(points))
    fo.check_bytes("the inclusion order", len(sets) ** 2)
    member = np.zeros((len(sets), len(points)), dtype=bool)
    for i, s in enumerate(sets):
        member[i, [points[p] for p in s]] = True
    return FiniteLattice._from_closed_order(labels, ~(member @ ~member.T))


# -- text format ----------------------------------------------------------------

_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def parse_lattice(text: str) -> FiniteLattice:
    """Parse the lattice text format, read with ``fo.read_lines``:

        elements: a, b, c
        order: a<=b, b<=c

    Every fault is at the line and column of its token.  The
    reflexive-transitive closure is taken automatically; the result must
    validate as a bounded distributive lattice.
    """
    index: dict[str, int] | None = None
    ends: list[tuple[str, int]] = []  # both labels of every order item, with their offsets
    for key, offset, content in fo.read_lines(text, ("elements:",)):
        if key is not None:
            index = {}
            for at, label in fo.split_items(offset, content):
                if not set(label) <= _LABEL_CHARS:
                    raise ParseError.at(f"bad element label {label!r}", text, at)
                if label in index:
                    raise ParseError.at(f"duplicate element label {label!r}", text, at)
                index[label] = len(index)
            if not index:
                raise ParseError.at("empty elements line", text, offset)
        elif content.startswith("order:"):
            for at, item in fo.split_items(offset + len("order:"), content[len("order:"):]):
                lo, sep, hi = item.partition("<=")
                if not sep:
                    raise ParseError.at(f"expected 'a<=b' in order item {item!r}", text, at)
                ends += [(lo.rstrip(), at), (hi.strip(), at + len(item) - len(hi.lstrip()))]
        else:
            raise ParseError.at(f"unrecognised line {content!r}", text, offset)
    if index is None:
        raise ParseError("missing elements line", line=1, column=1)
    ids = []
    for label, at in ends:
        if label not in index:
            raise ParseError.at(f"unknown element {label!r}", text, at)
        ids.append(index[label])
    lattice = FiniteLattice(list(index), list(zip(ids[::2], ids[1::2])))
    problems = lattice.validate()
    if problems:
        raise LatticeError("; ".join(problems))
    return lattice


def format_lattice(L: FiniteLattice) -> str:
    """Emit the text format using the covering pairs of the order."""
    lines = ["elements: " + ", ".join(L.labels)]
    covers = [f"{L.labels[i]}<={L.labels[j]}" for j, i in np.argwhere(L._cover_table().T).tolist()]
    lines.append("order: " + ", ".join(covers))
    return "\n".join(lines) + "\n"
