"""Finite bounded distributive lattices given extensionally by their order.

Elements are indices 0..n-1 with display labels; the order is stored as a
reflexive-transitive closure in bitmask rows.  Meets and joins are computed
from the order and cached at first use.  The module also provides
join/meet-irreducible analysis, the order isomorphism ``kappa`` between them,
prime-filter enumeration, homomorphism checking, small factory lattices used
throughout the test corpus, and a one-per-file text format.

Everything here is desk-scale: validation checks the distributive law on all
triples at once, on the meet and join tables, not forbidden sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import fo
from .errors import DomainError, InternalInvariantError, LatticeError, ParseError


def _closure(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Reflexive-transitive closure as bitmask rows: bit j of row i iff i <= j."""
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
            m = acc
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return tuple(rows)


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class FiniteLattice:
    """A finite poset intended to be a bounded distributive lattice.

    Construction takes any relation on the labels' indices and closes it
    reflexively and transitively.  ``validate`` reports every way the result
    fails to be a bounded distributive lattice; the algebraic accessors
    (``meet``, ``join``, ``bottom``, ...) assume a valid lattice and raise
    ``LatticeError`` when the required structure is missing.
    """

    def __init__(self, labels: Sequence[str], relation: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        if not labels:
            raise DomainError("a lattice needs at least one element")
        if len(set(labels)) != len(labels):
            raise DomainError("element labels must be unique")
        self.labels = labels
        self.n = len(labels)
        self._up = _closure(self.n, relation)
        # below[i]: bitmask of {j : j <= i}
        below = [0] * self.n
        for i in range(self.n):
            for j in _bits(self._up[i]):
                below[j] |= 1 << i
        self._below = tuple(below)

    # -- order -------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1)

    def upset(self, a: int) -> frozenset[int]:
        return frozenset(_bits(self._up[a]))

    def downset(self, a: int) -> frozenset[int]:
        return frozenset(_bits(self._below[a]))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown element label {label!r}") from None

    def _greatest(self, mask: int) -> int | None:
        """The greatest element of the masked subset, if it has one."""
        for g in _bits(mask):
            if mask & ~self._below[g] == 0:
                return g
        return None

    def _least(self, mask: int) -> int | None:
        for g in _bits(mask):
            if mask & ~self._up[g] == 0:
                return g
        return None

    # -- lattice structure ---------------------------------------------------

    @cached_property
    def bottom(self) -> int:
        b = self._least((1 << self.n) - 1)
        if b is None:
            raise LatticeError("no bottom element")
        return b

    @cached_property
    def top(self) -> int:
        t = self._greatest((1 << self.n) - 1)
        if t is None:
            raise LatticeError("no top element")
        return t

    @cached_property
    def _meet_table(self) -> tuple[tuple[int, ...], ...]:
        table = []
        for a in range(self.n):
            row = []
            for b in range(self.n):
                g = self._greatest(self._below[a] & self._below[b])
                if g is None:
                    raise LatticeError(
                        f"no meet for ({self.labels[a]}, {self.labels[b]})"
                    )
                row.append(g)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def _join_table(self) -> tuple[tuple[int, ...], ...]:
        table = []
        for a in range(self.n):
            row = []
            for b in range(self.n):
                l = self._least(self._up[a] & self._up[b])
                if l is None:
                    raise LatticeError(
                        f"no join for ({self.labels[a]}, {self.labels[b]})"
                    )
                row.append(l)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def _order_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only numpy copies of the order, meet and join tables, indexed
        [a, b]: ``leq`` as booleans, meets and joins as element indices."""
        n = self.n
        leq = np.array([[row >> b & 1 for b in range(n)] for row in self._up], dtype=bool)
        meet = np.array(self._meet_table, dtype=np.intp).reshape(n, n)
        join = np.array(self._join_table, dtype=np.intp).reshape(n, n)
        for table in (leq, meet, join):
            table.flags.writeable = False
        return leq, meet, join

    def meet(self, a: int, b: int) -> int:
        return self._meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join_table[a][b]

    def join_all(self, elems: Iterable[int]) -> int:
        acc = self.bottom
        for e in elems:
            acc = self.join(acc, e)
        return acc

    def meet_all(self, elems: Iterable[int]) -> int:
        acc = self.top
        for e in elems:
            acc = self.meet(acc, e)
        return acc

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """All violations of the bounded-distributive-lattice requirements."""
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
        if self._least(everything) is None:
            out.append("no bottom element")
        if self._greatest(everything) is None:
            out.append("no top element")
        meets_ok = True
        for a in range(self.n):
            for b in range(a, self.n):
                if self._greatest(self._below[a] & self._below[b]) is None:
                    out.append(f"no meet for ({self.labels[a]}, {self.labels[b]})")
                    meets_ok = False
                if self._least(self._up[a] & self._up[b]) is None:
                    out.append(f"no join for ({self.labels[a]}, {self.labels[b]})")
                    meets_ok = False
        if not meets_ok or out:
            return out
        # [a, b, c]: a ^ (b v c) against (a ^ b) v (a ^ c), all triples at once
        _, meet, join = self._order_arrays
        fo.check_bytes("the distributivity check", 2 * meet.itemsize * self.n**3)
        fails = meet[:, join] != join[meet[:, :, None], meet[:, None, :]]
        out.extend(
            f"distributivity fails on ({self.labels[a]}, {self.labels[b]}, {self.labels[c]})"
            for a, b, c in np.argwhere(fails).tolist()
        )
        return out

    # -- irreducibles ----------------------------------------------------------

    @cached_property
    def _lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """Row j: the i covered by j, ascending; i is covered by j when the
        elements at or above i and strictly below j are i alone."""
        covers = []
        for j in range(self.n):
            under = self._below[j] & ~(1 << j)
            covers.append(tuple(i for i in _bits(under) if self._up[i] & under == 1 << i))
        return tuple(covers)

    @cached_property
    def _upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """Row j: the i covering j, ascending (dual of ``_lower_covers``)."""
        covers = []
        for j in range(self.n):
            over = self._up[j] & ~(1 << j)
            covers.append(tuple(i for i in _bits(over) if self._below[i] & over == 1 << i))
        return tuple(covers)

    @cached_property
    def _irreducibles(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The join- and the meet-irreducibles, ascending."""
        joins = tuple(
            j for j in range(self.n) if j != self.bottom and len(self._lower_covers[j]) == 1
        )
        meets = tuple(
            m for m in range(self.n) if m != self.top and len(self._upper_covers[m]) == 1
        )
        return joins, meets

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover (bottom excluded)."""
        return self._irreducibles[0]

    def meet_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one upper cover (top excluded)."""
        return self._irreducibles[1]

    def kappa(self, j: int) -> int:
        """The meet-irreducible ``join of {u : j not<= u}`` paired with j.

        Restricted to join-irreducibles this is an order isomorphism onto the
        meet-irreducibles, characterised by ``u <= kappa(j) iff j not<= u``.
        """
        joins, meets = self._irreducibles
        if j not in joins:
            raise DomainError(f"{self.labels[j]} is not join-irreducible")
        m = self.join_all(u for u in range(self.n) if not self.leq(j, u))
        if m not in meets:
            raise InternalInvariantError(
                f"kappa({self.labels[j]}) = {self.labels[m]} is not meet-irreducible"
            )
        return m

    def kappa_inverse(self, m: int) -> int:
        inv = {self.kappa(j): j for j in self._irreducibles[0]}
        if m not in inv:
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

    def violations(self) -> list[str]:
        L = self.lattice
        out: list[str] = []
        if not self.members:
            out.append("empty")
        if len(self.members) == L.n:
            out.append("not proper")
        for f in self.members:
            for u in range(L.n):
                if L.leq(f, u) and u not in self.members:
                    out.append(f"not an up-set: {L.labels[u]} missing above {L.labels[f]}")
        for a in self.members:
            for b in self.members:
                if L.meet(a, b) not in self.members:
                    out.append(
                        f"not meet-closed on ({L.labels[a]}, {L.labels[b]})"
                    )
        for a in range(L.n):
            for b in range(L.n):
                if L.join(a, b) in self.members and a not in self.members and b not in self.members:
                    out.append(f"not prime on ({L.labels[a]}, {L.labels[b]})")
        return out


@dataclass(frozen=True)
class LatticeHom:
    """A map of element indices intended to preserve meets, joins and bounds."""

    source: FiniteLattice
    target: FiniteLattice
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def compose(self, other: "LatticeHom") -> "LatticeHom":
        """The composite ``self . other`` (apply ``other`` first)."""
        if other.target is not self.source:
            raise DomainError("homomorphisms do not compose: target/source mismatch")
        return LatticeHom(
            other.source, self.target, tuple(self.mapping[x] for x in other.mapping)
        )


def identity_hom(L: FiniteLattice) -> LatticeHom:
    return LatticeHom(L, L, tuple(range(L.n)))


def check_hom(h: LatticeHom) -> list[str]:
    """Violations of homomorphism-hood: bounds and binary meets/joins."""
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
    for a in range(src.n):
        for b in range(a, src.n):
            if f[src.meet(a, b)] != tgt.meet(f[a], f[b]):
                out.append(f"meet not preserved on ({src.labels[a]}, {src.labels[b]})")
            if f[src.join(a, b)] != tgt.join(f[a], f[b]):
                out.append(f"join not preserved on ({src.labels[a]}, {src.labels[b]})")
    return out


# -- factories ----------------------------------------------------------------


def chain(n: int, labels: Sequence[str] | None = None) -> FiniteLattice:
    """The n-element chain c0 < c1 < ... with optional custom labels."""
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
            labels.append("".join(_ATOM_NAMES[i] for i in _bits(s)))
    pairs = [
        (s, s | 1 << i)
        for s in range(size)
        for i in range(num_atoms)
        if not s >> i & 1
    ]
    return FiniteLattice(labels, pairs)


def product_lattice(left: FiniteLattice, right: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered product; labels joined with an underscore."""
    labels = [
        f"{la}_{lb}" for la in left.labels for lb in right.labels
    ]
    if len(set(labels)) != len(labels):
        labels = [f"p{i}" for i in range(left.n * right.n)]

    def idx(a: int, b: int) -> int:
        return a * right.n + b

    pairs = []
    for a1 in range(left.n):
        for b1 in range(right.n):
            for a2 in range(left.n):
                for b2 in range(right.n):
                    if left.leq(a1, a2) and right.leq(b1, b2):
                        pairs.append((idx(a1, b1), idx(a2, b2)))
    return FiniteLattice(labels, pairs)


def diamond_m3() -> FiniteLattice:
    """Five elements, three incomparable atoms: the standard non-distributive
    modular lattice, used to exercise validation."""
    labels = ["0", "x", "y", "z", "1"]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return FiniteLattice(labels, pairs)


def from_subsets(
    sets: Sequence[frozenset[int]], labels: Sequence[str] | None = None
) -> FiniteLattice:
    """The inclusion order on the given distinct subsets."""
    sets = list(sets)
    if len(set(sets)) != len(sets):
        raise DomainError("subsets must be distinct")
    if labels is None:
        labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in sets]
    pairs = [
        (i, j)
        for i, si in enumerate(sets)
        for j, sj in enumerate(sets)
        if si <= sj
    ]
    return FiniteLattice(labels, pairs)


# -- text format ----------------------------------------------------------------

_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_label(label: str, lineno: int) -> str:
    if not label or not set(label) <= _LABEL_CHARS:
        raise ParseError(f"bad element label {label!r}", line=lineno, column=1)
    return label


def parse_lattice(text: str) -> FiniteLattice:
    """Parse the lattice text format:

        elements: a, b, c
        order: a<=b, b<=c

    The reflexive-transitive closure is taken automatically; the result must
    validate as a bounded distributive lattice.
    """
    labels: list[str] | None = None
    order_specs: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if labels is not None:
                raise ParseError("duplicate elements line", line=lineno, column=1)
            body = line[len("elements:"):]
            labels = [
                _check_label(tok.strip(), lineno)
                for tok in body.split(",")
                if tok.strip()
            ]
            if not labels:
                raise ParseError("empty elements line", line=lineno, column=1)
        elif line.startswith("order:"):
            body = line[len("order:"):]
            for tok in body.split(","):
                tok = tok.strip()
                if not tok:
                    continue
                if "<=" not in tok:
                    raise ParseError(
                        f"expected 'a<=b' in order item {tok!r}", line=lineno, column=1
                    )
                lo, hi = (part.strip() for part in tok.split("<=", 1))
                order_specs.append((lo, hi, lineno))
        else:
            raise ParseError(f"unrecognised line {line!r}", line=lineno, column=1)
    if labels is None:
        raise ParseError("missing elements line", line=1, column=1)
    index = {label: i for i, label in enumerate(labels)}
    pairs = []
    for lo, hi, lineno in order_specs:
        if lo not in index:
            raise ParseError(f"unknown element {lo!r}", line=lineno, column=1)
        if hi not in index:
            raise ParseError(f"unknown element {hi!r}", line=lineno, column=1)
        pairs.append((index[lo], index[hi]))
    lattice = FiniteLattice(labels, pairs)
    problems = lattice.validate()
    if problems:
        raise LatticeError("; ".join(problems))
    return lattice


def format_lattice(L: FiniteLattice) -> str:
    """Emit the text format using the covering pairs of the order."""
    lines = ["elements: " + ", ".join(L.labels)]
    covers = []
    for j in range(L.n):
        for i in L._lower_covers[j]:
            covers.append(f"{L.labels[i]}<={L.labels[j]}")
    lines.append("order: " + ", ".join(covers))
    return "\n".join(lines) + "\n"
