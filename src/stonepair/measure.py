"""Finitely additive measures on finite distributive lattices.

Two kinds live here.  A *classical* measure is a monotone map into [0, 1]
sending bottom to 0, top to 1, and satisfying the modular law
``m(a) + m(b) = m(a v b) + m(a ^ b)``.  A measure valued in the doubled unit
interval replaces the modular law by two inequalities phrased with the
partial subtraction ``mip`` and co-subtraction ``miss``:

    miss(mu(a), mu(a ^ b)) <= mip(mu(a v b), mu(b))
    mip(mu(a), mu(a ^ b)) >= miss(mu(a v b), mu(b))

Collapsing tags turns the second kind into the first (``collapse_measure``),
tagging values exact turns the first into the second (``lift_measure``), and
the round trip collapse-after-lift is the identity.  Pushforward along a
lattice homomorphism is composition.  Finitely supported weight functions
integrate to measures on subset algebras.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Hashable, Sequence

import numpy as np

from . import fo, gamma
from .errors import DomainError, InternalInvariantError, ParseError
from .gamma import GammaValue
from .lattice import FiniteLattice, LatticeHom, from_subsets


@dataclass(frozen=True)
class MeasureViolation:
    """One failed axiom instance, identified by kind and element pair."""

    kind: str  # bottom | top | monotone | additivity-left | additivity-right
    a: int | None = None
    b: int | None = None

    def render(self, L: FiniteLattice) -> str:
        if self.a is None:
            return f"FAIL {self.kind}"
        return f"FAIL {self.kind} a={L.labels[self.a]} b={L.labels[self.b]}"


@dataclass(frozen=True)
class _Valuation:
    """A map from lattice elements, one value per element in index order."""

    lattice: FiniteLattice
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != self.lattice.n:
            raise DomainError(f"{len(self.values)} values for {self.lattice.n} elements")

    def __call__(self, a: int):
        return self.values[self.lattice._index(a)]


@dataclass(frozen=True)
class Measure(_Valuation):
    """A map from lattice elements to the doubled unit interval."""

    values: tuple[GammaValue, ...]


@dataclass(frozen=True)
class ClassicalMeasure(_Valuation):
    """A map from lattice elements to exact rationals in [0, 1]."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        for v in self.values:
            gamma.as_fraction(v)  # a float is a DomainError


# int64 ranks below this denominator: ranks reach 2D and the formulas add 1
_INT64_DENOMINATOR = 2**61
_ADDITIVITY = ("additivity-left", "additivity-right")


def validate_measure(mu: Measure) -> list[MeasureViolation]:
    """Every failing axiom instance, in deterministic order.

    Endpoint checks first, then monotonicity over pairs in lexicographic
    index order, then the two additivity inequalities over all ordered pairs,
    left before right on each pair.  Additivity on a pair is only evaluated
    when monotonicity supplies the domains of the partial operations; a pair
    skipped for that reason is already covered by a reported monotonicity
    violation.  The values are ranked once on their common denominator, and
    every pair is decided in one whole-table pass over the lattice's order,
    meet and join tables: int64 ranks while twice the denominator fits with
    room to spare, Python integers in an object array beyond that.
    """
    L = mu.lattice
    denom = gamma.common_denominator(mu.values)
    ranks = [gamma.rank(v, denom) for v in mu.values]
    out: list[MeasureViolation] = []
    if ranks[L.bottom] != 0:
        out.append(MeasureViolation("bottom"))
    if ranks[L.top] != 2 * denom:
        out.append(MeasureViolation("top"))
    leq, meets, joins = L._order_arrays
    r = np.array(ranks, dtype=np.int64 if denom < _INT64_DENOMINATOR else object)
    x, y = r[:, None], r[None, :]
    monotone = np.argwhere(leq & (x > y)).tolist()
    out.extend(MeasureViolation("monotone", a, b) for a, b in monotone)
    lo, hi = r[meets], r[joins]
    defined = (lo <= x) & (y <= hi)
    left, right = (defined & side for side in gamma.additivity_of_ranks(x, y, lo, hi))
    # [a, b, side] in row-major order: pair by pair, left before right
    additivity = np.argwhere(np.stack((left, right), axis=-1)).tolist()
    out.extend(MeasureViolation(_ADDITIVITY[side], a, b) for a, b, side in additivity)
    return out


def validate_classical_measure(m: ClassicalMeasure) -> list[MeasureViolation]:
    """Failing instances of the classical axioms: bottom, top, range,
    monotone (a != b), modular, each kind in row-major order.  Every pair is
    decided at once on the numerators over the common denominator, as
    ``validate_measure`` does on ranks."""
    L = m.lattice
    denom = math.lcm(*(v.denominator for v in m.values))
    nums = [v.numerator * (denom // v.denominator) for v in m.values]
    small = max(denom, *map(abs, nums)) < _INT64_DENOMINATOR
    r = np.array(nums, dtype=np.int64 if small else object)
    out: list[MeasureViolation] = []
    if r[L.bottom] != 0:
        out.append(MeasureViolation("bottom"))
    if r[L.top] != denom:
        out.append(MeasureViolation("top"))
    leq, meets, joins = L._order_arrays
    out.extend(
        MeasureViolation("range", a, a) for a in np.flatnonzero((r < 0) | (r > denom)).tolist()
    )
    x, y = r[:, None], r[None, :]
    monotone = leq & (x > y)  # x > y is false on the diagonal
    out.extend(MeasureViolation("monotone", a, b) for a, b in np.argwhere(monotone).tolist())
    modular = x + y != r[joins] + r[meets]
    out.extend(MeasureViolation("modular", a, b) for a, b in np.argwhere(modular).tolist())
    return out


def _checked(m, validate, what: str):
    """``m`` once ``validate`` passes it; a failure is a bug in ``what``,
    raised as ``InternalInvariantError``."""
    bad = validate(m)
    if bad:
        raise InternalInvariantError(f"{what} produced a non-measure: {bad[0].render(m.lattice)}")
    return m


def pushforward(mu: Measure, h: LatticeHom) -> Measure:
    """Precompose a measure on the target lattice with a homomorphism.

    The composite is re-validated; a failure would contradict the functor
    property and is reported as an internal error.
    """
    if h.target is not mu.lattice:
        raise DomainError("homomorphism target does not match the measure's lattice")
    nu = Measure(h.source, tuple(mu(h(a)) for a in range(h.source.n)))
    return _checked(nu, validate_measure, "pushforward")


def collapse_measure(mu: Measure) -> ClassicalMeasure:
    """Forget tags pointwise; the result satisfies the classical axioms."""
    m = ClassicalMeasure(mu.lattice, tuple(gamma.gamma_collapse(v) for v in mu.values))
    return _checked(m, validate_classical_measure, "collapse")


def lift_measure(m: ClassicalMeasure) -> Measure:
    """Tag values exact pointwise; the result satisfies the tagged axioms."""
    mu = Measure(m.lattice, tuple(gamma.iota_exact(v) for v in m.values))
    return _checked(mu, validate_measure, "lift")


# -- finitely supported functions and integration ---------------------------------


@dataclass(frozen=True)
class FinSuppFn:
    """Weights over a finite carrier that sum to 1^o.

    The carrier is an indexed tuple of hashable points; the support is the
    set of points of nonzero weight.  Construction checks that the weights
    sum, in carrier order, to exactly 1^o.
    """

    points: tuple[Hashable, ...]
    weights: tuple[GammaValue, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.weights):
            raise DomainError("one weight per carrier point required")
        if len(set(self.points)) != len(self.points):
            raise DomainError("carrier points must be distinct")
        total = gamma.gamma_sum(w for w in self.weights if w != gamma.ZERO)
        if total != gamma.ONE:
            raise DomainError(f"weights sum to {total}, not 1^o")

    @property
    def support(self) -> tuple[Hashable, ...]:
        return tuple(p for p, w in zip(self.points, self.weights) if w != gamma.ZERO)


def integrate(f: FinSuppFn, M: Collection[Hashable]) -> GammaValue:
    """Sum of weights over the carrier points of M meeting the support.

    Always defined: any partial sum of the weights stays within the domain of
    the partial addition because the full sum is 1^o.
    """
    members = set(M)
    return gamma.gamma_sum(
        w for p, w in zip(f.points, f.weights) if w != gamma.ZERO and p in members
    )


def integration_measure(
    f: FinSuppFn, algebra: Sequence[frozenset[Hashable]]
) -> tuple[FiniteLattice, Measure]:
    """The measure ``M -> integral of f over M`` on a subset algebra.

    ``algebra`` must be a family of subsets of the carrier that is closed
    under intersection and union and contains the empty set and the full
    carrier; those requirements are the caller's (a violation raises
    ``DomainError``).  The integral's failure to be a measure would be a
    bug, not bad input.
    """
    sets = [frozenset(S) for S in algebra]
    if len(set(sets)) != len(sets):
        raise DomainError("algebra members must be distinct")
    carrier = frozenset(f.points)
    for S in sets:
        if not S <= carrier:
            raise DomainError(f"{sorted(S)} is not a subset of the carrier")
    if frozenset() not in sets or carrier not in sets:
        raise DomainError("algebra must contain the empty set and the full carrier")
    index = {S: i for i, S in enumerate(sets)}
    for S in sets:
        for T in sets:
            if S & T not in index:
                raise DomainError("algebra not closed under intersection")
            if S | T not in index:
                raise DomainError("algebra not closed under union")
    L = from_subsets(sets)
    mu = Measure(L, tuple(integrate(f, S) for S in sets))
    return L, _checked(mu, validate_measure, "integration")


# -- measure file format -----------------------------------------------------------
#
#   lattice: boolean4.lat        (optional reference, resolved by the caller)
#   value(a) = 1/2^o
#
# One value line per lattice element; '#' starts a comment.

_VALUE_LINE = re.compile(r"value\(([A-Za-z0-9_]+)\)\s*=\s*(.+)")


def measure_lattice_reference(text: str) -> str | None:
    """The path named on the ``lattice:`` line, if the file has one; the
    file is read with ``fo.read_lines``, and an empty path is a
    ``ParseError``."""
    ref = None
    for key, offset, content in fo.read_lines(text, ("lattice:",)):
        if key is not None:
            if not content:
                raise ParseError.at("expected a lattice path", text, offset)
            ref = content
    return ref


def parse_measure(text: str, lattice: FiniteLattice) -> Measure:
    """Parse value lines against the given lattice, read with
    ``fo.read_lines``; every element needs one.  A value is read in place,
    and every fault but a missing value is at its line and column."""
    values: dict[int, GammaValue] = {}
    for key, offset, content in fo.read_lines(text, ("lattice:",)):
        if key is not None:
            continue
        m = _VALUE_LINE.fullmatch(content)
        if m is None:
            raise ParseError.at(f"unrecognised line {content!r}", text, offset)
        label, at = m.group(1), offset + m.start(1)
        if label not in lattice.labels:
            raise ParseError.at(f"unknown element label {label!r}", text, at)
        idx = lattice.index_of(label)
        if idx in values:
            raise ParseError.at(f"duplicate value for {label}", text, at)
        values[idx] = gamma.parse_gamma(text, offset + m.start(2), offset + m.end(2))
    missing = [lattice.labels[i] for i in range(lattice.n) if i not in values]
    if missing:
        raise ParseError(f"missing values for {missing}", line=1, column=1)
    return Measure(lattice, tuple(values[i] for i in range(lattice.n)))


def format_measure(mu: Measure, lattice_ref: str | None = None) -> str:
    lines = []
    if lattice_ref is not None:
        lines.append(f"lattice: {lattice_ref}")
    for i, label in enumerate(mu.lattice.labels):
        lines.append(f"value({label}) = {gamma.format_gamma(mu.values[i])}")
    return "\n".join(lines) + "\n"
