"""The doubled unit interval and its exact partial arithmetic.

The carrier consists of tagged rationals: an *exact* point ``q^o`` for every
rational q in [0, 1] and an *approximation* point ``r^-`` for every rational r
in (0, 1].  The order is the unique total order that restricts to the usual
order on values and places ``r^-`` immediately below ``r^o``; in particular
``0^o`` is the bottom element and ``1^o`` the top.  Exact points are values a
counting process can achieve; approximation points are limits approached
strictly from below.

Three pieces of partial arithmetic live here:

* ``mip(x, y)`` - truncated subtraction, defined for y <= x;
* ``miss(x, y)`` - the co-subtraction, defined for y <= x, obtained as the
  supremum of ``mip(x, q^o)`` over exact q with y < q^o <= x;
* ``plus(x, y)`` - partial addition, defined when the values sum to at most 1,
  left adjoint to ``mip`` in its first argument.

The collapse map ``gamma_collapse`` forgets tags, its right-adjoint section
``iota_exact`` tags rationals as exact, and its left-adjoint section
``iota_approx`` tags positive rationals as approximations.  Only rational
points are representable, and all computation is exact.

All of the arithmetic is one integer kernel.  Put every value on a common
denominator D and encode ``q^o`` as the *rank* 2qD and ``r^-`` as 2rD - 1:
the Gamma order becomes integer order, even ranks are exact points and odd
ranks approximations, and every operation becomes an integer expression on
ranks (``mip_of_ranks``, ``miss_of_ranks``, ``plus_of_ranks``, a measure's
additivity test ``additivity_of_ranks``, and the projection onto the
subdivision chain {0, 1/n, ..., 1}, ``project_of_ranks``).  These do not
check their domain; they are branch-free and apply elementwise to numpy
arrays, for kernels whose ranks already lie in the domain.  ``mip``,
``miss`` and ``gamma_sum`` check their domain on the ranks of their
arguments, compute on the kernel and return ``point_of_rank``.  Addition
is ``plus_of_ranks`` alone: ``gamma_sum`` folds it over any number of
terms, and ``plus`` is its two-term case.  On D = k the ranks 0..2k are the
indices of ``GammaGrid(k).points``.

Every point a rank names comes from one interned table: ``point_of_rank``
is an ``lru_cache`` of ``POINT_CACHE_SIZE`` points keyed on (rank,
denominator), so ``mip``, ``miss``, ``gamma_sum``, ``GammaGrid``, the grid
measures and the chain reports build each point, and normalise its
``Fraction``, once per entry rather than once per result.

The order of ``GammaValue`` is decided on ranks too, over the product of the
two denominators.  The constructor checks its value; the private ``_point``
builds a point without the check, and its two callers check on integers
first: ``point_of_rank`` that 0 <= r <= 2D, falling back to the constructor
and its ``DomainError`` (which enters no table entry), and ``iota_exact``
that 0 <= numerator <= denominator, raising its own ``DomainError``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import lcm
from numbers import Integral, Rational
from typing import Iterable

from .errors import DomainError, ParseError

# the points ``point_of_rank`` keeps, one per (rank, denominator) entry
POINT_CACHE_SIZE = 4096


@dataclass(frozen=True, slots=True)
class GammaValue:
    """A point of the doubled unit interval: a rational tagged exact or approx.

    The order is decided on integer ranks over the product of the two
    denominators: n/d tagged ``e`` lies below n'/d' tagged ``e'`` iff
    2·n·d' − [not e] < 2·n'·d − [not e'], which puts the approximation
    immediately below the exact point of the same value.  Comparing with
    anything but a ``GammaValue`` is ``NotImplemented``.
    """

    value: Fraction
    exact: bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", as_fraction(self.value))
        v = self.value
        # the denominator is positive: the bounds are on the numerator
        if not (0 if self.exact else 1) <= v.numerator <= v.denominator:
            if self.exact:
                raise DomainError(f"exact point {v} lies outside [0, 1]")
            raise DomainError(f"approximation point {v} lies outside (0, 1]")

    def _compare(self, other: object, op) -> bool:
        """``op`` on the ranks of ``self`` and ``other`` over the product of
        their denominators."""
        if other.__class__ is not GammaValue:
            return NotImplemented
        a, b = self.value, other.value
        return op(
            2 * a.numerator * b.denominator - (not self.exact),
            2 * b.numerator * a.denominator - (not other.exact),
        )

    def __lt__(self, other: object) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other: object) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other: object) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other: object) -> bool:
        return self._compare(other, operator.ge)

    def __str__(self) -> str:
        return format_gamma(self)

    def __repr__(self) -> str:
        return f"GammaValue({format_gamma(self)!r})"


def _point(value: Fraction, exact: bool) -> GammaValue:
    """The point ``value`` tagged ``exact``, built without the constructor's
    checks: ``value`` must be a ``Fraction`` in [0, 1], and positive when
    not exact.  Its two callers check that on integers first, ``point_of_rank``
    on the rank and ``iota_exact`` on the numerator and denominator."""
    point = object.__new__(GammaValue)
    object.__setattr__(point, "value", value)
    object.__setattr__(point, "exact", exact)
    return point


def as_fraction(x) -> Fraction:
    """``x`` as a ``Fraction``; a float (0.1 is 3602879701896397/2**55) or
    anything else inexact is a ``DomainError`` naming it."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, Rational):
        raise DomainError(f"{x!r} is not an exact rational")
    return Fraction(x)


ZERO = GammaValue(Fraction(0), True)
ONE = GammaValue(Fraction(1), True)
ONE_APPROX = GammaValue(Fraction(1), False)


def _pair_ranks(x: GammaValue, y: GammaValue) -> tuple[int, int, int]:
    """The ranks of ``x`` and ``y`` on their least common denominator, and it."""
    a, b = x.value, y.value
    da, db = a.denominator, b.denominator
    denom = lcm(da, db)
    return (
        2 * a.numerator * (denom // da) - (not x.exact),
        2 * b.numerator * (denom // db) - (not y.exact),
        denom,
    )


def mip(x: GammaValue, y: GammaValue) -> GammaValue:
    """Truncated subtraction ``x - y``, defined for y <= x.

    Exact minuend gives an exact result; an approximation minuend gives an
    approximation unless the subtrahend is one too, in which case the rational
    difference is achieved exactly.
    """
    rx, ry, denom = _pair_ranks(x, y)
    if ry > rx:
        raise DomainError(f"mip undefined: {y} > {x}")
    return point_of_rank(mip_of_ranks(rx, ry), denom)


def miss(x: GammaValue, y: GammaValue) -> GammaValue:
    """Co-subtraction ``x ~ y``, defined for y <= x.

    Equals the supremum of ``mip(x, q^o)`` over exact q^o in (y, x]; on the
    diagonal it is 0^o.  Dual to ``mip``: the result is an approximation
    unless the subtrahend alone carries the approximation tag.
    """
    rx, ry, denom = _pair_ranks(x, y)
    if ry > rx:
        raise DomainError(f"miss undefined: {y} > {x}")
    return point_of_rank(miss_of_ranks(rx, ry), denom)


def plus(x: GammaValue, y: GammaValue) -> GammaValue:
    """Partial addition, defined when the underlying values sum to at most
    1: the two-term ``gamma_sum``.  The sum is exact precisely when both
    summands are."""
    return gamma_sum((x, y))


def gamma_sum(xs: Iterable[GammaValue]) -> GammaValue:
    """The sum of ``xs`` under partial addition, a left fold of
    ``plus_of_ranks`` on the common denominator D; the empty sum is 0^o.

    The sum is defined when the values' numerators on D (ceil(r/2) for rank
    r) add up to at most D; that is equivalent to ``x <= mip(ONE, y)`` for
    two terms.  Addition is commutative and associative on its domain, so
    on overflow the error names the first partial sum that overflows.
    """
    xs = tuple(xs)
    denom = common_denominator(xs)
    ranks = [rank(x, denom) for x in xs]
    for i, total in enumerate(accumulate((r + 1) // 2 for r in ranks)):
        if total > denom:
            partial = point_of_rank(reduce(plus_of_ranks, ranks[:i], 0), denom)
            raise DomainError(f"plus undefined: {partial} + {xs[i]} exceeds 1")
    return point_of_rank(reduce(plus_of_ranks, ranks, 0), denom)


# -- the rank kernel --------------------------------------------------------------


def common_denominator(xs: Iterable[GammaValue]) -> int:
    """The least D on which every value of ``xs`` has a rank."""
    return lcm(1, *(x.value.denominator for x in xs))


def rank(x: GammaValue, denom: int) -> int:
    """The rank of ``x`` on the denominator ``denom``: 2qD for q^o, 2rD - 1 for r^-."""
    scale, rest = divmod(denom, x.value.denominator)
    if rest:
        raise DomainError(f"{x} has no rank on the denominator {denom}")
    return 2 * x.value.numerator * scale - (not x.exact)


@lru_cache(maxsize=POINT_CACHE_SIZE, typed=True)
def point_of_rank(r: int, denom: int) -> GammaValue:
    """The value of rank ``r`` on the denominator ``denom``, inverse to
    ``rank``: (r/2D)^o for even r, ((r + 1)/2D)^- for odd r.

    The points are interned: this is a table of up to ``POINT_CACHE_SIZE``
    points keyed on (r, D) and their types, least recently used out first,
    so a point is built once per entry and shared by every later caller
    (points and their ``Fraction`` values are immutable).  An entry is built
    from ``operator.index`` of r and D, so a numpy rank gives a point of
    Python ints and a float rank is a ``TypeError``.  A rank outside 0..2D
    is a ``DomainError`` from the ``GammaValue`` constructor, and an error
    enters no entry."""
    r, denom = operator.index(r), operator.index(denom)
    value, exact = Fraction((r + 1) // 2, denom), not r & 1
    if 0 <= r <= 2 * denom:
        return _point(value, exact)
    return GammaValue(value, exact)


def mip_of_ranks(x, y):
    """``mip`` on ranks y <= x, without the domain check.

    Branch-free, so ``x`` and ``y`` may be ints or numpy integer or object
    arrays (elementwise); outside the domain the result is meaningless.
    """
    return x - y - (y & ~x & 1)


def miss_of_ranks(x, y):
    """``miss`` on ranks y <= x, without the domain check; branch-free like
    ``mip_of_ranks``, the diagonal case as the factor ``(x != y)``."""
    return (x != y) * (x - y - 1 + (x & ~y & 1))


def plus_of_ranks(x, y):
    """``plus`` on ranks whose values sum to at most 1, without the domain
    check: the values add, and the sum is an approximation (odd) when either
    summand is; branch-free like ``mip_of_ranks``."""
    return x + y + (x & y & 1)


def project_of_ranks(r, n, denom):
    """The projection of rank ``r`` over ``denom`` onto the subdivision chain
    {0, 1/n, ..., 1}: the index of the largest point whose exact copy lies at
    or below it, floor(qn) for q^o and ceil(qn) - 1 for q^-.  Branch-free
    like ``mip_of_ranks``."""
    return (r * n + (r & 1) * (n - 1)) // (2 * denom)


def additivity_of_ranks(x, y, meet, join):
    """The (left, right) failure masks of a measure's additivity on the
    ranks of a, b, a ^ b and a v b; branch-free like ``mip_of_ranks``,
    meaningful where meet <= x and y <= join."""
    return (
        miss_of_ranks(x, meet) > mip_of_ranks(join, y),
        mip_of_ranks(x, meet) < miss_of_ranks(join, y),
    )


def gamma_collapse(x: GammaValue) -> Fraction:
    """Forget the tag, collapsing both copies of a rational onto it."""
    return x.value


def iota_exact(r: Fraction) -> GammaValue:
    """Tag a rational in [0, 1] as an exact point (right adjoint to collapse)."""
    r = as_fraction(r)
    if not 0 <= r.numerator <= r.denominator:
        raise DomainError(f"{r} lies outside [0, 1]")
    return _point(r, True)


def iota_approx(r: Fraction) -> GammaValue:
    """Tag a rational as an approximation (left adjoint to collapse).

    0 has no approximation below it, so it maps to the bottom element 0^o.
    """
    x = iota_exact(r)
    return GammaValue(x.value, False) if x.value else x


def format_gamma(x: GammaValue) -> str:
    """Canonical text form: lowest-terms rational, ``^o`` exact, ``^-`` approx."""
    return f"{x.value}^{'o' if x.exact else '-'}"


# digits and an optional '/' and digits; ``\d`` is ``str.isdecimal``, so
# digits ``int`` rejects, such as '²', are no digits
_RATIONAL_RE = re.compile(r"\s*(\d*)(?:/(\d*))?")


def read_rational(text: str, pos: int, what: str, end: int | None = None) -> tuple[Fraction, int]:
    """The rational written at offset ``pos`` of ``text``, after any
    whitespace and before ``end``, and the offset just past it.  A fault is
    a ``ParseError.at`` its offset in the whole text: no digits (``what``
    was expected), no digits after '/', a zero denominator."""
    m = _RATIONAL_RE.match(text, pos, len(text) if end is None else end)
    num, den = m.group(1, 2)
    if not num:
        raise ParseError.at(f"expected {what}", text, m.start(1))
    if den == "":
        raise ParseError.at("expected a denominator", text, m.start(2))
    try:
        return Fraction(int(num), int(den or 1)), m.end()
    except ZeroDivisionError:
        raise ParseError.at("zero denominator", text, m.start(2)) from None
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError.at("too many digits", text, m.start(1)) from None


def parse_gamma(text: str, start: int = 0, end: int | None = None) -> GammaValue:
    """Parse the canonical text form written in ``text[start:end]``,
    accepting non-lowest-terms rationals; a ``ParseError`` is positioned
    in the whole ``text``."""
    end = len(text) if end is None else end
    value, i = read_rational(text, start, "a numerator digit", end)
    if i >= end or text[i] != "^":
        raise ParseError.at("expected '^'", text, i)
    if i + 1 >= end or text[i + 1] not in "o-":
        raise ParseError.at("expected 'o' or '-' after '^'", text, i + 1)
    rest = text[i + 2:end]
    if rest.strip():
        raise ParseError.at("unexpected trailing input", text, end - len(rest.lstrip()))
    try:
        return GammaValue(value, text[i + 1] == "o")
    except DomainError as exc:
        raise ParseError.at(str(exc), text, start) from exc


def check_resolution(k: object) -> None:
    """The one check of a grid resolution: k is an integer, at least 1."""
    if not isinstance(k, Integral) or k < 1:
        raise DomainError(f"grid resolution must be positive: k = {k!r} is not an integer >= 1")


@dataclass(frozen=True)
class GammaGrid:
    """The finite subdomain {0^o} and {(a/k)^-, (a/k)^o : 1 <= a <= k}.

    Serves as an exhaustive test universe: 2k + 1 points, totally ordered.
    Public on purpose: its points are what ranks 0..2k index on D = k, and
    acceptance criterion 3 and six test files enumerate it.
    """

    k: int
    points: tuple[GammaValue, ...] = field(init=False)

    def __post_init__(self) -> None:
        check_resolution(self.k)
        points = tuple(point_of_rank(r, self.k) for r in range(2 * self.k + 1))
        object.__setattr__(self, "points", points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def grid_rationals(k: int) -> tuple[Fraction, ...]:
    """The chain of rationals {0, 1/k, ..., 1} underlying ``GammaGrid(k)``."""
    check_resolution(k)
    return tuple(Fraction(a, k) for a in range(k + 1))
