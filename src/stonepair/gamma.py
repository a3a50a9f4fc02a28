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
points are representable, so every case split in the arithmetic lands in the
rational branch; all computation uses ``fractions.Fraction`` and is exact.

Inside one computation the same arithmetic runs on integers.  Put every
value on a common denominator D and encode ``q^o`` as the *rank* 2qD and
``r^-`` as 2rD - 1: the Gamma order becomes integer order, even ranks are
exact points and odd ranks approximations, and the subtractions become
integer expressions (``mip_of_ranks``, ``miss_of_ranks``, and on them a
measure's additivity test, ``additivity_of_ranks``).  They do not check
their domain y <= x; they are branch-free and apply elementwise to numpy
arrays, for kernels whose ranks already lie in the domain.  On D = k
the ranks 0..2k are the indices of ``GammaGrid(k).points``.  ``GammaValue``
and ``mip``/``miss``/``plus`` stay the public types and the reference the
rank kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import DomainError, ParseError


@dataclass(frozen=True, order=True, slots=True)
class GammaValue:
    """A point of the doubled unit interval: a rational tagged exact or approx.

    Field order matters: dataclass ordering compares ``(value, exact)``
    lexicographically, which is exactly the intended total order because
    ``False < True`` puts the approximation immediately below the exact point
    of the same value.
    """

    value: Fraction
    exact: bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        v = self.value
        if self.exact:
            if not 0 <= v <= 1:
                raise DomainError(f"exact point {v} lies outside [0, 1]")
        elif not 0 < v <= 1:
            raise DomainError(f"approximation point {v} lies outside (0, 1]")

    @property
    def kind(self) -> str:
        return "exact" if self.exact else "approx"

    def __str__(self) -> str:
        return format_gamma(self)

    def __repr__(self) -> str:
        return f"GammaValue({format_gamma(self)!r})"


ZERO = GammaValue(Fraction(0), True)
ONE = GammaValue(Fraction(1), True)
ONE_APPROX = GammaValue(Fraction(1), False)


def mip(x: GammaValue, y: GammaValue) -> GammaValue:
    """Truncated subtraction ``x - y``, defined for y <= x.

    Exact minuend gives an exact result; an approximation minuend gives an
    approximation unless the subtrahend is one too, in which case the rational
    difference is achieved exactly.
    """
    if not y <= x:
        raise DomainError(f"mip undefined: {y} > {x}")
    d = x.value - y.value
    if x.exact:
        return GammaValue(d, True)
    if y.exact:
        # y^o <= x^- forces a strictly positive difference.
        return GammaValue(d, False)
    return GammaValue(d, True)


def miss(x: GammaValue, y: GammaValue) -> GammaValue:
    """Co-subtraction ``x ~ y``, defined for y <= x.

    Equals the supremum of ``mip(x, q^o)`` over exact q^o in (y, x]; on the
    diagonal it is 0^o.  Dual to ``mip``: the result is an approximation
    unless the subtrahend alone carries the approximation tag.
    """
    if not y <= x:
        raise DomainError(f"miss undefined: {y} > {x}")
    if x == y:
        return ZERO
    d = x.value - y.value
    if x.exact and not y.exact:
        return GammaValue(d, True)
    # Remaining cases have y < x with equal-or-stronger minuend tag, so d > 0.
    return GammaValue(d, False)


def plus(x: GammaValue, y: GammaValue) -> GammaValue:
    """Partial addition, defined when the underlying values sum to at most 1.

    The domain condition is equivalent to ``x <= mip(ONE, y)``.  The sum is
    exact precisely when both summands are.
    """
    s = x.value + y.value
    if s > 1:
        raise DomainError(f"plus undefined: {x} + {y} exceeds 1")
    return GammaValue(s, x.exact and y.exact)


def gamma_sum(xs: Iterable[GammaValue]) -> GammaValue:
    """Left fold of ``plus`` over ``xs``; the empty sum is 0^o.

    ``plus`` is commutative and associative on its domain, so the result does
    not depend on the ordering whenever every partial sum is defined.
    """
    acc = ZERO
    for x in xs:
        acc = plus(acc, x)
    return acc


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


def point_of_rank(r: int, denom: int) -> GammaValue:
    """The value of rank ``r`` on the denominator ``denom``, inverse to
    ``rank``: (r/2D)^o for even r, ((r + 1)/2D)^- for odd r."""
    return GammaValue(Fraction((r + 1) // 2, denom), r % 2 == 0)


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
    if not isinstance(r, Fraction):
        r = Fraction(r)
    if not 0 <= r <= 1:
        raise DomainError(f"{r} lies outside [0, 1]")
    return GammaValue(r, True)


def iota_approx(r: Fraction) -> GammaValue:
    """Tag a rational as an approximation (left adjoint to collapse).

    0 has no approximation below it, so it maps to the bottom element 0^o.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise DomainError(f"{r} lies outside [0, 1]")
    if r == 0:
        return ZERO
    return GammaValue(r, False)


def format_gamma(x: GammaValue) -> str:
    """Canonical text form: lowest-terms rational, ``^o`` exact, ``^-`` approx."""
    return f"{x.value}^{'o' if x.exact else '-'}"


def parse_gamma(text: str) -> GammaValue:
    """Parse the canonical text form, accepting non-lowest-terms rationals."""
    i = 0
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_digits(j: int, what: str) -> tuple[int, int]:
        start = j
        while j < n and text[j].isdecimal():
            j += 1
        if j == start:
            raise ParseError(f"expected {what}", column=j + 1)
        return int(text[start:j]), j

    i = skip_ws(i)
    num, i = read_digits(i, "a numerator digit")
    den = 1
    if i < n and text[i] == "/":
        den_col = i + 2
        den, i = read_digits(i + 1, "a denominator digit")
        if den == 0:
            raise ParseError("zero denominator", column=den_col)
    if i >= n or text[i] != "^":
        raise ParseError("expected '^'", column=i + 1)
    i += 1
    if i >= n or text[i] not in "o-":
        raise ParseError("expected 'o' or '-' after '^'", column=i + 1)
    exact = text[i] == "o"
    i = skip_ws(i + 1)
    if i != n:
        raise ParseError("unexpected trailing input", column=i + 1)
    value = Fraction(num, den)
    try:
        return GammaValue(value, exact)
    except DomainError as exc:
        raise ParseError(str(exc), column=1) from exc


@dataclass(frozen=True)
class GammaGrid:
    """The finite subdomain {0^o} and {(a/k)^-, (a/k)^o : 1 <= a <= k}.

    Serves as an exhaustive test universe: 2k + 1 points, totally ordered.
    """

    k: int
    points: tuple[GammaValue, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError("grid resolution must be positive")
        points = tuple(point_of_rank(r, self.k) for r in range(2 * self.k + 1))
        object.__setattr__(self, "points", points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def grid_rationals(k: int) -> tuple[Fraction, ...]:
    """The chain of rationals {0, 1/k, ..., 1} underlying ``GammaGrid(k)``."""
    if k < 1:
        raise DomainError("grid resolution must be positive")
    return tuple(Fraction(a, k) for a in range(k + 1))
