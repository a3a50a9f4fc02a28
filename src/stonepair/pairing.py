"""Stone pairings of finite structures against formulas, and their limits.

The classical pairing of a structure A against a formula phi with n context
variables is the fraction of the ``|A| ** n`` assignments that satisfy phi; it
is an exact rational with denominator dividing ``|A| ** n``.  The tagged
pairing is the same number marked exact in the doubled unit interval, where a
sequence of pairings can distinguish a limit that is achieved (``q^o``) from
one approached strictly from below (``r^-``).

``pairing_sequence`` evaluates a family of structures along an index range
and classifies the whole sequence and its odd and even subsequences.  The
fence family has a closed form for every formula: on each parity the count
is a polynomial in the chain length past an onset that the formula's
quantifier rank and context length fix, certified by counting a few
members and interpolated exactly (``FenceFamily.closed_form``).  Past the
onset no member is built, and the parity verdicts are the polynomials'
tagged limits.  A family without a closed form has each member counted as
it is built, so a refusal comes at the member, and a horizon-bounded
heuristic over the tail of each parity's values gives the parity
verdicts.  One rule gives the whole verdict from the two: equal ones give
theirs, a divergent parity or two limits that differ give divergence, and
anything else is inconclusive.  A directory family is listed once per run,
so files added to it later are not seen; its member n is the one regular
file whose stem is n, with any number of leading zeros (``7.struct``,
``007.struct``).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Integral
from pathlib import Path
from typing import Callable, Sequence

from . import fo, gamma
from .errors import DomainError, InternalInvariantError, require_integer
from .fo import FiniteStructure, Formula
from .gamma import GammaValue
from .measure import FinSuppFn


@dataclass(frozen=True, slots=True)
class PairingResult:
    """One pairing: satisfying-assignment count over the assignment total."""

    count: int
    total: int
    classical: Fraction
    gamma: GammaValue

    @staticmethod
    def from_counts(count: int, total: int) -> "PairingResult":
        """The pairing ``count / total``; a count outside 0..total is a ``DomainError``."""
        c = Fraction(count, total)
        return PairingResult(count, total, c, gamma.iota_exact(c))


def padded_context(phi: Formula, n: int) -> tuple[str, ...]:
    """The free variables of phi padded with fresh names up to length n."""
    require_integer("context length", n)
    ctx = fo.free_vars(phi)
    if len(ctx) > n:
        raise DomainError(f"{len(ctx)} free variables do not fit in a context of {n}")
    free = set(ctx)
    fresh = (name for name in map("v{}".format, itertools.count(1)) if name not in free)
    return (*ctx, *itertools.islice(fresh, n - len(ctx)))


def stone_pairing(
    A: FiniteStructure, phi: Formula, context: Sequence[str] | None = None
) -> PairingResult:
    """Count satisfying assignments of ``context`` and normalise exactly.

    Sentences pair over the empty context, so their value is 0 or 1.
    """
    ctx = fo.free_vars(phi) if context is None else tuple(context)
    count = fo.count_satisfying(A, phi, ctx)
    return PairingResult.from_counts(count, A.size ** len(ctx))


def assignment_bytes(n: int) -> int:
    """The bytes an assignment of n variables takes at the traced peak of
    ``assignment_distribution`` (point, carrier and weight slots, set slot):
    the tracemalloc peak per point was 123 to 158 bytes for n <= 3, 224 at 16."""
    return 176 + 8 * n


def assignment_distribution(
    A: FiniteStructure, context: Sequence[str]
) -> FinSuppFn:
    """The uniform weight function on all assignments of ``context`` into A.

    The |A| ** n assignments are checked against the memory budget
    (``fo.check_bytes``) at ``assignment_bytes`` each before any is built."""
    ctx = tuple(context)
    if len(set(ctx)) != len(ctx):
        raise DomainError("context variables must be distinct")
    fo.check_bytes("the assignments", A.size ** len(ctx) * assignment_bytes(len(ctx)))
    points = tuple(itertools.product(range(A.size), repeat=len(ctx)))
    w = gamma.iota_exact(Fraction(1, A.size ** len(ctx)))
    return FinSuppFn(points, (w,) * len(points))


@dataclass(frozen=True)
class PaddingViolation:
    narrow: PairingResult
    wide: PairingResult


def check_padding_invariance(
    A: FiniteStructure, phi: Formula, n: int, m: int
) -> PaddingViolation | None:
    """Whether pairing with n context variables equals pairing with m >= n.

    Returns None when the classical values agree (they always should: each
    narrow assignment extends in exactly ``|A| ** (m - n)`` ways).
    """
    if m < n:
        raise DomainError("wide context must be at least as long as the narrow one")
    narrow = stone_pairing(A, phi, padded_context(phi, n))
    wide = stone_pairing(A, phi, padded_context(phi, m))
    if narrow.classical != wide.classical or narrow.gamma != wide.gamma:
        return PaddingViolation(narrow, wide)
    return None


# -- convergence ------------------------------------------------------------------


class VerdictKind(Enum):
    CONVERGES_EXACT = "converges-exact"
    CONVERGES_APPROX = "converges-approx"
    DIVERGENT_AT_HORIZON = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    limit: GammaValue | None = None


def _verdict_for_limit(limit: GammaValue) -> Verdict:
    kind = VerdictKind.CONVERGES_EXACT if limit.exact else VerdictKind.CONVERGES_APPROX
    return Verdict(kind, limit)


@dataclass(frozen=True)
class ClosedForm:
    """A pairing sequence exactly from index ``onset`` on: each member's
    pairing, ``result_at(index)``, read without building the member, and the
    tagged limits of the odd and even subsequences."""

    onset: int
    result_at: Callable[[int], PairingResult]
    odd_limit: GammaValue
    even_limit: GammaValue


@dataclass(frozen=True)
class SequenceReport:
    results: tuple[PairingResult, ...]  # index i holds the pairing at i + 1
    verdict: Verdict
    odd: Verdict
    even: Verdict
    exact: bool  # closed form used; otherwise a horizon heuristic


def _heuristic_verdict(values: Sequence[Fraction]) -> Verdict:
    """Tail-based classification of one parity's exact pairing values.

    A sequence of exact points converges to q^o when the values reach q and
    stay at or above it, and to r^- when they approach r strictly from
    below.  At a finite horizon only a constant tail is conclusive evidence
    of the first situation; a shrinking-step tail is Cauchy-like but its
    limit cannot be named exactly, so it stays inconclusive.  ``values`` is
    one parity's, never empty (``pairing_sequence`` refuses a horizon below
    4); ``_whole_verdict`` combines the odd and even verdicts by one rule.
    """
    tail = list(values[-(-len(values) // 2):])
    if all(v == tail[0] for v in tail):
        return _verdict_for_limit(gamma.iota_exact(tail[0]))
    diffs = [abs(b - a) for a, b in zip(tail, tail[1:])]
    shrinking = all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:])) and diffs[-1] < diffs[0]
    return Verdict(VerdictKind.INCONCLUSIVE if shrinking else VerdictKind.DIVERGENT_AT_HORIZON)


def _whole_verdict(odd: Verdict, even: Verdict) -> Verdict:
    """The whole verdict from the odd and even ones, by ``pairing_sequence``'s rule."""
    if odd == even:
        return odd
    divergent = VerdictKind.DIVERGENT_AT_HORIZON
    if divergent in (odd.kind, even.kind) or None not in (odd.limit, even.limit):
        return Verdict(divergent)  # two limits, unequal verdicts: the limits differ
    return Verdict(VerdictKind.INCONCLUSIVE)


class StructureFamily:
    """An indexed family of finite structures.

    ``closed_form`` may return exact sequence data for a formula over a
    context; the default knows none.
    """

    name = "family"

    def structure(self, index: int) -> FiniteStructure:
        raise NotImplementedError(f"{type(self).__name__} defines no members")

    def closed_form(self, phi: Formula, ctx: tuple[str, ...]) -> ClosedForm | None:
        return None


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> list[Fraction]:
    """The coefficients, constant first, of the polynomial of degree below
    ``len(xs)`` through the points (x, y): Newton's divided differences,
    then the Newton form multiplied out from the innermost term."""
    diffs = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) * Fraction(1, xs[i] - xs[i - j])
    poly: list[Fraction] = []
    for x, d in zip(reversed(xs), reversed(diffs)):  # P = d + (N - x) * P
        poly = [a - x * b for a, b in zip([Fraction(0), *poly], [*poly, 0])]
        poly[0] += d
    return poly


def _horner(coefficients: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(coefficients):
        value = value * x + c
    return value


class FenceFamily(StructureFamily):
    """The alternating chain family: member 2N - 3 is the chain of N >= 2
    elements, member 2N - 2 the same chain and an isolated point.  Every
    formula has a closed form here, certified by counting a few members."""

    name = "fence"

    def structure(self, index: int) -> FiniteStructure:
        return fo.gen_example_structure(index)

    def closed_form(self, phi: Formula, ctx: tuple[str, ...]) -> ClosedForm | None:
        """On each parity, the count of ``phi`` over the m = ``len(ctx)``
        variables is a polynomial P of degree <= m in the chain length N
        once N >= (m + 1) * 2**q, q the quantifier rank of ``phi``.

        Two linear orders of at least 2**q elements agree on every sentence
        of rank q (the Ehrenfeucht-Fraisse game on linear orders; Libkin,
        *Elements of Finite Model Theory*, 2004, Thm 3.6).  By composition
        over ordered sums and disjoint unions, whether an assignment
        satisfies ``phi`` is then fixed by which variables it sends to the
        isolated point, the order pattern of the j <= m distinct values it
        takes on the chain, and the j + 1 gaps those leave, each gap's
        length cut off at 2**q.  Take one such class, with e gaps of exact
        lengths below 2**q summing to S and l = j + 1 - e long ones.  Its
        assignments number the ways to split R = N - j - S over the long
        gaps, each at least 2**q: C(R - l * 2**q + l - 1, l - 1), which is
        a polynomial of degree l - 1 <= m in N for R - l * 2**q >= 1 - l,
        as the polynomial vanishes where the count is 0.  Since
        S <= e * (2**q - 1), that holds once N >= (j + 1) * 2**q, and a
        class with no long gap, one assignment at N = j + S, is empty there
        too.  So P is a sum of such polynomials, over the classes that
        satisfy ``phi``.

        The certificate counts m + 1 chain lengths from the onset, at least
        3, so that member 1, counted first, is never one of them; it
        interpolates P exactly and checks it on two chain lengths more.  The
        limit L is the coefficient of N**m, and it is reached from below,
        L^-, when the leading nonzero coefficient of P(N) - L * T(N)**m is
        negative, T(N) the member's size; otherwise it is L^o.  Returns None
        when the largest member counted would be past the memory budget."""
        m = len(ctx)
        start = max(3, (m + 1) * 2 ** fo.quantifier_rank(phi))
        lengths = range(start, start + m + 3)  # m + 1 to interpolate, two to check
        largest = lengths[-1] + 1  # the last even member: its chain and isolated point
        if max(largest**2, fo.counting_bytes(phi, ctx, largest)) > fo.MAX_TENSOR_CELLS:
            return None
        counters, limits = [], []
        for shift in (0, 1):  # odd members, then even ones
            counts = [
                fo.count_satisfying(self.structure(2 * n - 3 + shift), phi, ctx) for n in lengths
            ]
            poly = _interpolate(lengths[: m + 1], counts[: m + 1])
            denominator = math.lcm(*(c.denominator for c in poly))
            numerators = [int(c * denominator) for c in poly]
            for n, count in zip(lengths[m + 1:], counts[m + 1:]):
                if _horner(numerators, n) != count * denominator:
                    total = (n + shift) ** m
                    value = Fraction(_horner(numerators, n), denominator * total)
                    raise InternalInvariantError(
                        f"closed form disagrees with computed value at index {2 * n - 3 + shift}: "
                        f"{value} vs {Fraction(count, total)}"
                    )
            limit = poly[m]
            excess = [c - limit * math.comb(m, k) * shift ** (m - k) for k, c in enumerate(poly)]
            below = next((c < 0 for c in reversed(excess) if c), False)
            limits.append(gamma.iota_approx(limit) if below else gamma.iota_exact(limit))
            counters.append((numerators, denominator))

        def result_at(index: int) -> PairingResult:
            n, shift = (index + 3) // 2, 1 - index % 2
            numerators, denominator = counters[shift]
            return PairingResult.from_counts(
                _horner(numerators, n) // denominator, (n + shift) ** m
            )

        return ClosedForm(2 * lengths[0] - 3, result_at, *limits)


class DirectoryFamily(StructureFamily):
    """Structures loaded from a directory of files whose stems are indices,
    leading zeros allowed; the directory is listed once, on first use."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.name = self.path.name

    @functools.cached_property
    def _files(self) -> dict[int, list[Path]]:
        """The regular files of the directory by the index their stem spells."""
        files: dict[int, list[Path]] = {}
        for p in self.path.iterdir():
            digits = re.fullmatch(r"0*(0|-?[1-9][0-9]*)", p.stem)
            if digits and p.is_file():
                files.setdefault(int(digits[1]), []).append(p)
        return files

    def structure(self, index: int) -> FiniteStructure:
        matches = self._files.get(index, [])
        if len(matches) != 1:
            raise DomainError(f"expected exactly one file for index {index} in {self.path}")
        return fo.load(matches[0], fo.parse_structure)


def row_bytes(n: int) -> int:
    """The bytes a row of a sequence over n context variables takes at the
    traced peak of ``pairing_sequence`` (pairing, count and total, value,
    point, list slot): over up to 400 000 fence rows the tracemalloc peak per
    row was 177 to 310 bytes for n <= 4, 359 at 16 and 428 at 32, as the
    total's integer grows with n."""
    return 304 + 8 * n


def pairing_sequence(
    family: StructureFamily,
    phi: Formula,
    context: Sequence[str] | None = None,
    horizon: int = 12,
) -> SequenceReport:
    """Pair phi against family members 1..horizon (an integer, at least 4)
    and classify convergence; member 1 is counted first.

    A closed form of the family gives every pairing from its onset on and
    the odd and even verdicts, its tagged limits; the members below the
    onset are counted, and the horizon's rows are charged to the memory
    budget at ``row_bytes`` each before any is filled, as no member past the
    onset is built.  Without a closed form each member is counted as soon
    as it is built, member ``horizon`` second, and the tail heuristic
    classifies the odd and the even values, as well as the horizon allows.
    One rule gives the whole verdict from the two: equal ones give theirs,
    a divergent parity or two limits that differ give divergence, and
    anything else inconclusive.
    """
    if not isinstance(horizon, Integral) or horizon < 4:
        raise DomainError(f"horizon must be at least 4: {horizon!r} is not an integer >= 4")
    ctx = fo.free_vars(phi) if context is None else tuple(context)

    def pair(index: int) -> PairingResult:
        try:
            A = family.structure(index)
        except InternalInvariantError:
            raise
        except Exception as exc:
            raise DomainError(f"family {family.name} failed at index {index}: {exc}") from exc
        return PairingResult.from_counts(fo.count_satisfying(A, phi, ctx), A.size ** len(ctx))

    results = [pair(1)]
    closed = family.closed_form(phi, ctx)
    if closed is None:
        last = pair(horizon)
        results += map(pair, range(2, horizon))
        results.append(last)
        classical = [r.classical for r in results]
        # odd indices 1, 3, 5, ... sit at 0, 2, 4, ... of the list
        odd_v, even_v = map(_heuristic_verdict, (classical[::2], classical[1::2]))
    else:
        fo.check_bytes(f"the {horizon} rows of the sequence", horizon * row_bytes(len(ctx)))
        onset = max(2, min(closed.onset, horizon + 1))
        results += map(pair, range(2, onset))
        results += map(closed.result_at, range(onset, horizon + 1))
        odd_v, even_v = map(_verdict_for_limit, (closed.odd_limit, closed.even_limit))
    whole = _whole_verdict(odd_v, even_v)
    return SequenceReport(tuple(results), whole, odd_v, even_v, closed is not None)
