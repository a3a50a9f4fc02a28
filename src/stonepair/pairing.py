"""Stone pairings of finite structures against formulas, and their limits.

The classical pairing of a structure A against a formula phi with n context
variables is the fraction of the ``|A| ** n`` assignments that satisfy phi; it
is an exact rational with denominator dividing ``|A| ** n``.  The tagged
pairing is the same number marked exact in the doubled unit interval, where a
sequence of pairings can distinguish a limit that is achieved (``q^o``) from
one approached strictly from below (``r^-``).

``pairing_sequence`` evaluates a family of structures along an index range
and classifies the whole sequence and its odd and even subsequences.  It
counts the members in padded stacks (``fo.count_satisfying_stack``), one
evaluation of the formula per stack, and checks each member as it is built,
so a refusal comes at the member, and with the text, that counting one
member at a time would give.  For a family that publishes closed forms for
the formula at hand the parity verdicts are exact; otherwise they are a
horizon-bounded heuristic over the tail of each parity's values.  One rule
gives the whole verdict from the two: equal ones give theirs, a divergent
parity or two limits that differ give divergence, and anything else is
inconclusive.  A directory family is listed once per run, so files added
to it later are not seen; its member n is the one regular file whose stem
is n, with any number of leading zeros (``7.struct``, ``007.struct``).
"""

from __future__ import annotations

import functools
import itertools
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
    """Exact description of a pairing sequence: values plus tagged limits of
    the odd and even subsequences."""

    value_at: Callable[[int], Fraction]
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

    ``closed_form`` may return exact sequence data for a formula the family
    understands; the default knows none.
    """

    name = "family"

    def structure(self, index: int) -> FiniteStructure:
        raise NotImplementedError(f"{type(self).__name__} defines no members")

    def closed_form(self, phi: Formula) -> ClosedForm | None:
        return None


def _compiled(phi: Formula) -> tuple:
    """The counting plan of ``phi`` over its free variables in order."""
    return fo._plan(phi, fo.free_vars(phi))


class FenceFamily(StructureFamily):
    """The alternating chain family: chains interleaved with chains plus an
    isolated point.  Publishes closed forms for the built-in one-variable
    formula "maximal but not the maximum" and its negation."""

    name = "fence"
    _PSI = _compiled(fo.maximal_not_maximum())
    _NOT_PSI = _compiled(fo.Not(fo.maximal_not_maximum()))

    def structure(self, index: int) -> FiniteStructure:
        return fo.gen_example_structure(index)

    def closed_form(self, phi: Formula) -> ClosedForm | None:
        # Compiled plans number variables by axis and fold only constants, so
        # a formula gets a closed form when it compiles to the plan of psi or
        # of its negation: up to renaming free and bound variables, and
        # ``& true``-style constants.
        target = _compiled(phi)
        if target == self._PSI:
            return ClosedForm(_fence_psi_value, gamma.ZERO, gamma.ZERO)
        if target == self._NOT_PSI:
            return ClosedForm(_fence_not_psi_value, gamma.ONE, gamma.ONE_APPROX)
        return None


def _fence_psi_value(index: int) -> Fraction:
    # Chains have no maximal-but-not-maximum point; a chain with an isolated
    # point has exactly two, out of k + 2 elements at even index 2k.
    if index % 2 == 1:
        return Fraction(0)
    k = index // 2
    return Fraction(2, k + 2)


def _fence_not_psi_value(index: int) -> Fraction:
    return 1 - _fence_psi_value(index)


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


def pairing_sequence(
    family: StructureFamily,
    phi: Formula,
    context: Sequence[str] | None = None,
    horizon: int = 12,
) -> SequenceReport:
    """Pair phi against family members 1..horizon (an integer, at least 4)
    and classify convergence; member ``horizon`` is built second, after 1.

    With a closed form the values are cross-checked against it and the odd and
    even verdicts are its tagged limits; otherwise the tail heuristic classifies
    the odd and the even values, as well as the horizon allows.  One rule gives
    the whole verdict from the two: equal ones give theirs, a divergent parity
    or two limits that differ give divergence, and anything else inconclusive.
    """
    if not isinstance(horizon, Integral) or horizon < 4:
        raise DomainError(f"horizon must be at least 4: {horizon!r} is not an integer >= 4")
    ctx = fo.free_vars(phi) if context is None else tuple(context)
    sizes = []

    def members():
        for index in itertools.chain((1, horizon), range(2, horizon)):
            try:
                A = family.structure(index)
            except InternalInvariantError:
                raise
            except Exception as exc:
                raise DomainError(
                    f"family {family.name} failed at index {index}: {exc}"
                ) from exc
            sizes.append(A.size)
            yield A

    counts = fo.count_satisfying_stack(members(), phi, ctx)
    results = [PairingResult.from_counts(c, s ** len(ctx)) for c, s in zip(counts, sizes)]
    results.append(results.pop(1))  # member horizon's pairing to its place
    classical = [r.classical for r in results]
    closed = family.closed_form(phi)
    if closed is not None:
        for index, value in enumerate(classical, start=1):
            if value != closed.value_at(index):
                raise InternalInvariantError(
                    f"closed form disagrees with computed value at index {index}: "
                    f"{closed.value_at(index)} vs {value}"
                )
        odd_v, even_v = map(_verdict_for_limit, (closed.odd_limit, closed.even_limit))
    else:  # odd indices 1, 3, 5, ... sit at 0, 2, 4, ... of the list
        odd_v, even_v = map(_heuristic_verdict, (classical[::2], classical[1::2]))
    whole = _whole_verdict(odd_v, even_v)
    return SequenceReport(tuple(results), whole, odd_v, even_v, closed is not None)
