"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data or formula
text, so the same seed always yields the same inputs.  Formulas are produced
as text and parsed by the program, the way a user's formulas arrive.

``tensor_bytes`` estimates what counting a formula allocates before the
program is asked to do it; ``check_budget`` refuses any input above
``MEMORY_BUDGET``.  The satisfaction counter builds, for every atom, an int64
index array of ``width * |A| ** width`` cells (``np.indices``), so the
estimate is dominated by that term: at |A| = 802 and width 3 it is about
11.5 GiB, which is refused long before anything is allocated.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stonepair import fo

# Estimated bytes one counting call may hold at once.  The largest fo-large
# input (|A| = 224, width 3) is estimated at about 0.3 GiB.
MEMORY_BUDGET = 640 * 2**20

SLACK = 2**20

BINARY = fo.Signature((("r", 2),))
FENCE_FORMULA = "(forall y. !lt(x,y)) & (exists z. !lt(z,x) & !(z = x))"


class BudgetError(Exception):
    """An input whose estimated tensor memory exceeds ``MEMORY_BUDGET``."""


# -- structures -------------------------------------------------------------------


def random_structure(rng: random.Random, size: int, out_degree: float | None = None) -> fo.FiniteStructure:
    """One binary relation ``r`` on ``size`` points.

    With ``out_degree`` unset every pair is present with probability 1/2 (the
    small-structure corpus); otherwise each point has about ``out_degree``
    successors, which keeps quantified formulas on large structures from
    being true or false everywhere.
    """
    p = 0.5 if out_degree is None else min(1.0, out_degree / size)
    tuples = frozenset(
        (i, j) for i in range(size) for j in range(size) if rng.random() < p
    )
    return fo.FiniteStructure(BINARY, size, {"r": tuples})


# -- formulas ---------------------------------------------------------------------


def random_formula(rng: random.Random, depth: int, scope: tuple[str, ...] = ("x", "y"), rel: str = "r") -> str:
    """A random formula of nesting depth at most ``depth`` over ``scope``.

    Quantifiers bind fresh variables ``z2, z3, ...``, so with scope (x, y)
    and depth 3 the counting width is at most 5.
    """
    if depth == 0 or rng.randrange(3) == 0:
        kind = rng.randrange(6)
        if kind == 0:
            return "true"
        if kind == 1:
            return "false"
        v, w = rng.choice(scope), rng.choice(scope)
        return f"{v} = {w}" if kind == 2 else f"{rel}({v}, {w})"
    kind = rng.randrange(6)
    if kind == 0:
        return f"!({random_formula(rng, depth - 1, scope, rel)})"
    if kind <= 3:
        op = ("&", "|", "->")[kind - 1]
        left = random_formula(rng, depth - 1, scope, rel)
        right = random_formula(rng, depth - 1, scope, rel)
        return f"({left} {op} {right})"
    var = f"z{len(scope)}"
    body = random_formula(rng, depth - 1, scope + (var,), rel)
    return f"({'exists' if kind == 4 else 'forall'} {var}. {body})"


def _literal(rng: random.Random, rel: str, scope: tuple[str, ...], last: str) -> str:
    """An atom that mentions the innermost variable ``last``, maybe negated."""
    args = [last, rng.choice(scope)]
    rng.shuffle(args)
    atom = f"{rel}({args[0]}, {args[1]})"
    return f"!{atom}" if rng.randrange(2) else atom


def width3_formula(rng: random.Random, rel: str) -> str:
    """A formula in x with two nested quantifiers, shaped like the fence query.

    The shape is fixed so that the counting cost depends on |A| alone: one
    literal in x, one quantified literal in (x, y), and three literals in
    (x, y, z) under the innermost quantifier.  The seed picks the connectives,
    negations, quantifier kinds and argument orders.
    """
    def conn() -> str:
        return rng.choice(("&", "|"))

    def quant() -> str:
        return rng.choice(("exists", "forall"))

    inner = f" {conn()} ".join(_literal(rng, rel, ("x", "y", "z"), "z") for _ in range(3))
    middle = f"{_literal(rng, rel, ('x', 'y'), 'y')} {conn()} ({quant()} z. {inner})"
    return f"{_literal(rng, rel, ('x',), 'x')} {conn()} ({quant()} y. {middle})"


def threshold_formula(rng: random.Random, labels: list[str], k: int, depth: int) -> str:
    """A random threshold formula over lattice labels, thresholds on the
    resolution-k grid, nesting depth at most ``depth``."""
    if depth == 0 or rng.randrange(3) == 0:
        op = rng.choice((">=", ">=", "<"))
        return f"[{op} {rng.randrange(k + 1)}/{k}]{{{rng.choice(labels)}}}"
    kind = rng.randrange(4)
    if kind == 0:
        return f"!({threshold_formula(rng, labels, k, depth - 1)})"
    sep = " & " if kind < 3 else " | "
    return f"({threshold_formula(rng, labels, k, depth - 1)}{sep}{threshold_formula(rng, labels, k, depth - 1)})"


def random_valuation(rng: random.Random, parts: int, denominator: int) -> list[Fraction]:
    """``parts`` nonnegative rationals with the given denominator summing to 1."""
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(parts - 1))
    return [Fraction(b - a, denominator) for a, b in zip([0] + cuts, cuts + [denominator])]


# -- memory estimate --------------------------------------------------------------


def quantifier_depth(phi: fo.Formula) -> int:
    match phi:
        case fo.Exists(_, body) | fo.Forall(_, body):
            return 1 + quantifier_depth(body)
        case fo.Not(body):
            return quantifier_depth(body)
        case fo.And(l, r) | fo.Or(l, r) | fo.Implies(l, r):
            return max(quantifier_depth(l), quantifier_depth(r))
        case _:
            return 0


def counting_width(phi: fo.Formula, context_len: int) -> int:
    """Rank of the largest tensor the counter builds: context plus nesting."""
    return context_len + quantifier_depth(phi)


def tensor_bytes(phi: fo.Formula, context_len: int, size: int) -> int:
    """Peak bytes the counter holds while evaluating ``phi`` on |A| = size.

    Mirrors the recursion of the dense counter: an atom or equality at
    context length d allocates ``np.indices`` (d int64 arrays of size**d
    cells) plus a boolean result; a binary connective keeps its left result
    alive while the right side is evaluated; a quantifier evaluates its body
    one rank higher and then reduces it.  ``SLACK`` covers the Python
    objects allocated alongside the arrays.
    """
    def peak(node: fo.Formula, d: int) -> int:
        cells = size**d
        match node:
            case fo.Atom(_, args):
                return 8 * d * cells + size ** len(args) + cells
            case fo.Eq(_, _):
                return 8 * d * cells + cells
            case fo.Const(_):
                return cells
            case fo.Not(body):
                return max(peak(body, d), 2 * cells)
            case fo.And(l, r) | fo.Or(l, r):
                return max(peak(l, d), cells + peak(r, d), 3 * cells)
            case fo.Implies(l, r):
                return max(peak(l, d), 2 * cells, cells + peak(r, d), 3 * cells)
            case fo.Exists(_, body) | fo.Forall(_, body):
                return max(peak(body, d + 1), size ** (d + 1) + cells)
        raise TypeError(f"not a formula node: {node!r}")

    return peak(phi, context_len) + SLACK


def check_budget(phi: fo.Formula, context_len: int, size: int) -> int:
    """The estimate for one counting call; raises ``BudgetError`` above budget."""
    need = tensor_bytes(phi, context_len, size)
    if need > MEMORY_BUDGET:
        raise BudgetError(
            f"|A| = {size}, width {counting_width(phi, context_len)}: estimated "
            f"{need / 2**20:.0f} MiB exceeds the {MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
    return need
