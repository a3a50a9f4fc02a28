"""First-order logic over finite relational structures.

Signatures are finite lists of relation symbols with arities.  A structure
over a finite universe stores each relation only as a read-only boolean
table with one axis of size |A| per argument; the evaluator, the counter
and the text format all read the tables.  Formulas are immutable ASTs with
equality as a built-in logical symbol; each node computes its hash once, at
construction, and caches it, so keying the plan cache by a formula costs no
walk of the tree.  One memoised walk gives a formula's free variables and
its quantifier rank (``free_vars``, ``quantifier_rank``), and the plan
compiler reads both for every subformula from one memo.  Evaluation is Tarskian
(``satisfies``, the slow reference).  Counting satisfying assignments
(``count_satisfying``, ``satisfying_set``) is exact: each (formula, context)
is compiled once into a plan, kept in a cache of ``PLAN_CACHE_SIZE`` entries,
whose every subformula evaluates to a boolean tensor with one axis of size
|A| per free variable.  Tensor size thus follows the formula's width (the
most free variables of any subformula), not its quantifier depth, and a
context variable not free in the formula multiplies the count without being
enumerated.  ``count_satisfying_stack`` runs one plan on a stack of
structures padded to one size, with a last batch axis on every tensor and
a universe mask that keeps each member's quantifiers and count to its own
elements.  Before compiling, miniscoping pushes each quantifier inward, so
fewer variables meet under it, and an ∃ whose factors each pair its
variable with one of two others is a matrix product (∀ by duality): the
Boolean sum over the variable, computed exactly as a float32 product of 0/1
matrices, so that such a body never takes a tensor of three axes.  Every
size refusal is a ``check_bytes`` charge against the one memory budget,
made before anything is allocated: relation tables, family members' ``lt``
tables, the counting tensors (|A| ** width one-byte cells times the most of
them alive at once; a stack's charge, ``_stack_bytes``, takes at least one,
and numpy's count buffer once a stack) and satisfying sets past
``MAX_TENSOR_CELLS`` bytes raise ``SizeError``.
Past its charge a count allocates O(|A|) bytes: an equality reads
``_eye(|A|)``, the identity as a view of 2|A| − 1 bytes.

Formula text has one grammar and one parser, which ``pl`` extends for
threshold formulas.  Precedence, low to high: ``->``, ``|``, ``&``, ``!``;
quantifiers scope maximally to the right:

    formula   := or ('->' formula)?
    or        := and ('|' and)*
    and       := unary ('&' unary)*
    unary     := '!' unary | 'forall' v '.' formula | 'exists' v '.' formula | atom
    atom      := '(' formula ')' | 'true' | 'false' | name '(' v, ... ')' | v '=' w

A threshold formula has no ``->`` and no quantifiers, and its atoms are

    atom      := '(' formula ')' | 'true' | 'false'
               | '[' ('>=' | '<') q ']' '{' subject '}'

where q is a rational n or n/d in [0, 1] (``gamma.read_rational``) and the
subject is a first-order formula, parsed in place up to its '}', or a
lattice element label.  The parser bounds nesting at ``MAX_NESTING``
levels, so no input can exhaust Python's recursion limit in parsing,
counting or any later walk of the tree.  Every ``ParseError`` is at its
line and column in the whole text; ``load`` reads an input file and gives
its faults the file's path.  The structure, lattice and measure file
formats share one line reader, ``read_lines``, and one item splitter,
``split_items``.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import DomainError, ParseError, SizeError, require_integer

_T = TypeVar("_T")
_INTEGERS = (int, np.integer, np.bool_)  # what a tuple entry or assignment value may be
PLAN_CACHE_SIZE = 4096


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities; names unique, arities at least 1."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise DomainError("relation names must be unique")
        for name, arity in self.relations:
            if arity < 1:
                raise DomainError(f"relation {name} must have arity >= 1")

    def arity(self, name: str) -> int:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        raise DomainError(f"unknown relation {name!r}")

    def has(self, name: str) -> bool:
        return any(rel == name for rel, _ in self.relations)


class FiniteStructure:
    """A finite relational structure: universe {0..size-1} plus relations.

    The only stored form is ``tables``: one read-only boolean array of shape
    ``(size,) * arity`` per relation of the signature; a relation's tuples,
    in row-major order, are ``np.argwhere(A.tables[name])``.
    ``FiniteStructure(signature, size, relations)`` validates tuple sets
    (relations omitted are empty); ``from_tables`` takes tables as they are.
    """

    def __init__(
        self,
        signature: Signature,
        size: int,
        relations: Mapping[str, Iterable[tuple[int, ...]]],
    ) -> None:
        require_integer("universe size", size)
        if size < 1:
            raise DomainError("universe must be nonempty")
        _check_names(signature, relations)
        for name, arity in signature.relations:
            check_bytes(f"relation {name}/{arity} on |A| = {size}", size**arity)
        self._init(signature, size, {
            name: _table_of(name, arity, size, relations.get(name, ()))
            for name, arity in signature.relations
        })

    @classmethod
    def from_tables(
        cls, signature: Signature, tables: Mapping[str, np.ndarray]
    ) -> "FiniteStructure":
        """The structure whose relation ``name`` is ``tables[name]``, a
        boolean array with one axis of size |A| per argument; the structure
        takes the arrays over and makes them read-only."""
        _check_names(signature, tables)
        if not signature.relations:
            raise DomainError("an empty signature has no table to give the universe size")
        size = None
        for name, arity in signature.relations:
            table = tables.get(name)
            if table is None:
                raise DomainError(f"no table for relation {name}/{arity}")
            if not isinstance(table, np.ndarray) or table.dtype != bool:
                kind = f"dtype {table.dtype}" if isinstance(table, np.ndarray) else type(table).__name__
                raise DomainError(f"table for {name}/{arity} is {kind}, not a boolean array")
            if table.ndim != arity or len(set(table.shape)) != 1:
                raise DomainError(
                    f"table for {name}/{arity} has shape {table.shape}, not {arity} equal axes"
                )
            size = table.shape[0] if size is None else size
            if table.shape[0] != size:
                raise DomainError(
                    f"table for {name}/{arity} has axes of {table.shape[0]}, "
                    f"not the |A| = {size} of the tables before it"
                )
        if size < 1:
            raise DomainError("universe must be nonempty")
        structure = cls.__new__(cls)
        structure._init(signature, size, {name: tables[name] for name, _ in signature.relations})
        return structure

    def _init(self, signature: Signature, size: int, tables: dict[str, np.ndarray]) -> None:
        self.signature = signature
        self.size = size
        self.tables = MappingProxyType({name: _read_only(t) for name, t in tables.items()})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.signature == other.signature
            and self.size == other.size
            and all(np.array_equal(t, other.tables[name]) for name, t in self.tables.items())
        )

    def __repr__(self) -> str:
        return (
            f"FiniteStructure(signature={self.signature!r}, size={self.size!r}, "
            f"tables={dict(self.tables)!r})"
        )


def _check_names(signature: Signature, names: Iterable[str]) -> None:
    extra = set(names) - {name for name, _ in signature.relations}
    if extra:
        raise DomainError(f"relations not in signature: {sorted(extra)}")


def _tuple_fault(name: str, arity: int, size: int, t: Iterable[int]) -> str | None:
    """Why ``t`` cannot be a tuple of relation ``name``, or None."""
    if isinstance(t, (str, bytes)) or not isinstance(t, Iterable):
        return f"item {t!r} of {name}/{arity} is not a tuple"
    t = tuple(t)
    if len(t) != arity:
        return f"tuple {t} has wrong arity for {name}/{arity}"
    for v in t:
        if not isinstance(v, _INTEGERS):
            return f"tuple {t} of {name}/{arity} holds {v!r}, not an integer"
    if not all(0 <= v < size for v in t):
        return f"tuple {t} out of range for universe {size}"
    return None


def _table_of(name: str, arity: int, size: int, tuples: Iterable[tuple[int, ...]]) -> np.ndarray:
    """The boolean table of a tuple set, checked in one numpy pass: an integer
    dtype, arity from the shape, range from the minimum and maximum.  Only
    when a check fails are the tuples scanned, for the first one to name."""
    items = list(tuples)
    table = np.zeros((size,) * arity, dtype=bool)
    if not items:
        return table
    try:
        index = np.array(items)
    except (ValueError, TypeError, OverflowError):
        index = None
    if (
        index is None
        or index.dtype.kind not in "iub"
        or index.shape != (len(items), arity)
        or index.min() < 0
        or index.max() >= size
    ):
        for t in items:
            fault = _tuple_fault(name, arity, size, t)
            if fault is not None:
                raise DomainError(fault)
        index = np.array(items, dtype=np.intp)  # in range, though typed as uint64 with int64
    table[tuple(index.astype(np.intp, copy=False).T)] = True
    return table


# -- formulas -------------------------------------------------------------------


class Formula:
    """Base class for formula AST nodes.  Nodes have slots: the plan cache
    and ``free_vars`` keep up to ``PLAN_CACHE_SIZE`` formulas alive each.  A
    node computes its hash once, at construction, from its class and its
    fields' hashes (a child's is already kept), and keeps it in the slot
    ``_hash``: a cache lookup reads one attribute instead of walking the tree.
    Threshold formulas (``pl``) are trees of ``Const``, ``Not``, ``And`` and
    ``Or`` whose leaves are ``pl.GE`` and ``pl.LT`` atoms; ``count_satisfying``
    refuses them, and ``format_formula`` renders such a leaf by its repr."""

    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        fields = map(self.__getattribute__, self.__slots__)
        object.__setattr__(self, "_hash", hash((self.__class__, *fields)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt by the constructor, which computes the hash again
        return self.__class__, tuple(map(self.__getattribute__, self.__slots__))

    def __str__(self) -> str:
        return format_formula(self)


def _node(cls: type[_T]) -> type[_T]:
    """A formula node class: a frozen dataclass with slots that keeps the
    hash ``Formula`` computes, not the tree walk dataclass would add."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@_node
class Atom(Formula):
    rel: str
    args: tuple[str, ...]


@_node
class Eq(Formula):
    left: str
    right: str


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Exists(Formula):
    var: str
    body: Formula


@_node
class Forall(Formula):
    var: str
    body: Formula


def _facts(node: Formula, memo: dict[int, tuple]) -> tuple[tuple[str, ...], int]:
    """The one analysis of a formula: ``node``'s free variables in
    first-occurrence order and its quantifier rank, memoised by node id in
    ``memo`` (each entry keeps its node, so no id is reused while the memo
    lives); a leaf of another logic, as ``pl``'s atoms, has neither."""
    hit = memo.get(id(node))
    if hit is None:
        match node:
            case Atom(_, args):
                found = tuple(dict.fromkeys(args)), 0
            case Eq(left, right):
                found = tuple(dict.fromkeys((left, right))), 0
            case Not(body):
                found = _facts(body, memo)
            case And(l, r) | Or(l, r) | Implies(l, r):
                (lv, lq), (rv, rq) = _facts(l, memo), _facts(r, memo)
                found = tuple(dict.fromkeys(lv + rv)), max(lq, rq)
            case Exists(var, body) | Forall(var, body):
                variables, rank = _facts(body, memo)
                found = tuple(v for v in variables if v != var), rank + 1
            case _:
                found = (), 0
        hit = memo[id(node)] = node, found
    return hit[1]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def free_vars(phi: Formula) -> tuple[str, ...]:
    """Free variables in first-occurrence order, cached as plans are."""
    return _facts(phi, {})[0]


def quantifier_rank(phi: Formula) -> int:
    """The most quantifiers nested on a branch of ``phi``, 0 if there are none."""
    return _facts(phi, {})[1]


def format_formula(phi: Formula) -> str:
    match phi:
        case Const(value):
            return "true" if value else "false"
        case Atom(rel, args):
            return f"{rel}({', '.join(args)})"
        case Eq(left, right):
            return f"{left} = {right}"
        case Not(body):
            return f"!({format_formula(body)})"
        case And(l, r):
            return f"({format_formula(l)} & {format_formula(r)})"
        case Or(l, r):
            return f"({format_formula(l)} | {format_formula(r)})"
        case Implies(l, r):
            return f"({format_formula(l)} -> {format_formula(r)})"
        case Exists(var, body):
            # parenthesised so the maximal-right scope survives re-parsing
            return f"(exists {var}. {format_formula(body)})"
        case Forall(var, body):
            return f"(forall {var}. {format_formula(body)})"
    return repr(phi)  # a leaf of another logic, as ``pl``'s threshold atoms


# -- parsing --------------------------------------------------------------------

# The one scanner of formula text: whitespace, then a mark of either
# grammar, a name, the end of the text, or a character it cannot read.
# Rationals and lattice labels are not tokens: the rules that expect them
# read them from the raw text.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<mark>->|<=|>=|[()!,&|=.<\[\]{}])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)
_KEYWORDS = frozenset({"forall", "exists", "true", "false"})


class _Token(NamedTuple):
    kind: str  # the mark or keyword itself, "ident" or "end"
    text: str
    at: int  # offset of the token's first character
    end: int  # offset just past it


# Nesting guard shared by the FO and threshold-logic parsers: no construct may
# open more than MAX_NESTING levels deep and no parsed tree may be higher.  A
# threshold formula this deep around an FO subject this deep still evaluates
# within Python's default recursion limit of 1000: evaluating the threshold
# formula takes one unit per level, and comparing two equal FO formulas (a
# plan-cache lookup) three.
MAX_NESTING = 200


class _FormulaParser:
    """Precedence climbing over a lazily scanned token stream, driven by the
    grammar's connective tables; the threshold-logic parser (``pl``) is a
    subclass with its own tables and atoms.  A character the scanner cannot
    read is reported only when a rule asks for the next token, so a rule
    that reads raw text reports its own fault.  With ``closer``, that mark
    ends the text: a subject is parsed in place from ``pos`` up to it."""

    # binary connective: (binding power, power of its right operand, node);
    # '->' is right-associative, '|' and '&' left-associative
    BINARY = {"->": (1, 1, Implies), "|": (2, 3, Or), "&": (3, 4, And)}
    PREFIX = {"!": (4, Not)}
    QUANTIFIERS = {"forall": Forall, "exists": Exists}
    LITERALS = {"true": TRUE, "false": FALSE}

    def __init__(self, text: str, signature: Signature | None, pos: int = 0,
                 closer: str | None = None):
        self.text = text
        self.signature = signature
        self.pos = pos  # offset just past the last token taken
        self.closer = closer
        self.token: _Token | None = None  # the next token, once scanned

    def error(self, message: str, tok: _Token) -> ParseError:
        return ParseError.at(message, self.text, tok.at)

    def nested(self, tok: _Token, levels: int) -> int:
        """``levels``, or a ``ParseError`` at ``tok`` when past ``MAX_NESTING``."""
        if levels > MAX_NESTING:
            raise self.error(f"formula nests deeper than {MAX_NESTING} levels", tok)
        return levels

    def peek(self) -> _Token:
        if self.token is None:
            m = _TOKEN_RE.match(self.text, self.pos)
            kind = m.lastgroup
            text, at = m.group(kind), m.start(kind)
            if text == self.closer:
                kind, text = "end", ""
            elif kind == "bad":
                raise ParseError.at(f"unexpected character {text[0]!r}", self.text, at)
            elif kind == "mark" or text in _KEYWORDS:
                kind = text
            self.token = _Token(kind, text, at, m.end())
        return self.token

    def advance(self) -> _Token:
        tok = self.peek()
        self.pos, self.token = tok.end, None
        return tok

    def expect(self, kind: str, message: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(message, tok)
        return self.advance()

    def expected(self, what: str, tok: _Token) -> ParseError:
        found = f", found {tok.text!r}" if tok.text else ""
        return self.error(f"expected {what}{found}", tok)

    def parse(self):
        """The formula up to the end of the text, or up to ``closer``."""
        phi, _ = self.formula(0, 0)
        tok = self.peek()
        if tok.kind != "end":
            raise self.error(f"unexpected {tok.text!r}", tok)
        return phi

    def formula(self, power: int, depth: int) -> tuple[object, int]:
        """The longest formula whose connectives bind at least ``power``,
        with its height.  ``depth`` counts the constructs open around it;
        both stay within ``MAX_NESTING``, so the recursion here and in every
        later walk of the tree is bounded."""
        tok = self.peek()
        if tok.kind in self.PREFIX:
            self.advance()
            op_power, ctor = self.PREFIX[tok.kind]
            body, height = self.formula(op_power, self.nested(tok, depth + 1))
            left, height = ctor(body), self.nested(tok, height + 1)
        elif tok.kind in self.QUANTIFIERS:
            self.advance()
            var = self.variable()
            self.expect(".", "expected '.' after quantified variable")
            body, height = self.formula(0, self.nested(tok, depth + 1))  # maximal right scope
            left, height = self.QUANTIFIERS[tok.kind](var, body), self.nested(tok, height + 1)
        elif tok.kind == "(":
            self.advance()
            left, height = self.formula(0, self.nested(tok, depth + 1))
            self.expect(")", "expected ')'")
        elif tok.kind in self.LITERALS:
            self.advance()
            left, height = self.LITERALS[tok.kind], 0
        else:
            left, height = self.atom(), 0
        while True:
            op = self.peek()
            if op.kind not in self.BINARY or self.BINARY[op.kind][0] < power:
                return left, height
            _, right_power, ctor = self.BINARY[op.kind]
            self.advance()
            right, right_height = self.formula(right_power, self.nested(op, depth + 1))
            left, height = ctor(left, right), self.nested(op, max(height, right_height) + 1)

    def variable(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.expected("a variable name", tok)
        return self.advance().text

    def atom(self) -> Formula:
        name = self.advance()
        if name.kind != "ident":
            raise self.expected("a formula", name)
        if self.peek().kind == "(":
            self.advance()
            args = [self.variable()]
            while self.peek().kind == ",":
                self.advance()
                args.append(self.variable())
            self.expect(")", "expected ')'")
            if not self.signature.has(name.text):
                raise self.error(f"unknown relation {name.text!r}", name)
            arity = self.signature.arity(name.text)
            if len(args) != arity:
                raise self.error(
                    f"relation {name.text} expects {arity} arguments, got {len(args)}", name
                )
            return Atom(name.text, tuple(args))
        if self.peek().kind == "=":
            self.advance()
            return Eq(name.text, self.variable())
        raise self.error(f"expected '(' or '=' after {name.text!r}", self.peek())


def parse_formula(text: str, signature: Signature) -> Formula:
    return _FormulaParser(text, signature).parse()


# -- evaluation -----------------------------------------------------------------


def satisfies(A: FiniteStructure, alpha: Mapping[str, int], phi: Formula) -> bool:
    """Tarskian satisfaction; quantifiers range over the universe, and every
    assignment value must be one of its elements, an integer in 0..|A|-1."""
    missing = [v for v in free_vars(phi) if v not in alpha]
    if missing:
        raise DomainError(f"assignment does not cover {missing}")
    for v, c in alpha.items():
        if not isinstance(c, _INTEGERS) or not 0 <= c < A.size:
            raise DomainError(f"assignment gives {v} = {c!r}, not an element of 0..{A.size - 1}")
    return _sat_at(A, {v: int(c) for v, c in alpha.items()}, phi)  # a bool index is a mask


def _sat_at(A: FiniteStructure, alpha: dict[str, int], phi: Formula) -> bool:
    match phi:
        case Const(value):
            return value
        case Atom(rel, args):
            return bool(_table(A, rel, len(args))[tuple(alpha[v] for v in args)])
        case Eq(left, right):
            return alpha[left] == alpha[right]
        case Not(body):
            return not _sat_at(A, alpha, body)
        case And(l, r):
            return _sat_at(A, alpha, l) and _sat_at(A, alpha, r)
        case Or(l, r):
            return _sat_at(A, alpha, l) or _sat_at(A, alpha, r)
        case Implies(l, r):
            return not _sat_at(A, alpha, l) or _sat_at(A, alpha, r)
        case Exists(var, body):
            return any(_sat_at(A, {**alpha, var: c}, body) for c in range(A.size))
        case Forall(var, body):
            return all(_sat_at(A, {**alpha, var: c}, body) for c in range(A.size))
    raise DomainError(f"not an evaluable node: {phi!r}")


# -- counting -------------------------------------------------------------------
#
# ``count_satisfying`` and ``satisfying_set`` run a plan compiled once per
# (formula, context).  Compilation turns every variable into an axis number:
# the context takes axes 0..k-1 and a quantifier nested j deep binds axis k+j.
# Each subformula then evaluates to a boolean tensor with one axis of size |A|
# per free variable, in axis order, so tensor size follows the formula's
# width, not its quantifier depth.  Atoms are views of the structure's
# relation tables (transposed, with a diagonal per repeated argument),
# equalities are ``_eye(|A|)``, one identity view per size, ``&``/``|``
# broadcast over the union of their operands' axes, and a quantifier reduces
# its variable's axis, always the last one, its number the highest in scope.
#
# Width is what costs, so ``_plan`` first rewrites the formula by
# miniscoping (``_miniscope``): a quantifier distributes over the connective
# it commutes with, factors without its variable move out of its scope, and
# a body whose factors each mention the variable and one of two others is
# grouped into ∃v.(L(a, v) ∧ R(b, v)).  That is the matrix product L · Rᵀ
# over the Boolean semiring, evaluated by one float32 BLAS product
# (``_CONTRACT``): the result is over (a, b) and no |A|³ tensor is built.
# A body that does not factor keeps the reduction above.

# The one memory budget, in bytes: one counting tensor of |A| ** width
# one-byte cells fits it at width 3 up to |A| = 812 and at width 4 up to
# |A| = 152; a contraction's 13 units of |A|² cells fit up to |A| = 6426.
MAX_TENSOR_CELLS = 2**29


def check_bytes(step: str, nbytes: int) -> None:
    """Refuse ``step`` with ``SizeError`` before it allocates ``nbytes`` bytes
    past ``MAX_TENSOR_CELLS`` read as bytes, the one memory budget."""
    if nbytes > MAX_TENSOR_CELLS:
        raise SizeError(f"{step} would take {nbytes} bytes; the guard is {MAX_TENSOR_CELLS}")


# Plan nodes are tuples headed by an opcode: every cached plan stays in
# memory, and tuples are a fraction of the size of closures.
_AND, _OR, _TABLE, _VIEW, _NOT, _ANY, _ALL, _CONTRACT, _EYE, _TRUE, _FALSE = range(11)
_TRUE_NODE, _FALSE_NODE, _EYE_NODE = (_TRUE,), (_FALSE,), (_EYE,)
_WHOLE = slice(None)


def _read_only(t: np.ndarray) -> np.ndarray:
    t.flags.writeable = False
    return t


_CELLS = {_TRUE: _read_only(np.array(True)), _FALSE: _read_only(np.array(False))}


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(phi: Formula, ctx: tuple[str, ...]) -> tuple[tuple, tuple[int, ...], int, int, tuple]:
    """The root node, the axes of its tensor (context positions), the plan's
    width (the most axes of size |A| on any tensor or table it uses), the
    most one-byte tensors of that width its evaluation keeps alive at once
    (a float32 matrix counts as four), which ``_admit`` charges, and the
    (relation, arity) pairs it reads, in the order ``_evaluate`` reads them.
    The plan is compiled from ``_miniscope(phi)``."""
    if len(set(ctx)) != len(ctx):
        raise DomainError("context variables must be distinct")
    memo: dict[int, tuple] = {}
    missing = [v for v in _facts(phi, memo)[0] if v not in ctx]
    if missing:
        raise DomainError(f"context misses free variables {missing}")
    widths = [0]
    node, axes, alive = _compile(
        _miniscope(phi, memo), {v: i for i, v in enumerate(ctx)}, len(ctx), widths
    )
    width = max(widths)
    return node, axes, width, alive[width], tuple(_reads(node, {}))


def _neg(phi: Formula) -> Formula:
    return phi.body if isinstance(phi, Not) else Not(phi)


def _split(phi: Formula, conj: bool) -> tuple[Formula, Formula] | None:
    """The two sides of ``phi`` read as a ∧ (``conj``) or a ∨, reading
    ``l -> r`` as ``!l | r`` and moving ``!`` inward by De Morgan; None when
    ``phi`` is no such junction."""
    match phi:
        case And(l, r) if conj:
            return l, r
        case Or(l, r) if not conj:
            return l, r
        case Implies(l, r) if not conj:
            return _neg(l), r
        case Not(Or(l, r)) if conj:
            return _neg(l), _neg(r)
        case Not(And(l, r)) if not conj:
            return _neg(l), _neg(r)
        case Not(Implies(l, r)) if conj:
            return l, _neg(r)
        case Not(Not(body)):
            return _split(body, conj)
    return None


def _leaves(phi: Formula, conj: bool, out: list[Formula] | None = None) -> list[Formula]:
    """The factors of ``phi`` read as a ∧ (``conj``) or a ∨ by ``_split``,
    left to right."""
    out = [] if out is None else out
    sides = _split(phi, conj)
    if sides is None:
        out.append(phi)
    else:
        _leaves(sides[0], conj, out)
        _leaves(sides[1], conj, out)
    return out


def _junction(phi: Formula, conj: bool, leaves: Iterator[Formula | None]) -> Formula | None:
    """``phi`` rebuilt in its own shape as a ∧ (``conj``) or a ∨ on
    ``leaves``, which replace ``_leaves(phi, conj)`` in order; a None leaf
    drops out, and so does a junction of none.  The tree is no higher than
    ``phi``'s."""
    sides = _split(phi, conj)
    if sides is None:
        return next(leaves)
    left, right = _junction(sides[0], conj, leaves), _junction(sides[1], conj, leaves)
    if left is None or right is None:
        return right if left is None else left
    return (And if conj else Or)(left, right)


def _miniscope(phi: Formula, memo: dict[int, tuple] | None = None) -> Formula:
    """``phi`` with its quantifiers pushed inward, bottom-up, into an
    equivalent formula (``phi`` itself when no rule applies).  For a
    quantifier Q v over its rewritten body, reading ∃ with ∧ and ∀ with ∨
    as its *factors* (``_leaves``):

    * ∃v distributes over ∨ and ∀v over ∧;
    * factors that do not mention v move out: ∃v.(A ∧ B) = A ∧ ∃v.B;
    * when the body mentions exactly two variables besides v and each factor
      at most one, the factors are grouped by that variable into one
      junction per side, which ``_compile`` contracts as a matrix product;
    * when one factor mentions both and the body is quantifier-free, that
      factor is split if each of its dual factors mentions at most one:
      ∃v.((a ∨ b) ∧ c) = ∃v.(a ∧ c) ∨ ∃v.(b ∧ c), and dually for ∀.

    Only a split copies: the rest of the body once per dual factor, so the
    tree grows at most quadratically in its literals, and since only a
    quantifier-free body splits, its height at most doubles, plus three.
    ``memo`` is the memo of ``_facts`` that ``_plan`` has filled."""
    memo = {} if memo is None else memo

    def quantify(kind: type, var: str, body: Formula, original: Formula | None = None) -> Formula:
        variables, rank = _facts(body, memo)
        if var not in variables:
            return body
        exists = kind is Exists
        outer_op = And if exists else Or
        sides = _split(body, not exists)
        if sides is not None:  # ∃ distributes over ∨, ∀ over ∧
            return (Or if exists else And)(*(quantify(kind, var, side) for side in sides))
        leaves = _leaves(body, exists)
        inside = [var in _facts(f, memo)[0] for f in leaves]
        if not all(inside):  # the factors without var move out
            rest = _junction(body, exists, (None if i else f for f, i in zip(leaves, inside)))
            core = _junction(body, exists, (f if i else None for f, i in zip(leaves, inside)))
            return outer_op(rest, quantify(kind, var, core))
        outer = frozenset(variables) - {var}
        if len(outer) == 2:
            groups = [outer.intersection(_facts(f, memo)[0]) for f in leaves]
            both = [k for k, g in enumerate(groups) if len(g) == 2]
            if not both:  # one junction of factors per outer variable
                b = max(outer)
                on_b = [b in g for g in groups]
                body = outer_op(
                    _junction(body, exists, (None if s else f for f, s in zip(leaves, on_b))),
                    _junction(body, exists, (f if s else None for f, s in zip(leaves, on_b))),
                )
            elif len(both) == 1 and rank == 0:  # split the one factor with both
                k = both[0]
                pieces = _leaves(leaves[k], not exists)
                if all(len(outer.intersection(_facts(p, memo)[0])) < 2 for p in pieces):
                    before, after = leaves[:k], leaves[k + 1:]
                    copies = (
                        quantify(kind, var, _junction(body, exists, iter([*before, p, *after])))
                        for p in pieces
                    )
                    return _junction(leaves[k], not exists, copies)
        if original is not None and body is original.body:
            return original
        return kind(var, body)

    def rewrite(node: Formula) -> Formula:
        match node:
            case Not(body):
                new = rewrite(body)
                return node if new is body else Not(new)
            case And(l, r) | Or(l, r) | Implies(l, r):
                left, right = rewrite(l), rewrite(r)
                return node if left is l and right is r else type(node)(left, right)
            case Exists(var, body) | Forall(var, body):
                return quantify(type(node), var, rewrite(body), node)
        return node

    return rewrite(phi)


def _compile(
    phi: Formula, env: dict[str, int], next_axis: int, widths: list[int]
) -> tuple[tuple, tuple[int, ...], Counter]:
    """The node computing ``phi``'s tensor, that tensor's axes, and for each
    number of axes the most tensors with that many that ``_evaluate``
    allocates and keeps alive at once while it computes the node, its result
    included.  Constant subformulas fold to ``_TRUE_NODE``/``_FALSE_NODE``
    with no axes; tables, their views and constants allocate nothing."""
    match phi:
        case Const(value):
            return (_TRUE_NODE if value else _FALSE_NODE), (), Counter()
        case Atom(rel, args):
            widths.append(len(args))
            return *_atom(rel, tuple(env[v] for v in args)), Counter()
        case Eq(left, right):
            a, b = sorted((env[left], env[right]))
            if a == b:
                return _TRUE_NODE, (), Counter()
            widths.append(2)
            return _EYE_NODE, (a, b), Counter()
        case Not(body):
            return _negate(_compile(body, env, next_axis, widths))
        case Implies(l, r):
            return _compile(Or(Not(l), r), env, next_axis, widths)
        case And(l, r) | Or(l, r):
            left, right = (_compile(side, env, next_axis, widths) for side in (l, r))
            return _connect(isinstance(phi, And), left, right, widths)
        case Exists(var, body) | Forall(var, body):
            exists = isinstance(phi, Exists)
            inner = {**env, var: next_axis}
            if isinstance(body, And if exists else Or):
                left, right = (
                    _compile(side, inner, next_axis + 1, widths) for side in (body.left, body.right)
                )
                # one side over (a, v) and the other over (b, v): a matrix product
                if left[1][1:] == right[1][1:] == (next_axis,) and left[1] != right[1]:
                    return _contract(not exists, left, right, widths)
                node, axes, alive = _connect(exists, left, right, widths)
            else:
                node, axes, alive = _compile(body, inner, next_axis + 1, widths)
            if not axes or axes[-1] != next_axis:
                return node, axes, alive  # the variable is not free in the body
            # the reduction is allocated while the body's tensor is alive
            reduced = Counter([len(axes) - 1] + ([len(axes)] if _allocates(node) else []))
            return (_ANY if exists else _ALL, node), axes[:-1], alive | reduced
    raise DomainError(f"not an evaluable node: {phi!r}")


_Compiled = tuple[tuple, tuple[int, ...], Counter]


def _negate(compiled: _Compiled) -> _Compiled:
    node, axes, alive = compiled
    if node is _TRUE_NODE or node is _FALSE_NODE:
        return (_FALSE_NODE if node is _TRUE_NODE else _TRUE_NODE), (), Counter()
    # in place on an allocated body, else one new tensor beside a table
    return (_NOT, node), axes, alive | Counter([len(axes)])


def _connect(conj: bool, left: _Compiled, right: _Compiled, widths: list[int]) -> _Compiled:
    """The ``&`` (``conj``) or ``|`` of two compiled operands."""
    (left, left_axes, left_alive), (right, right_axes, right_alive) = left, right
    absorbing, neutral = (_FALSE_NODE, _TRUE_NODE) if conj else (_TRUE_NODE, _FALSE_NODE)
    if left is absorbing or right is absorbing:
        return absorbing, (), Counter()
    if left is neutral:
        return right, right_axes, right_alive
    if right is neutral:
        return left, left_axes, left_alive
    axes = tuple(sorted(set(left_axes) | set(right_axes)))
    widths.append(len(axes))
    # an operand already over all of ``axes`` can hold the result
    reuse = 1 if left_axes == axes else 2 if right_axes == axes else 0
    # the left result stays alive while the right operand is computed
    held = Counter([len(left_axes)] if _allocates(left) else [])
    operands = held + Counter([len(right_axes)] if _allocates(right) else [])
    if not (reuse == 1 and _allocates(left) or reuse == 2 and _allocates(right)):
        operands[len(axes)] += 1
    return (
        _AND if conj else _OR,
        left,
        _expander(left_axes, axes),
        right,
        _expander(right_axes, axes),
        reuse,
    ), axes, left_alive | (right_alive + held) | operands


def _contract(universal: bool, left: _Compiled, right: _Compiled, widths: list[int]) -> _Compiled:
    """∃v.(L ∧ R) for L over axes (a, v) and R over (b, v), v the last axis,
    as the (a, b) matrix product L · Rᵀ > 0 in float32: the terms are 0 or 1,
    so a sum of them is 0 exactly when no term is 1.  ∀v.(L ∨ R) is
    ¬∃v.(¬L ∧ ¬R), the product's zero cells.  A float32 matrix is charged as
    four one-byte tensors of two axes: the left one is alive while the right
    side is computed, and the product beside both; the boolean result is
    charged beside those three too, a bound that leaves room for the
    arrays' Python objects, as ``_evaluate`` frees the factors before it."""
    if universal:
        left, right = _negate(left), _negate(right)
    if left[1] > right[1]:
        left, right = right, left
    widths.append(2)
    alive = left[2] | (right[2] + Counter({2: 4})) | Counter({2: 13})
    return (_CONTRACT, left[0], right[0], universal), (left[1][0], right[1][0]), alive


def _allocates(node: tuple) -> bool:
    """Whether ``_evaluate`` allocates the node's tensor, which is then
    writeable, rather than returning a read-only table, view or constant."""
    return node[0] <= _OR or _NOT <= node[0] <= _CONTRACT


def _atom(rel: str, args: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """A view of the relation table with one axis per distinct argument axis,
    in axis order: ``diagonal`` merges a repeated argument's two table axes
    into a new last axis, then ``transpose`` sorts the axes."""
    labels = list(args)
    diagonals = []
    while len(set(labels)) < len(labels):
        j = next(k for k, a in enumerate(labels) if labels.index(a) < k)
        i = labels.index(labels[j])
        diagonals.append((i, j))
        labels = [a for k, a in enumerate(labels) if k not in (i, j)] + [labels[j]]
    perm = tuple(sorted(range(len(labels)), key=labels.__getitem__))
    if not diagonals and perm == tuple(range(len(args))):
        return (_TABLE, rel, len(args)), args
    return (_VIEW, rel, len(args), tuple(diagonals), perm), tuple(sorted(labels))


def _expander(axes: tuple[int, ...], target: tuple[int, ...]) -> tuple | None:
    """Index inserting size-1 axes so a tensor over ``axes`` lines up with one
    over ``target``; None where numpy's own broadcasting, which prepends
    axes, already does it."""
    index = [_WHOLE if a in axes else None for a in target]
    while index and index[0] is None:
        index.pop(0)
    return tuple(index) if None in index else None


def _reads(node: tuple, out: dict[tuple[str, int], None]) -> dict[tuple[str, int], None]:
    """The (relation, arity) pairs the plan ``node`` reads, in the order
    ``_evaluate`` reads them."""
    op = node[0]
    if op <= _OR:
        _reads(node[1], out)
        _reads(node[3], out)
    elif op <= _VIEW:
        out[node[1], node[2]] = None
    elif op <= _CONTRACT:
        for child in node[1:3] if op == _CONTRACT else node[1:2]:
            _reads(child, out)
    return out


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _eye(n: int) -> np.ndarray:
    """The n × n identity as a read-only view of 2n − 1 bytes, all false
    but the middle one: cell (i, j) is byte n − 1 − i + j."""
    line = np.zeros(2 * n - 1, dtype=bool)
    line[n - 1] = True
    return np.lib.stride_tricks.sliding_window_view(line, n)[::-1]


def _evaluate(
    node: tuple, tables: Mapping[str, np.ndarray], n: int, U: np.ndarray | None = None
) -> np.ndarray:
    """The node's tensor over ``tables``, relation tables on n elements that
    ``_admit`` checked.  Results this evaluation allocated are writeable and
    used once, so connectives overwrite them; tables, their views and the
    identity are read-only.  With a universe mask ``U``, tables and tensors
    have a last batch axis: ∃ and ∀ reduce the axis before it over each
    member's own elements, and a contraction leaves out the other ones."""
    op = node[0]
    if op <= _OR:
        _, left, left_index, right, right_index, reuse = node
        lt, rt = _evaluate(left, tables, n, U), _evaluate(right, tables, n, U)
        if left_index is not None:
            lt = lt[left_index]
        if right_index is not None:
            rt = rt[right_index]
        ufunc = np.logical_and if op == _AND else np.logical_or
        if reuse == 1 and lt.flags.writeable:
            return ufunc(lt, rt, out=lt)
        if reuse == 2 and rt.flags.writeable:
            return ufunc(lt, rt, out=rt)
        return ufunc(lt, rt)
    if op <= _VIEW:
        table = tables[node[1]]
        if op == _TABLE:
            return table
        for i, j in node[3]:
            table = table.diagonal(0, i, j)
            if U is not None:  # the diagonal back in front of the batch axis
                table = table.swapaxes(-1, -2)
        return table.transpose(node[4] if U is None else (*node[4], len(node[4])))
    if op == _NOT:
        t = _evaluate(node[1], tables, n, U)
        return np.logical_not(t, out=t) if t.flags.writeable else ~t
    if op == _ANY:
        t = _evaluate(node[1], tables, n, U)
        if U is None:
            return t.any(axis=-1)
        # a read-only tensor, a table, a view of one or ``_eye(n)``, is
        # already false where only the reduced index lies off its member
        if t.flags.writeable:
            np.logical_and(t, U, out=t)
        return t.any(axis=-2)
    if op == _ALL:
        t = _evaluate(node[1], tables, n, U)
        if U is None:
            return t.all(axis=-1)
        return np.logical_or(t, ~U, out=t if t.flags.writeable else None).all(axis=-2)
    if op == _CONTRACT:
        _, left, right, universal = node
        if U is None:
            factor = _evaluate(left, tables, n).astype(np.float32)
            product = factor @ _evaluate(right, tables, n).astype(np.float32).T
        else:  # (B, a, v) @ (B, v, b), the left factor zero off each member on v
            factor = np.ascontiguousarray(_evaluate(left, tables, n, U).transpose(2, 0, 1), np.float32)
            factor *= U.T[:, None, :]
            product = factor @ np.ascontiguousarray(
                _evaluate(right, tables, n, U).transpose(2, 1, 0), np.float32
            )
            product = product.transpose(1, 2, 0)
        del factor
        return product == 0 if universal else product > 0
    if op == _EYE:
        eye = _eye(n)
        return eye if U is None else np.broadcast_to(eye[:, :, None], (*eye.shape, U.shape[1]))
    return _CELLS[op]


def _table(A: FiniteStructure, rel: str, arity: int) -> np.ndarray:
    table = A.tables.get(rel)
    if table is None or table.ndim != arity:
        raise DomainError(f"structure has no relation {rel}/{arity}")
    return table


def _admit(A: FiniteStructure, reads: tuple, nbytes: int) -> None:
    """Check a plan's charge of ``nbytes`` on A, then each relation it reads."""
    check_bytes("the counting tensors", nbytes)
    for rel, arity in reads:
        _table(A, rel, arity)


def count_satisfying(A: FiniteStructure, phi: Formula, context: Sequence[str]) -> int:
    """Number of assignments of ``context`` into A satisfying ``phi``.

    The total assignment space has size ``A.size ** len(context)``; the count
    is independent of the ordering of the context.  Context variables not
    free in ``phi`` multiply the count without being enumerated.
    """
    ctx = tuple(context)
    node, axes, width, tensors, reads = _plan(phi, ctx)
    _admit(A, reads, tensors * A.size**width)
    tensor = _evaluate(node, A.tables, A.size)
    return int(np.count_nonzero(tensor)) * A.size ** (len(ctx) - len(axes))


# -- counting a stack of structures ------------------------------------------------
#
# ``count_satisfying_stack`` runs one plan on many structures at once.  The
# members are padded to the largest size n and stacked on a last batch axis:
# a relation's table has shape (n,) * arity + (B,), false off each member's
# own universe, and every tensor carries the batch axis last, so the plan's
# expander indexes, numpy's broadcasting and ``_evaluate`` apply unchanged.
# The universe mask U, of shape (n, B), keeps each member's quantifiers and
# its count to its own elements, so every count is exact.

# A stack saves the Python of one evaluation per member, about 15 µs, but
# its cells cost about twice a lone count's: numpy reduces the axis before a
# short batch axis slowly.  Timed on a fence plan (width 2, 2 tensors), 64
# members of 34 elements cost 6.5 µs each in a stack against 21 µs alone,
# and of 70 elements 22 against 34 µs; 4 members in a stack lost at every
# size, 16 from 90 elements on.  So a stack takes at most STACK_BYTES, its
# members' own tables and its one count buffer included, and only members of
# a size that leaves room for STACK_ROOM of them join one: up to 55 elements
# for that plan.  Larger members are counted alone, as ``count_satisfying``
# counts them.
STACK_BYTES = 2**20
STACK_ROOM = 64


def _member_bytes(n: int, signature: Signature, plan: tuple) -> int:
    """The bytes one member of a stack of one signature, padded to n
    elements, adds: the plan's counting tensors, at least one, and one more,
    as a stack masks a copy of a table it reduces or counts and numpy reduces
    through buffers of its own; the stacked tables of the relations the plan
    reads; the member's own tables; and its column of the universe mask and
    of its complement."""
    _, _, width, tensors, reads = plan
    tables = sum(n**arity for _, arity in reads) + sum(n**arity for _, arity in signature.relations)
    return (max(tensors, 1) + 1) * n**width + tables + 2 * n


def _stack_bytes(batch: int, n: int, signature: Signature, plan: tuple) -> int:
    """The bytes a stack of ``batch`` members takes: theirs, and once per
    stack the buffer through which ``np.count_nonzero`` casts the cells it
    counts along axes, 8 bytes a cell for up to ``np.getbufsize()`` cells."""
    return batch * _member_bytes(n, signature, plan) + 8 * np.getbufsize()


def count_satisfying_stack(
    members: Iterable[FiniteStructure], phi: Formula, context: Sequence[str]
) -> list[int]:
    """``count_satisfying(A, phi, context)`` for each member A, in order.

    The members are counted in padded stacks, one evaluation of the plan per
    stack.  Each member is drawn from ``members`` only after the one before
    it has been checked as ``count_satisfying`` checks it: its charge against
    the memory budget, then each relation the plan reads.  So a refusal, or
    a fault of the iterable, is met at the member where it is met counting
    one member at a time, with the same text.  A member joins the current
    stack when it has the stack's signature and a stack of
    ``max(B, STACK_ROOM)`` members of the stack's padded size, B the stack's
    size with it, takes at most ``STACK_BYTES`` (``_stack_bytes``), or the
    budget if that is less;
    otherwise the stack is counted and freed first.  A stack that no member
    could join is counted at once.  A stack of one member is counted by
    ``count_satisfying``, so a member too large to share a stack is counted
    as soon as it is drawn, at what it costs alone."""
    ctx = tuple(context)
    counts: list[int] = []
    stack: list[FiniteStructure] = []
    # the members' bytes may take what the stack's one count buffer leaves
    cap = min(STACK_BYTES, MAX_TENSOR_CELLS) - 8 * np.getbufsize()
    plan = None
    n = unit = 0  # the stack's padded size and its bytes per member
    for A in members:
        plan = plan or _plan(phi, ctx)  # made at the first member, as one count makes it
        _, _, width, tensors, reads = plan
        _admit(A, reads, tensors * A.size**width)
        size = max(n, A.size)
        if size != n:
            unit = _member_bytes(size, A.signature, plan)
        room = max(len(stack) + 1, STACK_ROOM)
        if stack and (A.signature != stack[0].signature or room * unit > cap):
            counts += _count_stack(stack, phi, ctx)
            stack, size = [], A.size
            unit = _member_bytes(size, A.signature, plan)
        stack.append(A)
        n = size
        if max(len(stack) + 1, STACK_ROOM) * unit > cap:  # no member can join it
            counts += _count_stack(stack, phi, ctx)
            stack, n = [], 0
    if stack:
        counts += _count_stack(stack, phi, ctx)
    return counts


def _count_stack(members: list[FiniteStructure], phi: Formula, ctx: tuple[str, ...]) -> list[int]:
    """The counts of ``members``, checked and of one signature, from one
    evaluation of the plan."""
    if len(members) == 1:
        return [count_satisfying(members[0], phi, ctx)]
    plan = _plan(phi, ctx)
    node, axes, _, _, reads = plan
    sizes = [A.size for A in members]
    n, batch = max(sizes), len(members)
    check_bytes("the stacked counting tensors", _stack_bytes(batch, n, members[0].signature, plan))
    universe = np.arange(n)[:, None] < np.array(sizes)
    tables = {}
    for rel, arity in reads:
        table = np.zeros((n,) * arity + (batch,), dtype=bool)
        for b, A in enumerate(members):
            table[(slice(A.size),) * arity + (b,)] = A.tables[rel]
        tables[rel] = _read_only(table)
    tensor = _evaluate(node, tables, n, universe)
    m = len(axes)
    for k in range(m):  # each member's cells only, on every axis
        mask = universe[(_WHOLE,) + (None,) * (m - 1 - k)]
        tensor = np.logical_and(tensor, mask, out=tensor if tensor.flags.writeable else None)
    cells = np.count_nonzero(np.broadcast_to(tensor, (n,) * m + (batch,)), axis=tuple(range(m)))
    return [count * size ** (len(ctx) - m) for count, size in zip(cells.tolist(), sizes)]


def satisfying_tuple_bytes(n: int) -> int:
    """The bytes a satisfying tuple of n variables takes at the traced peak
    of ``satisfying_set`` (tuple, ints, ``np.argwhere`` row, set slot): the
    tracemalloc peak per tuple was 129 to 157 bytes for n <= 3, 328 at 16."""
    return 144 + 16 * n


def satisfying_set(
    A: FiniteStructure, phi: Formula, context: Sequence[str]
) -> frozenset[tuple[int, ...]]:
    """The set of satisfying assignments, as tuples aligned with ``context``.

    The tuples, counted on the satisfaction tensor, are checked against the
    memory budget at ``satisfying_tuple_bytes`` each before they are built."""
    ctx = tuple(context)
    node, axes, width, tensors, reads = _plan(phi, ctx)
    _admit(A, reads, max(tensors * A.size**width, A.size ** len(ctx)))
    tensor = _evaluate(node, A.tables, A.size)
    if not ctx:
        return frozenset([()] if bool(tensor) else [])
    index = tuple(_WHOLE if a in axes else None for a in range(len(ctx)))
    full = np.broadcast_to(np.asarray(tensor)[index], (A.size,) * len(ctx))
    check_bytes("the satisfying set", np.count_nonzero(full) * satisfying_tuple_bytes(len(ctx)))
    return frozenset(tuple(int(v) for v in row) for row in np.argwhere(full))


# -- the running family of example posets -----------------------------------------

POSET_SIGNATURE = Signature((("lt", 2),))


def gen_example_structure(n: int) -> FiniteStructure:
    """The n-th structure of the alternating chain family.

    Odd n = 2k-1 gives a (k+1)-element chain; even n = 2k gives a
    (k+1)-element chain plus one isolated point.  The relation ``lt`` is the
    strict order: transitive and irreflexive, holding for every comparable
    pair, not just covers.
    """
    require_integer("family index", n)
    if n < 1:
        raise DomainError("family index starts at 1")
    k = (n + 1) // 2
    chain_len = k + 1
    size = chain_len + (1 if n % 2 == 0 else 0)
    check_bytes(f"family index {n} gives |A| = {size}, whose lt table", size**2)
    ranks = np.arange(size)
    lt = np.less.outer(ranks, ranks)
    lt[chain_len:] = lt[:, chain_len:] = False  # the isolated point, if any
    return FiniteStructure.from_tables(POSET_SIGNATURE, {"lt": lt})


def maximal_not_maximum() -> Formula:
    """The running example formula over one free variable x: x is maximal in
    the strict order but not its maximum."""
    return And(
        Forall("y", Not(Atom("lt", ("x", "y")))),
        Exists("z", And(Not(Atom("lt", ("z", "x"))), Not(Eq("z", "x")))),
    )


# -- input files -------------------------------------------------------------------


def load(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """``parse`` applied to the UTF-8 text of the file at ``path``.  Both
    faults name the file: text that is not UTF-8 is a ``DomainError``
    "path: not UTF-8 text", and a ``ParseError`` of the text is given the
    path, unless it came from a file that ``parse`` loads in turn."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None
    try:
        return parse(text)
    except ParseError as exc:
        if exc.path is None:
            exc.path = str(path)
        raise


def read_lines(text: str, keys: Sequence[str] = ()) -> Iterator[tuple[str | None, int, str]]:
    """Each line of an input file's ``text`` that holds more than a '#'
    comment, as ``(key, offset, content)``: ``content`` is the line stripped
    of its comment and whitespace, ``offset`` its start in ``text``.  A line
    that starts with one of the keywords ``keys`` has that key and the rest
    of the line as content, and a key's second line is a ``ParseError``
    "duplicate <key> line"; other lines have key None."""
    seen = set()
    start = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0]
        content, offset = line.strip(), start + len(line) - len(line.lstrip())
        start += len(raw)
        if not content:
            continue
        key = next((k for k in keys if content.startswith(k)), None)
        if key is not None:
            if key in seen:
                raise ParseError.at(f"duplicate {key.rstrip(':')} line", text, offset)
            seen.add(key)
            rest = content[len(key):].lstrip()
            content, offset = rest, offset + len(content) - len(rest)
        yield key, offset, content


def split_items(offset: int, content: str) -> Iterator[tuple[int, str]]:
    """The nonblank comma-separated items of ``content``, which starts at
    ``offset`` of its text, as ``(offset, item)`` with the item stripped."""
    for piece in content.split(","):
        item = piece.strip()
        if item:
            yield offset + len(piece) - len(piece.lstrip()), item
        offset += len(piece) + 1


# -- structure text format ---------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# a tuple with the separators (whitespace and commas) before it
_STRUCT_TUPLE_RE = re.compile(r"[\s,]*(\(\s*(\d+(?:\s*,\s*\d+)*)\s*\))")
_STRUCT_SEPARATORS_RE = re.compile(r"[\s,]*")


def _decimal(digits: str, text: str, offset: int) -> int:
    """The integer ``digits`` spell; more digits than ``int`` reads is a
    ``ParseError`` at ``offset`` of ``text``."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError.at("too many digits", text, offset) from None


def parse_structure(text: str) -> FiniteStructure:
    """Parse the structure file format, read with ``read_lines``:

        signature: lt/2
        universe: 4
        lt = {(0,1),(0,2),(1,2)}

    Relations omitted from the body are empty.  Once the signature and the
    universe are read, relation names and tuples are checked in reading
    order; every fault is at the line and column of its token.
    """
    signature: Signature | None = None
    size: int | None = None
    # name -> (offset of the name, its tuples in order with their offsets)
    bodies: dict[str, tuple[int, list[tuple[int, tuple[int, ...]]]]] = {}
    for key, offset, content in read_lines(text, ("signature:", "universe:")):
        if key == "signature:":
            arities: dict[str, int] = {}
            for at, item in split_items(offset, content):
                m = re.fullmatch(rf"({_NAME})\s*/\s*(\d+)", item)
                if m is None:
                    raise ParseError.at(f"expected 'name/arity' in signature, got {item!r}", text, at)
                name, arity = m.group(1), _decimal(m.group(2), text, at + m.start(2))
                if name in arities:
                    raise ParseError.at("relation names must be unique", text, at)
                if arity < 1:
                    raise ParseError.at(f"relation {name} must have arity >= 1", text, at)
                arities[name] = arity
            signature = Signature(tuple(arities.items()))
        elif key == "universe:":
            if not content.isdecimal():
                raise ParseError.at("universe must be a nonnegative integer", text, offset)
            size = _decimal(content, text, offset)
            if size < 1:
                raise ParseError.at("universe must be nonempty", text, offset)
        elif "=" in content:
            name, body = content.split("=", 1)
            name, body = name.rstrip(), body.lstrip()
            if not re.fullmatch(_NAME, name):
                raise ParseError.at(f"bad relation name {name!r}", text, offset)
            if name in bodies:
                raise ParseError.at(f"duplicate relation body for {name}", text, offset)
            if not (body.startswith("{") and body.endswith("}")):
                raise ParseError.at("relation body must be {...}", text, offset + len(content) - len(body))
            start, end = content.index("{") + 1, len(content) - 1
            tuples = []
            at = start  # each tuple must follow the last one, separators between
            for m in _STRUCT_TUPLE_RE.finditer(content, start, end):
                if m.start() != at:
                    break
                where = offset + m.start(1)
                tuples.append((where, tuple(_decimal(v, text, where) for v in m.group(2).split(","))))
                at = m.end()
            at = _STRUCT_SEPARATORS_RE.match(content, at, end).end()
            if not tuples:  # a body without tuples must be blank
                at = end - len(content[start:end].lstrip())
            if at != end:
                raise ParseError.at("malformed tuple set", text, offset + at)
            bodies[name] = (offset, tuples)
        else:
            raise ParseError.at(f"unrecognised line {content!r}", text, offset)
    if signature is None:
        raise ParseError("missing signature line", line=1, column=1)
    if size is None:
        raise ParseError("missing universe line", line=1, column=1)
    for name, (at, tuples) in bodies.items():
        if not signature.has(name):
            raise ParseError.at(f"relations not in signature: {[name]}", text, at)
        arity = signature.arity(name)
        for at, t in tuples:
            fault = _tuple_fault(name, arity, size, t)
            if fault is not None:
                raise ParseError.at(fault, text, at)
    return FiniteStructure(
        signature, size, {name: [t for _, t in tuples] for name, (_, tuples) in bodies.items()}
    )


def format_structure(A: FiniteStructure) -> str:
    lines = [
        "signature: " + ", ".join(f"{name}/{arity}" for name, arity in A.signature.relations),
        f"universe: {A.size}",
    ]
    for name, table in A.tables.items():
        body = ",".join(
            "(" + ",".join(map(str, t)) + ")" for t in np.argwhere(table).tolist()
        )
        lines.append(f"{name} = {{{body}}}")
    return "\n".join(lines) + "\n"
