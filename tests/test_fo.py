"""Parsing, satisfaction, and counting for first-order logic."""

import copy
import itertools
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from typing import Iterator, Sequence

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    BINARY_SIG,
    formulas,
    reference_fence,
    reference_free_vars,
    reference_quantifier_rank,
    relation_tuples,
    structures,
)
from stonepair import fo, pairing, pl
from stonepair.errors import DomainError, ParseError, SizeError
from stonepair.fo import (
    And,
    Atom,
    Eq,
    Exists,
    FALSE,
    FiniteStructure,
    Forall,
    Implies,
    Not,
    Or,
    Signature,
    TRUE,
    count_satisfying,
    free_vars,
    gen_example_structure,
    maximal_not_maximum,
    parse_formula,
    parse_structure,
    format_structure,
    quantifier_rank,
    satisfies,
    satisfying_set,
)

POSET = fo.POSET_SIGNATURE


class TestParser:
    def test_quantified_negation(self):
        phi = parse_formula("forall y. !(lt(x,y))", POSET)
        assert phi == Forall("y", Not(Atom("lt", ("x", "y"))))

    def test_equality(self):
        assert parse_formula("x = x", POSET) == Eq("x", "x")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_formula("lt(x)", POSET)

    def test_unknown_relation(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("edge(x,y)", POSET)
        assert "edge" in str(exc.value)

    def test_precedence(self):
        phi = parse_formula("true -> false | true & !false", POSET)
        assert phi == Implies(TRUE, Or(FALSE, And(TRUE, Not(FALSE))))

    def test_quantifier_scopes_maximally_right(self):
        phi = parse_formula("exists z. !lt(z,x) & !(z = x)", POSET)
        assert phi == Exists("z", And(Not(Atom("lt", ("z", "x"))), Not(Eq("z", "x"))))

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("forall y lt(x,y)", POSET)
        assert exc.value.line == 1
        assert exc.value.column == 10

    def test_error_at_an_offset(self):
        # line and column of the character at the offset; the end of the
        # text is one column past its last character
        text = "ab\ncd"
        errors = [ParseError.at("m", text, i) for i in range(6)]
        assert [(e.line, e.column) for e in errors] == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert str(errors[4]) == "2:2: m" and errors[4].offset == 4

    def test_negated_equality_without_parens(self):
        assert parse_formula("!z = x", POSET) == Not(Eq("z", "x"))

    def test_round_trip_via_format(self):
        psi = maximal_not_maximum()
        assert parse_formula(str(psi), POSET) == psi

    def test_nesting_limit_positions_the_offending_token(self):
        limit = fo.MAX_NESTING
        cases = {
            "!" * 3000 + "x = x": limit + 1,
            "(" * 3000 + "x = x" + ")" * 3000: limit + 1,
            "forall y. " * 3000 + "x = y": 10 * limit + 1,
            "x = x & " * 3000 + "x = x": 8 * limit + 7,
            "x = x -> " * 3000 + "x = x": 9 * limit + 7,
        }
        for text, column in cases.items():
            with pytest.raises(ParseError) as exc:
                parse_formula(text, POSET)
            assert (exc.value.line, exc.value.column) == (1, column), text[:20]
            assert "nests deeper" in exc.value.message

    def test_nesting_limit_spans_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("true &\n" + "!" * 3000 + "true", POSET)
        # the right side of '&' is one level deep already
        assert (exc.value.line, exc.value.column) == (2, fo.MAX_NESTING)

    def test_formulas_at_the_nesting_limit_count(self):
        limit = fo.MAX_NESTING
        A = gen_example_structure(4)  # 3-chain plus an isolated point
        for text, expected in (
            ("!" * limit + "x = x", 4),
            ("(" * limit + "x = x" + ")" * limit, 4),
            ("x = x & " * limit + "x = x", 4),
            ("exists y. " * limit + "lt(x, y)", 2),
        ):
            assert count_satisfying(A, parse_formula(text, POSET), ["x"]) == expected


class TestFreeVars:
    def test_running_example(self):
        assert free_vars(maximal_not_maximum()) == ("x",)

    def test_sentence(self):
        assert free_vars(parse_formula("forall x. forall y. lt(x,y)", POSET)) == ()

    def test_equality(self):
        assert free_vars(Eq("x", "y")) == ("x", "y")

    def test_first_occurrence_order(self):
        phi = parse_formula("lt(y,x) & lt(x,y)", POSET)
        assert free_vars(phi) == ("y", "x")

    @settings(max_examples=300, deadline=None)
    @given(formulas(depth=5, ternary=True, rebind=True))
    def test_analysis_against_the_references(self, phi):
        assert free_vars(phi) == reference_free_vars(phi)
        assert quantifier_rank(phi) == reference_quantifier_rank(phi)

    @settings(max_examples=100, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.builds(kind, st.fractions(0, 1), st.integers(0, 3) | formulas())
                for kind in (pl.GE, pl.LT)
            ),
            lambda tree: st.builds(Not, tree) | st.builds(And, tree, tree) | st.builds(Or, tree, tree),
            max_leaves=6,
        )
    )
    def test_threshold_leaves_have_no_variable_and_no_rank(self, phi):
        assert free_vars(phi) == reference_free_vars(phi) == ()
        assert quantifier_rank(phi) == reference_quantifier_rank(phi) == 0

    def test_pinned_ranks(self):
        assert quantifier_rank(maximal_not_maximum()) == 1
        # the shape of the benchmark's width-3 generator
        shape = "r(x,x) & (forall y. r(y,x) | (exists z. r(z,x) & !r(y,z) | r(z,z)))"
        assert quantifier_rank(parse_formula(shape, BINARY_SIG)) == 2
        assert quantifier_rank(parse_formula("r(x,y) -> x = y", BINARY_SIG)) == 0
        # vacuous and re-binding quantifiers count, siblings do not add up
        assert quantifier_rank(parse_formula("exists x. forall x. r(x,x)", BINARY_SIG)) == 2
        assert quantifier_rank(parse_formula("(exists y. r(x,y)) & forall y. r(y,x)", BINARY_SIG)) == 1


class TestSatisfies:
    def test_maximum_is_not_witnessed(self):
        two_chain = gen_example_structure(1)
        assert satisfies(two_chain, {"x": 1}, maximal_not_maximum()) is False

    def test_true(self):
        A = gen_example_structure(2)
        assert satisfies(A, {}, TRUE) is True

    def test_empty_relation(self):
        A = FiniteStructure(POSET, 2, {"lt": frozenset()})
        phi = parse_formula("exists y. lt(x,y)", POSET)
        assert satisfies(A, {"x": 0}, phi) is False

    def test_uncovered_variable(self):
        A = gen_example_structure(1)
        with pytest.raises(DomainError):
            satisfies(A, {}, maximal_not_maximum())

    def test_shadowed_quantifier(self):
        # the inner x is bound; the outer assignment must not leak in
        A = FiniteStructure(POSET, 2, {"lt": frozenset({(0, 1)})})
        phi = parse_formula("exists x. lt(x,x)", POSET)
        assert satisfies(A, {"x": 0}, phi) is False

    def test_atom_reads_the_table_without_tuples(self):
        # one atom indexes the |A| x |A| table; it builds no set of its tuples
        A = gen_example_structure(2001)
        assert A.size == 1002
        phi = parse_formula("lt(x,x) | lt(x,y)", POSET)
        tracemalloc.start()
        try:
            assert satisfies(A, {"x": 0, "y": 1001}, phi) is True
            assert satisfies(A, {"x": 1001, "y": 0}, phi) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_assignment_values_are_universe_elements(self):
        A = FiniteStructure(POSET, 2, {"lt": frozenset({(0, 1)})})
        phi = parse_formula("lt(x,y)", POSET)
        for value in (2, -1, 10**30, 0.0, 1.5, "0", None, np.float64(1)):
            with pytest.raises(DomainError) as exc:
                satisfies(A, {"x": 0, "y": value}, phi)
            assert str(exc.value) == f"assignment gives y = {value!r}, not an element of 0..1"
        # a value the formula does not read is checked too
        with pytest.raises(DomainError, match="assignment gives z = 2,"):
            satisfies(A, {"x": 0, "y": 1, "z": 2}, phi)
        for x, y in ((np.int64(0), np.uint8(1)), (False, True), (0, np.int32(1))):
            assert satisfies(A, {"x": x, "y": y}, phi) is True
        assert satisfies(A, {"x": True, "y": False}, phi) is False

    def test_unknown_relation_is_the_counters_error(self):
        A = FiniteStructure(POSET, 2, {"lt": frozenset({(0, 1)})})
        for phi, message in (
            (Atom("edge", ("x", "x")), "structure has no relation edge/2"),
            (Atom("lt", ("x",)), "structure has no relation lt/1"),
            (Exists("y", Atom("lt", ("x", "y", "y"))), "structure has no relation lt/3"),
        ):
            with pytest.raises(DomainError) as by_satisfies:
                satisfies(A, {"x": 0}, phi)
            with pytest.raises(DomainError) as by_counter:
                count_satisfying(A, phi, ["x"])
            assert str(by_satisfies.value) == str(by_counter.value) == message

    def test_repr_shows_the_tables(self):
        A = FiniteStructure(POSET, 2, {"lt": frozenset({(0, 1)})})
        assert repr(A) == (
            f"FiniteStructure(signature={POSET!r}, size=2, "
            f"tables={{'lt': {A.tables['lt']!r}}})"
        )


class TestCounting:
    def test_running_example_count(self):
        A2 = gen_example_structure(2)
        assert count_satisfying(A2, maximal_not_maximum(), ["x"]) == 2

    def test_true_over_two_variables(self):
        A = FiniteStructure(POSET, 3, {"lt": frozenset()})
        assert count_satisfying(A, TRUE, ["x", "y"]) == 9

    def test_false(self):
        A = gen_example_structure(3)
        assert count_satisfying(A, FALSE, ["x"]) == 0

    def test_context_must_cover(self):
        A = gen_example_structure(2)
        with pytest.raises(DomainError):
            count_satisfying(A, maximal_not_maximum(), ["y"])

    def test_sentence_empty_context(self):
        A = gen_example_structure(1)
        phi = parse_formula("exists x. exists y. lt(x,y)", POSET)
        assert count_satisfying(A, phi, []) == 1

    def test_satisfying_set_matches_count(self):
        A = gen_example_structure(4)
        psi = maximal_not_maximum()
        sat = satisfying_set(A, psi, ["x"])
        assert len(sat) == count_satisfying(A, psi, ["x"])
        assert sat == {(2,), (3,)}

    @settings(max_examples=150, deadline=None)
    @given(structures(), formulas())
    def test_count_matches_per_assignment_oracle(self, A, phi):
        # independent route: Tarskian evaluation one assignment at a time
        ctx = ("x", "y")
        expected = sum(
            1
            for t in itertools.product(range(A.size), repeat=2)
            if satisfies(A, dict(zip(ctx, t)), phi)
        )
        assert count_satisfying(A, phi, ctx) == expected

    @settings(max_examples=100, deadline=None)
    @given(structures(), formulas())
    def test_complement_counts(self, A, phi):
        ctx = ["x", "y"]
        total = A.size ** 2
        assert (
            count_satisfying(A, phi, ctx) + count_satisfying(A, Not(phi), ctx) == total
        )

    @settings(max_examples=100, deadline=None)
    @given(structures(), formulas())
    def test_context_order_irrelevant(self, A, phi):
        assert count_satisfying(A, phi, ["x", "y"]) == count_satisfying(
            A, phi, ["y", "x"]
        )

    @settings(max_examples=100, deadline=None)
    @given(structures(), formulas())
    def test_quantifier_duality(self, A, phi):
        lhs = Forall("x", phi)
        rhs = Not(Exists("x", Not(phi)))
        for t in itertools.product(range(A.size), repeat=1):
            alpha = {"x": 0, "y": t[0]}
            assert satisfies(A, alpha, lhs) == satisfies(A, alpha, rhs)


class TestShapedCounting:
    """The compiled counter against the Tarskian oracle, and its guards."""

    @settings(max_examples=300, deadline=None)
    @given(
        structures(ternary=True),
        formulas(ternary=True, rebind=True),
        st.sampled_from([("x", "y"), ("y", "x"), ("x", "y", "w"), ("w", "y", "x")]),
    )
    def test_count_and_set_match_satisfies(self, A, phi, ctx):
        # ctx may re-bind under a quantifier, and "w" is never free in phi
        expected = {
            t
            for t in itertools.product(range(A.size), repeat=len(ctx))
            if satisfies(A, dict(zip(ctx, t)), phi)
        }
        assert satisfying_set(A, phi, ctx) == expected
        assert count_satisfying(A, phi, ctx) == len(expected)

    def test_rebound_context_variable(self):
        # the quantified x is a new axis; the context's x is not free in phi
        A = FiniteStructure(BINARY_SIG, 3, {"r": frozenset({(0, 1), (2, 2)})})
        phi = Exists("x", Atom("r", ("x", "y")))
        assert satisfying_set(A, phi, ["x", "y"]) == {(x, y) for x in range(3) for y in (1, 2)}

    def test_satisfying_tuples_are_counted_before_they_are_built(self, monkeypatch):
        # r(x, y) holds at 2 of the 9 pairs: 2 tuples of 144 + 16 * 2 bytes
        A = FiniteStructure(BINARY_SIG, 3, {"r": frozenset({(0, 1), (2, 2)})})
        phi = Atom("r", ("x", "y"))
        size = 2 * fo.satisfying_tuple_bytes(2)
        assert size == 2 * 176
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", size)
        assert satisfying_set(A, phi, ["x", "y"]) == {(0, 1), (2, 2)}
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", size - 1)
        with pytest.raises(SizeError, match=f"the satisfying set would take {size} bytes"):
            satisfying_set(A, phi, ["x", "y"])

    def test_repeated_and_permuted_arguments(self):
        sig = Signature((("t", 3),))
        A = FiniteStructure(sig, 3, {"t": frozenset({(0, 0, 1), (1, 2, 1), (2, 0, 2)})})
        phi = Atom("t", ("y", "x", "y"))  # t(y, x, y)
        assert satisfying_set(A, phi, ["x", "y"]) == {(2, 1), (0, 2)}
        assert count_satisfying(A, Atom("t", ("x", "x", "x")), ["x"]) == 0

    def test_singleton_universe_and_unused_context(self):
        A = FiniteStructure(BINARY_SIG, 1, {"r": frozenset({(0, 0)})})
        assert count_satisfying(A, Atom("r", ("x", "x")), ["x", "y", "z"]) == 1
        B = FiniteStructure(BINARY_SIG, 5, {"r": frozenset()})
        assert count_satisfying(B, TRUE, [f"v{i}" for i in range(40)]) == 5**40
        assert satisfying_set(B, Eq("x", "x"), ["x", "y"]) == {
            (x, y) for x in range(5) for y in range(5)
        }

    def test_relation_missing_from_structure(self):
        A = gen_example_structure(2)
        with pytest.raises(DomainError):
            count_satisfying(A, Atom("edge", ("x", "y")), ["x", "y"])

    def test_width_three_peak_memory(self):
        # the counter holds boolean tensors of |A|**3 cells, not the 3 int64
        # index grids (24 bytes a cell) of a dense counter
        n = 96
        rng = random.Random(7)
        edges = frozenset((i, j) for i in range(n) for j in range(n) if rng.random() < 0.05)
        A = FiniteStructure(BINARY_SIG, n, {"r": edges})
        phi = parse_formula("exists y. exists z. r(x,y) & r(y,z) & r(z,x)", BINARY_SIG)
        tracemalloc.start()
        try:
            count = count_satisfying(A, phi, ["x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n**3
        R = np.zeros((n, n), dtype=np.int64)
        R[tuple(np.array(sorted(edges)).T)] = 1
        assert count == int(np.count_nonzero(np.diag(R @ R @ R)))

    # each right-nested group keeps one more |A|**3 tensor alive while the
    # groups to its right are computed; a chain of atoms keeps one
    LIVE_TENSORS = (
        ("exists y. exists z. (r(x,y) | r(y,z)) & (r(z,x) | y = z) & !(x = z)", 2),
        (
            "exists y. exists z. (r(x,y) | r(y,z)) & ((r(z,x) | y = z)"
            " & ((r(x,z) | r(z,y)) & !(x = z)))",
            3,
        ),
        (
            "exists y. exists z. (r(x,y) | r(y,z)) & ((r(z,x) | y = z)"
            " & ((r(x,z) | r(z,y)) & ((r(x,z) | r(z,y)) & !(x = z))))",
            4,
        ),
        # the equalities keep each group three-variable, so nothing contracts
        ("exists y. exists z. r(x,y) & (r(y,z) | y = z) & (r(z,x) | x = y)", 1),
    )

    @pytest.mark.parametrize("text, tensors", LIVE_TENSORS)
    def test_charge_counts_the_tensors_alive_at_once(self, text, tensors):
        n = 150
        rng = np.random.default_rng(11)
        A = FiniteStructure.from_tables(BINARY_SIG, {"r": rng.random((n, n)) < 0.3})
        phi = parse_formula(text, BINARY_SIG)
        assert fo._plan(phi, ("x",))[2:4] == (3, tensors)
        count_satisfying(A, phi, ["x"])  # the plan and _eye(n) are built once, untraced
        tracemalloc.start()
        try:
            count_satisfying(A, phi, ["x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all but a narrower tensor or two (n**2 bytes each) is charged
        assert tensors * n**3 <= peak <= tensors * n**3 + 2 * n**2

    # an equality reads the identity as a view of 2|A| - 1 bytes, so on a
    # size never counted before only O(|A|) bytes lie outside what is charged
    @pytest.mark.parametrize("text, ctx, squares", [
        ("exists y. !(x = y) & p(y)", ("x",), 1),  # the negation's tensor, charged
        ("x = y", ("x", "y"), 0),  # the identity alone allocates nothing
    ])
    def test_equality_stays_within_its_charge(self, text, ctx, squares):
        n = 2000
        sig = Signature((("p", 1),))
        A = FiniteStructure(sig, n, {"p": [(3,), (7,)]})
        phi = parse_formula(text, sig)
        assert fo._plan(phi, ctx)[2:4] == (2, squares)
        fo._eye.cache_clear()
        tracemalloc.start()
        try:
            assert count_satisfying(A, phi, ctx) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= squares * n**2 + 16 * n

    @pytest.mark.parametrize("text, ctx", [
        ("x = y", ("x", "y")),  # the identity view
        ("exists y. x = y", ("x",)),  # its reduction, one tensor of |A| bytes
    ])
    def test_a_count_that_allocates_no_square_is_charged_none(self, text, ctx):
        # |A|**2 is past the budget, so any charge of one square would refuse
        n = 30000
        assert n**2 > fo.MAX_TENSOR_CELLS
        sig = Signature((("p", 1),))
        A = FiniteStructure(sig, n, {"p": [(3,)]})
        phi = parse_formula(text, sig)
        assert fo._plan(phi, ctx)[2:4] == (2, 0)
        fo._eye.cache_clear()
        tracemalloc.start()
        try:
            assert count_satisfying(A, phi, ctx) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n

    def test_eye_is_the_identity_on_2n_minus_1_bytes(self):
        for n in range(1, 65):
            eye = fo._eye(n)
            assert eye.dtype == bool and np.array_equal(eye, np.eye(n, dtype=bool))
            assert not eye.flags.writeable
            low, high = np.lib.array_utils.byte_bounds(eye)
            assert high - low == 2 * n - 1

    def test_charge_refuses_what_one_tensor_would_fit(self):
        n = 700
        A = FiniteStructure(BINARY_SIG, n, {"r": frozenset({(0, 1)})})
        phi = parse_formula(self.LIVE_TENSORS[0][0], BINARY_SIG)
        assert n**3 <= fo.MAX_TENSOR_CELLS < 2 * n**3
        for count in (count_satisfying, satisfying_set):
            with pytest.raises(SizeError, match=f"the counting tensors would take {2 * n**3} bytes"):
                count(A, phi, ["x"])

    def test_size_guard_raises_before_allocating(self):
        n = 200  # width 4 needs 200**4 > MAX_TENSOR_CELLS cells
        A = FiniteStructure(BINARY_SIG, n, {"r": frozenset({(0, 1)})})
        # every factor of each body mentions three variables: nothing contracts
        phi = parse_formula(
            "exists y. exists z. exists w. (r(x,y) | r(z,w)) & (r(y,z) | r(w,x))", BINARY_SIG
        )
        assert fo._plan(phi, ("x",))[2:4] == (4, 2)
        assert n**4 > fo.MAX_TENSOR_CELLS >= n**3
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                count_satisfying(A, phi, ["x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # satisfying_set also guards the context it enumerates
        with pytest.raises(SizeError):
            satisfying_set(A, TRUE, ["a", "b", "c", "d"])


def _height(phi) -> int:
    match phi:
        case Not(body) | Exists(_, body) | Forall(_, body):
            return 1 + _height(body)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return 1 + max(_height(l), _height(r))
    return 0


def _size(phi) -> int:
    match phi:
        case Not(body) | Exists(_, body) | Forall(_, body):
            return 1 + _size(body)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return 1 + _size(l) + _size(r)
    return 1


def _literals(phi) -> int:
    match phi:
        case Not(body) | Exists(_, body) | Forall(_, body):
            return _literals(body)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return _literals(l) + _literals(r)
    return 1


def _contracts(node: tuple) -> bool:
    """Whether a plan node contracts, or one below it does."""
    op = node[0]
    if op in (fo._AND, fo._OR):
        return _contracts(node[1]) or _contracts(node[3])
    if op in (fo._NOT, fo._ANY, fo._ALL):
        return _contracts(node[1])
    return op == fo._CONTRACT


# the literals under the innermost quantifier of a width-3 formula: each
# mentions z and at most one of x, y, or, with ``z = x``, is an equality
SHAPED_ATOMS = ("r(z,x)", "r(x,z)", "r(z,y)", "r(y,z)", "r(z,z)", "z = x", "y = z", "r(x,y)")


@st.composite
def shaped_formulas(draw):
    """A quantifier over a junction of two to four literals in (x, y, z),
    any of them negated, joined by ``&``, ``|`` and ``->`` and grouped at
    random, maybe under a quantifier over y; the inner quantifier may re-bind
    y in place of z."""
    def literal() -> str:
        atom = draw(st.sampled_from(SHAPED_ATOMS))
        return f"!({atom})" if draw(st.booleans()) else atom

    def junction(k: int) -> str:
        if k == 1:
            return literal()
        split = draw(st.integers(1, k - 1))
        op = draw(st.sampled_from(("&", "|", "->")))
        return f"({junction(split)} {op} {junction(k - split)})"

    def quantifier() -> str:
        return draw(st.sampled_from(("exists", "forall")))

    var = draw(st.sampled_from(("z", "z", "y")))
    text = f"({quantifier()} {var}. {junction(draw(st.integers(2, 4))).replace('z', var)})"
    if draw(st.booleans()):
        op = draw(st.sampled_from(("&", "|", "->")))
        text = f"({quantifier()} y. {literal().replace('z', 'y')} {op} {text})"
    return parse_formula(text, BINARY_SIG)


class TestContraction:
    """∃z over factors in (x, z) and (y, z) is a float32 matrix product, and
    miniscoping (``fo._miniscope``) brings bodies into that shape."""

    @settings(max_examples=300, deadline=None)
    @given(structures(ternary=True), formulas(ternary=True, rebind=True))
    def test_rewrite_preserves_satisfaction(self, A, phi):
        rewritten = fo._miniscope(phi)
        assert _height(rewritten) <= 2 * _height(phi) + 3
        assert _size(rewritten) <= 2 * _size(phi) * _literals(phi)
        for t in itertools.product(range(A.size), repeat=2):
            alpha = {"x": t[0], "y": t[1]}
            assert satisfies(A, alpha, rewritten) == satisfies(A, alpha, phi)

    @settings(max_examples=400, deadline=None)
    @given(structures(max_size=5), shaped_formulas())
    def test_shaped_counts_match_satisfies(self, A, phi):
        rewritten = fo._miniscope(phi)
        assert _height(rewritten) <= 2 * _height(phi) + 3
        assert _size(rewritten) <= 2 * _size(phi) * _literals(phi)
        for ctx in (("x", "y"), ("x",)):
            if "y" in free_vars(phi) and ctx == ("x",):
                continue
            expected = {
                t
                for t in itertools.product(range(A.size), repeat=len(ctx))
                if satisfies(A, dict(zip(ctx, t)), phi)
            }
            assert satisfying_set(A, phi, ctx) == expected
            assert count_satisfying(A, phi, ctx) == len(expected)

    def test_shaped_formulas_contract(self):
        # one example per quantifier and connective pair, with r(z,z) and z = x
        for text in (
            "exists z. r(x,z) & r(z,y) & r(z,z)",
            "exists z. r(x,z) | r(z,y) & z = x",
            "forall z. r(x,z) | !r(y,z) | r(z,z)",
            "forall z. (r(x,z) & !(z = y)) | r(z,x)",
            "exists z. !(r(x,z) -> r(y,z))",
            "forall z. r(x,z) -> r(z,y)",
        ):
            phi = parse_formula(text, BINARY_SIG)
            node, _, width, tensors, _ = fo._plan(phi, ("x", "y"))
            assert (width, tensors) == (2, 13) and _contracts(node), text

    def test_every_fo_large_shape_has_width_two(self):
        # the benchmark's width-3 generator: three literals each with z and
        # one of x, y, z, maybe negated, two connectives, either quantifier
        literals = [
            neg + atom for atom in ("r(z,x)", "r(x,z)", "r(z,y)", "r(y,z)", "r(z,z)") for neg in ("", "!")
        ]
        shapes = 0
        for q, c1, c2 in itertools.product(("exists", "forall"), "&|", "&|"):
            for l1, l2, l3 in itertools.product(literals, repeat=3):
                text = f"r(x,x) & (forall y. r(y,x) | ({q} z. {l1} {c1} {l2} {c2} {l3}))"
                assert fo._plan(parse_formula(text, BINARY_SIG), ("x",))[2] == 2, text
                shapes += 1
        assert shapes == 8000

    CHARGED = (
        "exists z. r(x,z) & r(z,y)",
        "exists y. exists z. r(x,y) & r(y,z) & r(z,x)",
        "forall z. r(x,z) | !r(y,z) | r(z,z)",
    )

    @pytest.mark.parametrize("text", CHARGED)
    def test_charge_bounds_the_traced_peak(self, text):
        n = 150
        rng = np.random.default_rng(11)
        A = FiniteStructure.from_tables(BINARY_SIG, {"r": rng.random((n, n)) < 0.3})
        phi = parse_formula(text, BINARY_SIG)
        ctx = ("x", "y") if "y" in free_vars(phi) else ("x",)
        assert fo._plan(phi, ctx)[2:4] == (2, 13)
        count_satisfying(A, phi, ctx)
        tracemalloc.start()
        try:
            count_satisfying(A, phi, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three float32 matrices are alive at the product
        assert 12 * n**2 <= peak <= 13 * n**2

    def test_four_cycle_at_two_hundred(self):
        # width 4 without contraction, and 200**4 cells are past the guard
        n = 200
        R = np.random.default_rng(3).random((n, n)) < 4 / n
        A = FiniteStructure.from_tables(BINARY_SIG, {"r": R})
        phi = parse_formula(
            "exists y. exists z. exists w. r(x,y) & r(y,z) & r(z,w) & r(w,x)", BINARY_SIG
        )
        assert fo._plan(phi, ("x",))[2:4] == (2, 13)
        expected = np.diag(np.linalg.matrix_power(R.astype(np.int64), 4)) > 0
        assert 0 < expected.sum() < n
        assert satisfying_set(A, phi, ["x"]) == {(int(x),) for x in np.flatnonzero(expected)}
        assert count_satisfying(A, phi, ["x"]) == int(expected.sum())
        r = pairing.stone_pairing(A, phi, ("x",))
        assert (r.count, r.total) == (int(expected.sum()), n)

    def test_rewrite_growth_at_the_nesting_limit(self):
        limit = fo.MAX_NESTING
        R = np.random.default_rng(5).random((4, 4)) < 0.5
        A = FiniteStructure.from_tables(BINARY_SIG, {"r": R})
        m = limit // 2 - 2
        # one factor splits m ways
        pieces = " & ".join(("r(x,z)", "r(y,z)")[i % 2] for i in range(m))
        rest = " | ".join(("r(z,x)", "!r(z,y)", "r(z,z)")[i % 3] for i in range(m))
        split = parse_formula(f"forall z. ({pieces}) | {rest}", BINARY_SIG)
        # every quantifier but the innermost moves a factor out
        path = " & ".join(f"r(v{i},v{i + 1})" for i in range(m)).replace("v0", "x")
        walk = parse_formula("".join(f"exists v{i + 1}. " for i in range(m)) + path, BINARY_SIG)
        reach = np.ones(4, dtype=bool)
        for _ in range(m):
            reach = (R.astype(np.int64) @ reach) > 0
        default = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # Python's default
        try:
            for phi, ctx in ((split, ("x", "y")), (walk, ("x",))):
                assert _height(phi) <= limit
                rewritten = fo._miniscope(phi)
                assert _height(rewritten) <= 2 * _height(phi) + 3
                assert _size(rewritten) <= _literals(phi) ** 2
                assert fo._plan(phi, ctx)[2] == 2
            assert count_satisfying(A, split, ("x", "y")) == sum(
                satisfies(A, {"x": x, "y": y}, split) for x in range(4) for y in range(4)
            )
            assert count_satisfying(A, walk, ("x",)) == int(reach.sum())
        finally:
            sys.setrecursionlimit(default)


class TestExampleFamily:
    def test_first_indices(self):
        assert gen_example_structure(1).size == 2
        assert gen_example_structure(2).size == 3
        assert gen_example_structure(4).size == 4

    def test_odd_is_chain(self):
        A5 = gen_example_structure(5)
        assert A5.size == 4
        assert relation_tuples(A5)["lt"] == frozenset(
            (i, j) for i in range(4) for j in range(i + 1, 4)
        )

    def test_even_has_isolated_point(self):
        A2 = gen_example_structure(2)
        assert relation_tuples(A2)["lt"] == frozenset({(0, 1)})

    def test_strict_order_is_transitive_irreflexive(self):
        for n in range(1, 9):
            A = gen_example_structure(n)
            lt = relation_tuples(A)["lt"]
            assert all((i, i) not in lt for i in range(A.size))
            for (i, j), (k, l) in itertools.product(lt, repeat=2):
                if j == k:
                    assert (i, l) in lt

    def test_closed_form_counts(self):
        psi = maximal_not_maximum()
        for n in range(1, 13):
            A = gen_example_structure(n)
            expected = 0 if n % 2 == 1 else 2
            assert count_satisfying(A, psi, ["x"]) == expected

    def test_oversized_index_is_a_size_error(self):
        # 46338 is the first index whose lt table exceeds the tensor guard:
        # |A| = 23171 and 23171**2 > MAX_TENSOR_CELLS >= 23170**2
        assert 23171**2 > fo.MAX_TENSOR_CELLS >= 23170**2
        tracemalloc.start()
        try:
            for n in (46338, 46339, 100_000_000):
                with pytest.raises(SizeError, match=f"family index {n} gives"):
                    gen_example_structure(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bad_index(self):
        with pytest.raises(DomainError):
            gen_example_structure(0)

    def test_matches_the_tuple_reference(self):
        for n in range(1, 41):
            A, expected = gen_example_structure(n), reference_fence(n)
            assert A == expected and relation_tuples(A) == relation_tuples(expected)
            text = format_structure(A)
            assert text == format_structure(expected)
            assert format_structure(parse_structure(text)) == text

    def test_peak_memory_is_one_table(self):
        # one byte per cell of the lt table, not |A|**2 / 2 Python tuples
        tracemalloc.start()
        try:
            A = gen_example_structure(4001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.size == 2002
        assert peak < 2 * A.size**2


UNARY_TERNARY_SIG = Signature((("u", 1), ("r", 2), ("t", 3)))


@st.composite
def tuple_sets(draw):
    """A universe size and a tuple set for each of u/1, r/2 and t/3."""
    n = draw(st.integers(1, 6))
    point = st.integers(0, n - 1)
    return n, {
        name: draw(st.frozensets(st.tuples(*[point] * arity), max_size=n**arity))
        for name, arity in UNARY_TERNARY_SIG.relations
    }


class TestStructureConstructor:
    """Validation messages, the size guard, and the tables against the tuple
    sets they are built from."""

    def test_wrong_arity(self):
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 3, {"lt": frozenset({(0, 1, 2)})})
        assert str(exc.value) == "tuple (0, 1, 2) has wrong arity for lt/2"

    def test_mixed_arities_name_the_wrong_one(self):
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 3, {"lt": [(0, 1), (2,), (1, 2)]})
        assert str(exc.value) == "tuple (2,) has wrong arity for lt/2"

    def test_out_of_range(self):
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 2, {"lt": frozenset({(0, 5)})})
        assert str(exc.value) == "tuple (0, 5) out of range for universe 2"
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 2, {"lt": [(0, 1), (-1, 0)]})
        assert str(exc.value) == "tuple (-1, 0) out of range for universe 2"
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 2, {"lt": [(0, 10**30)]})
        assert str(exc.value) == f"tuple (0, {10**30}) out of range for universe 2"

    def test_non_integer_entries(self):
        cases = [
            ([(0.5, 1)], "tuple (0.5, 1) of lt/2 holds 0.5, not an integer"),
            ([(1.0, 1)], "tuple (1.0, 1) of lt/2 holds 1.0, not an integer"),
            ([(0, 1), ("a", 1)], "tuple ('a', 1) of lt/2 holds 'a', not an integer"),
            ([(None, 1), (0, 1)], "tuple (None, 1) of lt/2 holds None, not an integer"),
            ([(0, 1), (np.float64(1), 0)], "tuple (np.float64(1.0), 0) of lt/2 holds np.float64(1.0), not an integer"),
            ([(0, 1, 0), (0.5, 1)], "tuple (0, 1, 0) has wrong arity for lt/2"),
        ]
        for items, message in cases:
            with pytest.raises(DomainError) as exc:
                FiniteStructure(POSET, 2, {"lt": items})
            assert str(exc.value) == message

    def test_bare_items_are_refused(self):
        unary = Signature((("u", 1),))
        cases = [
            ([5], "item 5 of u/1 is not a tuple"),
            ([1], "item 1 of u/1 is not a tuple"),  # in range, but not a tuple
            ([(0,), "a"], "item 'a' of u/1 is not a tuple"),
            ([(0,), None], "item None of u/1 is not a tuple"),
        ]
        for items, message in cases:
            with pytest.raises(DomainError) as exc:
                FiniteStructure(unary, 3, {"u": items})
            assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 3, {"lt": [(0, 1), "12"]})
        assert str(exc.value) == "item '12' of lt/2 is not a tuple"

    def test_integer_kinds_build_the_same_table(self):
        expected = FiniteStructure(POSET, 2, {"lt": [(0, 1)]})
        for items in (
            [(False, True)],
            [(np.int64(0), np.int32(1))],
            [(np.uint64(0), np.int64(1))],  # numpy types this pair as float64
            [(np.False_, 1), (0, 1)],
            [np.array([0, 1])],
        ):
            A = FiniteStructure(POSET, 2, {"lt": items})
            assert A == expected and relation_tuples(A) == {"lt": frozenset({(0, 1)})}, items

    def test_relation_not_in_signature(self):
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 2, {"lt": frozenset(), "edge": frozenset({(0, 1)})})
        assert str(exc.value) == "relations not in signature: ['edge']"

    def test_empty_universe(self):
        with pytest.raises(DomainError) as exc:
            FiniteStructure(POSET, 0, {"lt": frozenset()})
        assert str(exc.value) == "universe must be nonempty"

    def test_oversized_table_is_a_size_error_before_allocating(self):
        n = 23171  # n**2 > MAX_TENSOR_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(SizeError) as exc:
                FiniteStructure(POSET, n, {"lt": frozenset({(0, 1)})})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith(f"relation lt/2 on |A| = {n} would take {n**2} bytes")
        assert peak < 2**20

    def test_from_tables_errors(self):
        square = np.zeros((3, 3), dtype=bool)
        cases = [
            ({"lt": square, "edge": square}, "relations not in signature: ['edge']"),
            ({}, "no table for relation lt/2"),
            ({"lt": square.astype(np.int8)}, "table for lt/2 is dtype int8, not a boolean array"),
            ({"lt": [[False]]}, "table for lt/2 is list, not a boolean array"),
            ({"lt": np.zeros(3, dtype=bool)}, "table for lt/2 has shape (3,), not 2 equal axes"),
            ({"lt": np.zeros((3, 2), dtype=bool)}, "table for lt/2 has shape (3, 2), not 2 equal axes"),
            ({"lt": np.zeros((0, 0), dtype=bool)}, "universe must be nonempty"),
        ]
        for tables, message in cases:
            with pytest.raises(DomainError) as exc:
                FiniteStructure.from_tables(POSET, tables)
            assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            FiniteStructure.from_tables(Signature(()), {})
        assert str(exc.value) == "an empty signature has no table to give the universe size"
        with pytest.raises(DomainError) as exc:
            FiniteStructure.from_tables(
                UNARY_TERNARY_SIG,
                {
                    "u": np.zeros(3, dtype=bool),
                    "r": np.zeros((3, 3), dtype=bool),
                    "t": np.zeros((2, 2, 2), dtype=bool),
                },
            )
        assert str(exc.value) == "table for t/3 has axes of 2, not the |A| = 3 of the tables before it"

    def test_tables_are_read_only(self):
        lt = np.zeros((2, 2), dtype=bool)
        A = FiniteStructure.from_tables(POSET, {"lt": lt})
        B = FiniteStructure(POSET, 2, {"lt": {(0, 1)}})
        for table in (A.tables["lt"], B.tables["lt"], lt):
            with pytest.raises(ValueError):
                table[0, 0] = True

    @settings(max_examples=150, deadline=None)
    @given(tuple_sets(), formulas(ternary=True))
    def test_tuples_and_tables_agree(self, drawn, phi):
        n, tuples = drawn
        A = FiniteStructure(UNARY_TERNARY_SIG, n, tuples)
        assert relation_tuples(A) == tuples
        tables = {}
        for name, arity in UNARY_TERNARY_SIG.relations:
            tables[name] = np.zeros((n,) * arity, dtype=bool)
            for t in tuples[name]:
                tables[name][t] = True
        B = FiniteStructure.from_tables(UNARY_TERNARY_SIG, tables)
        assert A == B and relation_tuples(B) == tuples
        text = format_structure(A)
        assert parse_structure(text) == A and format_structure(parse_structure(text)) == text
        ctx = ("x", "y")
        for psi in (phi, Or(Atom("u", ("x",)), phi)):
            expected = sum(
                1
                for t in itertools.product(range(n), repeat=2)
                if satisfies(A, dict(zip(ctx, t)), psi)
            )
            assert count_satisfying(A, psi, ctx) == count_satisfying(B, psi, ctx) == expected


class TestStructureFormat:
    def test_documented_example(self):
        A = parse_structure(
            "signature: lt/2\nuniverse: 4\nlt = {(0,1),(0,2),(1,2)}\n"
        )
        assert A.size == 4
        assert relation_tuples(A)["lt"] == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_round_trip(self):
        A = gen_example_structure(4)
        assert parse_structure(format_structure(A)) == A

    def test_omitted_relation_is_empty(self):
        A = parse_structure("signature: lt/2\nuniverse: 2\n")
        assert relation_tuples(A)["lt"] == frozenset()

    def test_out_of_range_tuple(self):
        with pytest.raises(ParseError) as exc:
            parse_structure("signature: lt/2\nuniverse: 2\nlt = {(0,5)}\n")
        assert str(exc.value) == "3:7: tuple (0, 5) out of range for universe 2"

    def test_faults_are_positioned(self):
        cases = {
            "signature: lt/2\nuniverse: 3\n\n  lt = {(0,1), (1, 2,0)}  # two\n": (
                4, 16, "tuple (1, 2, 0) has wrong arity for lt/2"
            ),
            "lt = {(0,1),(1,3)}\nmark = {(2)}\nuniverse: 3\nsignature: lt/2, mark/1\n": (
                1, 13, "tuple (1, 3) out of range for universe 3"
            ),
            "signature: lt/2\n# empty\nuniverse: 0\nlt = {}\n": (
                3, 11, "universe must be nonempty"
            ),
            "signature: lt/2\nuniverse: 2\nlt = {(0,1)}\nedge = {(0,1)}\n": (
                4, 1, "relations not in signature: ['edge']"
            ),
            "signature: lt/2\nuniverse: ²\n": (2, 11, "universe must be a nonnegative integer"),
        }
        for text, (line, column, message) in cases.items():
            with pytest.raises(ParseError) as exc:
                parse_structure(text)
            assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)

    def test_text_between_tuples_is_positioned(self):
        head = "signature: lt/2\nuniverse: 3\n"
        cases = {
            "lt = {x(0,1) junk (1,2)}": 7,
            "lt = {(0,1) junk (1,2)}": 13,
            "  lt = {(0,1), (1,2) ;}": 22,
            "lt = {(0,1)} (1,2)}": 12,
            "lt = {(0,1), (1,x)}": 14,
            "lt = { , }": 8,
        }
        for body, column in cases.items():
            with pytest.raises(ParseError) as exc:
                parse_structure(head + body + "\n")
            assert (exc.value.line, exc.value.column, exc.value.message) == (
                3, column, "malformed tuple set"
            ), body

    def test_separators_between_tuples(self):
        for body in ("{(0,1),(1,2)}", "{ (0,1) , (1,2), }", "{(0,1) (1,2)}", "{}", "{ }"):
            A = parse_structure(f"signature: lt/2\nuniverse: 3\nlt = {body}\n")
            expected = frozenset() if "(" not in body else frozenset({(0, 1), (1, 2)})
            assert relation_tuples(A)["lt"] == expected, body

    def test_unary_relation(self):
        A = parse_structure("signature: mark/1\nuniverse: 3\nmark = {(0),(2)}\n")
        assert relation_tuples(A)["mark"] == frozenset({(0,), (2,)})

    def test_comments(self):
        A = parse_structure("# poset\nsignature: lt/2\nuniverse: 2\nlt = {(0,1)}\n")
        assert A.size == 2


class TestSignature:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError):
            Signature((("r", 2), ("r", 1)))

    def test_zero_arity_rejected(self):
        with pytest.raises(DomainError):
            Signature((("p", 0),))


class TestFormulaHash:
    """Each node keeps the hash it computed at construction: equal formulas
    hash alike without a walk of the tree and share one plan."""

    TEXT = "exists z. lt(x, z) & !(z = y) | forall w. lt(w, y) -> x = w"

    def test_equal_formulas_parsed_apart_hash_alike(self):
        a, b = parse_formula(self.TEXT, POSET), parse_formula(self.TEXT, POSET)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == a._hash
        assert hash(Atom("lt", ("x", "y"))) != hash(Atom("lt", ("y", "x")))
        # a node's class is part of its hash
        assert hash(And(TRUE, FALSE)) != hash(Or(TRUE, FALSE))
        assert And(TRUE, FALSE) != Or(TRUE, FALSE)
        assert len({And(TRUE, FALSE), Or(TRUE, FALSE), And(TRUE, FALSE)}) == 2

    @given(formulas(depth=4))
    def test_hash_of_a_rebuilt_tree(self, phi):
        rebuilt = parse_formula(str(phi), BINARY_SIG)
        assert rebuilt == phi and hash(rebuilt) == hash(phi)

    def test_copies_keep_the_hash(self):
        phi = parse_formula(self.TEXT, POSET)
        for twin in (pickle.loads(pickle.dumps(phi)), copy.copy(phi), copy.deepcopy(phi)):
            assert twin == phi and hash(twin) == hash(phi)

    def test_equal_formulas_share_one_plan(self):
        A = gen_example_structure(5)
        ctx = ("x", "y")
        a, b = parse_formula(self.TEXT, POSET), parse_formula(self.TEXT, POSET)
        expected = count_satisfying(A, a, ctx)
        before = fo._plan.cache_info()
        assert count_satisfying(A, b, ctx) == expected
        after = fo._plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_formulas_at_the_nesting_limit_hash_count_and_pair(self):
        limit = fo.MAX_NESTING
        A = gen_example_structure(4)  # 3-chain plus an isolated point
        default = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # Python's default
        try:
            for text, expected in (
                ("!" * limit + "lt(x, y)", 3),
                ("x = x & " * limit + "lt(x, y)", 3),
                ("exists z. " * limit + "lt(x, y)", 3),
                ("lt(x, y) -> " * limit + "x = y", 13),
            ):
                a, b = parse_formula(text, POSET), parse_formula(text, POSET)
                assert hash(a) == hash(b)
                assert count_satisfying(A, a, ("x", "y")) == expected, text[:20]
                # the second lookup compares the two trees, node by node
                r = pairing.stone_pairing(A, b, ("x", "y"))
                assert (r.count, r.total) == (expected, 16)
        finally:
            sys.setrecursionlimit(default)


# -- counting a stack of structures ---------------------------------------------------

STACK_SIG = Signature((("r", 2), ("lt", 2), ("t", 3)))
STACK_CONTEXTS = (("x", "y"), ("x",), (), ("y", "x", "w"))


def _stack_formula(rng: random.Random, depth: int, scope: tuple[str, ...]) -> fo.Formula:
    """A random formula over ``STACK_SIG`` and equality whose atoms draw
    their arguments from ``scope``, so that r(x, x) and t(y, x, y) occur."""
    def var() -> str:
        return scope[rng.randrange(len(scope))]

    if depth == 0 or rng.randrange(3) == 0:
        kind = rng.randrange(6)
        if kind < 2:
            return (TRUE, FALSE)[kind]
        if kind == 2:
            return Eq(var(), var())
        if kind == 3:
            return Atom("t", (var(), var(), var()))
        return Atom(("r", "lt")[kind - 4], (var(), var()))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_stack_formula(rng, depth - 1, scope))
    if kind <= 3:
        ctor = (And, Or, Implies)[kind - 1]
        return ctor(_stack_formula(rng, depth - 1, scope), _stack_formula(rng, depth - 1, scope))
    bound = f"z{len(scope)}"
    body = _stack_formula(rng, depth - 1, scope + (bound,))
    return (Exists, Forall)[kind - 4](bound, body)


# literals each mentioning z and at most one of x, y: a quantifier over z
# of a junction of them contracts
STACK_LITERALS = ("r(x,z)", "lt(z,x)", "r(z,y)", "lt(y,z)", "t(z,x,z)", "r(z,z)", "z = y")


def _shaped_stack_formula(rng: random.Random) -> fo.Formula:
    literals = [
        ("!" if rng.randrange(2) else "") + rng.choice(STACK_LITERALS) for _ in range(rng.randrange(2, 5))
    ]
    body = literals[0]
    for literal in literals[1:]:
        body = f"({body} {rng.choice('&|')} {literal})"
    return parse_formula(f"{rng.choice(('exists', 'forall'))} z. {body}", STACK_SIG)


def _stack_members(rng: random.Random, sizes: Sequence[int]) -> list[FiniteStructure]:
    """Structures over ``STACK_SIG`` of the given sizes, each relation
    holding each tuple with a probability drawn per table."""
    tables = np.random.default_rng(rng.randrange(2**32))
    return [
        FiniteStructure.from_tables(STACK_SIG, {
            name: tables.random((n,) * arity) < tables.random()
            for name, arity in STACK_SIG.relations
        })
        for n in sizes
    ]


def _nodes(node: tuple) -> Iterator[tuple]:
    """The plan node and every node below it."""
    yield node
    op = node[0]
    children = (node[1], node[3]) if op <= fo._OR else node[1:3] if op == fo._CONTRACT else (
        node[1:2] if op in (fo._NOT, fo._ANY, fo._ALL) else ()
    )
    for child in children:
        yield from _nodes(child)


def _plan_features(phi: fo.Formula, ctx: tuple[str, ...]) -> set[str]:
    """Which of the cases a stacked count must get right the plan meets."""
    node, axes = fo._plan(phi, ctx)[:2]
    ops = {n[0] for n in _nodes(node)}
    features = set()
    if fo._CONTRACT in ops:
        features.add("contraction")
    if fo._EYE in ops:
        features.add("equality")
    if node in (fo._TRUE_NODE, fo._FALSE_NODE):
        features.add("constant")
    elif not ctx:
        features.add("sentence")
    if len(axes) < len(ctx):
        features.add("unused context variable")
    if any(n[0] == fo._VIEW and n[3] for n in _nodes(node)):
        features.add("repeated argument")
    return features


class TestStackedCounting:
    """``count_satisfying_stack`` and one stacked evaluation (``_count_stack``)
    against ``count_satisfying`` on each member."""

    def test_seeded_corpus_matches_per_member_counts(self):
        rng = random.Random(26)
        met: Counter = Counter()
        for case in range(800):
            ctx = STACK_CONTEXTS[case % len(STACK_CONTEXTS)]
            if case % 3 == 2 and "y" in ctx:
                phi = _shaped_stack_formula(rng)
            else:
                phi = _stack_formula(rng, rng.randrange(1, 6), ctx or ("x",))
            if not ctx:
                phi = Exists("x", phi)
            members = _stack_members(rng, [rng.randrange(1, 10) for _ in range(rng.randrange(2, 7))])
            expected = [count_satisfying(A, phi, ctx) for A in members]
            assert fo._count_stack(members, phi, ctx) == expected, (phi, ctx)
            assert fo.count_satisfying_stack(iter(members), phi, ctx) == expected, (phi, ctx)
            met.update(_plan_features(phi, ctx))
        # every case the stack must get right occurs, each many times
        assert set(met) == {
            "contraction", "equality", "constant", "sentence", "unused context variable",
            "repeated argument",
        }
        assert min(met.values()) >= 20, met

    @settings(max_examples=200, deadline=None)
    @given(st.lists(structures(max_size=9), min_size=2, max_size=6), shaped_formulas())
    def test_contractions_match_per_member_counts(self, members, phi):
        for ctx in (("x", "y"), ("y", "x", "w")):
            expected = [count_satisfying(A, phi, ctx) for A in members]
            assert fo._count_stack(members, phi, ctx) == expected
            assert fo.count_satisfying_stack(members, phi, ctx) == expected

    def test_no_member_no_count(self):
        assert fo.count_satisfying_stack([], TRUE, ("x",)) == []

    @pytest.mark.parametrize("text", [
        "exists z. r(x,z) & r(z,y)",  # a contraction
        "forall z. r(x,z) | lt(z,y)",  # the dual contraction
        "forall y. r(x,y)",  # a masked reduction of a table
        "exists y. !(x = y) & !r(y,x)",  # the identity
        "t(x,y,x) | exists z. t(x,z,y) & !r(z,z)",  # a diagonal, width 3
        "x = y",  # a view counted through numpy's count buffer
        "lt(x,y)",  # a table counted through it
    ])
    def test_charge_bounds_the_traced_peak(self, text):
        rng = random.Random(7)
        members = _stack_members(rng, [40, 33, 27, 40, 12, 39, 40, 1])
        phi = parse_formula(text, STACK_SIG)
        ctx = ("x", "y")
        expected = [count_satisfying(A, phi, ctx) for A in members]
        tracemalloc.start()
        try:
            assert fo._count_stack(members, phi, ctx) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        charge = fo._stack_bytes(len(members), 40, STACK_SIG, fo._plan(phi, ctx))
        # the charge counts the members' own tables, which exist before the call
        held = len(members) * sum(40**arity for _, arity in STACK_SIG.relations)
        assert peak <= charge - held

    def test_a_member_is_checked_before_the_next_is_drawn(self):
        # the second member lacks lt, and drawing a third would fail
        A = gen_example_structure(3)
        no_lt = FiniteStructure(BINARY_SIG, 2, {})
        drawn = []

        def members():
            for B in (A, no_lt):
                drawn.append(B)
                yield B
            raise AssertionError("a third member was drawn")

        with pytest.raises(DomainError) as exc:
            fo.count_satisfying_stack(members(), maximal_not_maximum(), ("x",))
        assert str(exc.value) == "structure has no relation lt/2"
        assert drawn == [A, no_lt]

    def test_a_member_past_the_budget_is_refused_with_its_own_charge(self, monkeypatch):
        psi = maximal_not_maximum()
        members = [gen_example_structure(n) for n in (1, 30, 2)]
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 2 * 17**2 - 1)  # member 30 has 17 elements
        with pytest.raises(SizeError) as exc:
            fo.count_satisfying_stack(members, psi, ("x",))
        assert str(exc.value) == "the counting tensors would take 578 bytes; the guard is 577"
        with pytest.raises(SizeError) as exc:
            count_satisfying(members[1], psi, ("x",))
        assert str(exc.value) == "the counting tensors would take 578 bytes; the guard is 577"

    def test_a_stack_past_the_budget_is_refused_with_its_own_charge(self, monkeypatch):
        # members of 3, 4 and 4 elements, padded to 4: 264 bytes, and the
        # stack's one count buffer of 8 * 8192 bytes
        assert np.getbufsize() == 8192
        members = [gen_example_structure(n) for n in (3, 5, 4)]
        psi = maximal_not_maximum()
        expected = [count_satisfying(A, psi, ("x",)) for A in members]
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 65799)
        with pytest.raises(SizeError) as exc:
            fo._count_stack(members, psi, ("x",))
        assert str(exc.value) == (
            "the stacked counting tensors would take 65800 bytes; the guard is 65799"
        )
        # the sequence caps its stacks at the budget, so it never meets the refusal
        assert fo.count_satisfying_stack(members, psi, ("x",)) == expected

    def test_members_of_another_signature_start_a_stack(self, monkeypatch):
        stacks = []
        count_stack = fo._count_stack
        monkeypatch.setattr(fo, "_count_stack", lambda m, *a: stacks.append(len(m)) or count_stack(m, *a))
        poset = [gen_example_structure(n) for n in (1, 2, 3)]
        other = FiniteStructure(Signature((("lt", 2), ("r", 2))), 3, {"lt": {(0, 1)}})
        phi = parse_formula("exists y. lt(x,y)", POSET)
        members = [*poset, other, *poset]
        expected = [count_satisfying(A, phi, ("x",)) for A in members]
        assert fo.count_satisfying_stack(members, phi, ("x",)) == expected
        assert stacks == [3, 1, 3]
