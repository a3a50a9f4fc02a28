"""Lattice validation, irreducibles, kappa, prime filters, homs, file format."""

import io
import itertools
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceLattice,
    diamond_m3,
    identity_hom,
    reference_check_hom,
    reference_covers,
    reference_distributivity,
    reference_from_subsets,
    reference_product_lattice,
    small_lattice_corpus,
)
from stonepair import fo
from stonepair.cli import run
from stonepair.errors import (
    DomainError,
    InternalInvariantError,
    LatticeError,
    ParseError,
    SizeError,
)
from stonepair.lattice import (
    FiniteLattice,
    LatticeHom,
    PrimeFilter,
    boolean_algebra,
    chain,
    check_hom,
    format_lattice,
    from_subsets,
    parse_lattice,
    product_lattice,
)


def naive_placements(L: FiniteLattice) -> list[tuple]:
    """The grid search's schedule by loops: each element but bottom and top,
    in index order, with the placed elements below and above it and the
    incomparable quads (a, b, a ^ b, a v b) it is the last free member of."""
    placed = [L.bottom, L.top]
    quads = [
        (a, b, L.meet(a, b), L.join(a, b))
        for a in range(L.n) for b in range(L.n) if not (L.leq(a, b) or L.leq(b, a))
    ]
    out = []
    for e in range(L.n):
        if e in (L.bottom, L.top):
            continue
        below = sorted(d for d in placed if L.leq(d, e))
        above = sorted(d for d in placed if L.leq(e, d))
        tests = [q for q in quads if max(x for x in q if x not in (L.bottom, L.top)) == e]
        out.append((e, below, above, tests))
        placed.append(e)
    return out


PAIR_TABLES = ("_comparable", "_incomparable", "_placements")


class TestPairTables:
    @pytest.mark.parametrize("L", small_lattice_corpus(max_size=12), ids=lambda L: f"n{L.n}")
    def test_tables_against_loops(self, L):
        n = L.n
        assert L._comparable.T.tolist() == [[a, b] for a in range(n) for b in range(n) if L.leq(a, b)]
        assert L._incomparable.T.tolist() == [
            [a, b, L.meet(a, b), L.join(a, b)]
            for a in range(n) for b in range(n) if not (L.leq(a, b) or L.leq(b, a))
        ]
        got = [(e, below.tolist(), above.tolist(), tests.T.tolist()) for e, below, above, tests in L._placements]
        assert got == [(e, below, above, [list(q) for q in tests]) for e, below, above, tests in naive_placements(L)]

    @pytest.mark.parametrize("name", PAIR_TABLES)
    def test_built_once_and_read_only(self, name):
        L = boolean_algebra(3)
        table = getattr(L, name)
        assert getattr(L, name) is table
        arrays = [a for _, *rest in table for a in rest] if name == "_placements" else [table]
        assert arrays and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("name", PAIR_TABLES)
    def test_charged_before_built(self, name, monkeypatch):
        # the lattice's own tables, and the pair table a schedule reads, are
        # built under the full budget; the table itself is then refused
        # before it allocates what it charges
        L = boolean_algebra(6)
        L._order_arrays
        if name == "_placements":
            L._incomparable
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(SizeError) as exc:
                getattr(L, name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        charge = int(re.search(r"would take (\d+) bytes", str(exc.value)).group(1))
        assert peak < charge, (str(exc.value), peak)
        assert name not in vars(L)
        monkeypatch.undo()
        assert len(getattr(L, name))

    def test_a_poset_without_a_meet_caches_no_pair_table(self):
        # c and d have the two maximal lower bounds a and b
        L = FiniteLattice(list("0abcd1"), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
        for name in PAIR_TABLES:
            with pytest.raises(LatticeError, match=r"^no meet for \(c, d\)$"):
                getattr(L, name)
        assert not set(PAIR_TABLES) & set(vars(L))


# name: (labels, relation, validate(), the error of _order_arrays or None)
PINNED_POSETS = {
    "diamond": (
        ["0", "x", "y", "z", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
        [f"distributivity fails on ({a}, {b}, {c})" for a, b, c in itertools.permutations("xyz")],
        None,
    ),
    "pentagon": (
        ["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
        ["distributivity fails on (b, a, c)", "distributivity fails on (b, c, a)"],
        None,
    ),
    "missing-top": (
        ["0", "l", "r"], [(0, 1), (0, 2)],
        ["no top element", "no join for (l, r)"],
        "no join for (l, r)",
    ),
    "two-cycle": (["a", "b"], [(0, 1), (1, 0)], ["antisymmetry fails: a <= b <= a"], None),
    "three-cycle-with-tail": (
        ["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 0), (2, 3)],
        [
            "antisymmetry fails: a <= b <= a",
            "antisymmetry fails: a <= c <= a",
            "antisymmetry fails: b <= c <= b",
        ],
        None,
    ),
    "two-bottoms": (
        ["l", "r", "1"], [(0, 2), (1, 2)],
        ["no bottom element", "no meet for (l, r)"],
        "no meet for (l, r)",
    ),
    "bowtie": (
        ["l1", "r1", "l2", "r2"], [(0, 2), (0, 3), (1, 2), (1, 3)],
        [
            "no bottom element",
            "no top element",
            "no meet for (l1, r1)",
            "no join for (l1, r1)",
            "no meet for (l2, r2)",
            "no join for (l2, r2)",
        ],
        "no meet for (l1, r1)",
    ),
}


class TestPinnedFailures:
    """Exact messages, in order, for posets that are not distributive lattices."""

    @pytest.mark.parametrize("name", PINNED_POSETS)
    def test_validate_lists(self, name):
        labels, relation, expected, _ = PINNED_POSETS[name]
        assert FiniteLattice(labels, relation).validate() == expected

    @pytest.mark.parametrize("name", PINNED_POSETS)
    def test_order_arrays_error(self, name):
        labels, relation, _, error = PINNED_POSETS[name]
        L = FiniteLattice(labels, relation)
        if error is None:
            L._order_arrays
        else:
            with pytest.raises(LatticeError) as exc:
                L._order_arrays
            assert str(exc.value) == error

    @pytest.mark.parametrize("name", PINNED_POSETS)
    def test_cli_error_line(self, name, tmp_path):
        labels, relation, expected, _ = PINNED_POSETS[name]
        path = tmp_path / "bad.lat"
        path.write_text(
            "elements: " + ", ".join(labels) + "\norder: "
            + ", ".join(f"{labels[a]}<={labels[b]}" for a, b in relation) + "\n"
        )
        for argv in (["soundness", "--grid", "1"], ["entail", "--grid", "1", "--lhs", "true", "--rhs", "true"]):
            out, err = io.StringIO(), io.StringIO()
            assert run([argv[0], "--lattice", str(path), *argv[1:]], out, err) == 1
            assert (out.getvalue(), err.getvalue()) == ("", "error: " + "; ".join(expected) + "\n")


class TestValidation:
    def test_boolean_four_ok(self):
        assert boolean_algebra(2).validate() == []

    def test_diamond_fails_distributivity(self):
        problems = diamond_m3().validate()
        assert problems
        assert all("distributivity" in p for p in problems)

    def test_three_chain_ok(self):
        assert chain(3).validate() == []

    def test_missing_top(self):
        # two maximal elements, no join
        L = FiniteLattice(["0", "l", "r"], [(0, 1), (0, 2)])
        problems = L.validate()
        assert any("no top" in p for p in problems)
        assert any("no join" in p for p in problems)

    def test_antisymmetry_reported(self):
        L = FiniteLattice(["a", "b"], [(0, 1), (1, 0)])
        assert any("antisymmetry" in p for p in L.validate())

    def test_corpus_valid(self):
        for L in small_lattice_corpus():
            assert L.validate() == []

    def test_distributivity_against_the_cubic_loop(self):
        pentagon = FiniteLattice(["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
        # M3 with a new top over it, as an inclusion order
        diamond_below_top = from_subsets(
            [frozenset(s) for s in ((), (1,), (2,), (3,), (1, 2, 3), (1, 2, 3, 4))]
        )
        for L in (diamond_m3(), pentagon, diamond_below_top):
            expected = reference_distributivity(L)
            assert expected and L.validate() == expected, L.labels
        for L in small_lattice_corpus() + [boolean_algebra(6)]:
            assert reference_distributivity(L) == [] == L.validate()

    def test_distributivity_pass_is_budgeted(self, monkeypatch):
        # the two n**3 tables of the pass, eight bytes a cell
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 2 * 8 * 4**3 - 1)
        assert boolean_algebra(1).validate() == []
        with pytest.raises(SizeError, match="the distributivity check would take 1024 bytes"):
            boolean_algebra(2).validate()


class TestMeetJoin:
    def test_chain_is_min_max(self):
        L = chain(5)
        for a in range(5):
            for b in range(5):
                assert L.meet(a, b) == min(a, b)
                assert L.join(a, b) == max(a, b)

    def test_boolean_complement_meets_to_bottom(self):
        B = boolean_algebra(2)
        a, na = B.index_of("a"), B.index_of("b")
        assert B.meet(a, na) == B.bottom
        assert B.join(a, na) == B.top

    def test_top_is_meet_neutral(self):
        for L in small_lattice_corpus(max_size=8):
            for a in range(L.n):
                assert L.meet(a, L.top) == a
                assert L.join(a, L.bottom) == a

    def test_missing_meet_raises(self):
        L = FiniteLattice(["l", "r"], [])
        with pytest.raises(LatticeError):
            L.meet(0, 1)

    def test_a_failing_lattice_builds_its_tables_once(self, monkeypatch):
        # two bottoms e0, e1 under the chain e2 < ... < e119
        labels = [f"e{i}" for i in range(120)]
        L = FiniteLattice(labels, [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, 119)])
        packbits, calls = np.packbits, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return packbits(*args, **kwargs)

        monkeypatch.setattr(np, "packbits", counted)
        assert L.validate() == ["no bottom element", "no meet for (e0, e1)"]
        with pytest.raises(LatticeError, match=r"^no meet for \(e0, e1\)$"):
            L._order_arrays
        for _ in range(20):
            with pytest.raises(LatticeError, match=r"^no meet for \(e0, e1\)$"):
                L.meet(0, 1)
        # one down-set and one up-set packing, both tables in one pass
        assert calls == [(120, 120), (120, 120)]


def cover_lists(L: FiniteLattice) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Each element's lower and upper covers, read off the columns and the
    rows of ``_cover_table``."""
    covers = L._cover_table()
    return tuple([tuple(np.flatnonzero(c).tolist()) for c in t] for t in (covers.T, covers))


class TestIrreducibles:
    def test_two_chain(self):
        L = chain(2)
        assert L.join_irreducibles() == (1,)
        assert L.meet_irreducibles() == (0,)

    def test_boolean_four(self):
        B = boolean_algebra(2)
        assert set(B.join_irreducibles()) == {B.index_of("a"), B.index_of("b")}
        assert set(B.meet_irreducibles()) == {B.index_of("a"), B.index_of("b")}

    def test_adjoined_top_chain(self):
        # 0 < 1/n < ... < 1 < T: meet-irreducibles all but T, join all but 0
        from stonepair.chains import chain_lattice

        L = chain_lattice(4)
        assert L.join_irreducibles() == tuple(range(1, 6))
        assert L.meet_irreducibles() == tuple(range(0, 5))

    def test_covers_against_the_cubic_scan(self):
        lattices = [chain(n) for n in (1, 2, 3, 7, 24)]
        lattices += [boolean_algebra(3), boolean_algebra(6), diamond_m3()]
        lattices += [product_lattice(chain(2), chain(3)), product_lattice(chain(3), chain(4))]
        lattices += [
            from_subsets([frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 2}),
                          frozenset({0, 1, 2})]),
            from_subsets([frozenset(s) for s in ((), (1,), (2,), (1, 2), (1, 2, 3), (4,), (1, 4))]),
        ]
        for L in lattices:
            assert cover_lists(L) == reference_covers(L), L

    def test_irreducibles_are_computed_once(self):
        L = boolean_algebra(3)
        assert L.join_irreducibles() is L.join_irreducibles()
        assert L.meet_irreducibles() is L.meet_irreducibles()
        assert L.join_irreducibles() == (1, 2, 4)
        assert L.meet_irreducibles() == (3, 5, 6)

    def test_every_element_join_of_irreducibles(self):
        for L in small_lattice_corpus():
            J, M = L.join_irreducibles(), L.meet_irreducibles()
            for a in range(L.n):
                assert L.join_all(j for j in J if L.leq(j, a)) == a
                assert L.meet_all(m for m in M if L.leq(a, m)) == a


def kappa_oracle(L: FiniteLattice, j: int) -> int | None:
    """The unique element whose downset is {u : j not<= u}, if it exists."""
    want = frozenset(u for u in range(L.n) if not L.leq(j, u))
    for m in range(L.n):
        if L.downset(m) == want:
            return m
    return None


class TestKappa:
    def test_adjoined_top_chain_closed_form(self):
        from stonepair.chains import chain_lattice

        L = chain_lattice(4)
        # T maps to 1, a/4 maps to (a-1)/4
        assert L.kappa(5) == 4
        for a in range(1, 5):
            assert L.kappa(a) == a - 1

    def test_boolean_four_swaps_atoms(self):
        # frozen from the defining characterisation: u <= kappa(j) iff j not<= u
        B = boolean_algebra(2)
        a, b = B.index_of("a"), B.index_of("b")
        assert B.kappa(a) == b
        assert B.kappa(b) == a
        assert kappa_oracle(B, a) == b

    def test_two_chain(self):
        L = chain(2)
        assert L.kappa(1) == 0

    def test_not_join_irreducible(self):
        B = boolean_algebra(2)
        with pytest.raises(DomainError):
            B.kappa(B.top)

    def test_characterisation_exhaustive(self):
        for L in small_lattice_corpus(max_size=32):
            for j in L.join_irreducibles():
                k = L.kappa(j)
                assert k == kappa_oracle(L, j)
                for u in range(L.n):
                    assert L.leq(u, k) == (not L.leq(j, u))

    def test_bijection_and_order(self):
        for L in small_lattice_corpus(max_size=32):
            J, M = L.join_irreducibles(), L.meet_irreducibles()
            image = [L.kappa(j) for j in J]
            assert sorted(image) == sorted(M)
            for j1, j2 in itertools.product(J, repeat=2):
                if L.leq(j1, j2):
                    assert L.leq(L.kappa(j1), L.kappa(j2))
            for j in J:
                assert L.kappa_inverse(L.kappa(j)) == j

    def test_the_inverse_is_built_once(self, monkeypatch):
        from stonepair.chains import chain_lattice

        kappa, calls = FiniteLattice.kappa, []

        def counted(self, j):
            calls.append(j)
            return kappa(self, j)

        monkeypatch.setattr(FiniteLattice, "kappa", counted)
        L = chain_lattice(30)
        J = L.join_irreducibles()
        inverse = {m: L.kappa_inverse(m) for m in L.meet_irreducibles()}
        assert sorted(calls) == list(J)
        assert inverse == {kappa(L, j): j for j in J}

    def test_an_inverse_that_fails_fails_on_every_read(self):
        # kappa(x) on M3 is its top, which is not meet-irreducible
        M3 = diamond_m3()
        texts = []
        for _ in range(2):
            with pytest.raises(InternalInvariantError) as exc:
                M3.kappa_inverse(M3.index_of("x"))
            texts.append(str(exc.value))
        assert texts == ["kappa(x) = 1 is not meet-irreducible"] * 2


ACCESSORS = {
    "leq": lambda L, x: L.leq(x, 0),
    "leq-right": lambda L, x: L.leq(0, x),
    "meet": lambda L, x: L.meet(x, 0),
    "meet-right": lambda L, x: L.meet(0, x),
    "join": lambda L, x: L.join(x, 0),
    "join-right": lambda L, x: L.join(0, x),
    "upset": lambda L, x: L.upset(x),
    "downset": lambda L, x: L.downset(x),
    "kappa": lambda L, x: L.kappa(x),
    "kappa_inverse": lambda L, x: L.kappa_inverse(x),
}


class TestIndexRange:
    @pytest.mark.parametrize("name", ACCESSORS)
    @pytest.mark.parametrize("x", [-1, -3, 3, 2**70, -(2**70)])
    def test_outside_indices_are_refused(self, name, x):
        # no wrap-around for negative indices, no bare IndexError past n
        with pytest.raises(DomainError, match=f"element index {x} out of range for 3 elements"):
            ACCESSORS[name](chain(3), x)

    @pytest.mark.parametrize("name", ACCESSORS)
    def test_inside_indices_still_answer(self, name):
        # c1 is both join- and meet-irreducible on the 3-chain
        assert ACCESSORS[name](chain(3), 1) is not None


def brute_force_prime_filters(L: FiniteLattice) -> set[frozenset[int]]:
    found = set()
    for bits in range(1, 1 << L.n):
        members = frozenset(i for i in range(L.n) if bits >> i & 1)
        if not PrimeFilter(L, members).violations():
            found.add(members)
    return found


class TestPrimeFilters:
    def test_three_chain(self):
        L = chain(3, ["0", "d", "1"])
        filters = {pf.members for pf in L.prime_filters()}
        assert filters == {frozenset({1, 2}), frozenset({2})}

    def test_boolean_four(self):
        B = boolean_algebra(2)
        a, b = B.index_of("a"), B.index_of("b")
        filters = {pf.members for pf in B.prime_filters()}
        assert filters == {B.upset(a), B.upset(b)}

    def test_two_chain(self):
        L = chain(2)
        assert [pf.members for pf in L.prime_filters()] == [frozenset({1})]

    def test_against_brute_force(self):
        for L in small_lattice_corpus(max_size=9):
            expected = brute_force_prime_filters(L)
            got = {pf.members for pf in L.prime_filters()}
            assert got == expected
            assert len(got) == len(L.join_irreducibles())

    def test_violations_detects_non_filters(self):
        B = boolean_algebra(2)
        assert PrimeFilter(B, frozenset()).violations()
        assert PrimeFilter(B, frozenset(range(B.n))).violations()
        # {1} is a filter but not prime: a | b = 1 with neither member present
        assert PrimeFilter(B, frozenset({B.top})).violations()


class TestHoms:
    def test_identity_ok(self):
        B = boolean_algebra(2)
        assert check_hom(identity_hom(B)) == []

    def test_constant_to_top_violates(self):
        L = chain(2)
        h = LatticeHom(L, L, (1, 1))
        problems = check_hom(h)
        assert any("bottom" in p for p in problems)

    def test_chain_doubling_embedding(self):
        # 0 < 1/2 < 1 < T into 0 < 1/4 < ... < 1 < T, a/2 to 2a/4, T to T
        from stonepair.chains import chain_lattice

        L2, L4 = chain_lattice(2), chain_lattice(4)
        h = LatticeHom(L2, L4, (0, 2, 4, 5))
        assert check_hom(h) == []

    def test_composition(self):
        L = chain(3)
        h = identity_hom(L)
        assert check_hom(h.compose(h)) == []


class TestTextFormat:
    def test_round_trip(self):
        B = boolean_algebra(2)
        again = parse_lattice(format_lattice(B))
        assert again.labels == B.labels
        for a in range(B.n):
            for b in range(B.n):
                assert again.leq(a, b) == B.leq(a, b)

    def test_parse_takes_closure(self):
        L = parse_lattice("elements: a, b, c\norder: a<=b, b<=c\n")
        assert L.leq(0, 2)

    def test_comments_and_blanks(self):
        L = parse_lattice("# a chain\n\nelements: x, y\norder: x<=y\n")
        assert L.n == 2

    def test_requires_bounds(self):
        with pytest.raises(LatticeError):
            parse_lattice("elements: a, b\norder:\n")

    def test_unknown_element(self):
        with pytest.raises(ParseError) as exc:
            parse_lattice("elements: a, b\norder: a<=c\n")
        assert exc.value.line == 2

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_lattice("elephants: a\n")


class TestFactories:
    def test_product_of_chains(self):
        P = product_lattice(chain(2), chain(3))
        assert P.n == 6
        assert P.validate() == []

    def test_product_with_clashing_labels_is_numbered(self):
        # a_b_c is both a x b_c and a_b x c
        P = product_lattice(chain(2, ["a", "a_b"]), chain(2, ["b_c", "c"]))
        assert P.labels == ("p0", "p1", "p2", "p3")
        assert P.validate() == []

    def test_from_subsets(self):
        sets = [frozenset(), frozenset({0}), frozenset({0, 1})]
        L = from_subsets(sets)
        assert L.bottom == 0 and L.top == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: product_lattice(chain(2), chain(3)),
            lambda: product_lattice(chain(3), chain(4)),
            lambda: product_lattice(boolean_algebra(2), chain(3)),
        ]
        + [
            lambda k=k: from_subsets([
                frozenset(i for i in range(k) if bits >> i & 1) for bits in range(1 << k)
            ])
            for k in range(7)
        ],
        ids=["2x3", "3x4", "B4x3"] + [f"B{1 << k}" for k in range(7)],
    )
    def test_closed_order_matches_the_pair_list(self, make):
        # the factories hand their closed order over as it is; the
        # constructor closes the same order given as pairs
        L = make()
        M = FiniteLattice(L.labels, np.argwhere(L._leq).tolist())
        assert not L._leq.flags.writeable
        for got, want in zip(L._order_arrays, M._order_arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert L.validate() == M.validate() == []

    def test_closed_order_keeps_the_checks(self, monkeypatch):
        with pytest.raises(DomainError, match="element labels must be unique"):
            FiniteLattice._from_closed_order(["a", "a"], np.eye(2, dtype=bool))
        with pytest.raises(DomainError, match="at least one element"):
            from_subsets([])
        # the two factories charge the table before they build it
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 63)
        with pytest.raises(SizeError, match="the product order would take 64 bytes"):
            product_lattice(chain(2), chain(4))
        with pytest.raises(SizeError, match="the inclusion order would take 64 bytes"):
            from_subsets([frozenset(range(i)) for i in range(8)])

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_closed_order_needs_one_label_per_element(self, labels):
        with pytest.raises(DomainError, match=rf"{len(labels)} labels for an order table of shape \(2, 2\)"):
            from_subsets([frozenset(), frozenset({0})], labels)
        with pytest.raises(DomainError, match=rf"{len(labels)} labels for an order table of shape \(2, 2\)"):
            FiniteLattice._from_closed_order(labels, np.eye(2, dtype=bool))


# -- the array form against the bitmask-row references in conftest -------------------


@st.composite
def relations(draw, max_size: int = 7):
    """Labels and a relation on them: an arbitrary relation (cycles are
    likely), an acyclic one, or the inclusion order of a family of subsets:
    of {0, 1, 2}, closed under union and intersection (a distributive
    lattice), or of {0, 1, 2, 3}, closed under intersection with the full
    set added (a lattice, M3 and the pentagon among them)."""
    kind = draw(st.integers(0, 3))
    if kind >= 2:
        points = 3 if kind == 2 else 4
        family = set(draw(st.lists(st.frozensets(st.integers(0, points - 1)), min_size=1, max_size=4)))
        if kind == 3:
            family.add(frozenset(range(points)))
        while True:
            closed = family | {s & t for s in family for t in family}
            if kind == 2:
                closed |= {s | t for s in family for t in family}
            if closed == family:
                break
            family = closed
        sets = sorted(family, key=sorted)
        draw(st.randoms()).shuffle(sets)
        n = len(sets)
        return [f"e{i}" for i in range(n)], [(i, j) for i in range(n) for j in range(n) if sets[i] <= sets[j]]
    n = draw(st.integers(1, max_size))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    if kind == 1:
        pairs = [(i, j) if i < j else (j, i) for i, j in pairs]
    return [f"e{i}" for i in range(n)], pairs


def outcome(f, *args):
    """What ``f(*args)`` returns, or its error's type name and text."""
    try:
        return f(*args)
    except (DomainError, InternalInvariantError, LatticeError) as exc:
        return type(exc).__name__, str(exc)


def table_outcome(L: FiniteLattice):
    return outcome(lambda: [t.tolist() for t in L._order_arrays[1:]])


def reference_table_outcome(R: ReferenceLattice):
    return outcome(lambda: [[list(row) for row in t] for t in R.tables()])


def compare_with_reference(labels, pairs, member_sets) -> None:
    """Every answer of the array form against ``ReferenceLattice``: the
    order, bounds, tables or their error, validation, covers, irreducibles,
    prime-filter violations of each member set, and kappa."""
    L, R = FiniteLattice(labels, pairs), ReferenceLattice(labels, pairs)
    assert L._leq.tolist() == R.leq_table()
    assert [L.upset(a) for a in range(L.n)] == [R.upset(a) for a in range(R.n)]
    assert outcome(lambda: L.bottom) == outcome(lambda: R.bottom)
    assert outcome(lambda: L.top) == outcome(lambda: R.top)
    tables = table_outcome(L)
    assert tables == reference_table_outcome(R)
    problems = L.validate()
    assert problems == R.validate()
    assert cover_lists(L) == reference_covers(R)
    irreducibles = outcome(lambda: (L.join_irreducibles(), L.meet_irreducibles()))
    assert irreducibles == outcome(R.irreducibles)
    if isinstance(tables, tuple):
        return
    for members in member_sets:
        assert PrimeFilter(L, members).violations() == R.prime_filter_violations(members)
    if not (problems and problems[0].startswith("antisymmetry")):
        for j in range(L.n):
            assert outcome(L.kappa, j) == outcome(R.kappa, j)


class TestAgainstReferences:
    @settings(max_examples=400, deadline=None)
    @given(relations(), st.data())
    def test_one_lattice(self, relation, data):
        labels, pairs = relation
        members = frozenset(data.draw(st.sets(st.integers(0, len(labels) - 1))))
        compare_with_reference(labels, pairs, [members])

    @pytest.mark.parametrize("name", PINNED_POSETS)
    def test_pinned_posets(self, name):
        labels, pairs = PINNED_POSETS[name][:2]
        every_subset = [
            frozenset(i for i in range(len(labels)) if bits >> i & 1)
            for bits in range(1 << len(labels))
        ]
        compare_with_reference(labels, pairs, every_subset)

    @settings(max_examples=300, deadline=None)
    @given(relations(), relations(), st.data())
    def test_homomorphism_checks(self, source, target, data):
        L1, L2 = FiniteLattice(*source), FiniteLattice(*target)
        R1, R2 = ReferenceLattice(*source), ReferenceLattice(*target)
        size = data.draw(st.sampled_from([L1.n, L1.n, L1.n, L1.n + 1]))
        f = tuple(data.draw(st.lists(st.integers(-1, L2.n), min_size=size, max_size=size)))
        got = outcome(check_hom, LatticeHom(L1, L2, f))
        want = outcome(reference_check_hom, R1, R2, f)
        if isinstance(want, tuple):
            # the two read the lattices' tables in another order
            assert isinstance(got, tuple) and got[0] == want[0]
        else:
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(relations(max_size=4), relations(max_size=4))
    def test_product_lattice(self, left, right):
        got = product_lattice(FiniteLattice(*left), FiniteLattice(*right))
        want = reference_product_lattice(ReferenceLattice(*left), ReferenceLattice(*right))
        assert got.labels == want.labels
        assert got._leq.tolist() == want.leq_table()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 3)), min_size=1, max_size=7, unique=True))
    def test_from_subsets(self, sets):
        got, want = from_subsets(sets), reference_from_subsets(sets)
        assert got.labels == want.labels
        assert got._leq.tolist() == want.leq_table()
        points = [frozenset(f"p{i}" for i in s) for s in sets]
        named = [f"s{i}" for i in range(len(sets))]
        assert from_subsets(points, named)._leq.tolist() == want.leq_table()

    @pytest.mark.parametrize(
        "L",
        [boolean_algebra(6), product_lattice(chain(6), chain(6)), chain(100)],
        ids=["B64", "6x6", "C100"],
    )
    def test_larger_tables(self, L):
        R = ReferenceLattice.of(L)
        assert [t.tolist() for t in L._order_arrays[1:]] == [[list(r) for r in t] for t in R.tables()]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_out_of_range_pairs(self, n, data):
        pair = st.tuples(st.integers(-3, n + 2), st.integers(-3, n + 2))
        pairs = data.draw(st.lists(pair, max_size=6))
        labels = [f"e{i}" for i in range(n)]
        got = outcome(lambda: FiniteLattice(labels, pairs)._leq.tolist())
        assert got == outcome(lambda: ReferenceLattice(labels, pairs).leq_table())

    @pytest.mark.parametrize(
        "pairs, bad",
        [
            ([(0, -1)], (0, -1)),
            ([(-1, 0)], (-1, 0)),
            ([(0, 1), (2, 0), (-1, 5)], (2, 0)),
            ([(1, 0), (0, 2**70)], (0, 2**70)),
            ([(-(2**70), 1)], (-(2**70), 1)),
        ],
    )
    def test_bad_pair_is_named(self, pairs, bad):
        with pytest.raises(DomainError, match=re.escape(f"order pair {bad} out of range for 2 elements")):
            FiniteLattice(["a", "b"], pairs)

    def test_prime_filter_violations_ascend(self):
        # members in ascending order within each kind, whatever the set's order
        B = boolean_algebra(3)
        pf = PrimeFilter(B, frozenset({6, 5, 3}))
        assert pf.violations() == [
            "not an up-set: 1 missing above ab",
            "not an up-set: 1 missing above ac",
            "not an up-set: 1 missing above bc",
            "not meet-closed on (ab, ac)",
            "not meet-closed on (ab, bc)",
            "not meet-closed on (ac, ab)",
            "not meet-closed on (ac, bc)",
            "not meet-closed on (bc, ab)",
            "not meet-closed on (bc, ac)",
        ] + [f"not prime on ({x}, {y})" for x, y in itertools.permutations("abc", 2)]

    @pytest.mark.parametrize("member", [-1, 3, 2**70])
    def test_prime_filter_members_out_of_range(self, member):
        # a negative member must not wrap around to the top
        with pytest.raises(DomainError, match=re.escape("filter members must be element indices 0..2")):
            PrimeFilter(chain(3), frozenset({member})).violations()

    def test_order_table_is_budgeted(self, monkeypatch):
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 15)
        with pytest.raises(SizeError, match="the order would take 16 bytes"):
            chain(4)
        chain(3)


# -- a seeded differential sweep of the tables against the reference -------------------


def seeded_relation(rng: random.Random) -> tuple[list[str], list[tuple[int, int]]]:
    """Labels (at most 9) and a relation on them, one of three kinds drawn
    evenly: arbitrary pairs (cycles are likely), pairs i < j (posets, most
    of them not lattices), or the inclusion order of the first nine sets,
    shuffled, of a family of subsets of four points closed under
    intersection, with the empty and the full set (lattices, some of them
    not distributive, when none is cut)."""
    kind = rng.randrange(3)
    if kind == 2:
        family = {frozenset(), frozenset(range(4))}
        family |= {frozenset(rng.sample(range(4), rng.randrange(1, 4))) for _ in range(rng.randrange(1, 5))}
        while (closed := family | {s & t for s in family for t in family}) != family:
            family = closed
        sets = sorted(family, key=sorted)[:9]
        rng.shuffle(sets)
        n = len(sets)
        return [f"e{i}" for i in range(n)], [(i, j) for i in range(n) for j in range(n) if sets[i] <= sets[j]]
    n = rng.randrange(1, 10)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
    if kind == 1:
        pairs = [(min(p), max(p)) for p in pairs]
    return [f"e{i}" for i in range(n)], pairs


def tables_match_the_reference(L: FiniteLattice, R: ReferenceLattice) -> str:
    """Assert that the tables (or their error), the irreducibles and kappa of
    L are the reference's, and return which kind of order L has."""
    tables = table_outcome(L)
    assert tables == reference_table_outcome(R)
    twins = np.triu(L._leq & L._leq.T, 1).any()
    if twins:
        return "not antisymmetric"
    assert outcome(lambda: (L.join_irreducibles(), L.meet_irreducibles())) == outcome(R.irreducibles)
    if isinstance(tables, tuple):
        return "no meet or join"
    # the join-irreducibles, and the two bounds, which kappa refuses
    for j in {*R.irreducibles()[0], R.bottom, R.top}:
        assert outcome(L.kappa, j) == outcome(R.kappa, j)
    return "lattice"


class TestDifferentialSweep:
    def test_seeded_relations(self):
        rng = random.Random(29)
        met: Counter = Counter()
        for _ in range(2000):
            labels, pairs = seeded_relation(rng)
            L, R = FiniteLattice(labels, pairs), ReferenceLattice(labels, pairs)
            met[tables_match_the_reference(L, R)] += 1
            problems = L.validate()
            assert problems == R.validate(), (labels, pairs)
            met.update(p.split(" (")[0].split(":")[0] for p in problems)
        # every outcome the tables must get right occurs, each many times
        assert set(met) == {
            "not antisymmetric", "no meet or join", "lattice", "antisymmetry fails",
            "no bottom element", "no top element", "no meet for", "no join for",
            "distributivity fails on",
        }
        assert min(met.values()) >= 50, met

    @pytest.mark.parametrize(
        "make",
        [lambda n=n: chain(n) for n in range(1, 41)] + [lambda k=k: boolean_algebra(k) for k in range(9)],
        ids=[f"C{n}" for n in range(1, 41)] + [f"B{1 << k}" for k in range(9)],
    )
    def test_factory_lattices(self, make):
        L = make()
        assert tables_match_the_reference(L, ReferenceLattice.of(L)) == "lattice"
        if L.n <= 128:  # B256's distributivity check alone would take 2 * 8 * 256**3 bytes
            assert L.validate() == []
