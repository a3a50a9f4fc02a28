"""Lattice validation, irreducibles, kappa, prime filters, homs, file format."""

import itertools

import pytest

from conftest import reference_covers, reference_distributivity, small_lattice_corpus
from stonepair import fo
from stonepair.errors import DomainError, LatticeError, ParseError, SizeError
from stonepair.lattice import (
    FiniteLattice,
    LatticeHom,
    PrimeFilter,
    boolean_algebra,
    chain,
    check_hom,
    diamond_m3,
    format_lattice,
    from_subsets,
    identity_hom,
    parse_lattice,
    product_lattice,
)


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
            lower, upper = reference_covers(L)
            assert list(L._lower_covers) == lower, L
            assert list(L._upper_covers) == upper, L

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

    def test_from_subsets(self):
        sets = [frozenset(), frozenset({0}), frozenset({0, 1})]
        L = from_subsets(sets)
        assert L.bottom == 0 and L.top == 2
