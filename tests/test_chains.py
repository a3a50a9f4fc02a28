"""Chain operators, embeddings, floor/ceiling, derived tables, projections."""

import itertools
from fractions import Fraction as F

import pytest

from stonepair import chains
from stonepair.chains import (
    AdjunctionViolation,
    ChainPoint,
    chain_elements,
    chain_lattice,
    chain_leq,
    check_adjunction,
    check_floor_ceiling,
    check_oplus_preserved,
    ceiling_map,
    derive_partial_minus,
    derive_partial_plus,
    embed,
    find_ominus_counterexample,
    floor_map,
    frac,
    ominus,
    oplus,
    project_gamma,
    top,
)
from stonepair.errors import DomainError, InternalInvariantError
from stonepair.gamma import GammaGrid, iota_exact, parse_gamma


class TestOperators:
    def test_oplus_in_range(self):
        assert oplus(frac(4, 1), frac(4, 2)) == frac(4, 3)

    def test_oplus_overflow(self):
        assert oplus(frac(4, 3), frac(4, 2)) == top(4)

    def test_oplus_zero_neutral(self):
        for u in chain_elements(4):
            assert oplus(u, frac(4, 0)) == u

    def test_oplus_top_absorbs(self):
        for u in chain_elements(4):
            assert oplus(u, top(4)) == top(4)

    def test_ominus_from_top(self):
        assert ominus(top(4), frac(4, 1)) == frac(4, 4)
        assert ominus(top(4), frac(4, 0)) == top(4)

    def test_ominus_truncates(self):
        assert ominus(frac(4, 2), frac(4, 3)) == frac(4, 0)

    def test_ominus_by_top(self):
        for u in chain_elements(4):
            assert ominus(u, top(4)) == frac(4, 0)

    def test_mismatched_chains(self):
        with pytest.raises(DomainError):
            oplus(frac(2, 1), frac(3, 1))


class TestAdjunction:
    @pytest.mark.parametrize("n", [1, 4, 24])
    def test_holds(self, n):
        assert check_adjunction(n) is None

    def test_violation_report_shape(self):
        v = AdjunctionViolation(frac(2, 1), frac(2, 1), frac(2, 1))
        assert "1/2" in str(v.u)


def reference_check_adjunction(n):
    """The triple loop over elements that the rank tables replace."""
    elems = chain_elements(n)
    for u in elems:
        for v in elems:
            for w in elems:
                if chain_leq(chains.ominus(u, v), w) != chain_leq(u, chains.oplus(v, w)):
                    return AdjunctionViolation(u, v, w)
    return None


def reference_derive_partial_plus(n):
    """The element-wise search that the rank tables replace."""
    elems = chain_elements(n)
    table = {}
    for xa in range(n + 1):
        for za in range(n + 1 - xa):
            x, z = frac(n, xa), frac(n, za)
            best = max(
                (u for u in elems if chain_leq(chains.ominus(u, x), z)),
                key=chains.ChainElement.rank,
            )
            if best.is_top:
                raise InternalInvariantError(
                    f"derived plus {xa}/{n} + {za}/{n} escaped the point chain"
                )
            derived, direct = F(best.a, n), F(xa + za, n)
            if derived != direct:
                raise InternalInvariantError(
                    f"derived plus {xa}/{n} + {za}/{n} = {derived}, expected {direct}"
                )
            table[(xa, za)] = derived
    return table


def outcome(f, n):
    try:
        return f(n)
    except (DomainError, InternalInvariantError, ValueError) as exc:
        return type(exc), str(exc)


def _one_up(u, v):
    w = ominus(u, v)
    return top(w.n) if w.is_top or w.a == w.n else frac(w.n, w.a + 1)


def _one_down(u, v):
    w = ominus(u, v)
    return w if w.a == 0 else frac(w.n, w.n if w.is_top else w.a - 1)


def _saturating_plus(u, v):
    w = oplus(u, v)
    return frac(w.n, w.n) if w.is_top else w


def _off_chain_plus(u, v):
    w = oplus(u, v)
    return top(w.n + 1) if w.is_top else w


def _off_chain_minus(u, v):
    return frac(u.n + 1, 0) if v.is_top else ominus(u, v)


def _off_chain_after_a_violation(u, v):
    return frac(u.n + 1, 0) if u.is_top else _one_up(u, v)


def _off_chain_plus_from_top(u, v):
    return top(u.n + 1) if u.is_top else oplus(u, v)


BROKEN = [
    {"ominus": lambda u, v: frac(u.n, 0)},
    {"ominus": _one_up},
    {"ominus": _one_down},
    {"ominus": _off_chain_minus},
    {"ominus": _off_chain_after_a_violation},
    {"oplus": _saturating_plus},
    {"oplus": _off_chain_plus},
    # both tables first leave the chain at the same triple (0, T, 0)
    {"ominus": _off_chain_minus, "oplus": _off_chain_plus_from_top},
]


class TestRankTables:
    @pytest.mark.parametrize("broken", BROKEN)
    def test_broken_operators_fail_as_the_reference(self, broken, monkeypatch):
        for name, op in broken.items():
            monkeypatch.setattr(chains, name, op)
        for n in range(1, 7):
            expected = outcome(reference_check_adjunction, n)
            assert expected is not None
            assert outcome(check_adjunction, n) == expected
            expected = outcome(reference_derive_partial_plus, n)
            assert outcome(derive_partial_plus, n) == expected

    def test_reference_outcomes_cover_every_path(self, monkeypatch):
        kinds = set()
        for broken in BROKEN:
            with monkeypatch.context() as m:
                for name, op in broken.items():
                    m.setattr(chains, name, op)
                for f in (reference_check_adjunction, reference_derive_partial_plus):
                    got = outcome(f, 3)
                    kinds.add(got[0] if isinstance(got, tuple) else type(got))
        assert kinds == {AdjunctionViolation, DomainError, InternalInvariantError, ValueError, dict}


class TestEmbeddings:
    def test_point_scaling(self):
        assert embed(frac(2, 1), 3) == frac(6, 3)

    def test_top_to_top(self):
        assert embed(top(2), 3) == top(6)

    def test_preserves_order(self):
        for u, v in itertools.product(chain_elements(3), repeat=2):
            assert chain_leq(u, v) == chain_leq(embed(u, 4), embed(v, 4))

    @pytest.mark.parametrize(
        "n,m", [(3, 4), (1, 5), (2, 2)] + [(n, 1) for n in range(1, 9)]
    )
    def test_oplus_preserved(self, n, m):
        assert check_oplus_preserved(n, m) is None

    def test_ominus_witness_two_two(self):
        w = find_ominus_counterexample(2, 2)
        assert (str(w.u), str(w.v)) == ("T", "1/2")
        assert str(w.embedded_of_result) == "4/4"
        assert str(w.result_of_embedded) == "3/4"

    def test_ominus_counterexample_everywhere(self):
        for n in range(1, 9):
            for m in (2, 3, 4):
                w = find_ominus_counterexample(n, m)
                assert w.embedded_of_result != w.result_of_embedded
                assert w.u.is_top  # scalar points always commute

    def test_requires_proper_factor(self):
        with pytest.raises(DomainError):
            find_ominus_counterexample(2, 1)


class TestFloorCeiling:
    def test_floor_example(self):
        assert floor_map(2, 3, ChainPoint(6, 5)) == ChainPoint(2, 1)

    def test_ceiling_example(self):
        assert ceiling_map(2, 3, ChainPoint(6, 1)) == ChainPoint(2, 1)

    def test_adjunction_triple(self):
        for n, m in itertools.product(range(1, 9), repeat=2):
            assert check_floor_ceiling(n, m) is None

    def test_reports_first_failing_pair(self, monkeypatch):
        # with floor replaced by ceiling, embed -| floor first breaks at
        # x = 1/6, y = 1/2: embed(y) = 3/6 is not below x, yet y <= ceiling(x)
        monkeypatch.setattr(chains, "floor_map", ceiling_map)
        assert check_floor_ceiling(2, 3) == (ChainPoint(6, 1), ChainPoint(2, 1))

    def test_floor_composes(self):
        for a in range(25):
            x = ChainPoint(24, a)
            once = floor_map(2, 12, x)
            stepwise = floor_map(2, 3, floor_map(6, 4, x))
            assert once == stepwise

    def test_wrong_chain(self):
        with pytest.raises(DomainError):
            floor_map(2, 3, ChainPoint(5, 1))


class TestDerivedTables:
    def test_minus_step_by_step(self):
        # 3/4 - 1/4 through the irreducibles isomorphism:
        # kappa_inverse(3/4) = 1, 1 ominus 1/4 = 3/4, kappa(3/4) = 2/4
        table = derive_partial_minus(4)
        assert table[(3, 1)] == F(2, 4)

    def test_single_cell(self):
        assert derive_partial_minus(1) == {(0, 0): F(0), (1, 0): F(1), (1, 1): F(0)}

    def test_plus_matches_direct(self):
        table = derive_partial_plus(4)
        assert table[(1, 2)] == F(3, 4)
        assert (1, 2) in table and (3, 2) not in table  # domain a + b <= n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tables_complete(self, n):
        minus = derive_partial_minus(n)
        plus = derive_partial_plus(n)
        assert len(minus) == (n + 1) * (n + 2) // 2
        assert len(plus) == (n + 1) * (n + 2) // 2
        for (za, xa), value in minus.items():
            assert value == F(za - xa, n)
        for (xa, za), value in plus.items():
            assert value == F(xa + za, n)

    def test_chain_lattice_kappa_closed_form(self):
        L = chain_lattice(5)
        assert L.kappa(L.n - 1) == L.n - 2  # T maps to 1
        for a in range(1, 6):
            assert L.kappa(a) == a - 1


class TestProjection:
    def test_exact_on_grid(self):
        assert project_gamma(parse_gamma("1/2^o"), 2) == ChainPoint(2, 1)

    def test_approx_rounds_strictly_down(self):
        assert project_gamma(parse_gamma("1/2^-"), 2) == ChainPoint(2, 0)
        assert project_gamma(parse_gamma("1/2^-"), 4) == ChainPoint(4, 1)

    def test_floor_compatibility_instance(self):
        projected = project_gamma(parse_gamma("1/2^-"), 4)
        assert floor_map(2, 2, projected) == project_gamma(parse_gamma("1/2^-"), 2)

    def test_cone_property(self):
        for x in GammaGrid(10).points:
            for n in range(1, 11):
                for m in range(1, 11):
                    assert floor_map(n, m, project_gamma(x, n * m)) == project_gamma(
                        x, n
                    )

    def test_monotone_in_x(self):
        pts = GammaGrid(10).points
        for n in (1, 2, 3, 5, 7):
            images = [project_gamma(x, n).a for x in pts]
            assert images == sorted(images)

    def test_dominated_by_argument(self):
        for x in GammaGrid(10).points:
            for n in (2, 3, 4, 5):
                p = project_gamma(x, n)
                assert iota_exact(p.value) <= x
                if x == iota_exact(p.value):
                    assert x.exact and x.value == p.value

    def test_fixes_exact_grid_points(self):
        for n in (2, 4, 6):
            for a in range(n + 1):
                assert project_gamma(iota_exact(F(a, n)), n) == ChainPoint(n, a)
