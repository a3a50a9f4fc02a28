"""Chain operators, embeddings, floor/ceiling, derived tables, projections."""

import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import chain_elements, chain_leq
from stonepair import chains, fo
from stonepair.chains import (
    AdjunctionViolation,
    ChainElement,
    ChainPoint,
    OminusWitness,
    ceiling_of_ranks,
    chain_lattice,
    check_adjunction,
    check_floor_ceiling,
    check_oplus_preserved,
    ceiling_map,
    derive_partial_minus,
    derive_partial_plus,
    embed,
    embed_of_ranks,
    embed_point,
    find_ominus_counterexample,
    floor_map,
    floor_of_ranks,
    ominus,
    ominus_of_ranks,
    oplus,
    oplus_of_ranks,
    project_gamma,
)
from stonepair.errors import DomainError, InternalInvariantError, SizeError
from stonepair.gamma import GammaGrid, iota_exact, parse_gamma


class TestOperators:
    def test_oplus_in_range(self):
        assert oplus(ChainElement(4, 1), ChainElement(4, 2)) == ChainElement(4, 3)

    def test_oplus_overflow(self):
        assert oplus(ChainElement(4, 3), ChainElement(4, 2)) == ChainElement(4, None)

    def test_oplus_zero_neutral(self):
        for u in chain_elements(4):
            assert oplus(u, ChainElement(4, 0)) == u

    def test_oplus_top_absorbs(self):
        for u in chain_elements(4):
            assert oplus(u, ChainElement(4, None)) == ChainElement(4, None)

    def test_ominus_from_top(self):
        assert ominus(ChainElement(4, None), ChainElement(4, 1)) == ChainElement(4, 4)
        assert ominus(ChainElement(4, None), ChainElement(4, 0)) == ChainElement(4, None)

    def test_ominus_truncates(self):
        assert ominus(ChainElement(4, 2), ChainElement(4, 3)) == ChainElement(4, 0)

    def test_ominus_by_top(self):
        for u in chain_elements(4):
            assert ominus(u, ChainElement(4, None)) == ChainElement(4, 0)

    def test_mismatched_chains(self):
        with pytest.raises(DomainError):
            oplus(ChainElement(2, 1), ChainElement(3, 1))


class TestAdjunction:
    @pytest.mark.parametrize("n", [1, 4, 24])
    def test_holds(self, n):
        assert check_adjunction(n) is None

    def test_violation_report_shape(self):
        v = AdjunctionViolation(ChainElement(2, 1), ChainElement(2, 1), ChainElement(2, 1))
        assert "1/2" in str(v.u)


def reference_oplus(u, v):
    """The case split that ``oplus_of_ranks`` replaces."""
    if u.n != v.n:
        raise DomainError(f"mismatched chains: {u.n} vs {v.n}")
    if u.is_top or v.is_top:
        return ChainElement(u.n, None)
    s = u.a + v.a
    return ChainElement(u.n, None) if s > u.n else ChainElement(u.n, s)


def reference_ominus(u, v):
    """The case split that ``ominus_of_ranks`` replaces."""
    if u.n != v.n:
        raise DomainError(f"mismatched chains: {u.n} vs {v.n}")
    n = u.n
    if v.is_top:
        return ChainElement(n, 0)
    if u.is_top:
        return ChainElement(n, None) if v.a == 0 else ChainElement(n, n - v.a + 1)
    return ChainElement(n, max(u.a - v.a, 0))


def reference_embed(u, m):
    """The case split that ``embed_of_ranks`` replaces."""
    if m < 1:
        raise DomainError("embedding factor must be positive")
    if u.is_top:
        return ChainElement(u.n * m, None)
    return ChainElement(u.n * m, u.a * m)


class TestRankExpressions:
    def test_operators_match_the_case_splits(self):
        for n in range(1, 17):
            elems = chain_elements(n)
            for u, v in itertools.product(elems, repeat=2):
                assert oplus(u, v) == reference_oplus(u, v)
                assert ominus(u, v) == reference_ominus(u, v)
            for u, m in itertools.product(elems, range(1, 7)):
                assert embed(u, m) == reference_embed(u, m)

    def test_point_maps_match_the_point_arithmetic(self):
        for n, m in itertools.product(range(1, 17), range(1, 7)):
            for a in range(n + 1):
                assert embed_point(ChainPoint(n, a), m) == ChainPoint(n * m, a * m)
            for a in range(n * m + 1):
                x = ChainPoint(n * m, a)
                assert floor_map(n, m, x).value == F(math.floor(F(a, m)), n)
                assert ceiling_map(n, m, x).value == F(math.ceil(F(a, m)), n)

    def test_elementwise_on_arrays(self):
        n, m = 7, 3
        r = np.arange(n + 2)
        x, y = r[:, None], r
        assert (oplus_of_ranks(x, y, n) == np.minimum(x + y, n + 1)).all()
        assert (ominus_of_ranks(x, y, n) == np.maximum(x - y, 0)).all()
        assert embed_of_ranks(r, n, m).tolist() == [a * m for a in range(n + 1)] + [n * m + 1]
        points = np.arange(n * m + 1)
        assert floor_of_ranks(points, m).tolist() == [a // m for a in range(n * m + 1)]
        assert ceiling_of_ranks(points, m).tolist() == [-(-a // m) for a in range(n * m + 1)]

    def test_exact_past_int64(self):
        n = 2**70
        assert oplus(ChainElement(n, 1), ChainElement(n, n)) == ChainElement(n, None)
        assert ominus(ChainElement(n, None), ChainElement(n, 1)) == ChainElement(n, n)
        assert embed(ChainElement(n, None), 3) == ChainElement(3 * n, None)
        for m in (2**61, 2**62, 2**70):
            for n in (1, 2):
                assert check_oplus_preserved(n, m) is None
                witness = find_ominus_counterexample(n, m)
                assert witness == reference_find_ominus_counterexample(n, m)

    def test_errors(self):
        with pytest.raises(DomainError, match="mismatched chains: 2 vs 3"):
            ominus(ChainElement(2, 1), ChainElement(3, 1))
        with pytest.raises(DomainError, match="embedding factor"):
            embed(ChainElement(2, 1), 0)
        with pytest.raises(DomainError, match="embedding factor"):
            embed_point(ChainPoint(2, 1), 0)
        for check in (check_adjunction, derive_partial_minus, derive_partial_plus):
            with pytest.raises(DomainError, match="chain parameter"):
                check(0)
        for check in (check_oplus_preserved, check_floor_ceiling):
            with pytest.raises(DomainError, match="chain parameter"):
                check(0, 2)
            for m in (0, -1):  # refused, not passed vacuously over an empty chain
                with pytest.raises(DomainError, match="embedding factor"):
                    check(2, m)


def reference_check_adjunction(n):
    """The triple loop over elements that the rank tables replace."""
    elems = chain_elements(n)
    for u in elems:
        for v in elems:
            for w in elems:
                if chain_leq(chains.ominus(u, v), w) != chain_leq(u, chains.oplus(v, w)):
                    return AdjunctionViolation(u, v, w)
    return None


def reference_check_oplus_preserved(n, m):
    """The pair loop over elements that the rank tables replace."""
    elems = chain_elements(n)
    for u in elems:
        for v in elems:
            if chains.embed(chains.oplus(u, v), m) != chains.oplus(
                chains.embed(u, m), chains.embed(v, m)
            ):
                return (u, v)
    return None


def reference_find_ominus_counterexample(n, m):
    """The pair loop over elements that the rank tables replace."""
    if m < 2:
        raise DomainError("the embedding is the identity for m = 1; need m >= 2")
    elems = chain_elements(n)
    for u in elems:
        for v in elems:
            lhs = chains.embed(chains.ominus(u, v), m)
            rhs = chains.ominus(chains.embed(u, m), chains.embed(v, m))
            if lhs != rhs:
                return OminusWitness(u, v, lhs, rhs)
    raise InternalInvariantError(f"no ominus counterexample for n={n}, m={m}")


def reference_check_floor_ceiling(n, m):
    """The pair loop over points that the rank tables replace."""
    for xa in range(n * m + 1):
        x = ChainPoint(n * m, xa)
        up, down = chains.ceiling_map(n, m, x).a, chains.floor_map(n, m, x).a
        for ya in range(n + 1):
            e = chains.embed_point(ChainPoint(n, ya), m).a
            if (up <= ya) != (xa <= e) or (e <= xa) != (ya <= down):
                return (x, ChainPoint(n, ya))
    return None


def reference_derive_partial_minus(n):
    """The element-wise recipe that the rank rows replace."""
    L = chain_lattice(n)
    kappa_inv = {L.kappa(j): j for j in L.join_irreducibles()}
    table = {}
    for za in range(n + 1):
        j = chains.ChainElement.of_rank(n, kappa_inv[za])
        for xa in range(za + 1):
            derived = L.kappa(chains.ominus(j, ChainElement(n, xa)).rank())
            if derived != za - xa:
                raise InternalInvariantError(
                    f"derived minus {za}/{n} - {xa}/{n} = {F(derived, n)}, "
                    f"expected {F(za - xa, n)}"
                )
            table[(za, xa)] = F(derived, n)
    return table


def reference_derive_partial_plus(n):
    """The element-wise search that the rank tables replace."""
    elems = chain_elements(n)
    table = {}
    for xa in range(n + 1):
        for za in range(n + 1 - xa):
            x, z = ChainElement(n, xa), ChainElement(n, za)
            best = max(
                (u for u in elems if chain_leq(chains.ominus(u, x), z)),
                key=chains.ChainElement.rank,
                default=None,
            )
            derived = "undefined" if best is None else "T" if best.is_top else F(best.a, n)
            if derived != F(xa + za, n):
                raise InternalInvariantError(
                    f"derived plus {xa}/{n} + {za}/{n} = {derived}, expected {F(xa + za, n)}"
                )
            table[(xa, za)] = derived
    return table


def outcome(f, *args):
    try:
        return f(*args)
    except (DomainError, InternalInvariantError) as exc:
        return type(exc), str(exc)


CHAINS = [(n,) for n in range(1, 7)]
FACTORS = [(n, m) for n in range(1, 7) for m in (1, 2, 3)]
CHECKS = [
    (check_adjunction, reference_check_adjunction, CHAINS),
    (derive_partial_minus, reference_derive_partial_minus, CHAINS),
    (derive_partial_plus, reference_derive_partial_plus, CHAINS),
    (check_oplus_preserved, reference_check_oplus_preserved, FACTORS),
    (find_ominus_counterexample, reference_find_ominus_counterexample, FACTORS),
    (check_floor_ceiling, reference_check_floor_ceiling, FACTORS),
]


# Broken rank expressions stay on their chain: a rank operator on L_n has no
# way to name an element of another chain.


def _zero_minus(x, y, n):
    return 0 * (x + y)


def _one_up(x, y, n):
    return np.minimum(ominus_of_ranks(x, y, n) + 1, n + 1)


def _one_down(x, y, n):
    return np.maximum(ominus_of_ranks(x, y, n) - 1, 0)


def _saturating_plus(x, y, n):
    return np.minimum(oplus_of_ranks(x, y, n), n)


def _join_plus(x, y, n):
    return np.maximum(x, y)


def _top_to_one(x, n, m):
    return np.minimum(x * m, n * m)


BROKEN = [
    {"ominus_of_ranks": _zero_minus},
    {"ominus_of_ranks": _one_up},
    {"ominus_of_ranks": _one_down},
    {"oplus_of_ranks": _saturating_plus},
    {"oplus_of_ranks": _join_plus},
    {"embed_of_ranks": _top_to_one},
    {"floor_of_ranks": ceiling_of_ranks},
    {"ceiling_of_ranks": floor_of_ranks},
]


class TestRankTables:
    def test_real_operators_agree_with_the_references(self):
        for check, reference, cases in CHECKS:
            for args in cases:
                assert outcome(check, *args) == outcome(reference, *args)

    @pytest.mark.parametrize("broken", BROKEN)
    def test_broken_operators_fail_as_the_reference(self, broken, monkeypatch):
        honest = [outcome(ref, *args) for _, ref, cases in CHECKS for args in cases]
        for name, op in broken.items():
            monkeypatch.setattr(chains, name, op)
        got = []
        for check, reference, cases in CHECKS:
            for args in cases:
                expected = outcome(reference, *args)
                assert outcome(check, *args) == expected, (check.__name__, args)
                got.append(expected)
        assert got != honest  # the breakage shows in some check

    def test_reference_outcomes_cover_every_path(self, monkeypatch):
        kinds = set()
        for broken in [{}] + BROKEN:
            with monkeypatch.context() as patch:
                for name, op in broken.items():
                    patch.setattr(chains, name, op)
                for _, reference, cases in CHECKS:
                    for args in cases:
                        if args[0] == 3:
                            got = outcome(reference, *args)
                            error = isinstance(got, tuple) and isinstance(got[0], type)
                            kinds.add(got[0] if error else type(got))
        assert kinds == {
            AdjunctionViolation, OminusWitness, tuple, type(None), dict,
            DomainError, InternalInvariantError,
        }


class TestEmbeddings:
    def test_point_scaling(self):
        assert embed(ChainElement(2, 1), 3) == ChainElement(6, 3)

    def test_top_to_top(self):
        assert embed(ChainElement(2, None), 3) == ChainElement(6, None)

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
        monkeypatch.setattr(chains, "floor_of_ranks", ceiling_of_ranks)
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


class TestSweep:
    @pytest.mark.parametrize("max_n,max_m", [(1, 2), (2, 5), (5, 2), (6, 4)])
    def test_case_counts_are_the_sums(self, max_n, max_m):
        ns = range(1, max_n + 1)
        nms = [(n, m) for n in ns for m in range(2, max_m + 1)]
        lines = [r.text for r in chains.verify_duality(max_n, max_m)]
        grid = f"n<={max_n} m<={max_m}"
        assert lines[0] == f"adjunction n<={max_n}: {sum((n + 2) ** 3 for n in ns)} triples: PASS"
        assert lines[1] == (
            f"oplus-preservation {grid}: {sum((n + 2) ** 2 for n, _ in nms)} pairs: PASS"
        )
        assert lines[-2] == (
            f"floor-ceiling {grid}: {sum((n * m + 1) * (n + 1) for n, m in nms)} pairs: PASS"
        )
        assert lines[-1] == f"projection-cone grid=10 {grid}: {21 * len(nms)} cases: PASS"

    def test_projection_cone_failure(self, monkeypatch):
        # the projection pushed up by one at x = 1/10^o (rank 2) on the chain
        # 3 and at x = 9/20 (rank 9, 1/2^-) on the chain 2: the cases are
        # read x first, so the sweep stops at x = 1/10^o, n = 3, though the
        # pair n = 2 fails at x = 1/2^- too
        real = chains.project_of_ranks

        def broken(r, n, denom):
            return real(r, n, denom) + ((n == 3) & (r == 2)) + ((n == 2) & (r == 9))

        monkeypatch.setattr(chains, "project_of_ranks", broken)
        lines = list(chains.verify_duality(4, 2))
        assert [line.failed for line in lines] == [False] * (len(lines) - 1) + [True]
        assert lines[-1].text == "projection-cone grid=10 n<=4 m<=2: FAIL at x=1/10^o n=3 m=2"

    @pytest.mark.parametrize(
        "name, op, checked, fail",
        [
            ("ominus_of_ranks", _zero_minus, 0, "adjunction n<=4: FAIL at n=1 u=1/1 v=0/1 w=0/1"),
            (
                "embed_of_ranks", _top_to_one, 1,
                "oplus-preservation n<=4 m<=2: FAIL at n=1 m=2 u=1/1 v=1/1",
            ),
            (
                "floor_of_ranks", ceiling_of_ranks, 8,
                "floor-ceiling n<=4 m<=2: FAIL at n=1 m=2 x=1/2 y=1/1",
            ),
        ],
    )
    def test_a_failing_check_ends_the_sweep(self, name, op, checked, fail, monkeypatch):
        # the lines before the FAIL line are the honest sweep's, and none follows it
        honest = list(chains.verify_duality(4, 2))
        monkeypatch.setattr(chains, name, op)
        lines = list(chains.verify_duality(4, 2))
        assert lines == honest[:checked] + [chains.DualityLine(fail, True)]

    def test_guard_admits_exactly_its_budget(self, monkeypatch):
        # the sweep of criterion 9 has 123192 + 55764 + 283716 + 4536 cases
        assert chains.MAX_DUALITY_CASES >= 467208
        monkeypatch.setattr(chains, "MAX_DUALITY_CASES", 467208)
        assert next(chains.verify_duality(24, 10)).text.endswith("PASS")
        monkeypatch.setattr(chains, "MAX_DUALITY_CASES", 467207)
        with pytest.raises(SizeError, match="has 467208 cases; the guard is 467207"):
            next(chains.verify_duality(24, 10))


class TestChargedTables:
    """Each check charges its tables to the memory budget before it builds
    them, and the charge bounds what the check allocates."""

    @pytest.mark.parametrize(
        "check, args",
        [
            (check_adjunction, (300,)),
            (check_oplus_preserved, (300, 10)),
            (find_ominus_counterexample, (300, 10)),
            (check_oplus_preserved, (300, 2**62)),  # Python integers
            (find_ominus_counterexample, (300, 2**62)),
            (check_floor_ceiling, (300, 10)),
            (derive_partial_plus, (300,)),
        ],
        ids=["adjunction", "oplus", "ominus", "oplus-big", "ominus-big", "floor-ceiling", "plus"],
    )
    def test_charge_bounds_the_traced_peak(self, check, args, monkeypatch):
        charges = []
        check_bytes = fo.check_bytes
        monkeypatch.setattr(fo, "check_bytes", lambda step, nbytes: charges.append(nbytes) or check_bytes(step, nbytes))
        tracemalloc.start()
        try:
            check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(charges) == 1 and peak <= charges[0]

    def test_derive_partial_minus_charges_its_table_first(self, monkeypatch):
        # 6 * 7 / 2 entries of 160 bytes, before the lattice's order
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 3359)
        with pytest.raises(SizeError, match="the derived differences would take 3360 bytes"):
            derive_partial_minus(5)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 3360)
        assert derive_partial_minus(5)[(5, 2)] == F(3, 5)
