"""Threshold-logic semantics, grid entailment, rule soundness, filters."""

import functools
import itertools
import re
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    prefix_members,
    reference_filter_to_measure,
    reference_grid_measures,
    reference_grid_ranks,
    reference_presentation_of_measure,
    reference_rule_instances,
    reference_rule_table,
    reference_validate_measure,
)
from stonepair import fo, gamma, pl
from stonepair.errors import DomainError, ParseError, PresentationError, SizeError
from stonepair.fo import gen_example_structure, maximal_not_maximum
from stonepair.gamma import ZERO, ONE, iota_exact, parse_gamma
from stonepair.lattice import FiniteLattice, boolean_algebra, chain, parse_lattice, product_lattice
from stonepair.measure import Measure
from stonepair.pl import (
    GE,
    LT,
    FilterPresentation,
    RuleInstance,
    check_soundness_grid,
    entails_grid,
    eval_pl_measure,
    eval_pl_structure,
    filter_to_measure,
    grid_measures,
    parse_pl_formula,
    presentation_of_measure,
    rule_instances,
)

B4 = boolean_algebra(2)
C3 = chain(3, ["0", "d", "1"])
C4 = chain(4)
P23 = product_lattice(chain(2), chain(3))
# B4 with the top listed first and the bottom last
TOP_FIRST = parse_lattice("elements: top, a, b, bot\norder: bot<=a, bot<=b, a<=top, b<=top\n")
# 2x3 listed from the top down: the meet of an incomparable pair can come
# after both members, so the pair is tested when the meet is placed
P23_TOP_DOWN = FiniteLattice(
    P23.labels[::-1], [(5 - i, 5 - j) for i in range(6) for j in range(6) if P23.leq(i, j)]
)
A_IDX, B_IDX = B4.index_of("a"), B4.index_of("b")


def c3_measure(text: str) -> Measure:
    return Measure(C3, (ZERO, parse_gamma(text), ONE))


class TestMeasureSemantics:
    def test_boundary_is_satisfied(self):
        assert eval_pl_measure(c3_measure("1/2^o"), GE(F(1, 2), 1))

    def test_approximation_misses_boundary(self):
        assert not eval_pl_measure(c3_measure("1/2^-"), GE(F(1, 2), 1))

    def test_lt_is_negation_of_ge(self):
        for D in (C3, B4):
            for mu in grid_measures(D, 3):
                for a in range(D.n):
                    for q in (F(0), F(1, 3), F(2, 3), F(1)):
                        assert eval_pl_measure(mu, LT(q, a)) == eval_pl_measure(
                            mu, fo.Not(GE(q, a))
                        )

    def test_connectives(self):
        mu = c3_measure("1/2^o")
        phi = fo.And(GE(F(1, 4), 1), fo.Or(LT(F(1, 2), 1), fo.TRUE))
        assert eval_pl_measure(mu, phi)
        assert not eval_pl_measure(mu, fo.FALSE)

    def test_foreign_atom(self):
        with pytest.raises(DomainError):
            eval_pl_measure(c3_measure("1/2^o"), GE(F(1, 2), 17))
        with pytest.raises(DomainError):
            eval_pl_measure(c3_measure("1/2^o"), GE(F(1, 2), fo.TRUE))

    def test_threshold_range(self):
        with pytest.raises(DomainError):
            GE(F(3, 2), 1)
        with pytest.raises(DomainError):
            LT(-1, 1)

    def test_atom_kinds_share_their_fields(self):
        ge, lt = GE(F(1, 2), 1), LT(threshold=F(1, 2), subject=1)
        assert ge != lt and ge == GE(F(2, 4), 1) and lt.threshold == F(1, 2)
        kinds = []
        for atom in (ge, lt):
            match atom:
                case GE(q, a):
                    kinds.append(("GE", q, a))
                case LT(q, a):
                    kinds.append(("LT", q, a))
        assert kinds == [("GE", F(1, 2), 1), ("LT", F(1, 2), 1)]


class TestStructureSemantics:
    def test_half_the_vertices_have_a_loop(self):
        sig = fo.Signature((("r", 2),))
        A = fo.FiniteStructure(sig, 4, {"r": frozenset({(0, 0), (1, 1), (2, 3)})})
        loop = fo.Atom("r", ("x", "x"))
        assert eval_pl_structure(A, GE(F(1, 2), loop))
        assert not eval_pl_structure(A, GE(F(3, 4), loop))

    def test_lattice_subject_is_refused(self):
        with pytest.raises(DomainError, match="^atom subject 1 is not a formula$"):
            eval_pl_structure(gen_example_structure(2), GE(F(0), 1))

    def test_zero_threshold_is_trivial(self):
        A = gen_example_structure(3)
        assert eval_pl_structure(A, GE(F(0), maximal_not_maximum()))

    def test_running_example_thresholds(self):
        A2 = gen_example_structure(2)
        psi = maximal_not_maximum()
        assert eval_pl_structure(A2, GE(F(2, 3), psi))
        assert not eval_pl_structure(A2, GE(F(3, 4), psi))


class TestGridMeasures:
    def test_two_chain_is_rigid(self):
        assert len(grid_measures(chain(2), 4)) == 1

    def test_three_chain_smallest_grid(self):
        found = [m.values[1] for m in grid_measures(C3, 1)]
        assert found == [ZERO, parse_gamma("1^-"), ONE]

    def test_boolean_four_complements_collapse_to_one(self):
        ms = grid_measures(B4, 2)
        assert len(ms) == 7
        for mu in ms:
            assert gamma.gamma_collapse(mu(A_IDX)) + gamma.gamma_collapse(mu(B_IDX)) == 1

    def test_all_validate(self):
        for mu in grid_measures(B4, 3):
            assert reference_validate_measure(mu) == []

    def test_enumeration_is_sorted(self):
        ms = grid_measures(B4, 2)
        keys = [tuple(mu.values) for mu in ms]
        assert keys == sorted(keys)

    def test_against_product_enumeration(self):
        # independent route: filter the raw product of grid assignments with
        # the Fraction-based reference validator
        for D, k in ((C3, 2), (B4, 2), (B4, 3), (C4, 3), (P23, 2), (chain(1), 2)):
            expected = [tuple(mu.values) for mu in reference_grid_measures(D, k)]
            assert [tuple(mu.values) for mu in grid_measures(D, k)] == expected

    def test_ranks_are_the_values_on_the_grid(self):
        for D, k in ((C3, 2), (B4, 3), (P23, 2), (chain(1), 2)):
            ms = grid_measures(D, k)
            assert ms.ranks.tolist() == [[gamma.rank(x, k) for x in mu.values] for mu in ms]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_ranks_against_the_recursive_search(self, k):
        lattices = [chain(n) for n in range(1, 7)] + [B4, P23, TOP_FIRST, P23_TOP_DOWN]
        for D in lattices:
            ranks = grid_measures(D, k).ranks
            assert ranks.dtype == np.int64 and ranks.shape == (ranks.shape[0], D.n)
            assert ranks.tolist() == [list(r) for r in reference_grid_ranks(D, k)], D

    def test_one_element_lattice_has_no_measure(self):
        # its bottom is its top: no value is both 0 and 1
        D = chain(1)
        for k in (1, 6):
            assert len(grid_measures(D, k)) == 0
            assert grid_measures(D, k).ranks.shape == (0, 1)
        r = entails_grid(GE(F(1, 2), 0), fo.FALSE, D, 3)
        assert (r.holds, r.countermodel, r.measures_checked) == (True, None, 0)
        report = check_soundness_grid(D, 3)
        assert (report.failures, report.measures_checked) == ((), 0)

    def test_checks_enumerate_through_grid_measures(self, monkeypatch):
        # a wrapper around the public enumeration sees every measure that
        # entailment and soundness check
        sizes = []

        def counted(D, k):
            out = grid_measures(D, k)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(pl, "grid_measures", counted)
        entailment = entails_grid(fo.TRUE, GE(F(1, 2), A_IDX), B4, 2)
        soundness = check_soundness_grid(C3, 2)
        assert sizes == [entailment.measures_checked, soundness.measures_checked] == [7, 5]

    def test_view_builds_measures_on_demand(self):
        ms = grid_measures(B4, 2)
        assert isinstance(ms, Sequence) and not ms.ranks.flags.writeable
        listed = list(ms)
        assert [ms[i] for i in range(len(ms))] == listed and ms[-1] == listed[-1]
        with pytest.raises(IndexError):
            ms[len(ms)]
        with pytest.raises(DomainError, match="grid resolution must be positive"):
            grid_measures(B4, 0)


class TestWorkGuard:
    """One memory budget, ``fo.MAX_TENSOR_CELLS`` read as bytes, checked
    before each array of the grid semantics is allocated."""

    @pytest.mark.parametrize("D, k", [(boolean_algebra(3), 2), (boolean_algebra(4), 3)], ids=["B8", "B16"])
    def test_wider_lattices_against_the_recursive_search(self, D, k):
        ranks = grid_measures(D, k).ranks
        assert ranks.tolist() == [list(r) for r in reference_grid_ranks(D, k)]

    @pytest.mark.parametrize(
        "D, k, measures, instances",
        [(boolean_algebra(3), 2, 48, 2615), (boolean_algebra(4), 3, 1664, 23148)],
        ids=["B8", "B16"],
    )
    def test_wider_lattices_are_sound(self, D, k, measures, instances):
        report = check_soundness_grid(D, k)
        assert (report.measures_checked, report.total_instances) == (measures, instances)
        assert report.failures == ()

    def test_atom_table_counts_its_rank_index(self):
        # a 2-chain at k = 30000000 has one measure: 120000003 bytes of
        # boolean table and 480000008 bytes of int64 ranks 0..2k beside it
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="the atom table would take 600000011 bytes"):
                entails_grid(fo.TRUE, fo.FALSE, chain(2), 30_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_chain_soundness_is_refused_before_the_gathers(self):
        # chain(10) at k = 6: 125970 measures and 47019 rule rows, two
        # gathers of 15747-byte rows
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=f"soundness gathers would take {2 * 47019 * 15747} bytes"):
                check_soundness_grid(chain(10), 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("D", [chain(1), chain(2), C3], ids=["C1", "C2", "C3"])
    def test_huge_resolutions_are_refused_before_any_array(self, D):
        # 2k + 1 int64 ranks: k = 2**62 would leave int64, k = 10**30 a
        # numpy dimension; the one-element lattice has no level to check
        for k in (2**62, 10**30):
            with pytest.raises(SizeError, match=f"the grid's ranks would take {8 * (2 * k + 1)} bytes"):
                entails_grid(fo.TRUE, fo.FALSE, D, k)
            with pytest.raises(SizeError, match="the grid's ranks"):
                check_soundness_grid(D, k)

    def test_search_refuses_a_level_before_building_it(self, monkeypatch):
        # the first level of C3 at k = 2 has 5 rows of 3 ranks; the last of
        # B4 at k = 2 has 25 rows, tested on the 2 pairs (a, b) and (b, a)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 5 * 3 * 8 - 1)
        with pytest.raises(SizeError, match="the grid search would take 120 bytes"):
            grid_measures(C3, 2)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 25 * (4 + 4 * 2) * 8 - 1)
        with pytest.raises(SizeError, match="the grid search would take 2400 bytes"):
            grid_measures(B4, 2)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 25 * (4 + 4 * 2) * 8)
        assert len(grid_measures(B4, 2)) == 7

    @pytest.mark.parametrize("D", [C3, B4, P23, TOP_FIRST], ids=["C3", "B4", "2x3", "top-first"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_rule_table_is_counted_before_it_is_built(self, D, k, monkeypatch):
        # 10 int64 columns a row, plus the loop vectors over the g^3 sums
        # i + j - l, the T triples and the n^2 pairs, plus the ufunc buffers
        n, g = D.n, k + 1
        triples = sum(0 <= i + j - l <= k for i, j, l in itertools.product(range(g), repeat=3))
        loops = 12 * g**3 + 64 * triples + 32 * n * n + 24 * np.getbufsize()
        size = 80 * len(pl._rule_table(D, k)) + loops
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", size)
        pl._rule_table(D, k)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", size - 1)
        with pytest.raises(SizeError, match=f"the rule table would take {size} bytes"):
            pl._rule_table(D, k)

    @pytest.mark.parametrize(
        "D, k",
        [(chain(6), 6), (boolean_algebra(4), 4), (product_lattice(chain(3), chain(4)), 6)],
        ids=["C6-k6", "B16-k4", "3x4-k6"],
    )
    def test_rule_table_peak_is_within_its_charge(self, D, k, monkeypatch):
        charged = {}
        monkeypatch.setattr(fo, "check_bytes", lambda step, nbytes: charged.update({step: nbytes}))
        D._order_arrays  # the lattice's own tables are not the rule table's
        tracemalloc.start()
        try:
            table = pl._rule_table(D, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes <= peak <= charged["the rule table"]

    def test_instances_are_rendered_row_by_row(self):
        # the first instance costs the table, not a Python copy of all of it
        D, k = product_lattice(chain(3), chain(4)), 6
        D._order_arrays
        table_bytes = pl._rule_table(D, k).nbytes
        tracemalloc.start()
        try:
            first = next(iter(rule_instances(D, k)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == next(iter(reference_rule_instances(D, k)))
        assert peak <= 1.25 * table_bytes

    def test_atom_table_is_counted_before_it_is_built(self, monkeypatch):
        # C3 at k = 4: a search of 9 rows of 3 ranks (216 bytes), then 9
        # measures, a row for each of 3 elements x 9 ranks and the all-true
        # row, one byte a cell before packing, plus the 9 int64 ranks the
        # table compares with
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 28 * 9 + 8 * 9 - 1)
        with pytest.raises(SizeError, match="the atom table would take 324 bytes"):
            entails_grid(fo.TRUE, fo.TRUE, C3, 4)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 28 * 9 + 8 * 9)
        assert entails_grid(fo.TRUE, fo.TRUE, C3, 4).measures_checked == 9


class TestEntailment:
    def test_padding_bits_never_count(self):
        # C3 at k = 1 has 3 measures: a negation sets the 5 padding bits of
        # its byte, and neither side may read them as measures
        for rhs in (fo.FALSE, GE(F(0), 1)):
            r = entails_grid(fo.Not(GE(F(0), 1)), rhs, C3, 1)
            assert (r.holds, r.countermodel, r.measures_checked) == (True, None, 3)

    def test_weakening_holds(self):
        r = entails_grid(GE(F(3, 4), A_IDX), GE(F(1, 2), A_IDX), B4, 4)
        assert r.holds

    def test_complement_bound(self):
        r = entails_grid(
            GE(F(1, 2), A_IDX), fo.Not(GE(F(3, 4), B_IDX)), B4, 4
        )
        assert r.holds

    def test_countermodel_found(self):
        r = entails_grid(GE(F(1, 2), A_IDX), GE(F(1, 2), B_IDX), B4, 4)
        assert not r.holds
        mu = r.countermodel
        assert eval_pl_measure(mu, GE(F(1, 2), A_IDX))
        assert not eval_pl_measure(mu, GE(F(1, 2), B_IDX))
        # first countermodel in enumeration order, frozen
        assert [str(v) for v in mu.values] == ["0^o", "1/2^o", "1/2^-", "1^o"]

    def test_every_atom_subject_is_checked(self):
        # a bad subject behind a constant that decides the connective
        for lhs, rhs in (
            (fo.FALSE, GE(F(1, 2), 17)),
            (fo.And(fo.FALSE, GE(F(1, 2), 17)), fo.TRUE),
            (fo.Or(fo.TRUE, LT(F(1, 2), -1)), fo.TRUE),
            (fo.TRUE, fo.Or(fo.TRUE, GE(F(1, 2), fo.TRUE))),
        ):
            with pytest.raises(DomainError, match="not an element"):
                entails_grid(lhs, rhs, B4, 2)

    def test_not_a_formula(self):
        with pytest.raises(DomainError, match="not a threshold-logic node"):
            entails_grid(fo.TRUE, "true", B4, 2)

    def test_deterministic(self):
        r1 = entails_grid(GE(F(1, 2), A_IDX), GE(F(1, 2), B_IDX), B4, 4)
        r2 = entails_grid(GE(F(1, 2), A_IDX), GE(F(1, 2), B_IDX), B4, 4)
        assert r1.countermodel.values == r2.countermodel.values


class TestSoundness:
    def test_instance_counts_small_grid(self):
        report = check_soundness_grid(C3, 2)
        assert report.instance_counts["L1"] == 18  # 6 ordered threshold pairs x 3
        assert report.instance_counts["L3"] == 18  # 6 comparable pairs x 3 thresholds
        assert report.instance_counts["L2"] == 6
        assert not report.failures

    def test_spot_instances(self):
        insts = list(rule_instances(B4, 4))
        l4 = [i for i in insts if i.rule == "L4"]
        assert any(i.params == (F(1, 2), F(1, 2), F(1, 4)) for i in l4)
        l5_boundary = [
            i for i in insts if i.rule == "L5" and i.params[0] + i.params[1] - i.params[2] == 1
        ]
        assert l5_boundary

    def test_side_condition_filtered(self):
        for inst in rule_instances(C3, 2):
            if inst.rule in ("L4", "L5"):
                p, q, r = inst.params
                assert 0 <= p + q - r <= 1

    def test_boolean_four_grid_two(self):
        report = check_soundness_grid(B4, 2)
        assert not report.failures
        assert report.measures_checked == 7

    def test_instance_counts_at_the_guards(self):
        assert check_soundness_grid(chain(6), 6).total_instances == 17045
        report = check_soundness_grid(B4, 6)
        assert report.instance_counts == dict(Counter(i.rule for i in rule_instances(B4, 6)))
        assert report.total_instances == len(list(rule_instances(B4, 6)))
        assert not report.failures

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("D", [C3, B4, C4, P23], ids=["C3", "B4", "C4", "2x3"])
    def test_against_reference_instances(self, D, k):
        # same order, params, elements, premises and conclusions
        assert list(rule_instances(D, k)) == list(reference_rule_instances(D, k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_reference_instances_top_first(self, k):
        assert list(rule_instances(TOP_FIRST, k)) == list(reference_rule_instances(TOP_FIRST, k))

    def test_padding_bits_never_count(self, monkeypatch):
        # a clause LT(0, a) & LT(0, a) |- GE(0, a) | GE(0, a): its four
        # gathered literals, LT(0, a) each, are false on every measure and 1
        # on the padding bits of the 3 measures of C3 at k = 1
        table = pl._rule_table
        ge0 = 2 * (1 * 3 + 0)  # GE(0, 1): twice atom row 1 (2k + 1) + 0; LT(0, 1) is next

        def with_row(D, k):
            row = [5, 0, -1, -1, 1, -1, ge0 + 1, ge0 + 1, ge0, ge0]
            return np.concatenate((table(D, k), [row]))

        monkeypatch.setattr(pl, "_rule_table", with_row)
        last = list(rule_instances(C3, 1))[-1]
        assert (last.premise, last.conclusion) == (fo.And(LT(0, 1), LT(0, 1)), fo.Or(GE(0, 1), GE(0, 1)))
        report = check_soundness_grid(C3, 1)
        assert (report.failures, report.measures_checked) == ((), 3)

    def test_soundness_memory_ceiling(self):
        # the packed gathers hold rows x ceil(M/8) bytes each: 17045 rows of
        # 228 bytes on chain(6) at k = 6
        tracemalloc.start()
        try:
            report = check_soundness_grid(chain(6), 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.failures
        assert peak < 12 * 2**20

    def test_atoms_are_shared(self):
        atoms = {}  # holding each atom keeps the ids distinct
        for inst in rule_instances(B4, 4):
            for phi in (inst.premise, inst.conclusion):
                parts = (phi.left, phi.right) if isinstance(phi, (fo.And, fo.Or)) else (phi,)
                atoms.update((id(x), x) for x in parts if isinstance(x, (GE, LT)))
        assert len(atoms) == 2 * 5 * B4.n  # GE and LT at each of 5 thresholds


@st.composite
def pl_formulas(draw, D, k, depth=3):
    """Threshold formulas over D with thresholds on the k-grid and off it."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return fo.TRUE if draw(st.booleans()) else fo.FALSE
        den = k if draw(st.booleans()) else draw(st.integers(1, 7))
        q = F(draw(st.integers(0, den)), den)
        return (GE if kind <= 2 else LT)(q, draw(st.integers(0, D.n - 1)))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return fo.Not(draw(pl_formulas(D, k, depth - 1)))
    ctor = fo.And if kind == 1 else fo.Or
    return ctor(draw(pl_formulas(D, k, depth - 1)), draw(pl_formulas(D, k, depth - 1)))


DIFF_CASES = [(D, k) for D in (C3, B4, C4) for k in (1, 2, 3)]
reference_measures = functools.cache(reference_grid_measures)


@pytest.mark.parametrize("D, k", DIFF_CASES + [(P23, 4), (TOP_FIRST, 2), (chain(1), 1)])
def test_rule_table_matches_the_stacked_families(D, k):
    table = pl._rule_table(D, k)
    assert table.dtype == np.int64 and table.flags.f_contiguous
    assert np.array_equal(table, reference_rule_table(D, k))


def first_countermodel(lhs, rhs, measures):
    """The per-measure loop the bitsets replace."""
    return next(
        (mu for mu in measures if eval_pl_measure(mu, lhs) and not eval_pl_measure(mu, rhs)),
        None,
    )


class TestAgainstPerMeasureLoop:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_entailment(self, data):
        D, k = data.draw(st.sampled_from(DIFF_CASES))
        lhs = data.draw(pl_formulas(D, k))
        rhs = data.draw(pl_formulas(D, k))
        measures = reference_measures(D, k)
        counter = first_countermodel(lhs, rhs, measures)
        r = entails_grid(lhs, rhs, D, k)
        assert (r.holds, r.countermodel, r.measures_checked) == (
            counter is None, counter, len(measures)
        )

    @pytest.mark.parametrize("D, k", DIFF_CASES)
    def test_soundness_with_unsound_instances(self, D, k, monkeypatch):
        # the rules plus unsound clauses, so the failure path is compared too;
        # soundness decides the rows of the rule table that rule_instances
        # renders, so the variants are injected as table rows, each right after
        # its original, and must render as the expected instances: L1 with its
        # two thresholds swapped, and LT(q, a) |- GE(q, a) after each L6 row
        expected = []
        for inst in rule_instances(D, k):
            expected.append(inst)
            if inst.rule == "L1" and inst.params[0] < inst.params[1]:
                p, q = inst.params
                expected.append(RuleInstance("L1", (q, p), inst.elements, inst.conclusion, inst.premise))
            if inst.rule == "L6":
                (q,), (a,) = inst.params, inst.elements
                expected.append(RuleInstance("L6", inst.params, inst.elements, LT(q, a), GE(q, a)))
        table = pl._rule_table

        def with_variants(D, k):
            rows = []
            true = 2 * D.n * (2 * k + 1)
            for row in table(D, k):
                rows.append(row)
                rule, (i, j, _), (a, _) = pl._RULES[row[pl._RULE]], row[pl._INDICES], row[pl._ELEMENTS]
                variant = row.copy()
                if rule == "L1" and i < j:
                    # GE(i/k, a) |- GE(j/k, a)
                    variant[pl._INDICES] = j, i, -1
                    variant[pl._PREMISE] = row[pl._CONCLUSION][0], true
                    variant[pl._CONCLUSION] = row[pl._PREMISE][0], true + 1
                    rows.append(variant)
                if rule == "L6":
                    ge = 2 * (a * (2 * k + 1) + 2 * i)
                    variant[pl._PREMISE] = ge + 1, true
                    variant[pl._CONCLUSION] = ge, true + 1
                    rows.append(variant)
            return np.array(rows)

        monkeypatch.setattr(pl, "_rule_table", with_variants)
        assert list(rule_instances(D, k)) == expected
        measures = reference_measures(D, k)
        counts: dict[str, int] = {f"L{i}": 0 for i in range(1, 7)}
        failures = []
        for inst in expected:
            counts[inst.rule] += 1
            counter = first_countermodel(inst.premise, inst.conclusion, measures)
            if counter is not None:
                failures.append((inst, counter))
        report = check_soundness_grid(D, k)
        assert failures
        assert report.instance_counts == counts
        assert report.failures == tuple(failures)
        assert report.measures_checked == len(measures)


class TestMonotoneSemantics:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6))
    def test_positive_formulas_go_up(self, i, j):
        ms = grid_measures(C3, 3)
        mu, nu = ms[min(i, len(ms) - 1)], ms[min(j, len(ms) - 1)]
        if not all(x <= y for x, y in zip(mu.values, nu.values)):
            return
        phi = fo.And(GE(F(1, 3), 1), fo.Or(GE(F(2, 3), 1), GE(F(0), 2)))
        if eval_pl_measure(mu, phi):
            assert eval_pl_measure(nu, phi)


class TestFilters:
    def test_documented_presentation(self):
        # (0, 0), (0, d), (1/2, d) and every threshold of the top
        pres = FilterPresentation(C3, 2, (1, 2, 3))
        mu = filter_to_measure(pres)
        assert [str(v) for v in mu.values] == ["0^o", "1/2^o", "1^o"]

    def test_empty_rows_default_to_bottom(self):
        pres = FilterPresentation(C3, 2, (0, 0, 3))
        mu = filter_to_measure(pres)
        assert mu.values[0] == ZERO and mu.values[1] == ZERO

    def test_order_closure_violation(self):
        # (1/2, d) present but (1/2, top) missing
        with pytest.raises(PresentationError):
            filter_to_measure(FilterPresentation(C3, 2, (1, 2, 1)))

    def test_off_grid_threshold(self):
        # level k + 2 would hold the threshold (k + 1)/k, past the grid
        with pytest.raises(DomainError, match=r"^level 4 of 1 is not an integer in 0\.\.3$"):
            FilterPresentation(C3, 2, (1, 1, 4))
        with pytest.raises(DomainError, match=r"^level -1 of d is not an integer in 0\.\.3$"):
            FilterPresentation(C3, 2, (1, -1, 3))
        for levels in ((1, 3), (1, 1, 1, 3), ()):
            with pytest.raises(DomainError, match=f"^{len(levels)} levels for the 3 elements"):
                FilterPresentation(C3, 2, levels)

    def test_float_threshold_is_refused(self):
        for level in (0.5, 1.0, F(1), "1", None):
            with pytest.raises(DomainError, match=f"^level {re.escape(repr(level))} of d is not"):
                FilterPresentation(C3, 2, (1, level, 3))
        pres = FilterPresentation(C3, 2, [np.int64(1), np.int8(1), 3])
        assert pres.levels == (1, 1, 3) and all(type(v) is int for v in pres.levels)

    def test_round_trip_exact_grid_measures(self):
        for D in (C3, B4):
            for mu in grid_measures(D, 3):
                if all(v.exact for v in mu.values):
                    back = filter_to_measure(presentation_of_measure(mu, 3))
                    assert back == mu

    def test_round_trip_rounds_down_on_chains(self):
        for mu in grid_measures(C3, 2):
            back = filter_to_measure(presentation_of_measure(mu, 2))
            for a in range(C3.n):
                expected = max(
                    q for q in (F(0), F(1, 2), F(1)) if iota_exact(q) <= mu(a)
                )
                assert back(a) == iota_exact(expected)

    def test_presentation_induces_non_measure(self):
        # rounding an approx/exact complement pair breaks additivity
        mu = Measure(
            B4, (ZERO, parse_gamma("1/2^-"), parse_gamma("1/2^o"), ONE)
        )
        with pytest.raises(PresentationError):
            filter_to_measure(presentation_of_measure(mu, 2))


def _traced_peak(f) -> int:
    """The tracemalloc peak of calling ``f``."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPresentationBudget:
    """A presentation is one level per element, so nothing it builds grows
    with k."""

    def test_empty_presentation_builds_no_grid(self):
        assert _traced_peak(lambda: FilterPresentation(C3, 10**6, (0, 0, 0))) < 2**20
        assert _traced_peak(lambda: FilterPresentation(C3, 10**30, (0, 3 * 10**29, 10**30 + 1))) < 2**20

    def test_thresholds_on_the_grid(self):
        for k in (1, 6, 10**30):
            assert FilterPresentation(C3, k, (0, 1, k + 1)).levels == (0, 1, k + 1)
            with pytest.raises(DomainError, match=f"level {k + 2} of 1 is not an integer in 0..{k + 1}"):
                FilterPresentation(C3, k, (0, 1, k + 2))
        for k in (0, -6):
            with pytest.raises(DomainError, match="grid resolution must be positive"):
                FilterPresentation(C3, k, (0, 0, 0))
            with pytest.raises(DomainError, match="grid resolution must be positive"):
                presentation_of_measure(grid_measures(C3, 1)[0], k)

    def test_resolution_is_an_integer_at_least_one(self):
        # one check, naming k, before a Fraction, a range or a comparison
        # could trip over a float or a string
        C = chain(3)
        mu = grid_measures(C, 1)[0]
        for k in (2.5, "3", 0, -1, F(3), None):
            message = re.escape(f"k = {k!r} is not an integer >= 1")
            for call in (
                lambda: grid_measures(C, k),
                lambda: check_soundness_grid(C, k),
                lambda: entails_grid(fo.TRUE, fo.TRUE, C, k),
                lambda: FilterPresentation(C, k, (1, 2, 3)),
                lambda: presentation_of_measure(mu, k),
                lambda: gamma.GammaGrid(k),
                lambda: gamma.grid_rationals(k),
            ):
                with pytest.raises(DomainError, match=message):
                    call()
        assert len(grid_measures(C, np.int64(2))) == len(grid_measures(C, 2))

    def test_filter_to_measure_at_huge_k(self):
        mu = Measure(C3, (ZERO, iota_exact(F(1, 2)), ONE))
        for k in (10**9, 10**30):
            # 0, 1/2 and 1 on C3 hold 1, k/2 + 1 and k + 1 thresholds
            pres = FilterPresentation(C3, k, (1, k // 2 + 1, k + 1))
            assert _traced_peak(lambda: filter_to_measure(pres)) < 2**20
            assert filter_to_measure(pres) == mu
            with pytest.raises(PresentationError) as exc:
                filter_to_measure(FilterPresentation(C3, k, (1, k + 1, k)))
            assert str(exc.value) == "order closure fails: (1, d) present but (1, 1) missing"

    def test_presentation_of_measure_at_huge_k(self):
        mu = Measure(C3, (ZERO, parse_gamma("1/3^-"), ONE))
        for k in (10**9, 10**30):
            assert _traced_peak(lambda: presentation_of_measure(mu, k)) < 2**20
            # the largest i with (i/k)^o <= 1/3^- is ceil(k/3) - 1
            assert presentation_of_measure(mu, k).levels == (1, -(-k // 3), k + 1)


def _filter_outcome(to_measure, *args):
    """The measure ``to_measure`` induces from ``args``, or its error's text."""
    try:
        return to_measure(*args)
    except PresentationError as exc:
        return str(exc)


class TestFilterKernel:
    """The level-vector closure and the projection against the member-set
    loops and comparisons kept as references in conftest."""

    @pytest.mark.parametrize("D", [C3, B4, P23], ids=["C3", "B4", "2x3"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_the_references(self, D, k):
        kinds = set()
        for levels in itertools.product(range(k + 2), repeat=D.n):
            pres = FilterPresentation(D, k, levels)
            got = _filter_outcome(filter_to_measure, pres)
            assert got == _filter_outcome(reference_filter_to_measure, D, k, prefix_members(pres))
            if isinstance(got, str):
                kinds.add(got.split(" fails")[0].split(" does")[0])
        # every kind of PresentationError is met
        assert kinds == {"order closure", "presentation"}
        # the image of the grid measures is their ranks halved, plus one
        measures = grid_measures(D, k)
        for mu, ranks in zip(measures, measures.ranks):
            assert presentation_of_measure(mu, k).levels == tuple(ranks // 2 + 1)
        # measures on the grid k + 1 (mixed denominators)
        for mu in grid_measures(D, k + 1):
            assert presentation_of_measure(mu, k) == reference_presentation_of_measure(mu, k)

    def test_first_violation_in_element_threshold_order(self):
        # on B4, a misses 1/2 at the top and b misses 1/4 at the top; a
        # comes first, then among b's failures the lower threshold
        with pytest.raises(PresentationError) as exc:
            filter_to_measure(FilterPresentation(B4, 4, (1, 3, 2, 1)))
        assert str(exc.value) == "order closure fails: (1/4, a) present but (1/4, 1) missing"
        with pytest.raises(PresentationError) as exc:
            filter_to_measure(FilterPresentation(B4, 4, (1, 3, 2, 2)))
        assert str(exc.value) == "order closure fails: (1/2, a) present but (1/2, 1) missing"
        # the first b above a that misses the threshold is named
        with pytest.raises(PresentationError) as exc:
            filter_to_measure(FilterPresentation(C3, 2, (2, 1, 1)))
        assert str(exc.value) == "order closure fails: (1/2, 0) present but (1/2, d) missing"


class TestOneAST:
    """Threshold formulas are ``fo`` connective trees over GE/LT leaves."""

    def test_parsed_connectives_are_fo_nodes(self):
        phi = parse_pl_formula("[>= 1/2]{a} & !true", lattice=B4)
        assert phi == fo.And(GE(F(1, 2), A_IDX), fo.Not(fo.TRUE))
        assert str(phi) == f"(GE(threshold=Fraction(1, 2), subject={A_IDX}) & !(true))"

    def test_precedence_is_fo_s_without_implication(self):
        # ! over & over |, both binary connectives left-associative
        phi = parse_pl_formula("[>= 1/2]{a} | ![< 1]{b} & true | false", lattice=B4)
        left = fo.Or(GE(F(1, 2), A_IDX), fo.And(fo.Not(LT(F(1), B_IDX)), fo.TRUE))
        assert phi == fo.Or(left, fo.FALSE)
        with pytest.raises(ParseError, match="unexpected '->'"):
            parse_pl_formula("true -> false", lattice=B4)

    def test_fo_only_nodes_are_not_threshold_formulas(self):
        mu = grid_measures(B4, 2)[0]
        for phi in (
            fo.Atom("lt", ("x", "y")),
            fo.Exists("x", fo.TRUE),
            fo.Or(fo.FALSE, fo.Not(fo.Eq("x", "y"))),
        ):
            with pytest.raises(DomainError, match="not a threshold-logic node"):
                eval_pl_measure(mu, phi)
            for lhs, rhs in ((phi, fo.TRUE), (fo.TRUE, phi)):
                with pytest.raises(DomainError, match="not a threshold-logic node"):
                    entails_grid(lhs, rhs, B4, 2)

    def test_threshold_formulas_are_not_counted(self):
        A = gen_example_structure(2)
        phi = parse_pl_formula("[>= 1/2]{lt(x, y)} | !true", signature=fo.POSET_SIGNATURE)
        for psi in (phi, phi.left, fo.Exists("x", phi)):
            with pytest.raises(DomainError, match="not an evaluable node"):
                fo.count_satisfying(A, psi, ("x", "y"))


class TestPLSyntax:
    def test_structure_subjects(self):
        sig = fo.POSET_SIGNATURE
        phi = parse_pl_formula("[>= 2/3]{ lt(x,y) } & ![< 1/3]{ true }", signature=sig)
        assert isinstance(phi, fo.And)
        assert isinstance(phi.left, GE)
        assert phi.left.threshold == F(2, 3)

    def test_lattice_subjects(self):
        phi = parse_pl_formula("[>= 1/2]{a} | [< 1]{b}", lattice=B4)
        assert phi == fo.Or(GE(F(1, 2), A_IDX), LT(F(1), B_IDX))

    def test_float_thresholds_are_refused(self):
        for kind in (GE, LT):
            with pytest.raises(DomainError, match=r"^0\.1 is not an exact rational$"):
                kind(0.1, 0)
        assert GE(1, 0).threshold == F(1)

    def test_literals_and_parens(self):
        phi = parse_pl_formula("!(true & false)", lattice=B4)
        assert phi == fo.Not(fo.And(fo.TRUE, fo.FALSE))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_pl_formula("[>= 2/3]{a", lattice=B4)
        with pytest.raises(ParseError, match="^1:17: expected '}'$"):
            parse_pl_formula("[>= 1/2]{lt(x,y)", signature=fo.POSET_SIGNATURE)
        with pytest.raises(ParseError):
            parse_pl_formula("[~ 1/2]{a}", lattice=B4)
        with pytest.raises(ParseError):
            parse_pl_formula("[>= 3/2]{a}", lattice=B4)
        # digits int() rejects are no digits
        for text, column, message in (
            ("[>= ²]{a}", 5, "expected a rational threshold"),
            ("[>= 1/²]{a}", 7, "expected a denominator"),
        ):
            with pytest.raises(ParseError) as exc:
                parse_pl_formula(text, lattice=B4)
            assert (exc.value.line, exc.value.column, exc.value.message) == (1, column, message)

    def test_unknown_label_is_positioned(self):
        for text, (line, column, label) in {
            "[>= 1/2]{zz}": (1, 10, "zz"),
            "true &\n [< 1]{  qq }": (2, 10, "qq"),
        }.items():
            with pytest.raises(ParseError) as exc:
                parse_pl_formula(text, lattice=B4)
            assert (exc.value.line, exc.value.column) == (line, column), text
            assert exc.value.message == f"unknown element label {label!r}"

    def test_nesting_limit_positions_the_offending_token(self):
        limit = fo.MAX_NESTING
        for text, (line, column) in {
            "!" * 3000 + "true": (1, limit + 1),
            "(" * 3000 + "true" + ")" * 3000: (1, limit + 1),
            "true & " * 3000 + "true": (1, 7 * limit + 6),
            "true |\n" + "!" * 3000 + "true": (2, limit),
        }.items():
            with pytest.raises(ParseError) as exc:
                parse_pl_formula(text, lattice=B4)
            assert (exc.value.line, exc.value.column) == (line, column), text[:20]
            assert "nests deeper" in exc.value.message

    def test_subject_errors_are_positioned_in_the_whole_text(self):
        for text, (line, column) in {
            "true & [>= 1/2]{x = }": (1, 21),
            "true &\n [>= 1/2]{ x = x &\n  lt(x) }": (3, 3),
            "[>= 1/2]{\nx = x} & [< 1]{\n\n  x = }": (4, 7),
            "true & [>= 1/2]{" + "!" * 3000 + "x = x}": (1, 16 + fo.MAX_NESTING + 1),
        }.items():
            with pytest.raises(ParseError) as exc:
                parse_pl_formula(text, signature=fo.POSET_SIGNATURE)
            assert (exc.value.line, exc.value.column) == (line, column), text[:30]

    def test_deepest_formulas_evaluate(self):
        # a threshold formula at the limit around FO subjects at the limit,
        # the subject parsed twice so the plan cache compares equal formulas
        limit = fo.MAX_NESTING
        subject = "{" + "!" * limit + "x = x}"
        text = f"[>= 1/2]{subject} & " + "!" * (limit - 1) + f"[< 1/2]{subject}"
        A = gen_example_structure(3)
        phi = parse_pl_formula(text, signature=fo.POSET_SIGNATURE)
        assert eval_pl_structure(A, phi) is True
