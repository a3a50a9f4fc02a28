"""Pairing values, padding, distributions, and convergence verdicts."""

from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import ConstantFamily, formulas, structures
from stonepair import fo, gamma, pairing
from stonepair.errors import DomainError, InternalInvariantError, SizeError
from stonepair.fo import Not, TRUE, FALSE, gen_example_structure, maximal_not_maximum
from stonepair.gamma import ONE, ONE_APPROX, ZERO, iota_exact
from stonepair.measure import integrate
from stonepair.pairing import (
    FenceFamily,
    PairingResult,
    StructureFamily,
    VerdictKind,
    assignment_distribution,
    check_padding_invariance,
    padded_context,
    pairing_sequence,
    stone_pairing,
)

PSI = maximal_not_maximum()
BOUND_V1 = fo.parse_formula("exists v1. lt(x, v1)", fo.POSET_SIGNATURE)
FENCE = FenceFamily()


class TestStonePairing:
    def test_running_example(self):
        r = stone_pairing(gen_example_structure(2), PSI)
        assert (r.count, r.total) == (2, 3)
        assert r.classical == F(2, 3)
        assert r.gamma == iota_exact(F(2, 3))

    def test_tautology(self):
        r = stone_pairing(gen_example_structure(3), TRUE, ["x"])
        assert r.classical == 1 and r.gamma == ONE

    def test_negated_example_at_four(self):
        r = stone_pairing(gen_example_structure(4), Not(PSI), ["x"])
        assert (r.count, r.total) == (2, 4)
        assert r.gamma == iota_exact(F(1, 2))

    def test_sentence_uses_empty_context(self):
        A = gen_example_structure(1)
        phi = fo.parse_formula("exists x. exists y. lt(x,y)", fo.POSET_SIGNATURE)
        r = stone_pairing(A, phi)
        assert (r.count, r.total) == (1, 1)

    def test_context_mismatch(self):
        with pytest.raises(DomainError):
            stone_pairing(gen_example_structure(2), PSI, ["y"])

    def test_gamma_always_exact(self):
        for n in range(1, 6):
            r = stone_pairing(gen_example_structure(n), PSI)
            assert r.gamma.exact
            assert gamma.gamma_collapse(r.gamma) == r.classical

    def test_endpoints(self):
        A = gen_example_structure(2)
        assert stone_pairing(A, FALSE, ["x"]).classical == 0
        assert stone_pairing(A, TRUE, ["x"]).classical == 1

    @settings(max_examples=80, deadline=None)
    @given(structures(), formulas())
    def test_denominator_confinement(self, A, phi):
        r = stone_pairing(A, phi, ["x", "y"])
        assert (A.size ** 2) % r.classical.denominator == 0

    @settings(max_examples=80, deadline=None)
    @given(structures(), formulas(), formulas())
    def test_classical_additivity(self, A, phi, psi):
        ctx = ["x", "y"]
        lhs = stone_pairing(A, phi, ctx).classical + stone_pairing(A, psi, ctx).classical
        rhs = (
            stone_pairing(A, fo.Or(phi, psi), ctx).classical
            + stone_pairing(A, fo.And(phi, psi), ctx).classical
        )
        assert lhs == rhs

    @settings(max_examples=80, deadline=None)
    @given(structures(), formulas(), formulas())
    def test_measure_inequalities(self, A, phi, psi):
        ctx = ["x", "y"]
        mu_a = stone_pairing(A, phi, ctx).gamma
        mu_b = stone_pairing(A, psi, ctx).gamma
        lo = stone_pairing(A, fo.And(phi, psi), ctx).gamma
        hi = stone_pairing(A, fo.Or(phi, psi), ctx).gamma
        assert gamma.miss(mu_a, lo) <= gamma.mip(hi, mu_b)
        assert gamma.mip(mu_a, lo) >= gamma.miss(hi, mu_b)

    @settings(max_examples=60, deadline=None)
    @given(structures(), formulas(), formulas())
    def test_pairing_is_a_measure_on_the_formula_lattice(self, A, phi, psi):
        # the free two-generator lattice, with pairing values at each node
        from stonepair.lattice import FiniteLattice
        from stonepair.measure import Measure, validate_measure

        L = FiniteLattice(
            ["bot", "meet", "lhs", "rhs", "join", "top"],
            [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
        )
        ctx = ["x", "y"]
        mu = Measure(
            L,
            (
                stone_pairing(A, fo.FALSE, ctx).gamma,
                stone_pairing(A, fo.And(phi, psi), ctx).gamma,
                stone_pairing(A, phi, ctx).gamma,
                stone_pairing(A, psi, ctx).gamma,
                stone_pairing(A, fo.Or(phi, psi), ctx).gamma,
                stone_pairing(A, fo.TRUE, ctx).gamma,
            ),
        )
        assert validate_measure(mu) == []


class TestContexts:
    def test_default_is_free_vars(self):
        assert fo.free_vars(PSI) == ("x",)
        A = gen_example_structure(4)
        assert stone_pairing(A, PSI) == stone_pairing(A, PSI, ("x",))

    def test_padding_avoids_collisions(self):
        ctx = padded_context(PSI, 3)
        assert ctx[0] == "x" and len(ctx) == 3 and len(set(ctx)) == 3
        assert "y" not in ctx and "z" not in ctx  # bound names stay free for reuse

    def test_padding_may_reuse_a_bound_name(self):
        # every binder is its own axis, so v1 pads beside exists v1
        assert padded_context(BOUND_V1, 3) == ("x", "v1", "v2")

    def test_too_small(self):
        with pytest.raises(DomainError):
            padded_context(fo.Eq("x", "y"), 1)


class TestDistribution:
    def test_two_points(self):
        f = assignment_distribution(gen_example_structure(1), ["x"])
        assert len(f.points) == 2
        assert set(f.weights) == {iota_exact(F(1, 2))}

    def test_nine_points(self):
        A = fo.FiniteStructure(fo.POSET_SIGNATURE, 3, {"lt": frozenset()})
        f = assignment_distribution(A, ["x", "y"])
        assert len(f.points) == 9
        assert set(f.weights) == {iota_exact(F(1, 9))}

    def test_integral_over_satisfying_set_is_pairing(self):
        for n in range(1, 7):
            A = gen_example_structure(n)
            f = assignment_distribution(A, ["x"])
            sat = fo.satisfying_set(A, PSI, ["x"])
            assert integrate(f, sat) == stone_pairing(A, PSI).gamma

    def test_assignments_are_counted_before_they_are_built(self, monkeypatch):
        # 3 ** 2 assignments of 176 + 8 * 2 bytes each
        A = fo.FiniteStructure(fo.POSET_SIGNATURE, 3, {"lt": frozenset()})
        size = 9 * pairing.assignment_bytes(2)
        assert size == 9 * 192
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", size)
        assert len(assignment_distribution(A, ["x", "y"]).points) == 9
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", size - 1)
        with pytest.raises(SizeError, match=f"the assignments would take {size} bytes"):
            assignment_distribution(A, ["x", "y"])


class TestPadding:
    def test_example_structure(self):
        assert check_padding_invariance(gen_example_structure(2), PSI, 1, 3) is None

    def test_padding_by_a_bound_name(self):
        for n in range(1, 9):
            assert check_padding_invariance(gen_example_structure(n), BOUND_V1, 1, 3) is None

    def test_sentences(self):
        phi = fo.parse_formula("exists x. exists y. lt(x,y)", fo.POSET_SIGNATURE)
        assert check_padding_invariance(gen_example_structure(2), phi, 0, 2) is None

    @settings(max_examples=60, deadline=None)
    @given(structures(), formulas())
    def test_random_corpus(self, A, phi):
        assert check_padding_invariance(A, phi, 2, 4) is None

    def test_rejects_shrinking(self):
        with pytest.raises(DomainError):
            check_padding_invariance(gen_example_structure(2), PSI, 3, 1)


class TestSequences:
    def test_directory_family_needs_one_file_per_index(self, tmp_path):
        for i in (1, 2):
            (tmp_path / f"{i}.struct").write_text("signature: lt/2\nuniverse: 2\nlt = {(0,1)}\n")
        family = pairing.DirectoryFamily(tmp_path)
        assert family.structure(2).size == 2
        with pytest.raises(DomainError) as exc:
            family.structure(3)
        assert str(exc.value) == f"expected exactly one file for index 3 in {tmp_path}"

    def test_directory_member_names(self, tmp_path):
        text = "signature: lt/2\nuniverse: {}\n"
        for name, size in (("1.struct", 1), ("002.struct", 2), ("0003", 3), ("4.a", 4), ("04.b", 4)):
            (tmp_path / name).write_text(text.format(size))
        (tmp_path / "5").mkdir()  # a directory is not a member
        (tmp_path / "6x.struct").write_text(text.format(6))  # nor is a stem with more than digits
        family = pairing.DirectoryFamily(tmp_path)
        assert [family.structure(i).size for i in (1, 2, 3)] == [1, 2, 3]
        for index in (4, 5, 6):
            with pytest.raises(DomainError, match=f"expected exactly one file for index {index} in "):
                family.structure(index)

    def test_directory_is_listed_once(self, tmp_path, monkeypatch):
        text = "signature: lt/2\nuniverse: 2\n"
        for i in range(1, 9):
            (tmp_path / f"{i}.struct").write_text(text)
        listed, loaded = [], []
        iterdir, load = Path.iterdir, fo.load
        monkeypatch.setattr(Path, "iterdir", lambda p: listed.append(p) or iterdir(p))
        monkeypatch.setattr(fo, "load", lambda path, parse: loaded.append(path) or load(path, parse))
        family = pairing.DirectoryFamily(tmp_path)
        rep = pairing_sequence(family, TRUE, ("x",), horizon=8)
        assert listed == [tmp_path]
        assert len(loaded) == 8
        assert rep.verdict.limit == ONE
        # files added after the first listing are not seen
        (tmp_path / "9.struct").write_text(text)
        with pytest.raises(DomainError, match="expected exactly one file for index 9"):
            family.structure(9)

    def test_base_family_names_its_class(self):
        with pytest.raises(DomainError) as exc:
            pairing_sequence(StructureFamily(), TRUE, (), 4)
        assert str(exc.value) == "family family failed at index 1: StructureFamily defines no members"

    def test_psi_values(self):
        rep = pairing_sequence(FENCE, PSI, horizon=12)
        expected = [
            F(0), F(2, 3), F(0), F(2, 4), F(0), F(2, 5),
            F(0), F(2, 6), F(0), F(2, 7), F(0), F(2, 8),
        ]
        assert [r.classical for r in rep.results] == expected
        assert all(r.gamma.exact for r in rep.results)

    def test_psi_verdict(self):
        rep = pairing_sequence(FENCE, PSI, horizon=12)
        assert rep.exact
        assert rep.verdict.kind is VerdictKind.CONVERGES_EXACT
        assert rep.verdict.limit == ZERO

    def test_not_psi_values(self):
        rep = pairing_sequence(FENCE, Not(PSI), horizon=12)
        expected = [
            F(1), F(1, 3), F(1), F(2, 4), F(1), F(3, 5),
            F(1), F(4, 6), F(1), F(5, 7), F(1), F(6, 8),
        ]
        assert [r.classical for r in rep.results] == expected

    def test_not_psi_verdict(self):
        rep = pairing_sequence(FENCE, Not(PSI), horizon=12)
        assert rep.exact
        assert rep.verdict.kind is VerdictKind.DIVERGENT_AT_HORIZON
        assert rep.odd.kind is VerdictKind.CONVERGES_EXACT
        assert rep.odd.limit == ONE
        assert rep.even.kind is VerdictKind.CONVERGES_APPROX
        assert rep.even.limit == ONE_APPROX

    def test_closed_form_recognised_up_to_renaming(self):
        text = "(forall w. !lt(x,w)) & (exists u. !lt(u,x) & !(u = x))"
        phi = fo.parse_formula(text, fo.POSET_SIGNATURE)
        rep = pairing_sequence(FENCE, phi, horizon=8)
        assert rep.exact

    @pytest.mark.parametrize(
        "text, negated",
        [
            # free and bound variables renamed
            ("(forall w. !lt(v,w)) & (exists u. !lt(u,v) & !(u = v))", False),
            # constants folded away, and an implication
            ("((forall y. !lt(x,y)) & true) & (exists z. !lt(z,x) & !(z = x))", False),
            ("((forall y. !lt(x,y)) & (exists z. !lt(z,x) & !(z = x))) | false", False),
            ("!((forall w. !lt(v,w)) & (exists u. !lt(u,v) & !(u = v)))", True),
            ("((forall y. !lt(x,y)) & (exists z. !lt(z,x) & !(z = x))) -> false", True),
        ],
    )
    def test_closed_form_recognised_by_plan(self, text, negated):
        phi = fo.parse_formula(text, fo.POSET_SIGNATURE)
        rep = pairing_sequence(FENCE, phi, horizon=8)
        assert rep.exact
        if negated:
            assert (rep.odd.limit, rep.even.limit) == (ONE, ONE_APPROX)
        else:
            assert rep.verdict.kind is VerdictKind.CONVERGES_EXACT and rep.verdict.limit == ZERO

    @pytest.mark.parametrize(
        "text",
        [
            # a double negation compiles to two NOT nodes: no closed form
            "!!((forall y. !lt(x,y)) & (exists z. !lt(z,x) & !(z = x)))",
            # other relations or shapes
            "(forall y. !lt(y,x)) & (exists z. !lt(x,z) & !(z = x))",
            "(forall y. !lt(x,y)) & (exists z. !lt(z,x))",
        ],
    )
    def test_other_plans_fall_back_to_the_heuristic(self, text):
        phi = fo.parse_formula(text, fo.POSET_SIGNATURE)
        assert FENCE.closed_form(phi) is None
        assert not pairing_sequence(FENCE, phi, horizon=8).exact

    def test_constant_family(self):
        rep = pairing_sequence(ConstantFamily(gen_example_structure(2)), PSI, horizon=8)
        assert not rep.exact
        assert rep.verdict.kind is VerdictKind.CONVERGES_EXACT
        assert rep.verdict.limit == iota_exact(F(2, 3))

    def test_parity_limits_that_differ_make_the_whole_divergent(self):
        class Alternating(StructureFamily):
            def structure(self, index):
                return gen_example_structure(2 if index % 2 else 4)

        rep = pairing_sequence(Alternating(), PSI, horizon=8)
        assert (rep.odd.limit, rep.even.limit) == (iota_exact(F(2, 3)), iota_exact(F(1, 2)))
        assert rep.verdict == pairing.Verdict(VerdictKind.DIVERGENT_AT_HORIZON)

    def test_heuristic_without_closed_form(self):
        # a formula the fence family has no closed form for
        phi = fo.parse_formula("exists y. lt(x,y)", fo.POSET_SIGNATURE)
        rep = pairing_sequence(FENCE, phi, horizon=12)
        assert not rep.exact
        assert rep.verdict.kind in (
            VerdictKind.DIVERGENT_AT_HORIZON,
            VerdictKind.INCONCLUSIVE,
        )

    def test_horizon_guard(self):
        for horizon in (3, 4.5, 12.0, "12", None):
            with pytest.raises(DomainError, match="horizon must be at least 4"):
                pairing_sequence(FENCE, PSI, horizon=horizon)

    def test_first_and_last_members_are_built_first(self):
        built = []

        class Recorded(StructureFamily):
            def structure(self, index):
                built.append(index)
                return gen_example_structure(index)

        rep = pairing_sequence(Recorded(), PSI, horizon=8)
        assert built == [1, 8, 2, 3, 4, 5, 6, 7]
        assert rep.results == pairing_sequence(FENCE, PSI, horizon=8).results

    def test_family_failure_names_index(self):
        class Broken(StructureFamily):
            def structure(self, index):
                raise ValueError("no such member")

        with pytest.raises(DomainError, match="failed at index 1: no such member"):
            pairing_sequence(Broken(), PSI, horizon=4)

    def test_family_invariant_error_not_wrapped(self):
        class Inconsistent(StructureFamily):
            def structure(self, index):
                raise InternalInvariantError("member disagrees with itself")

        with pytest.raises(InternalInvariantError) as info:
            pairing_sequence(Inconsistent(), PSI, horizon=4)
        assert type(info.value) is InternalInvariantError


class TestStackedSequences:
    """``pairing_sequence`` counts its members in padded stacks
    (``fo.count_satisfying_stack``); the pairings, refusals and build order
    are those of counting one member at a time."""

    SEQUENCES = (
        (PSI, ("x",)),
        (Not(PSI), ("x",)),
        (fo.parse_formula("y = x | lt(y,x)", fo.POSET_SIGNATURE), ("x", "y")),
    )

    @staticmethod
    def per_member(phi, ctx, horizon):
        return tuple(stone_pairing(FENCE.structure(i), phi, ctx) for i in range(1, horizon + 1))

    @pytest.mark.parametrize("horizon", [4, 5, 12, 31, 64])
    def test_pairings_are_the_per_member_pairings(self, horizon):
        for phi, ctx in self.SEQUENCES:
            rep = pairing_sequence(FENCE, phi, ctx, horizon)
            assert rep.results == self.per_member(phi, ctx, horizon), (phi, horizon)

    def test_stack_sizes_do_not_change_the_pairings(self, monkeypatch):
        stacks = []  # the member sizes of each stack counted
        count_stack = fo._count_stack

        def recorded(members, *args):
            stacks.append([A.size for A in members])
            return count_stack(members, *args)

        for phi, ctx in self.SEQUENCES:
            expected = self.per_member(phi, ctx, 40)
            with monkeypatch.context() as mp:
                mp.setattr(fo, "_count_stack", recorded)
                stacks.clear()
                assert pairing_sequence(FENCE, phi, ctx, 40).results == expected
                assert len(stacks) == 1  # 21 elements at most: one stack
                mp.setattr(fo, "STACK_BYTES", 0)
                stacks.clear()
                assert pairing_sequence(FENCE, phi, ctx, 40).results == expected
                assert [len(s) for s in stacks] == [1] * 40
                # room for three members of 21 elements, more of fewer
                plan = fo._plan(phi, ctx)
                cap = fo._stack_bytes(3, 21, fo.POSET_SIGNATURE, plan)
                mp.setattr(fo, "STACK_ROOM", 1)
                mp.setattr(fo, "STACK_BYTES", cap)
                stacks.clear()
                assert pairing_sequence(FENCE, phi, ctx, 40).results == expected
                assert sum(map(len, stacks)) == 40 and len(stacks) > 3
                for sizes in stacks:
                    assert fo._stack_bytes(len(sizes), max(sizes), fo.POSET_SIGNATURE, plan) <= cap
                    assert len(sizes) <= 3 or max(sizes) < 21

    def test_a_horizon_of_sixty_four_is_one_stack(self, monkeypatch):
        # 64 members of at most 34 elements and the stack's one count buffer
        # take 64 * 5848 + 65536 bytes, under STACK_BYTES
        plan = fo._plan(PSI, ("x",))
        assert max(FENCE.structure(i).size for i in range(1, 65)) == 34
        assert fo._stack_bytes(64, 34, fo.POSET_SIGNATURE, plan) == 64 * 5848 + 8 * np.getbufsize()
        stacks = []
        count_stack = fo._count_stack
        monkeypatch.setattr(fo, "_count_stack", lambda m, *a: stacks.append(len(m)) or count_stack(m, *a))
        assert pairing_sequence(FENCE, PSI, ("x",), 64).results == self.per_member(PSI, ("x",), 64)
        assert stacks == [64]

    def test_a_member_that_cannot_be_counted_fails_before_the_next_is_built(self, tmp_path):
        # member 2 has no lt, and member 3, built after it, is missing
        (tmp_path / "1.struct").write_text("signature: lt/2\nuniverse: 2\nlt = {(0,1)}\n")
        (tmp_path / "2.struct").write_text("signature: r/2\nuniverse: 2\nr = {(0,1)}\n")
        (tmp_path / "4.struct").write_text("signature: lt/2\nuniverse: 3\nlt = {(0,1)}\n")
        with pytest.raises(DomainError) as exc:
            pairing_sequence(pairing.DirectoryFamily(tmp_path), PSI, horizon=4)
        assert str(exc.value) == "structure has no relation lt/2"

    def test_a_member_past_the_budget_fails_with_its_own_charge(self, monkeypatch):
        built = []

        class Recorded(StructureFamily):
            def structure(self, index):
                built.append(index)
                return gen_example_structure(index)

        # member 64 has 34 elements: its lt table fits the budget, its two
        # counting tensors do not
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 2000)
        with pytest.raises(SizeError) as exc:
            pairing_sequence(Recorded(), PSI, horizon=64)
        assert str(exc.value) == "the counting tensors would take 2312 bytes; the guard is 2000"
        assert built == [1, 64]


class TestPairingResult:
    def test_invariants(self):
        r = PairingResult.from_counts(2, 4)
        assert r.classical == F(1, 2)
        assert r.gamma == iota_exact(F(1, 2))
        assert r.gamma.exact

    def test_from_counts_equals_the_validating_construction(self):
        for total in range(1, 37):
            for count in range(total + 1):
                r = PairingResult.from_counts(count, total)
                classical = F(count, total)
                assert r == PairingResult(count, total, classical, iota_exact(classical))
                assert type(r.gamma.value) is F and r.gamma.exact is True

    @pytest.mark.parametrize(
        "count, total, message",
        [(5, 4, "5/4 lies outside [0, 1]"), (-1, 4, "-1/4 lies outside [0, 1]")],
    )
    def test_from_counts_outside_the_total(self, count, total, message):
        with pytest.raises(DomainError) as exc:
            PairingResult.from_counts(count, total)
        assert str(exc.value) == message
