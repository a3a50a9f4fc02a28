"""Pairing values, padding, distributions, and convergence verdicts."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import formulas, structures
from stonepair import fo, gamma, pairing
from stonepair.errors import DomainError, InternalInvariantError, SizeError
from stonepair.fo import Not, TRUE, FALSE, gen_example_structure, maximal_not_maximum
from stonepair.gamma import ONE, ONE_APPROX, ZERO, iota_exact
from stonepair.measure import integrate
from stonepair.pairing import (
    ConstantFamily,
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

    def test_psi_values(self):
        rep = pairing_sequence(FENCE, PSI, horizon=12)
        expected = [
            F(0), F(2, 3), F(0), F(2, 4), F(0), F(2, 5),
            F(0), F(2, 6), F(0), F(2, 7), F(0), F(2, 8),
        ]
        assert [r.classical for r in rep.results] == expected
        assert all(v.exact for v in rep.values)

    def test_psi_verdict(self):
        rep = pairing_sequence(FENCE, PSI, horizon=12)
        assert rep.exact
        assert rep.verdict.kind is VerdictKind.CONVERGES_EXACT
        assert rep.verdict.limit == ZERO
        assert rep.classical_estimate == 0

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
