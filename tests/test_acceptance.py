"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The corpus used by criteria 4 to 7 is built once: 200
seeded random structures (universe at most 5, one binary relation) crossed
with 200 seeded random formula pairs (depth at most 3, free variables among
x, y), paired through the public pairing entry point.
"""

import random
import time
from fractions import Fraction as F

import pytest

from conftest import (
    random_classical_measure,
    random_formula,
    random_structure,
    small_lattice_corpus,
)
from stonepair import fo
from stonepair.chains import verify_duality
from stonepair.fo import Not, gen_example_structure, maximal_not_maximum
from stonepair.gamma import (
    ONE,
    ONE_APPROX,
    ZERO,
    GammaGrid,
    gamma_collapse,
    iota_approx,
    iota_exact,
    mip,
    miss,
    plus,
)
from stonepair.lattice import boolean_algebra, chain
from stonepair.measure import (
    FinSuppFn,
    Measure,
    collapse_measure,
    integrate,
    integration_measure,
    lift_measure,
    validate_measure,
)
from stonepair.pairing import (
    FenceFamily,
    VerdictKind,
    assignment_distribution,
    check_padding_invariance,
    pairing_sequence,
    stone_pairing,
)
from stonepair.pl import (
    GE,
    check_soundness_grid,
    entails_grid,
    eval_pl_measure,
    filter_to_measure,
    grid_measures,
    presentation_of_measure,
)

PSI = maximal_not_maximum()
B4 = boolean_algebra(2)
C3 = chain(3, ["0", "d", "1"])

CORPUS_SEED = 20260809
N_STRUCTURES = 200
N_FORMULA_PAIRS = 200
CONTEXT = ("x", "y")


def _report(number: int, elapsed: float, description: str) -> None:
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s)  {description}")


@pytest.fixture(scope="module")
def corpus():
    """Structures, formula pairs, and the cross product of pairing results.

    For each (structure, pair) combination the four pairings of phi, psi,
    phi & psi, phi | psi are computed over the two-variable context through
    ``stone_pairing``.  Build time is charged to criterion 4's budget.
    """
    rng = random.Random(CORPUS_SEED)
    structures = [random_structure(rng, max_size=5) for _ in range(N_STRUCTURES)]
    pairs = [
        (random_formula(rng, 3), random_formula(rng, 3))
        for _ in range(N_FORMULA_PAIRS)
    ]
    started = time.perf_counter()
    records = []
    for A in structures:
        for phi, psi in pairs:
            records.append(
                (
                    A,
                    stone_pairing(A, phi, CONTEXT),
                    stone_pairing(A, psi, CONTEXT),
                    stone_pairing(A, fo.And(phi, psi), CONTEXT),
                    stone_pairing(A, fo.Or(phi, psi), CONTEXT),
                )
            )
    build_time = time.perf_counter() - started
    return {
        "structures": structures,
        "pairs": pairs,
        "records": records,
        "build_time": build_time,
    }


def test_criterion_01_fence_sequence_values():
    started = time.perf_counter()
    fence = FenceFamily()
    rep = pairing_sequence(fence, PSI, horizon=12)
    values = [r.classical for r in rep.results]
    for i, v in enumerate(values, start=1):
        if i % 2 == 1:
            assert v == 0, f"odd index {i} must pair to zero"
        else:
            assert v == F(2, i // 2 + 2), f"even index {i}"
    # the printed early terms, including the corrected fifth one
    assert values[1] == F(2, 3) and values[3] == F(2, 4) and values[5] == F(2, 5)
    assert values[4] == 0
    assert all(r.gamma.exact for r in rep.results)

    rep_neg = pairing_sequence(fence, Not(PSI), horizon=12)
    neg_values = [r.classical for r in rep_neg.results]
    expected_neg = [1 if i % 2 == 1 else 1 - F(2, i // 2 + 2) for i in range(1, 13)]
    assert neg_values == expected_neg
    assert neg_values[:6] == [1, F(1, 3), 1, F(2, 4), 1, F(3, 5)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, elapsed, "fence pairing sequences match the closed forms")


def test_criterion_02_fence_convergence_verdicts():
    started = time.perf_counter()
    fence = FenceFamily()
    rep = pairing_sequence(fence, PSI, horizon=12)
    assert rep.exact, "verdict must come from the closed form"
    assert rep.verdict.kind is VerdictKind.CONVERGES_EXACT
    assert rep.verdict.limit == ZERO

    rep_neg = pairing_sequence(fence, Not(PSI), horizon=12)
    assert rep_neg.exact
    assert rep_neg.verdict.kind is VerdictKind.DIVERGENT_AT_HORIZON
    assert rep_neg.odd.kind is VerdictKind.CONVERGES_EXACT
    assert rep_neg.odd.limit == ONE
    assert rep_neg.even.kind is VerdictKind.CONVERGES_APPROX
    assert rep_neg.even.limit == ONE_APPROX

    # the coordinates assemble to measures on the four-element formula lattice
    for index in range(1, 13):
        A = gen_example_structure(index)
        mu = Measure(
            B4,
            (
                ZERO,
                stone_pairing(A, PSI).gamma,
                stone_pairing(A, Not(PSI), ("x",)).gamma,
                ONE,
            ),
        )
        assert validate_measure(mu) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, elapsed, "tagged verdicts: 0^o limit, odd 1^o / even 1^- split")


def test_criterion_03_interval_algebra_laws():
    started = time.perf_counter()
    points = GammaGrid(12).points
    assert len(points) == 25
    n = len(points)
    # grid order agrees with list rank (checked with the real comparisons),
    # so the exhaustive sweeps below may compare integer ranks
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            assert (x <= y) == (i <= j)
    rank = {x: i for i, x in enumerate(points)}

    # every operator value is computed once through the real operation
    mip_t = {(i, j): rank[mip(points[i], points[j])] for i in range(n) for j in range(i + 1)}
    miss_t = {(i, j): rank[miss(points[i], points[j])] for i in range(n) for j in range(i + 1)}
    plus_t = {
        (j, i): rank[plus(y, x)]
        for j, y in enumerate(points)
        for i, x in enumerate(points)
        if y.value + x.value <= 1
    }

    for (i, j), m in mip_t.items():  # miss below mip; collapse compatibility
        d = gamma_collapse(points[i]) - gamma_collapse(points[j])
        assert miss_t[(i, j)] <= m
        assert gamma_collapse(points[m]) == d
        assert gamma_collapse(points[miss_t[(i, j)]]) == d

    for (j, i), s in plus_t.items():  # adjunction of plus and mip
        assert points[miss_t[(s, i)]] == iota_approx(gamma_collapse(points[j]))
        for z in range(i, n):
            assert (s <= z) == (j <= mip_t[(z, i)])

    for (i, j), m in mip_t.items():  # monotonicity in both arguments
        for i2 in range(i, n):
            for j2 in range(j + 1):
                assert m <= mip_t[(i2, j2)]
                assert miss_t[(i, j)] <= miss_t[(i2, j2)]

    for q in (F(a, 12) for a in range(13)):  # section and retraction
        assert gamma_collapse(iota_exact(q)) == q
        for y in points:
            assert (gamma_collapse(y) <= q) == (y <= iota_exact(q))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, elapsed, "interval algebra laws exhaustive on the 25-point grid")


def test_criterion_04_pairing_measure_axioms(corpus):
    started = time.perf_counter()
    checked = 0
    for A, r_phi, r_psi, r_and, r_or in corpus["records"]:
        assert r_phi.classical + r_psi.classical == r_and.classical + r_or.classical
        for a, b in ((r_phi, r_psi), (r_psi, r_phi)):
            assert miss(a.gamma, r_and.gamma) <= mip(r_or.gamma, b.gamma)
            assert mip(a.gamma, r_and.gamma) >= miss(r_or.gamma, b.gamma)
        checked += 1
    elapsed = time.perf_counter() - started + corpus["build_time"]
    assert checked == N_STRUCTURES * N_FORMULA_PAIRS
    assert elapsed < 30.0
    _report(4, elapsed, f"additivity and both inequalities on {checked} combinations")


def test_criterion_05_retraction_and_triangle(corpus):
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    lattices = small_lattice_corpus(max_size=8)
    for _ in range(100):
        L = lattices[rng.randrange(len(lattices))]
        m = random_classical_measure(L, rng)
        assert collapse_measure(lift_measure(m)) == m

    for _, r_phi, r_psi, r_and, r_or in corpus["records"]:
        for r in (r_phi, r_psi, r_and, r_or):
            assert gamma_collapse(r.gamma) == r.classical
            assert iota_exact(r.classical) == r.gamma

    # independent route: the tagged pairing as an integral of the uniform
    # assignment weights, compared against lift and collapse of the counts
    for A, (phi, psi) in zip(corpus["structures"], corpus["pairs"]):
        f = assignment_distribution(A, CONTEXT)
        for formula in (phi, psi):
            r = stone_pairing(A, formula, CONTEXT)
            via_integral = integrate(f, fo.satisfying_set(A, formula, CONTEXT))
            assert via_integral == iota_exact(r.classical)
            assert gamma_collapse(via_integral) == r.classical
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, elapsed, "collapse/lift retraction and the pairing triangle")


def test_criterion_06_padding_invariance(corpus):
    started = time.perf_counter()
    cases = 0
    for A, (phi, psi) in zip(corpus["structures"], corpus["pairs"]):
        for formula in (phi, psi):
            base = len(fo.free_vars(formula))
            for n in range(base, 5):
                for m in range(n, 5):
                    assert check_padding_invariance(A, formula, n, m) is None
                    cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(6, elapsed, f"padding invariance exact on {cases} context pairs")


def _powerset(points):
    sets = [frozenset()]
    for p in points:
        sets += [s | {p} for s in sets]
    return sets


def test_criterion_07_integration(corpus):
    started = time.perf_counter()
    for A, (phi, psi) in zip(corpus["structures"], corpus["pairs"]):
        f = assignment_distribution(A, CONTEXT)
        for formula in (phi, psi):
            sat = fo.satisfying_set(A, formula, CONTEXT)
            assert integrate(f, sat) == stone_pairing(A, formula, CONTEXT).gamma

    rng = random.Random(CORPUS_SEED + 2)
    for _ in range(100):
        size = 1 + rng.randrange(6)
        denom = 1 + rng.randrange(30)
        cuts = sorted(rng.randrange(denom + 1) for _ in range(size - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        f = FinSuppFn(
            tuple(range(size)),
            tuple(iota_exact(F(p, denom)) for p in parts),
        )
        _, mu = integration_measure(f, _powerset(range(size)))
        assert validate_measure(mu) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(7, elapsed, "integrals match pairings; powerset integrals validate")


def test_criterion_08_threshold_logic_soundness():
    started = time.perf_counter()
    expected_totals = {C3: 1645, B4: 2875}
    for D in (C3, B4):
        report = check_soundness_grid(D, 4)
        assert report.failures == (), f"countermodel found on {D.labels}"
        assert report.total_instances == expected_totals[D]

    a, na = B4.index_of("a"), B4.index_of("b")
    assert entails_grid(GE(F(3, 4), a), GE(F(1, 2), a), B4, 4).holds
    spot = entails_grid(GE(F(1, 2), a), Not(GE(F(3, 4), na)), B4, 4)
    assert spot.holds
    # brute-force confirmation of the spot check on the same grid universe
    for mu in grid_measures(B4, 4):
        if eval_pl_measure(mu, GE(F(1, 2), a)):
            assert not eval_pl_measure(mu, GE(F(3, 4), na))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(8, elapsed, "rules L1-L6 sound over all grid measures; spot checks hold")


def test_criterion_09_duality_suite():
    started = time.perf_counter()
    records = list(verify_duality(24, 10))
    elapsed = time.perf_counter() - started
    assert not any(r.failed for r in records)
    lines = [r.text for r in records]
    assert "adjunction n<=24: 123192 triples: PASS" in lines
    assert "oplus-preservation n<=24 m<=10: 55764 pairs: PASS" in lines
    assert "floor-ceiling n<=24 m<=10: 283716 pairs: PASS" in lines
    assert "projection-cone grid=10 n<=24 m<=10: 4536 cases: PASS" in lines
    assert (
        "ominus-counterexample n=2 m=2: u=T v=1/2: "
        "embed(u ominus v)=4/4, embed(u) ominus embed(v)=3/4" in lines
    )
    assert elapsed < 10.0
    _report(9, elapsed, "chain adjunctions, embeddings, derived tables, cone")


def test_criterion_10_desk_scale_substitutes():
    """Full completeness and the closure characterisation are out of reach at
    desk scale; this pins the property-based substitutes named for them."""
    started = time.perf_counter()
    # soundness direction stands in for completeness: filter round trip
    for D in (C3, B4):
        for mu in grid_measures(D, 4):
            if all(v.exact for v in mu.values):
                assert filter_to_measure(presentation_of_measure(mu, 4)) == mu

    # tagged convergence distinguishes what the collapsed values cannot:
    # the collapsed negated sequence converges to 1, the tagged one splits
    rep_neg = pairing_sequence(FenceFamily(), Not(PSI), horizon=12)
    collapsed = [gamma_collapse(r.gamma) for r in rep_neg.results]
    # collapsed distance from 1 is 0 at odd indices and 2/(k+2) at index 2k
    assert all(abs(1 - v) <= F(4, i + 4) for i, v in enumerate(collapsed, start=1))
    assert rep_neg.verdict.kind is VerdictKind.DIVERGENT_AT_HORIZON
    assert rep_neg.odd.limit != rep_neg.even.limit
    assert gamma_collapse(rep_neg.odd.limit) == gamma_collapse(rep_neg.even.limit) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(10, elapsed, "filter round trip and tag-sensitive convergence substitutes")
