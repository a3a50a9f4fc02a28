"""The workloads: seeded inputs, the op list of one pass, output checks.

A workload is built from a seed and owns ``ops``, one pass of the closed
loop.  Each ``Op`` has a label that names its inputs, a ``call`` that makes
one or more calls into the program's public functions, and a ``check`` that
decides, outside the timed region, whether the output is right.  Ops look
functions up on their modules at call time, so a traced run sees them.

The op mix of a pass is fixed by the workload; the seed picks the concrete
structures, formulas, queries and measures.  Costs therefore depend on the
seed only through the inputs' details, which keeps runs on different seeds
comparable.  Where an op's cost class matters for the percentiles (fo-large,
order-checks), the pass is laid out so that p50 and p90 fall inside a group
of ops of one size; see README.md.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import inputs
from stonepair import chains, cli, fo, gamma, lattice, measure, pairing, pl
from stonepair.gamma import GammaValue


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    name = ""
    probe_job = "objects"  # the speed probe's job that resembles the ops' work
    ops: list[Op]


# -- pairing-corpus -------------------------------------------------------------------

CONTEXT = ("x", "y")


def _pair4(A, formulas):
    """Acceptance criterion 4's unit: pair phi, psi, phi & psi, phi | psi,
    then check additivity and both inequalities of the doubled interval."""
    results = [pairing.stone_pairing(A, f, CONTEXT) for f in formulas]
    phi, psi, both, either = results
    ok = phi.classical + psi.classical == both.classical + either.classical
    for a, b in ((phi, psi), (psi, phi)):
        ok = ok and gamma.miss(a.gamma, both.gamma) <= gamma.mip(either.gamma, b.gamma)
        ok = ok and gamma.mip(a.gamma, both.gamma) >= gamma.miss(either.gamma, b.gamma)
    return tuple(results), ok


def _check_pair4(A, formulas, recount, out) -> bool:
    results, ok = out
    total = A.size ** len(CONTEXT)
    if not ok or any(r.total != total or r.classical != Fraction(r.count, total) for r in results):
        return False
    if not recount:
        return True
    assignments = [dict(zip(CONTEXT, (i, j))) for i in range(A.size) for j in range(A.size)]
    for f, r in zip(formulas, results):
        count = sum(fo.satisfies(A, alpha, f) for alpha in assignments)
        if r.count != count or r.gamma != GammaValue(Fraction(count, total), True):
            return False
    return True


class PairingCorpus(Workload):
    name = "pairing-corpus"
    STRUCTURES = 400
    PAIRS = 400
    PASS = 2000
    RECOUNT = 100  # ops per pass recounted with fo.satisfies

    def __init__(self, seed: int):
        rng = random.Random(seed)
        structures = [
            inputs.random_structure(rng, 1 + rng.randrange(5)) for _ in range(self.STRUCTURES)
        ]
        pairs = []
        for _ in range(self.PAIRS):
            phi = fo.parse_formula(inputs.random_formula(rng, 3), inputs.BINARY)
            psi = fo.parse_formula(inputs.random_formula(rng, 3), inputs.BINARY)
            pairs.append((phi, psi, fo.And(phi, psi), fo.Or(phi, psi)))
        recount = set(rng.sample(range(self.PASS), self.RECOUNT))
        self.ops = []
        for i in range(self.PASS):
            s, p = rng.randrange(self.STRUCTURES), rng.randrange(self.PAIRS)
            A, formulas = structures[s], pairs[p]
            self.ops.append(Op(
                f"pair4 structure={s} pair={p}",
                partial(_pair4, A, formulas),
                partial(_check_pair4, A, formulas, i in recount),
            ))


# -- fo-large -------------------------------------------------------------------------

FENCE_HORIZON = 64


def _check_count(A, phi, probes, count) -> bool:
    members = fo.satisfying_set(A, phi, ("x",))
    if count != len(members):
        return False
    return all(fo.satisfies(A, {"x": c}, phi) == ((c,) in members) for c in probes)


def _check_pairing(A, phi, probes, result) -> bool:
    return (
        result.total == A.size
        and result.classical == Fraction(result.count, A.size)
        and _check_count(A, phi, probes, result.count)
    )


def _fence_psi(index: int) -> Fraction:
    # closed form of the fence query: 0 on chains, 2/(k+2) at index 2k
    return Fraction(0) if index % 2 else Fraction(2, index // 2 + 2)


def _check_sequence(negated, report) -> bool:
    values = [r.classical for r in report.results]
    expected = [1 - _fence_psi(i) if negated else _fence_psi(i) for i in range(1, FENCE_HORIZON + 1)]
    if values != expected or not report.exact:
        return False
    if negated:
        return (
            report.verdict.kind is pairing.VerdictKind.DIVERGENT_AT_HORIZON
            and report.odd.limit == gamma.ONE
            and report.even.limit == gamma.ONE_APPROX
        )
    return report.verdict.kind is pairing.VerdictKind.CONVERGES_EXACT and report.verdict.limit == gamma.ZERO


class FoLarge(Workload):
    name = "fo-large"
    probe_job = "arrays"
    # (kind, |A|): counts on random relations, pairings on fence members, and
    # the two fence sequences.  Per-op times vary by a quarter from run to run
    # on a shared machine, so p50 and p90 are each held by a group of ops of
    # one size: six at |A| = 128 sit in the middle of the pass and four at
    # |A| = 224 fill its top fifth.
    PASS = (
        ("count", 48), ("pair", 64), ("count", 80), ("pair", 96), ("count", 112),
        ("count", 128), ("pair", 128), ("count", 128), ("pair", 128), ("count", 128), ("pair", 128),
        ("pair", 160), ("count", 176), ("pair", 192),
        ("count", 224), ("pair", 224), ("count", 224), ("pair", 224),
        ("sequence", 0), ("sequence", 1),
    )
    PROBES = 3  # x values re-decided with fo.satisfies per op

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        for kind, size in self.PASS:
            if kind == "sequence":
                negated = bool(size)
                text = f"!({inputs.FENCE_FORMULA})" if negated else inputs.FENCE_FORMULA
                phi = fo.parse_formula(text, fo.POSET_SIGNATURE)
                inputs.check_budget(phi, 1, FENCE_HORIZON // 2 + 2)
                self.ops.append(Op(
                    f"pairing_sequence fence horizon={FENCE_HORIZON} {text}",
                    lambda phi=phi: pairing.pairing_sequence(pairing.FenceFamily(), phi, None, FENCE_HORIZON),
                    partial(_check_sequence, negated),
                ))
                continue
            if kind == "count":
                A = inputs.random_structure(rng, size, out_degree=3)
                phi = fo.parse_formula(inputs.width3_formula(rng, "r"), inputs.BINARY)
                call = lambda A=A, phi=phi: fo.count_satisfying(A, phi, ("x",))
                check = _check_count
            else:
                # odd members are chains, even ones add an isolated point
                index = 2 * size - 3 if rng.randrange(2) else 2 * size - 4
                A = fo.gen_example_structure(index)
                phi = fo.parse_formula(inputs.width3_formula(rng, "lt"), fo.POSET_SIGNATURE)
                call = lambda A=A, phi=phi: pairing.stone_pairing(A, phi)
                check = _check_pairing
            inputs.check_budget(phi, 1, A.size)
            probes = tuple(rng.randrange(A.size) for _ in range(self.PROBES))
            self.ops.append(Op(f"{kind} |A|={A.size} {phi}", call, partial(check, A, phi, probes)))


# -- order-checks ---------------------------------------------------------------------


def _check_entails(lhs, rhs, D, k, result) -> bool:
    measures = pl.grid_measures(D, k)
    counter = next(
        (mu for mu in measures if pl.eval_pl_measure(mu, lhs) and not pl.eval_pl_measure(mu, rhs)),
        None,
    )
    return (
        result.holds == (counter is None)
        and result.countermodel == counter
        and result.measures_checked == len(measures)
    )


def _lifted(rng: random.Random, L, denominator: int) -> tuple[Fraction, ...]:
    """A classical valuation: random weights on the join-irreducibles, each
    element measuring the weight below it."""
    J = L.join_irreducibles()
    weight = dict(zip(J, inputs.random_valuation(rng, len(J), denominator)))
    return tuple(sum((weight[j] for j in J if L.leq(j, a)), Fraction(0)) for a in range(L.n))


def _perturbed(rng: random.Random, L, values: tuple[Fraction, ...], denominator: int) -> tuple[Fraction, ...]:
    """The valuation with one inner element moved by half a grid step."""
    inner = [a for a in range(L.n) if a not in (L.bottom, L.top)]
    e = rng.choice(inner)
    step = Fraction(1, 2 * denominator)
    moved = values[e] + step if values[e] + step <= 1 else values[e] - step
    return values[:e] + (moved,) + values[e + 1:]


def _check_validation(L, values, must_be_valid, violations) -> bool:
    # An exact-valued map is a measure in the doubled interval iff its
    # collapse is a classical measure: the two additivity inequalities then
    # reduce to the modular law.
    classical = measure.validate_classical_measure(measure.ClassicalMeasure(L, values))
    if must_be_valid and classical:
        return False
    return (not violations) == (not classical)


SOUNDNESS_TOTALS = {"C3": 1645, "B4": 2875}


def _check_soundness(name, D, k, report) -> bool:
    return (
        report.failures == ()
        and report.total_instances == SOUNDNESS_TOTALS[name]
        and report.measures_checked == len(pl.grid_measures(D, k))
    )


def _check_ominus(n, m, w) -> bool:
    lhs = chains.embed(chains.ominus(w.u, w.v), m)
    rhs = chains.ominus(chains.embed(w.u, m), chains.embed(w.v, m))
    ok = lhs == w.embedded_of_result and rhs == w.result_of_embedded and lhs != rhs
    if (n, m) == (2, 2):
        ok = ok and (str(lhs), str(rhs)) == ("4/4", "3/4")
    return ok


class OrderChecks(Workload):
    name = "order-checks"
    # The pass is laid out for the percentiles: eight queries on B4 at k = 4
    # (about 25 ms each) hold p50, ten validations on the 64-element powerset
    # (about 150 ms each) hold p90, and the two soundness sweeps stay above.
    ENTAILS = (
        ("C3", 2), ("C3", 3), ("C3", 4), ("B4", 2), ("B4", 3), ("C4", 2), ("C4", 3), ("C4", 4),
        ("C5", 2), ("C5", 3), ("C5", 4), ("2x3", 2),
    ) + (("B4", 4),) * 8
    # (lattice, lifted valuations, perturbed ones)
    VALIDATIONS = (("B64", 5, 5), ("B8", 1, 1), ("3x3", 1, 1), ("2x4", 1, 1))
    DENOMINATOR = 24  # of the valuations' weights; B64's cost grows with it
    CHAINS = (
        ("adjunction", 16, 0), ("adjunction", 20, 0), ("adjunction", 24, 0),
        ("oplus", 8, 8), ("ominus", 2, 2), ("ominus", 8, 4),
        ("derive-minus", 12, 0), ("derive-plus", 12, 0),
    )

    def __init__(self, seed: int):
        rng = random.Random(seed)
        L = {
            "C3": lattice.chain(3, ["0", "d", "1"]),
            "B4": lattice.boolean_algebra(2),
            "C4": lattice.chain(4),
            "C5": lattice.chain(5),
            "2x3": lattice.product_lattice(lattice.chain(2), lattice.chain(3)),
            "B64": lattice.boolean_algebra(6),
            "B8": lattice.boolean_algebra(3),
            "3x3": lattice.product_lattice(lattice.chain(3), lattice.chain(3)),
            "2x4": lattice.product_lattice(lattice.chain(2), lattice.chain(4)),
        }
        for D in L.values():  # meet and join tables are built here, not in an op
            D.join_all(range(D.n))
            D.meet_all(range(D.n))
        self.ops = []
        for name, k in self.ENTAILS:
            D = L[name]
            lhs_text = inputs.threshold_formula(rng, list(D.labels), k, 2)
            rhs_text = inputs.threshold_formula(rng, list(D.labels), k, 2)
            lhs = pl.parse_pl_formula(lhs_text, lattice=D)
            rhs = pl.parse_pl_formula(rhs_text, lattice=D)
            self.ops.append(Op(
                f"entails_grid {name} k={k} {lhs_text} => {rhs_text}",
                lambda lhs=lhs, rhs=rhs, D=D, k=k: pl.entails_grid(lhs, rhs, D, k),
                partial(_check_entails, lhs, rhs, D, k),
            ))
        for name, lifted, perturbed in self.VALIDATIONS:
            D = L[name]
            for i in range(lifted + perturbed):
                values = _lifted(rng, D, self.DENOMINATOR)
                valid = i < lifted
                if not valid:
                    values = _perturbed(rng, D, values, self.DENOMINATOR)
                mu = measure.Measure(D, tuple(gamma.iota_exact(v) for v in values))
                self.ops.append(Op(
                    f"validate_measure {name} {'lifted' if valid else 'perturbed'} {values}",
                    lambda mu=mu: measure.validate_measure(mu),
                    partial(_check_validation, D, values, valid),
                ))
        for name in ("C3", "B4"):
            D = L[name]
            self.ops.append(Op(
                f"check_soundness_grid {name} k=4",
                lambda D=D: pl.check_soundness_grid(D, 4),
                partial(_check_soundness, name, D, 4),
            ))
        for kind, n, m in self.CHAINS:
            self.ops.append(self._chain_op(kind, n, m))

    @staticmethod
    def _chain_op(kind: str, n: int, m: int) -> Op:
        if kind == "adjunction":
            return Op(f"check_adjunction {n}", lambda: chains.check_adjunction(n), lambda out: out is None)
        if kind == "oplus":
            return Op(f"check_oplus_preserved {n} {m}", lambda: chains.check_oplus_preserved(n, m), lambda out: out is None)
        if kind == "ominus":
            return Op(f"find_ominus_counterexample {n} {m}", lambda: chains.find_ominus_counterexample(n, m), partial(_check_ominus, n, m))
        if kind == "derive-minus":
            expected = {(z, x): Fraction(z - x, n) for z in range(n + 1) for x in range(z + 1)}
            return Op(f"derive_partial_minus {n}", lambda: chains.derive_partial_minus(n), lambda out: out == expected)
        expected = {(x, z): Fraction(x + z, n) for x in range(n + 1) for z in range(n + 1 - x)}
        return Op(f"derive_partial_plus {n}", lambda: chains.derive_partial_plus(n), lambda out: out == expected)


# -- the command line ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment for child interpreters: this process's, with the
    program's source directory first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(fo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliMix:
    """The eight subcommands, once each, on small seeded inputs written to
    ``workdir``.  A traced run times every invocation as a fresh
    ``python -m stonepair`` process and again through ``cli.run`` in this
    process, and checks that the two agree."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, text: str) -> str:
            path = workdir / name
            path.write_text(text)
            return str(path)

        A = inputs.random_structure(rng, 3 + rng.randrange(4))
        structure = write("a.struct", fo.format_structure(A))
        B4 = lattice.boolean_algebra(2)
        b4 = write("b4.lat", lattice.format_lattice(B4))
        c3 = write("c3.lat", lattice.format_lattice(lattice.chain(3, ["0", "d", "1"])))
        p, q = inputs.random_valuation(rng, 2, 2 + rng.randrange(11))
        values = (gamma.ZERO, gamma.iota_exact(p), gamma.iota_exact(q), gamma.ONE)
        meas = write("b4.meas", measure.format_measure(measure.Measure(B4, values), "b4.lat"))
        k = 3
        self.workdir = str(workdir)
        self.argvs = [
            ["pair", "--structure", structure, "--formula", inputs.random_formula(rng, 2), "--vars", "x,y"],
            ["converge", "--family", "fence", "--formula", f"!({inputs.FENCE_FORMULA})", "--horizon", str(8 + rng.randrange(9))],
            ["check-measure", "--measure", meas],
            ["eval", "--lattice", b4, "--measure", meas, "--formula", inputs.threshold_formula(rng, ["a", "b"], k, 1)],
            ["entail", "--lattice", c3, "--grid", str(k), "--lhs", inputs.threshold_formula(rng, ["d"], k, 1), "--rhs", inputs.threshold_formula(rng, ["d"], k, 1)],
            ["soundness", "--lattice", c3, "--grid", "2"],
            ["duality-verify", "--max-n", str(2 + rng.randrange(2)), "--max-m", "2"],
            ["integrate", "--structure", structure, "--formula", inputs.random_formula(rng, 2, ("x",)), "--vars", "x"],
        ]

    def one_shot(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "stonepair", *argv],
            env=child_env(), cwd=self.workdir, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def in_process(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        return code, out.getvalue()


WORKLOADS = {w.name: w for w in (PairingCorpus, FoLarge, OrderChecks)}
