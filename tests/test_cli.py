"""Golden-output tests for every subcommand's happy path, plus exit codes."""

import io
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula, random_structure
from stonepair import chains, fo, measure, pairing
from stonepair.cli import run
from stonepair.errors import DomainError
from stonepair.gamma import format_gamma
from stonepair.pairing import FenceFamily, assignment_distribution

PSI_TEXT = "(forall y. !lt(x,y)) & (exists z. !lt(z,x) & !(z = x))"

A2_STRUCT = "signature: lt/2\nuniverse: 3\nlt = {(0,1)}\n"
B4_LAT = "elements: 0, a, na, 1\norder: 0<=a, 0<=na, a<=1, na<=1\n"
GOOD_MEASURE = """lattice: b4.lat
value(0) = 0^o
value(a) = 1/2^o
value(na) = 1/2^o
value(1) = 1^o
"""
BAD_MEASURE = """lattice: b4.lat
value(0) = 0^o
value(a) = 1/2^o
value(na) = 3/4^o
value(1) = 1^o
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a2.struct").write_text(A2_STRUCT)
    (tmp_path / "b4.lat").write_text(B4_LAT)
    (tmp_path / "good.measure").write_text(GOOD_MEASURE)
    (tmp_path / "bad.measure").write_text(BAD_MEASURE)
    return tmp_path


def _child_env() -> dict[str, str]:
    """The environment with the source first on PYTHONPATH: a child process
    does not see pytest's own path."""
    env = dict(os.environ)
    src = str(Path(fo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def invoke(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run([str(a) for a in argv], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestPair:
    def test_structure_file(self, workdir):
        code, out, _ = invoke(
            "pair", "--structure", workdir / "a2.struct", "--formula", PSI_TEXT
        )
        assert code == 0
        assert out == "2 3 2/3 2/3^o\n"

    def test_fence_family(self):
        code, out, _ = invoke(
            "pair", "--family", "fence", "--index", "2", "--formula", PSI_TEXT
        )
        assert code == 0
        assert out == "2 3 2/3 2/3^o\n"

    def test_vars_override_pads(self, workdir):
        code, out, _ = invoke(
            "pair",
            "--structure", workdir / "a2.struct",
            "--formula", PSI_TEXT,
            "--vars", "x,w",
        )
        assert code == 0
        assert out == "6 9 2/3 2/3^o\n"

    def test_identity_past_one_square_of_budget(self, tmp_path):
        # 30000**2 cells are past the budget, but the count reads the
        # identity view and allocates O(|A|) bytes
        path = tmp_path / "big.struct"
        path.write_text("signature: p/1\nuniverse: 30000\np = {(3)}\n")
        tracemalloc.start()
        try:
            got = invoke("pair", "--structure", path, "--formula", "x = y", "--vars", "x,y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (0, "30000 900000000 1/30000 1/30000^o\n", "")
        assert peak <= 16 * 30000

    def test_formula_from_file(self, workdir):
        (workdir / "psi.fo").write_text(PSI_TEXT)
        code, out, _ = invoke(
            "pair", "--structure", workdir / "a2.struct", "--formula", "@" + str(workdir / "psi.fo")
        )
        assert code == 0
        assert out.startswith("2 3 ")

    def test_parse_error_exits_one(self, workdir):
        code, out, err = invoke(
            "pair", "--structure", workdir / "a2.struct", "--formula", "lt(x)"
        )
        assert code == 1
        assert out == ""
        assert "error:" in err


class TestConverge:
    def test_negated_example_verdict(self):
        code, out, _ = invoke(
            "converge", "--family", "fence", "--formula", f"!({PSI_TEXT})",
            "--horizon", "12",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == '1,2,2,1,"1^o"'
        assert lines[1] == '2,1,3,1/3,"1/3^o"'
        assert lines[3] == '4,2,4,1/2,"1/2^o"'
        assert lines[5] == '6,3,5,3/5,"3/5^o"'
        assert lines[-1] == "DIVERGENT odd->1^o even->1^-"

    def test_example_converges(self):
        code, out, _ = invoke(
            "converge", "--family", "fence", "--formula", PSI_TEXT, "--horizon", "12"
        )
        assert code == 0
        assert out.splitlines()[-1] == "CONVERGES 0^o"

    def test_csv_round_trip(self, tmp_path):
        target = tmp_path / "seq.csv"
        code, out, _ = invoke(
            "converge", "--family", "fence", "--formula", PSI_TEXT,
            "--horizon", "4", "--csv", target,
        )
        assert code == 0
        content = target.read_text().splitlines()
        assert content[0] == "index,count,total,classical,gamma"
        assert content[1] == '1,0,2,0,"0^o"'
        from stonepair.gamma import parse_gamma

        assert parse_gamma(content[2].split(",")[-1].strip('"')).exact

    def test_directory_family(self, tmp_path):
        fam = tmp_path / "fam"
        fam.mkdir()
        for i in range(1, 5):
            (fam / f"{i}.struct").write_text(A2_STRUCT)
        code, out, _ = invoke(
            "converge", "--family", fam, "--formula", PSI_TEXT, "--horizon", "4"
        )
        assert code == 0
        assert out.splitlines()[-1] == "CONVERGES 2/3^o (at horizon)"

    def test_each_member_is_built_once(self, tmp_path, monkeypatch):
        for i in range(1, 5):
            (tmp_path / f"{i}.struct").write_text(A2_STRUCT)
        listed, loaded, built = [], [], []
        iterdir, load, fence = Path.iterdir, fo.load, FenceFamily.structure
        monkeypatch.setattr(Path, "iterdir", lambda p: listed.append(p) or iterdir(p))
        monkeypatch.setattr(fo, "load", lambda path, parse: loaded.append(path) or load(path, parse))
        monkeypatch.setattr(FenceFamily, "structure", lambda self, i: built.append(i) or fence(self, i))
        assert invoke("converge", "--family", tmp_path, "--formula", "true", "--horizon", "4")[0] == 0
        assert listed == [tmp_path]
        assert sorted(loaded) == [tmp_path / f"{i}.struct" for i in range(1, 5)]
        assert invoke("converge", "--family", "fence", "--formula", "true", "--horizon", "6")[0] == 0
        assert built[0] == 1 and len(set(built)) == len(built)

    def test_inconclusive_verdict(self, tmp_path):
        # y <= x: the odd members tend to 1/2^o, the even ones to 1/2^-,
        # which the heuristic cannot name on a directory of fence members
        for i in range(1, 41):
            (tmp_path / f"{i}.struct").write_text(fo.format_structure(fo.gen_example_structure(i)))
        code, out, _ = invoke(
            "converge", "--family", tmp_path, "--formula", "y = x | lt(y,x)",
            "--vars", "x,y", "--horizon", "40",
        )
        assert code == 0
        assert out.splitlines()[-1] == "INCONCLUSIVE (at horizon)"

    @pytest.mark.parametrize(
        "formula, extra, verdict",
        [
            ("lt(x,y)", (), "CONVERGES 1/2^-"),
            ("exists y. lt(x,y)", (), "CONVERGES 1^-"),
            ("y = x | lt(y,x)", ("--vars", "x,y"), "DIVERGENT odd->1/2^o even->1/2^-"),
            (f"!!({PSI_TEXT})", (), "CONVERGES 0^o"),
        ],
    )
    def test_fence_verdicts_are_exact(self, formula, extra, verdict):
        code, out, _ = invoke(
            "converge", "--family", "fence", "--formula", formula, *extra, "--horizon", "40"
        )
        assert code == 0
        assert out.splitlines()[-1] == verdict

    def test_a_certificate_past_the_budget_is_judged_at_the_horizon(self, monkeypatch):
        # psi's certificate counts members of up to 8 elements; the horizon's have 4
        psi = fo.parse_formula(PSI_TEXT, fo.POSET_SIGNATURE)
        monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", fo.counting_bytes(psi, ("x",), 8) - 1)
        code, out, _ = invoke(
            "converge", "--family", "fence", "--formula", PSI_TEXT, "--horizon", "4"
        )
        assert code == 0
        # the heuristic on two values a parity
        assert out.splitlines()[-1] == "DIVERGENT odd->0^o even->1/2^o (at horizon)"

    @pytest.mark.parametrize("formula", ["exists y. lt(x,y)", "lt(x,y)"])
    def test_fence_directory_parities_both_inconclusive(self, tmp_path, formula):
        # both tend to one limit on each parity (1^- and 1/2^-), which the
        # heuristic cannot name; a directory family has no closed form
        for i in range(1, 41):
            (tmp_path / f"{i}.struct").write_text(fo.format_structure(fo.gen_example_structure(i)))
        code, out, _ = invoke(
            "converge", "--family", tmp_path, "--formula", formula, "--horizon", "40"
        )
        assert code == 0
        assert out.splitlines()[-1] == "INCONCLUSIVE (at horizon)"

    def test_horizon_past_the_budget_exits_at_once(self):
        # the rows past the certificate are charged before any is filled
        start = time.perf_counter()
        horizon = 99999999999999
        code, out, err = invoke(
            "converge", "--family", "fence", "--formula", "true", "--horizon", horizon
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: the {horizon} rows of the sequence would take "
            f"{horizon * pairing.row_bytes(0)} bytes; the guard is {fo.MAX_TENSOR_CELLS}\n"
        )
        assert time.perf_counter() - start < 1

    def test_unknown_family_and_empty_vars(self):
        code, out, err = invoke(
            "converge", "--family", "nosuch", "--formula", "true", "--horizon", "4"
        )
        assert (code, out) == (1, "")
        assert err == "error: unknown family 'nosuch' (not built in, not a directory)\n"
        code, out, err = invoke(
            "converge", "--family", "fence", "--formula", "true", "--vars", " , ",
            "--horizon", "4",
        )
        assert (code, out) == (2, "")
        assert err == "usage error: bad --vars value ' , '\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """Each ``stonepair`` command of README's examples that is followed by
    ``# output`` lines, with ``$PSI`` filled in, and those lines."""
    block = README.read_text().split("Examples (")[1].split("```sh\n")[1].split("```")[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("PSI="):
            psi = shlex.split(line)[0].removeprefix("PSI=")
        elif line.startswith("stonepair "):
            examples.append((shlex.split(line.replace("$PSI", psi))[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line.removeprefix("# "))
    return [(argv, shown) for argv, shown in examples if shown]


def test_readme_examples(tmp_path, monkeypatch):
    # b4.lat as README's File formats section writes it
    lattice = next(b for b in README.read_text().split("```") if "# b4.lat" in b)
    (tmp_path / "b4.lat").write_text(lattice.strip("\n") + "\n")
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["pair", "converge", "entail"]
    for argv, shown in examples:
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "")
        if shown[0].startswith("..."):  # "...per-index rows..." stands for any lines
            assert out.splitlines()[-len(shown[1:]):] == shown[1:]
        else:
            assert out.splitlines() == shown


class TestCheckMeasure:
    def test_ok(self, workdir):
        code, out, _ = invoke("check-measure", "--measure", workdir / "good.measure")
        assert code == 0
        assert out == "OK\n"

    def test_violations_listed(self, workdir):
        # overweighted complements break the left inequality in both orders
        code, out, _ = invoke("check-measure", "--measure", workdir / "bad.measure")
        assert code == 1
        assert out.splitlines() == [
            "FAIL additivity-left a=a b=na",
            "FAIL additivity-left a=na b=a",
        ]

    def test_underweighted_fails_right(self, workdir):
        (workdir / "low.measure").write_text(
            "lattice: b4.lat\nvalue(0) = 0^o\nvalue(a) = 1/4^o\n"
            "value(na) = 1/4^o\nvalue(1) = 1^o\n"
        )
        code, out, _ = invoke("check-measure", "--measure", workdir / "low.measure")
        assert code == 1
        assert out.splitlines() == [
            "FAIL additivity-right a=a b=na",
            "FAIL additivity-right a=na b=a",
        ]

    def test_explicit_lattice_flag(self, workdir):
        code, out, _ = invoke(
            "check-measure",
            "--lattice", workdir / "b4.lat",
            "--measure", workdir / "good.measure",
        )
        assert code == 0 and out == "OK\n"


class TestEval:
    def test_structure_mode(self, workdir):
        code, out, _ = invoke(
            "eval", "--structure", workdir / "a2.struct",
            "--formula", "[>= 2/3]{ %s }" % PSI_TEXT,
        )
        assert code == 0 and out == "TRUE\n"
        code, out, _ = invoke(
            "eval", "--structure", workdir / "a2.struct",
            "--formula", "[>= 3/4]{ %s }" % PSI_TEXT,
        )
        assert code == 0 and out == "FALSE\n"

    def test_measure_mode(self, workdir):
        code, out, _ = invoke(
            "eval",
            "--lattice", workdir / "b4.lat",
            "--measure", workdir / "good.measure",
            "--formula", "[>= 1/2]{a} & ![< 1/2]{na}",
        )
        assert code == 0 and out == "TRUE\n"


class TestEntail:
    def test_holds(self, workdir):
        code, out, _ = invoke(
            "entail", "--lattice", workdir / "b4.lat", "--grid", "4",
            "--lhs", "[>= 1/2]{a}", "--rhs", "![>= 3/4]{na}",
        )
        assert code == 0
        assert out == "HOLDS\n"

    def test_countermodel_in_measure_format(self, workdir):
        code, out, _ = invoke(
            "entail", "--lattice", workdir / "b4.lat", "--grid", "4",
            "--lhs", "[>= 1/2]{a}", "--rhs", "[>= 1/2]{na}",
        )
        assert code == 0
        assert out == (
            f"lattice: {workdir / 'b4.lat'}\n"
            "value(0) = 0^o\n"
            "value(a) = 1/2^o\n"
            "value(na) = 1/2^-\n"
            "value(1) = 1^o\n"
        )


class TestSoundness:
    def test_boolean_four_grid_two(self, workdir):
        code, out, _ = invoke(
            "soundness", "--lattice", workdir / "b4.lat", "--grid", "2"
        )
        assert code == 0
        assert out == (
            "L1: 24 instances, 0 countermodels\n"
            "L2: 6 instances, 0 countermodels\n"
            "L3: 27 instances, 0 countermodels\n"
            "L4: 304 instances, 0 countermodels\n"
            "L5: 304 instances, 0 countermodels\n"
            "L6: 24 instances, 0 countermodels\n"
            "total: 689 instances over 7 grid measures, 0 countermodels\n"
        )


    def test_oversized_grid_is_a_size_error(self, tmp_path):
        # chain(10) at k = 6: the three soundness gathers would take 2.1 GiB
        lat = tmp_path / "c10.lat"
        labels = [f"c{i}" for i in range(10)]
        lat.write_text(
            f"elements: {', '.join(labels)}\n"
            f"order: {', '.join(f'{a}<={b}' for a, b in zip(labels, labels[1:]))}\n"
        )
        code, out, err = invoke("soundness", "--lattice", lat, "--grid", "6")
        assert code == 1 and out == ""
        assert err.startswith("error: the soundness gathers would take") and "Traceback" not in err
        # ranks past int64 are refused before any array is built
        for argv in (("soundness",), ("entail", "--lhs", "true", "--rhs", "false")):
            code, out, err = invoke(*argv, "--lattice", lat, "--grid", str(2**62))
            assert code == 1 and out == ""
            assert err.startswith("error: the grid's ranks would take") and "Traceback" not in err


    def test_atom_table_with_its_rank_index_is_a_size_error(self, tmp_path):
        # a 2-chain at k = 30000000: 120 MB of atom table beside 480 MB of
        # int64 ranks, refused together before either is built
        lat = tmp_path / "c2.lat"
        lat.write_text("elements: 0, 1\norder: 0<=1\n")
        tracemalloc.start()
        try:
            code, out, err = invoke(
                "entail", "--lattice", lat, "--grid", "30000000", "--lhs", "true", "--rhs", "false"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err == "error: the atom table would take 600000011 bytes; the guard is 536870912\n"
        assert peak < 2**24


DUALITY_4_2 = [
    "adjunction n<=4: 432 triples: PASS",
    "oplus-preservation n<=4 m<=2: 86 pairs: PASS",
    "ominus-counterexample n=1 m=2: u=T v=1/1: "
    "embed(u ominus v)=2/2, embed(u) ominus embed(v)=1/2",
    "ominus-counterexample n=2 m=2: u=T v=1/2: "
    "embed(u ominus v)=4/4, embed(u) ominus embed(v)=3/4",
    "ominus-counterexample n=3 m=2: u=T v=1/3: "
    "embed(u ominus v)=6/6, embed(u) ominus embed(v)=5/6",
    "ominus-counterexample n=4 m=2: u=T v=1/4: "
    "embed(u ominus v)=8/8, embed(u) ominus embed(v)=7/8",
    "derived-minus n<=4: 4 tables: PASS",
    "derived-plus n<=4: 4 tables: PASS",
    "floor-ceiling n<=4 m<=2: 94 pairs: PASS",
    "projection-cone grid=10 n<=4 m<=2: 84 cases: PASS",
]


class TestDualityVerify:
    def test_small_sweep(self):
        code, out, _ = invoke("duality-verify", "--max-n", "4", "--max-m", "2")
        assert code == 0
        assert out == "".join(line + "\n" for line in DUALITY_4_2)

    def test_failure_stops_the_sweep(self, monkeypatch):
        # each check family in turn reports a failure at n = 2, in chain text form
        half, top = chains.ChainElement(2, 1), chains.ChainElement(2, None)
        broken = {
            "check_adjunction": (
                lambda n: chains.AdjunctionViolation(half, top, chains.ChainElement(2, 0)) if n == 2 else None,
                ["adjunction n<=4: FAIL at n=2 u=1/2 v=T w=0/2"],
            ),
            "check_oplus_preserved": (
                lambda n, m: (half, top) if n == 2 else None,
                DUALITY_4_2[:1] + ["oplus-preservation n<=4 m<=2: FAIL at n=2 m=2 u=1/2 v=T"],
            ),
            "check_floor_ceiling": (
                lambda n, m: (chains.ChainPoint(n * m, 1), chains.ChainPoint(n, 0)) if n == 2 else None,
                DUALITY_4_2[:8] + ["floor-ceiling n<=4 m<=2: FAIL at n=2 m=2 x=1/4 y=0/2"],
            ),
        }
        for name, (check, expected) in broken.items():
            with monkeypatch.context() as patch:
                patch.setattr(chains, name, check)
                code, out, _ = invoke("duality-verify", "--max-n", "4", "--max-m", "2")
            assert code == 1, name
            assert out.splitlines() == expected, name

    @pytest.mark.parametrize("size", ["100000", str(10**30)])
    def test_oversized_sweep_fails_before_any_work(self, size):
        # 10**10 and more (n, m) pairs: refused from the closed-form case counts
        tracemalloc.start()
        try:
            code, out, err = invoke("duality-verify", "--max-n", size, "--max-m", size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith(f"error: duality sweep n<={size} m<={size} has ")
        assert "Traceback" not in err
        assert peak < 2**20


class TestIntegrate:
    def test_matches_pairing(self, workdir):
        code, out, _ = invoke(
            "integrate", "--structure", workdir / "a2.struct", "--formula", PSI_TEXT
        )
        assert code == 0
        assert out == "2/3^o\n"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([None, "x", "x,y", "y,x", "x,y,z", "x,x"]))
    def test_matches_the_library_integral_and_pair(self, seed, csv):
        rng = random.Random(seed)
        A, phi = random_structure(rng), random_formula(rng, 3)
        ctx = fo.free_vars(phi) if csv is None else tuple(csv.split(","))
        try:
            f = assignment_distribution(A, ctx)
            integral = measure.integrate(f, fo.satisfying_set(A, phi, ctx))
            expected = (0, f"{format_gamma(integral)}\n", "")
        except DomainError as exc:
            expected = (1, "", f"error: {exc}\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.struct"
            path.write_text(fo.format_structure(A))
            argv = ("--structure", path, "--formula", fo.format_formula(phi))
            argv += () if csv is None else ("--vars", csv)
            got = invoke("integrate", *argv)
            code, out, err = invoke("pair", *argv)
        assert got == expected
        assert got == (code, out.rpartition(" ")[2], err)

    def test_assignment_space_is_counted_not_built(self, tmp_path):
        # 1500 ** 2 assignments are counted on the satisfaction tensor, as
        # ``pair`` counts them; none is built as a tuple
        path = tmp_path / "big.struct"
        path.write_text("signature: p/1\nuniverse: 1500\np = {}\n")
        tracemalloc.start()
        try:
            code, out, err = invoke(
                "integrate", "--structure", path, "--formula", "true", "--vars", "x,y"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "1^o\n", "")
        assert peak < 16 * 2**20


class TestErrors:
    def test_usage_error_is_two(self):
        assert invoke("pair")[0] == 2
        assert invoke("no-such-command")[0] == 2
        # wrong flag combinations are usage errors too
        assert invoke("pair", "--formula", "true")[0] == 2
        assert invoke("eval", "--formula", "true")[0] == 2
        assert invoke("pair", "--family", "fence", "--formula", "true")[0] == 2
        assert invoke("duality-verify", "--max-n", "4", "--max-m", "1")[0] == 2

    def test_a_closed_output_ends_the_output_silently(self, tmp_path):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        argv = ["converge", "--family", "fence", "--formula", "true", "--horizon", "4"]
        assert run(argv, stdout=Closed(), stderr=err) == 1
        assert err.getvalue() == ""
        # a file fault keeps its error line
        code, _, err = invoke(*argv, "--csv", tmp_path / "missing" / "seq.csv")
        assert code == 1 and err.startswith("error: [Errno 2] No such file or directory")

    def test_the_csv_is_written_before_stdout(self, tmp_path):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        argv = ["converge", "--family", "fence", "--formula", "true", "--horizon", "40"]
        cut, whole = tmp_path / "cut.csv", tmp_path / "whole.csv"
        err = io.StringIO()
        assert run([*argv, "--csv", str(cut)], stdout=Closed(), stderr=err) == 1
        assert err.getvalue() == ""
        assert invoke(*argv, "--csv", whole)[0] == 0
        assert len(whole.read_text().splitlines()) == 41
        assert cut.read_text() == whole.read_text()
        # a file that cannot be written fails before any row is printed
        code, out, err = invoke(*argv, "--csv", tmp_path / "missing" / "seq.csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("duality-verify", "--max-n", "24", "--max-m", "10"),  # 21 908 bytes
            ("pair", "--family", "fence", "--index", "2", "--formula", PSI_TEXT),  # one line
        ],
    )
    def test_a_reader_that_closes_early(self, argv, unbuffered):
        # the reader closes before the first line, so every write meets a broken pipe:
        # buffered, in the flush at exit; unbuffered, in the first print
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stonepair", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_missing_file_is_one(self):
        code, _, err = invoke("pair", "--structure", "/nonexistent", "--formula", "true")
        assert code == 1 and "error:" in err

    def test_deep_nesting_is_a_positioned_parse_error(self, workdir):
        for formula in ("!" * 3000 + "x = x", "(" * 3000 + "x = x" + ")" * 3000):
            code, out, err = invoke(
                "pair", "--structure", workdir / "a2.struct", "--formula", formula
            )
            assert code == 1 and out == ""
            assert err == "error: 1:201: formula nests deeper than 200 levels\n"
        code, _, err = invoke(
            "eval", "--structure", workdir / "a2.struct", "--formula", "!" * 3000 + "true"
        )
        assert code == 1
        assert err == "error: 1:201: formula nests deeper than 200 levels\n"

    def test_unknown_labels_are_positioned(self, workdir):
        (workdir / "zz.measure").write_text(GOOD_MEASURE.replace("value(na)", "value(zz)"))
        code, out, err = invoke("check-measure", "--measure", workdir / "zz.measure")
        assert (code, out, err) == (
            1, "", f"error: {workdir / 'zz.measure'}:4:7: unknown element label 'zz'\n"
        )
        code, out, err = invoke(
            "entail", "--lattice", workdir / "b4.lat", "--grid", "2",
            "--lhs", "[>= 1/2]{a}", "--rhs", "[>= 1/2]{a} | [< 1]{ qq}",
        )
        assert (code, out, err) == (1, "", "error: 1:22: unknown element label 'qq'\n")

    def test_structure_faults_are_positioned(self, tmp_path):
        cases = {
            "signature: lt/2\nuniverse: 3\nlt = {(0,1),(5,0)}\n":
                "3:13: tuple (5, 0) out of range for universe 3",
            "signature: lt/2\nuniverse: 3\nlt = {(0,1,2)}\n":
                "3:7: tuple (0, 1, 2) has wrong arity for lt/2",
            "signature: lt/2\nuniverse: 0\n": "2:11: universe must be nonempty",
            "signature: lt/2\nuniverse: 3\nlt = {x(0,1) junk (1,2)}\n":
                "3:7: malformed tuple set",
            "signature: lt/2\nuniverse: 3\nlt = {(0,1) junk (1,2)}\n":
                "3:13: malformed tuple set",
        }
        path = tmp_path / "bad.struct"
        for text, message in cases.items():
            path.write_text(text)
            for argv in (
                ("pair", "--structure", path, "--formula", "true"),
                ("integrate", "--structure", path, "--formula", "true"),
                ("eval", "--structure", path, "--formula", "[>= 1]{true}"),
            ):
                assert invoke(*argv) == (1, "", f"error: {path}:{message}\n")

    def test_measure_values_are_positioned_in_the_file(self, workdir):
        path = workdir / "v.measure"
        for line, message in (
            ("  value(a) = 1/2^x", "3:18: expected 'o' or '-' after '^'"),
            ("value(a) = 3/2^o", "3:12: exact point 3/2 lies outside [0, 1]"),
            ("value(a) =\t1/0^o  # zero", "3:14: zero denominator"),
            ("value(a) = 1/2^o o", "3:18: unexpected trailing input"),
        ):
            path.write_text(GOOD_MEASURE.replace("value(a) = 1/2^o", line))
            assert invoke("check-measure", "--measure", path) == (1, "", f"error: {path}:{message}\n")

    def test_parse_errors_name_the_file(self, workdir):
        bad_lat = workdir / "bad.lat"
        bad_lat.write_text("elements: 0, 1\norder: 0<=2\n")
        lat_fault = f"error: {bad_lat}:2:11: unknown element '2'\n"
        (workdir / "ref.measure").write_text(GOOD_MEASURE.replace("b4.lat", "bad.lat"))
        fo_file, pl_file = workdir / "fo.txt", workdir / "pl.txt"
        fo_file.write_text("true &\n  lt(x)")
        pl_file.write_text("[>= 1/2]{a} |\n[< 1]{zz}")
        fam = workdir / "fam"
        fam.mkdir()
        (fam / "1.struct").write_text("signature: lt/2\nuniverse: x\n")
        fam_fault = f"error: {fam / '1.struct'}:2:11: universe must be a nonnegative integer\n"
        a2 = workdir / "a2.struct"
        for argv, message in (
            (("soundness", "--lattice", bad_lat, "--grid", "2"), lat_fault),
            (("entail", "--lattice", bad_lat, "--grid", "2", "--lhs", "true", "--rhs", "true"), lat_fault),
            (("check-measure", "--lattice", bad_lat, "--measure", workdir / "good.measure"), lat_fault),
            (("check-measure", "--measure", workdir / "ref.measure"), lat_fault),
            (("pair", "--structure", a2, "--formula", f"@{fo_file}"),
             f"error: {fo_file}:2:3: relation lt expects 2 arguments, got 1\n"),
            (("integrate", "--structure", a2, "--formula", f"@{fo_file}"),
             f"error: {fo_file}:2:3: relation lt expects 2 arguments, got 1\n"),
            (("eval", "--measure", workdir / "good.measure", "--formula", f"@{pl_file}"),
             f"error: {pl_file}:2:7: unknown element label 'zz'\n"),
            (("pair", "--family", fam, "--index", "1", "--formula", "true"), fam_fault),
            (("converge", "--family", fam, "--formula", "true", "--horizon", "4"), fam_fault),
            # inline formula text has no file to name
            (("pair", "--structure", a2, "--formula", "true &\n  lt(x)"),
             "error: 2:3: relation lt expects 2 arguments, got 1\n"),
        ):
            assert invoke(*argv) == (1, "", message), argv

    def test_duplicate_lattice_labels_are_positioned(self, workdir):
        dup = workdir / "dup.lat"
        dup.write_text("elements: 0, 1, 1\norder: 0<=1\n")
        assert invoke("soundness", "--lattice", dup, "--grid", "2") == (
            1, "", f"error: {dup}:1:17: duplicate element label '1'\n"
        )

    def test_measure_lattice_line_faults_are_positioned(self, workdir):
        path = workdir / "m.measure"
        for text, message in (
            (GOOD_MEASURE.replace("lattice: b4.lat", "lattice:"), "1:9: expected a lattice path"),
            (GOOD_MEASURE.replace("value(0)", "lattice: b4.lat\nvalue(0)"), "2:1: duplicate lattice line"),
        ):
            path.write_text(text)
            assert invoke("check-measure", "--measure", path) == (1, "", f"error: {path}:{message}\n")
        # with --lattice the line names no file, but it may still be given once only
        assert invoke("check-measure", "--lattice", workdir / "b4.lat", "--measure", path) == (
            1, "", f"error: {path}:2:1: duplicate lattice line\n"
        )

    def test_empty_lattice_line_fails_with_lattice_option_too(self, workdir):
        path = workdir / "m.measure"
        path.write_text(GOOD_MEASURE.replace("lattice: b4.lat", "lattice:"))
        expected = (1, "", f"error: {path}:1:9: expected a lattice path\n")
        for command in (("check-measure",), ("eval", "--formula", "true")):
            assert invoke(*command, "--measure", path) == expected
            assert invoke(*command, "--lattice", workdir / "b4.lat", "--measure", path) == expected
        # --lattice overrides a reference that names no file
        path.write_text(GOOD_MEASURE.replace("lattice: b4.lat", "lattice: missing.lat"))
        assert invoke("check-measure", "--lattice", workdir / "b4.lat", "--measure", path) == (
            0, "OK\n", ""
        )

    def test_oversized_count_is_a_size_error(self, tmp_path):
        # width 4 on 200 elements exceeds the tensor guard; nothing is allocated
        big = tmp_path / "big.struct"
        big.write_text("signature: r/2\nuniverse: 200\nr = {(0,1),(1,2)}\n")
        formula = "exists y. exists z. exists w. (r(x,y) | r(z,w)) & (r(y,z) | r(w,x))"
        for command in ("pair", "integrate"):
            assert invoke(command, "--structure", big, "--formula", formula) == (
                1, "", f"error: the counting tensors would take {2 * 200**4} bytes; the guard is {2**29}\n"
            )

    def test_four_cycle_counts_by_contraction(self, tmp_path):
        # width 4 when every quantifier keeps its whole body; each contracts
        # into one matrix product, so 200 elements fit
        n = 200
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 2), (2, 0), (5, 5)]
        big = tmp_path / "cycle.struct"
        big.write_text(f"signature: r/2\nuniverse: {n}\nr = {{{','.join(map(str, edges))}}}\n")
        R = np.zeros((n, n), dtype=np.int64)
        R[tuple(np.array(edges).T)] = 1
        count = int(np.count_nonzero(np.diag(np.linalg.matrix_power(R, 4))))
        assert 0 < count < n
        formula = "exists y. exists z. exists w. r(x,y) & r(y,z) & r(z,w) & r(w,x)"
        code, out, err = invoke("pair", "--structure", big, "--formula", formula)
        assert (code, out.split()[:2], err) == (0, [str(count), str(n)], "")
        assert invoke("integrate", "--structure", big, "--formula", formula) == (
            0, out.rpartition(" ")[2], ""
        )

    def test_oversized_fence_index_is_a_size_error(self):
        code, out, err = invoke(
            "pair", "--family", "fence", "--index", "100000000", "--formula", "lt(x,x)"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: family index 100000000 gives |A| = 50000002")
        assert "Traceback" not in err

    def test_console_entry_point(self, workdir):
        proc = subprocess.run(
            [
                sys.executable, "-m", "stonepair",
                "pair", "--family", "fence", "--index", "2", "--formula", PSI_TEXT,
            ],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "2 3 2/3 2/3^o\n"

    def test_undecodable_files_are_named(self, workdir):
        bad = workdir / "bad.bin"
        bad.write_bytes(b"\xff")
        fam = workdir / "fam"
        fam.mkdir()
        (fam / "1.struct").write_bytes(b"\xff")
        for argv, path in (
            (("soundness", "--lattice", bad, "--grid", "2"), bad),
            (("check-measure", "--lattice", bad, "--measure", workdir / "good.measure"), bad),
            (("pair", "--structure", workdir / "a2.struct", "--formula", f"@{bad}"), bad),
            (("pair", "--family", fam, "--index", "1", "--formula", "true"), fam / "1.struct"),
            (("converge", "--family", fam, "--formula", "true", "--horizon", "4"), fam / "1.struct"),
        ):
            assert invoke(*argv) == (1, "", f"error: {path}: not UTF-8 text\n")

    def test_output_stable_across_runs(self, workdir):
        first = invoke("soundness", "--lattice", workdir / "b4.lat", "--grid", "2")
        second = invoke("soundness", "--lattice", workdir / "b4.lat", "--grid", "2")
        assert first == second


# the tokens each input format is written in
TOKENS = {
    "lattice": ("elements:", "order:", "<=", ",", " ", "\n", "#", "0", "1", "a", "na", "b"),
    "measure": ("lattice:", " b4.lat", "value(", ")", "=", " ", "\n", "0", "1", "/", "2", "^o", "^-", "a", "na"),
    "structure": ("signature:", "universe:", " lt/2", "lt", "=", "{", "}", "(", ")", ",", " ", "\n", "0", "1", "3"),
    "formula": (
        "forall", "exists", "x", "y", ".", "!", "&", "|", "(", ")", "lt", "=", ",", "true",
        "[>=", "[<", "1/2", "]", "{", "}", " ", "a",
    ),
}


SEEDS = {
    "lattice": (B4_LAT,),
    "measure": (GOOD_MEASURE,),
    "structure": (A2_STRUCT,),
    "formula": (PSI_TEXT, "[>= 1/2]{a} | [< 1]{na}", "[>= 1/3]{exists y. lt(x,y)}"),
}


@st.composite
def spliced(draw, kind: str) -> bytes:
    """A well-formed file with a stretch replaced by a few of its tokens."""
    seed = draw(st.sampled_from(SEEDS[kind]))
    i = draw(st.integers(0, len(seed)))
    j = draw(st.integers(i, len(seed)))
    middle = "".join(draw(st.lists(st.sampled_from(TOKENS[kind]), max_size=6)))
    return (seed[:i] + middle + seed[j:]).encode()


def contents(kind: str):
    """Arbitrary bytes, text made of the format's tokens, or a spliced
    well-formed file, which gets past the parsers to the checks."""
    tokens = st.lists(st.sampled_from(TOKENS[kind]), max_size=40).map(lambda t: "".join(t).encode())
    return st.binary(max_size=64) | tokens | spliced(kind)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(contents("lattice"), contents("measure"), contents("structure"), contents("formula"))
    def test_input_files_never_raise(self, lattice, measure, structure, formula):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            # a small budget keeps any input the parsers accept cheap to run
            mp.setattr(fo, "MAX_TENSOR_CELLS", 2**22)
            d = Path(tmp)
            lat, mea, struct, phi = d / "b4.lat", d / "m.measure", d / "s.struct", d / "phi.txt"
            for path, data in ((lat, lattice), (mea, measure), (struct, structure), (phi, formula)):
                path.write_bytes(data)
            fam = d / "fam"
            fam.mkdir()
            for i in range(1, 5):
                (fam / f"{i}.struct").write_bytes(structure)
            for argv in (
                ("pair", "--structure", struct, "--formula", f"@{phi}"),
                ("pair", "--family", fam, "--index", "1", "--formula", f"@{phi}"),
                ("converge", "--family", fam, "--formula", f"@{phi}", "--horizon", "4"),
                ("check-measure", "--measure", mea),
                ("check-measure", "--lattice", lat, "--measure", mea),
                ("eval", "--structure", struct, "--formula", f"@{phi}"),
                ("eval", "--measure", mea, "--formula", f"@{phi}"),
                ("entail", "--lattice", lat, "--grid", "2", "--lhs", "true", "--rhs", "false"),
                ("soundness", "--lattice", lat, "--grid", "2"),
                ("integrate", "--structure", struct, "--formula", f"@{phi}"),
            ):
                code = run([str(a) for a in argv], stdout=io.StringIO(), stderr=io.StringIO())
                assert code in (0, 1, 2), argv
