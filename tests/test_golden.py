"""Golden outputs: the exit code and stdout of the command lines README and
the paper's experiments run, byte for byte.

Each case's expected output is ``golden/<name>.out``: a first line
``exit <code>``, then stdout verbatim.  The commands run in ``golden/``
beside their input files, so every path they print is relative.  To write
the files afresh from the code under ``src/``:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
from pathlib import Path

import pytest

from stonepair.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
PSI = "(forall y. !lt(x,y)) & (exists z. !lt(z,x) & !(z = x))"


def _converge(formula: str, horizon: int, *extra: str) -> list[str]:
    return ["converge", "--family", "fence", "--formula", formula, "--horizon", str(horizon), *extra]


CASES = {
    "converge-psi-12": _converge(PSI, 12),
    "converge-psi-40": _converge(PSI, 40),
    "converge-not-psi-12": _converge(f"!({PSI})", 12),
    "converge-not-psi-40": _converge(f"!({PSI})", 40),
    "converge-eq-or-lt-40": _converge("y = x | lt(y,x)", 40, "--vars", "x,y"),
    "converge-lt-40": _converge("lt(x,y)", 40),
    "pair-fence-2-psi": ["pair", "--family", "fence", "--index", "2", "--formula", PSI],
    "pair-fence-38-neq": ["pair", "--family", "fence", "--index", "38", "--formula", "!(x = y)"],
    "duality-verify-24-10": ["duality-verify", "--max-n", "24", "--max-m", "10"],
    **{
        f"soundness-{lat}-{k}": ["soundness", "--lattice", f"{lat}.lat", "--grid", str(k)]
        for lat in ("b4", "c3")
        for k in range(1, 5)
    },
    "entail-holds": [
        "entail", "--lattice", "b4.lat", "--grid", "4",
        "--lhs", "[>= 1/2]{a}", "--rhs", "![>= 3/4]{na}",
    ],
    "entail-countermodel": [
        "entail", "--lattice", "b4.lat", "--grid", "4",
        "--lhs", "[>= 1/2]{a}", "--rhs", "[>= 1/2]{na}",
    ],
    "check-measure-good": ["check-measure", "--measure", "good.measure"],
    "check-measure-bad": ["check-measure", "--measure", "bad.measure"],
    "eval-structure": ["eval", "--structure", "a2.struct", "--formula", f"[>= 2/3]{{ {PSI} }}"],
    "eval-measure": [
        "eval", "--lattice", "b4.lat", "--measure", "good.measure",
        "--formula", "[>= 1/2]{a} & ![< 1/2]{na}",
    ],
    "integrate": ["integrate", "--structure", "a2.struct", "--formula", PSI],
}


def _output(argv: list[str]) -> str:
    """The case's golden text: ``exit <code>`` and stdout, run in ``GOLDEN``."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", CASES)
def test_output_is_the_golden_file(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _output(CASES[name]) == expected


def test_every_golden_file_is_a_case():
    # a renamed or dropped case would leave a file that no test reads
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        Path(f"{name}.out").write_text(_output(argv), encoding="utf-8")
