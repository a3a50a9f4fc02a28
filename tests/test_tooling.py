"""The benchmark's tracer names program functions by string; they must resolve.
A fresh ``import stonepair`` loads exactly its eight library modules.  A
warning in a test is an error.  README's command table is the CLI's, and
the limits it states are the code's.  The library computes without floats."""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stonepair import chains, fo
from stonepair.cli import _COMMANDS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "stonepair"


def traced_names() -> dict[str, list[str]]:
    """``TRACED`` from the tracer's source, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in traced_names().items() for name in names],
)
def test_traced_name_resolves(layer, name):
    # a "Class.method" entry resolves attribute by attribute
    module = importlib.import_module(f"stonepair.{layer}")
    assert callable(functools.reduce(getattr, name.split("."), module))


def test_package_import_loads_the_submodules():
    # ``import stonepair`` loads its eight library modules and not the CLI
    code = (
        "import sys, stonepair; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('stonepair'))))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    expected = ["chains", "errors", "fo", "gamma", "lattice", "measure", "pairing", "pl"]
    assert out.stdout.split() == ["stonepair"] + [f"stonepair.{m}" for m in expected]


def test_a_numpy_warning_fails_the_test():
    # an int64 overflow in an exact kernel warns and wraps; the suite must
    # not pass on the wrapped number
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.int64(2**62) * np.int64(4)


def test_readme_lists_the_cli_commands():
    # the block under README's "Command line" names each subcommand first on
    # its line, in the order of the CLI's dispatch table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n")[1].split("```\n")[1]
    assert [line.split()[0] for line in block.splitlines()] == list(_COMMANDS)


def test_readme_states_the_limits_of_the_code():
    # each limit README states, read from its text, is the constant's value
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())

    def stated(pattern: str) -> tuple[int, ...]:
        found = re.search(pattern, readme)
        assert found is not None, pattern
        return tuple(map(int, found.groups()))

    base, power = stated(r"`fo\.MAX_TENSOR_CELLS` \((\d+)\*\*(\d+) cells")
    assert base**power == fo.MAX_TENSOR_CELLS
    mib = stated(r"`fo\.MAX_TENSOR_CELLS` read as bytes \((\d+) MiB\)")[0]
    assert mib * 2**20 == fo.MAX_TENSOR_CELLS
    assert stated(r"`fo\.MAX_NESTING` \((\d+)\)")[0] == fo.MAX_NESTING
    assert stated(r"padded stacks of up to (\d+) MiB")[0] * 2**20 == fo.STACK_BYTES
    base, power = stated(r"`chains\.MAX_DUALITY_CASES` \((\d+)\*\*(\d+) cases")
    assert base**power == chains.MAX_DUALITY_CASES


# every numpy name for a floating-point or complex scalar type
NUMPY_FLOATS = {
    name for name, value in vars(np).items() if isinstance(value, type) and issubclass(value, np.inexact)
}
FLOATS_ALLOWED = {
    # exact: the product's terms are 0 or 1, and its sums stay below 2**24
    # because a contraction's |A| is at most 6426
    ("fo.py", "_evaluate", "np.float32"),
    ("cli.py", "_load_measure", "/"),  # a Path join
}


def _floats(tree: ast.AST, top: str = "") -> set[tuple[str, str]]:
    """(top-level function, construct) for each float literal, ``float``
    name, true division and numpy float type under ``tree``."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            found |= _floats(node, top or node.name)
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.add((top, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.add((top, node.id))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.add((top, "/"))
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_FLOATS:
            found.add((top, ast.unparse(node)))
        found |= _floats(node, top)
    return found


def test_the_library_computes_without_floats():
    # every count, rank and value is an exact integer or Fraction
    found = {
        (path.name, top, what)
        for path in sorted(SRC.glob("*.py"))
        for top, what in _floats(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found - FLOATS_ALLOWED == set()
