"""The benchmark's tracer names program functions by string; they must resolve.
A fresh ``import stonepair`` loads exactly its eight library modules.  A
warning in a test is an error.  README's command table is the CLI's, and
the limits it states are the code's; the table of Γ points stays within
its bound.  The library computes without floats, and states its int64
rule once.
Every public function of chains, lattice and pairing whose arrays grow
with its arguments charges them to the memory budget before it builds
them."""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stonepair import chains, fo, gamma, lattice, pairing
from stonepair.errors import SizeError
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
    base, power = stated(r"`chains\.MAX_DUALITY_CASES` \((\d+)\*\*(\d+) cases")
    assert base**power == chains.MAX_DUALITY_CASES
    assert stated(r"`gamma\.POINT_CACHE_SIZE` \((\d+) points\)")[0] == gamma.POINT_CACHE_SIZE
    assert gamma.point_of_rank.cache_info().maxsize == gamma.POINT_CACHE_SIZE


def test_the_point_table_is_bounded():
    # points on 10 000 distinct denominators fill the table to its bound, no further
    for denom in range(1, 10_001):
        gamma.point_of_rank(1, denom)
    assert gamma.point_of_rank.cache_info().currsize <= gamma.point_of_rank.cache_info().maxsize
    assert gamma.point_of_rank.cache_info().maxsize == gamma.POINT_CACHE_SIZE < 10_000


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



def _int64_bounds(tree: ast.AST, top: str = "") -> set[tuple[str, str]]:
    """(top-level function, expression) for each integer written near the
    int64 range under ``tree``: 2**k or 1 << k for k >= 60, and literals of
    2**60 or more."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            found |= _int64_bounds(node, top or node.name)
            continue
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Pow, ast.LShift))
            and isinstance(node.right, ast.Constant)
            and isinstance(node.right.value, int)
            and node.right.value >= 60
        ):
            found.add((top, ast.unparse(node)))
            continue
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value >= 2**60:
            found.add((top, repr(node.value)))
        found |= _int64_bounds(node, top)
    return found


def test_the_int64_rule_is_stated_once():
    # every exact integer table takes its dtype from one rule: int64 while
    # its entries stay below 2**62 in magnitude, so that a sum or
    # difference of two fits, and Python integers past that
    found = {
        (path.name, top, what)
        for path in sorted(SRC.glob("*.py"))
        for top, what in _int64_bounds(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("fo.py", "_integer_dtype", "2 ** 62")}
    assert fo._integer_dtype(2**62 - 1) is np.int64 and fo._integer_dtype(2**62) is object
    edge = np.array([2**62 - 1, -(2**62 - 1)], dtype=fo._integer_dtype(2**62 - 1))
    assert (edge + edge[::-1]).tolist() == [0, 0] and (edge - edge[::-1]).tolist() == [2**63 - 2, 2 - 2**63]

# x and y unequal or ordered: one |A|² counting tensor
NOT_LT = fo.parse_formula("!(x = y) | lt(x,y)", fo.POSET_SIGNATURE)

# every public function of chains, lattice and pairing whose arrays grow
# with its arguments, with arguments (built before the budget shrinks) that
# would take megabytes; a fence sequence's rows past its certificate would
# take 312 MB
GROWING = {
    "chains.check_adjunction": lambda: (1000,),
    "chains.check_oplus_preserved": lambda: (1000, 10),
    "chains.find_ominus_counterexample": lambda: (1000, 10),
    "chains.check_floor_ceiling": lambda: (100, 100),
    "chains.chain_lattice": lambda: (1000,),
    "chains.derive_partial_minus": lambda: (1000,),
    "chains.derive_partial_plus": lambda: (1000,),
    "lattice.chain": lambda: (1000,),
    "lattice.boolean_algebra": lambda: (8,),
    "lattice.product_lattice": lambda: (lattice.chain(30), lattice.chain(30)),
    "lattice.from_subsets": lambda: ([frozenset({i}) for i in range(1000)],),
    "lattice.FiniteLattice": lambda: ([f"e{i}" for i in range(1000)], [(i, i + 1) for i in range(999)]),
    "lattice.parse_lattice": lambda: (
        "elements: " + ", ".join(f"e{i}" for i in range(1000)) + "\norder: e0<=e1\n",
    ),
    "pairing.stone_pairing": lambda: (fo.gen_example_structure(2000), NOT_LT, ("x", "y")),
    "pairing.check_padding_invariance": lambda: (fo.gen_example_structure(2000), NOT_LT, 2, 3),
    "pairing.assignment_distribution": lambda: (fo.gen_example_structure(2000), ("x", "y")),
    "pairing.pairing_sequence": lambda: (pairing.FenceFamily(), fo.TRUE, ("x",), 10**6),
}
# the public functions whose arrays do not: elementwise rank expressions,
# single elements and witnesses, maps of one element, a sweep guarded by
# ``chains.MAX_DUALITY_CASES`` that runs the checks above, readers of a
# lattice's tables that build nothing larger than them, record types,
# families that build a member only when asked, and byte estimates
NOT_GROWING = {
    "chains." + name for name in (
        "ChainElement", "ChainPoint", "AdjunctionViolation", "OminusWitness", "DualityLine",
        "oplus_of_ranks", "ominus_of_ranks", "embed_of_ranks", "floor_of_ranks", "ceiling_of_ranks",
        "oplus", "ominus", "embed", "embed_point", "floor_map", "ceiling_map", "project_gamma",
        "verify_duality",
    )
} | {"lattice." + name for name in ("PrimeFilter", "LatticeHom", "check_hom", "format_lattice")} | {
    "pairing." + name for name in (
        "PairingResult", "PaddingViolation", "VerdictKind", "Verdict", "ClosedForm", "SequenceReport",
        "StructureFamily", "FenceFamily", "DirectoryFamily", "padded_context", "assignment_bytes",
        "row_bytes",
    )
}


def test_every_public_function_is_classed():
    # a new public function is either charged and listed in GROWING, or
    # listed in NOT_GROWING
    public = {
        f"{module.__name__.split('.')[1]}.{name}"
        for module in (chains, lattice, pairing)
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and value.__module__ == module.__name__
    }
    assert public == set(GROWING) | NOT_GROWING


@pytest.mark.parametrize("name", GROWING)
def test_a_growing_table_is_charged_before_it_is_built(name, monkeypatch):
    module, attr = name.split(".")
    f = getattr(importlib.import_module(f"stonepair.{module}"), attr)
    args = GROWING[name]()
    monkeypatch.setattr(fo, "MAX_TENSOR_CELLS", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError) as exc:
            f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = int(re.search(r"would take (\d+) bytes", str(exc.value)).group(1))
    assert peak < charge, (str(exc.value), peak)
