"""In-memory spans around the program's public functions.

Only a traced run installs the wrappers; an untraced run calls the program
unchanged.  A span records its name, start, end, parent span and op id, in
flat arrays.  A layer's self time is the time of its spans minus the time of
their direct children, so ``pairing.self_s`` excludes the ``fo`` calls that
``stone_pairing`` makes.

Wrappers replace the function object under every name it is bound to in the
``stonepair`` modules, so calls between modules (``pl`` calling
``validate_measure``, ``pairing`` calling ``fo.count_satisfying``) are seen
too.  Calls inside one module that the wrappers would multiply by thousands
(``oplus`` inside ``check_adjunction``, ``FiniteLattice.leq``, ``GammaValue``
comparisons) are left unwrapped; their time counts as the caller's.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

from inputs import counting_width

# Module attribute or class method names wrapped per layer; the layer is the
# first component of the span name.
TRACED = {
    "fo": ["count_satisfying", "satisfying_set", "satisfies", "parse_formula", "parse_structure"],
    "pairing": ["stone_pairing", "pairing_sequence", "assignment_distribution", "check_padding_invariance"],
    "gamma": ["mip", "miss", "plus", "gamma_sum", "iota_exact", "iota_approx", "gamma_collapse"],
    "measure": [
        "validate_measure", "validate_classical_measure", "lift_measure", "collapse_measure",
        "pushforward", "integrate", "integration_measure", "parse_measure",
    ],
    "pl": [
        "eval_pl_measure", "eval_pl_structure", "grid_measures", "entails_grid",
        "check_soundness_grid", "filter_to_measure", "parse_pl_formula",
    ],
    "chains": [
        "check_adjunction", "check_oplus_preserved", "find_ominus_counterexample",
        "derive_partial_minus", "derive_partial_plus",
    ],
    "lattice": [
        "chain", "boolean_algebra", "product_lattice", "from_subsets", "parse_lattice", "check_hom",
        "FiniteLattice.__init__", "FiniteLattice.validate", "FiniteLattice.join_irreducibles",
        "FiniteLattice.meet_irreducibles", "FiniteLattice.kappa", "FiniteLattice.prime_filters",
        "FiniteLattice.join_all", "FiniteLattice.meet_all",
    ],
}

FO_TENSOR = ("fo.count_satisfying", "fo.satisfying_set")
FO_PARSE = ("fo.parse_formula", "fo.parse_structure")
PL_EVAL = ("pl.eval_pl_measure", "pl.eval_pl_structure")


class Tracer:
    """Span store plus the patching that feeds it.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.  ``op_id`` is set by the caller before
    each op; set-up spans carry -1.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.fo_calls: list[tuple[int, int]] = []  # (|A|, width) per tensor call
        self._widths: dict[tuple[object, int], int] = {}
        self.result_sizes: dict[int, int] = {}  # span index -> len(result)

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        nid = self._name_id(name)
        stack, names, parents, ops, starts, ends = (
            self._stack, self.name, self.parent, self.op, self.start, self.end
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                note(idx, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _note_tensor(self, idx: int, args: tuple, out: object) -> None:
        A, phi, context = args[0], args[1], args[2]
        key = (phi, len(context))
        if key not in self._widths:
            self._widths[key] = counting_width(phi, len(context))
        self.fo_calls.append((A.size, self._widths[key]))

    def _note_len(self, idx: int, args: tuple, out: object) -> None:
        self.result_sizes[idx] = len(out)

    # -- patching ----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "stonepair" or n.startswith("stonepair.")]
        for layer, attrs in TRACED.items():
            home = sys.modules[f"stonepair.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                note = None
                if name in FO_TENSOR:
                    note = self._note_tensor
                elif name in ("measure.validate_measure", "pl.grid_measures"):
                    note = self._note_len
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self.wrap(name, original, note))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original, note)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, original, wrapper)
        return self

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return _copy(self.end, np.float64) - _copy(self.start, np.float64)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        parent = _copy(self.parent, np.int32)
        dur = self.durations()
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def spans(self, *names: str) -> np.ndarray:
        """Indices of the spans with any of the given names."""
        ids = [self._name_ids[n] for n in names if n in self._name_ids]
        return np.flatnonzero(np.isin(_copy(self.name, np.int32), ids))

    def layer_spans(self, layer: str) -> np.ndarray:
        return self.spans(*(n for n in self.names if n.split(".")[0] == layer))


def _copy(values: array, dtype) -> np.ndarray:
    """A numpy copy, so the array is not left exporting its buffer."""
    return np.frombuffer(values, dtype=dtype).copy()
