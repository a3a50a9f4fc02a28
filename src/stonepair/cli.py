"""Command-line interface.

Subcommands: pair, converge, check-measure, eval, entail, soundness,
duality-verify, integrate.  All numeric output uses the canonical text forms
(lowest-terms rationals, ``^o``/``^-`` tags) and is byte-stable across runs.
Exit codes: 0 success, 1 domain/parse/check failures (message on stderr where
appropriate), 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import lru_cache, partial
from pathlib import Path
from typing import Sequence, TextIO

from . import chains, fo, measure as measure_mod, pairing, pl
from .errors import Error, InternalInvariantError
from .gamma import format_gamma
from .lattice import FiniteLattice, parse_lattice
from .pairing import DirectoryFamily, FenceFamily, StructureFamily


class UsageError(Exception):
    """Wrong flag combination or statically malformed flag value."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonepair",
        description="Exact Stone pairings, lattice measures, and chain duality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="pair a formula against one finite structure")
    p.add_argument("--structure", metavar="PATH")
    p.add_argument("--family", metavar="NAME")
    p.add_argument("--index", type=int, metavar="N")
    p.add_argument("--formula", required=True, metavar="TEXT|@PATH")
    p.add_argument("--vars", metavar="CSV")

    p = sub.add_parser("converge", help="pair a formula along a structure family")
    p.add_argument("--family", required=True, metavar="NAME")
    p.add_argument("--formula", required=True, metavar="TEXT|@PATH")
    p.add_argument("--horizon", type=int, required=True, metavar="N")
    p.add_argument("--vars", metavar="CSV")
    p.add_argument("--csv", metavar="PATH")

    p = sub.add_parser("check-measure", help="validate a measure file")
    p.add_argument("--lattice", metavar="PATH")
    p.add_argument("--measure", required=True, metavar="PATH")

    p = sub.add_parser("eval", help="evaluate a threshold formula")
    p.add_argument("--structure", metavar="PATH")
    p.add_argument("--lattice", metavar="PATH")
    p.add_argument("--measure", metavar="PATH")
    p.add_argument("--formula", required=True, metavar="TEXT|@PATH")

    p = sub.add_parser("entail", help="grid entailment between threshold formulas")
    p.add_argument("--lattice", required=True, metavar="PATH")
    p.add_argument("--grid", type=int, required=True, metavar="K")
    p.add_argument("--lhs", required=True, metavar="TEXT")
    p.add_argument("--rhs", required=True, metavar="TEXT")

    p = sub.add_parser("soundness", help="exhaustive rule soundness on a grid")
    p.add_argument("--lattice", required=True, metavar="PATH")
    p.add_argument("--grid", type=int, required=True, metavar="K")

    p = sub.add_parser("duality-verify", help="chain operator and projection checks")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p.add_argument("--max-m", type=int, required=True, metavar="N")

    p = sub.add_parser("integrate", help="integrate the uniform assignment weights")
    p.add_argument("--structure", required=True, metavar="PATH")
    p.add_argument("--formula", required=True, metavar="TEXT|@PATH")
    p.add_argument("--vars", metavar="CSV")

    return parser


def _formula(spec: str, parse):
    """``parse`` of a formula flag's value: its text, or with ``@PATH`` the
    text of that file."""
    if spec.startswith("@"):
        return fo.load(spec[1:], parse)
    return parse(spec)


def _family(name: str) -> StructureFamily:
    if name == "fence":
        return FenceFamily()
    path = Path(name)
    if path.is_dir():
        return DirectoryFamily(path)
    raise Error(f"unknown family {name!r} (not built in, not a directory)")


def _context(args) -> tuple[str, ...] | None:
    if args.vars is None:
        return None
    ctx = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not ctx:
        raise UsageError(f"bad --vars value {args.vars!r}")
    return ctx


def _render_verdict(report: pairing.SequenceReport) -> str:
    v = report.verdict
    if v.kind in (pairing.VerdictKind.CONVERGES_EXACT, pairing.VerdictKind.CONVERGES_APPROX):
        line = f"CONVERGES {format_gamma(v.limit)}"
    elif v.kind is pairing.VerdictKind.DIVERGENT_AT_HORIZON:
        odd, even = (
            format_gamma(s.limit) if s.limit is not None else "?" for s in (report.odd, report.even)
        )
        line = f"DIVERGENT odd->{odd} even->{even}"
    else:
        line = "INCONCLUSIVE"
    # closed-form verdicts are exact; everything else is horizon-bounded
    return line if report.exact else line + " (at horizon)"


def _load_measure(args) -> tuple[FiniteLattice, measure_mod.Measure]:
    measure_path = Path(args.measure)

    def parse(text: str) -> tuple[FiniteLattice, measure_mod.Measure]:
        # the reference is read, and so checked, even when --lattice overrides it
        ref = measure_mod.measure_lattice_reference(text)
        if args.lattice is not None:
            lattice_path = Path(args.lattice)
        elif ref is None:
            raise UsageError("no lattice given: pass --lattice or add a 'lattice:' line")
        else:
            lattice_path = measure_path.parent / ref
        L = fo.load(lattice_path, parse_lattice)
        return L, measure_mod.parse_measure(text, L)

    return fo.load(measure_path, parse)


def _cmd_pair(args, out: TextIO) -> int:
    if args.structure is not None:
        A = fo.load(args.structure, fo.parse_structure)
    elif args.family is not None:
        if args.index is None:
            raise UsageError("--family needs --index")
        A = _family(args.family).structure(args.index)
    else:
        raise UsageError("pass --structure or --family/--index")
    phi = _formula(args.formula, partial(fo.parse_formula, signature=A.signature))
    r = pairing.stone_pairing(A, phi, _context(args))
    print(f"{r.count} {r.total} {r.classical} {format_gamma(r.gamma)}", file=out)
    return 0


def _cmd_converge(args, out: TextIO) -> int:
    family = _family(args.family)
    # member 1 is read here for its signature, and pairing_sequence asks for
    # it first: keeping the last member built builds it once
    family.structure = lru_cache(maxsize=1)(family.structure)
    phi = _formula(args.formula, partial(fo.parse_formula, signature=family.structure(1).signature))
    report = pairing.pairing_sequence(
        family, phi, _context(args), horizon=args.horizon
    )
    rows = [
        f'{i},{r.count},{r.total},{r.classical},"{format_gamma(r.gamma)}"'
        for i, r in enumerate(report.results, start=1)
    ]
    # the file first: a reader of stdout that goes away cannot cut it short
    if args.csv is not None:
        Path(args.csv).write_text(
            "index,count,total,classical,gamma\n" + "\n".join(rows) + "\n"
        )
    for row in rows:
        print(row, file=out)
    print(_render_verdict(report), file=out)
    return 0


def _cmd_check_measure(args, out: TextIO) -> int:
    L, mu = _load_measure(args)
    violations = measure_mod.validate_measure(mu)
    if not violations:
        print("OK", file=out)
        return 0
    for v in violations:
        print(v.render(L), file=out)
    return 1


def _cmd_eval(args, out: TextIO) -> int:
    if args.structure is not None:
        A = fo.load(args.structure, fo.parse_structure)
        phi = _formula(args.formula, partial(pl.parse_pl_formula, signature=A.signature))
        value = pl.eval_pl_structure(A, phi)
    elif args.measure is not None:
        L, mu = _load_measure(args)
        phi = _formula(args.formula, partial(pl.parse_pl_formula, lattice=L))
        value = pl.eval_pl_measure(mu, phi)
    else:
        raise UsageError("pass --structure, or --lattice/--measure")
    print("TRUE" if value else "FALSE", file=out)
    return 0


def _cmd_entail(args, out: TextIO) -> int:
    L = fo.load(args.lattice, parse_lattice)
    lhs = pl.parse_pl_formula(args.lhs, lattice=L)
    rhs = pl.parse_pl_formula(args.rhs, lattice=L)
    result = pl.entails_grid(lhs, rhs, L, args.grid)
    if result.holds:
        print("HOLDS", file=out)
    else:
        print(measure_mod.format_measure(result.countermodel, args.lattice), end="", file=out)
    return 0


def _cmd_soundness(args, out: TextIO) -> int:
    L = fo.load(args.lattice, parse_lattice)
    report = pl.check_soundness_grid(L, args.grid)
    bad = Counter(inst.rule for inst, _ in report.failures)
    for rule, count in sorted(report.instance_counts.items()):
        print(f"{rule}: {count} instances, {bad[rule]} countermodels", file=out)
    print(
        f"total: {report.total_instances} instances over {report.measures_checked} "
        f"grid measures, {len(report.failures)} countermodels",
        file=out,
    )
    return 0 if not report.failures else 1


def _cmd_duality_verify(args, out: TextIO) -> int:
    if args.max_n < 1 or args.max_m < 2:
        raise UsageError("need --max-n >= 1 and --max-m >= 2")
    for line in chains.verify_duality(args.max_n, args.max_m):
        print(line.text, file=out)
        if line.failed:
            return 1
    return 0


def _cmd_integrate(args, out: TextIO) -> int:
    # the integral over the uniform assignment weights is the tagged pairing
    A = fo.load(args.structure, fo.parse_structure)
    phi = _formula(args.formula, partial(fo.parse_formula, signature=A.signature))
    print(format_gamma(pairing.stone_pairing(A, phi, _context(args)).gamma), file=out)
    return 0


_COMMANDS = {
    "pair": _cmd_pair,
    "converge": _cmd_converge,
    "check-measure": _cmd_check_measure,
    "eval": _cmd_eval,
    "entail": _cmd_entail,
    "soundness": _cmd_soundness,
    "duality-verify": _cmd_duality_verify,
    "integrate": _cmd_integrate,
}


def run(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except InternalInvariantError:
        raise
    except BrokenPipeError:  # the reader of the output went away: the end of output
        return 1
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # what is left goes to devnull: the flush at exit is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
