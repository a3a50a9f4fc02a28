"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in; without it the run fails with exit code 2
and prints no result.  One line per metric is printed, then a comment line
with the median time of the speed probe (see speed.py).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stonepair" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'stonepair'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    for name, value in result.metrics.items():
        print(f"{args.workload:15s} {name:20s} {value:14.6g} {units[name]}")
    print(f"# speed probe: median {result.probe_ms:.3f} ms, nominal {harness.speed.NOMINAL_S * 1e3:g} ms")
    print(json.dumps(result.to_json(units)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
