"""Closed-loop runner, output checks and metrics for one workload run.

One client runs the ops of a pass one after another, each op starting when
the previous one has returned, and repeats whole passes until the requested
seconds have passed.  Every pass runs the same ops, so each timing metric is
computed per pass and its median over the passes is reported.  End-to-end
timings are scaled to the speed probe's nominal speed (see ``speed.py``):
the workload's probe job runs at the start of a pass and then between ops at
least every ``speed.EVERY_S``, outside the ops' timings, and a pass's
timings are scaled by its probes' median.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
from tracing import FO_PARSE, PL_EVAL, Tracer
from workloads import WORKLOADS, CliMix, Op, Workload, child_env

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "fo.calls": "count",
    "fo.self_s": "s",
    "fo.cells": "count",
    "fo.parse_s": "s",
    "pairing.calls": "count",
    "pairing.self_s": "s",
    "gamma.calls": "count",
    "gamma.self_s": "s",
    "gamma.ns_per_call": "ns",
    "measure.calls": "count",
    "measure.self_s": "s",
    "measure.violations": "count",
    "pl.calls": "count",
    "pl.self_s": "s",
    "pl.evals": "count",
    "pl.measures": "count",
    "pl.leaf_yield": "ratio",
    "chains.calls": "count",
    "chains.self_s": "s",
    "lattice.self_s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.oneshot_ms": "ms",
    "trace.overhead": "ratio",
    "host.probe_ms": "ms",
}

SETUP_REPEATS = 5
PROBE_REPEATS = 5
_MISSING = object()


@dataclass
class Measurement:
    """Per-pass latencies, wall times and probe times, and per-op outcomes.
    Latencies and wall times are as measured, not scaled."""

    passes: list[list[float]] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    probes: list[list[float]] = field(default_factory=list)
    runs: list[int] = field(default_factory=list)
    errors: list[int] = field(default_factory=list)  # raised, or differed from the first output

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    def scales(self) -> list[float]:
        """Per pass, the factor that takes its times to the nominal speed."""
        return [speed.NOMINAL_S / statistics.median(p) for p in self.probes]

    def per_pass(self, stat) -> float:
        """Median over passes of a per-pass statistic of the scaled times.
        Every pass runs the same ops, so a burst of machine noise that hits a
        minority of passes does not move the result."""
        return statistics.median(
            stat([t * k for t in lat], wall * k)
            for lat, wall, k in zip(self.passes, self.walls, self.scales())
        )

    def ops_per_s(self) -> float:
        return self.per_pass(lambda lat, wall: len(lat) / wall)

    def probe_s(self) -> float:
        return statistics.median(t for p in self.probes for t in p)


def measure(ops: list[Op], seconds: float, first: list, job: str, run_op=None) -> Measurement:
    """Run whole passes of ``ops`` until ``seconds`` have passed (at least one).

    ``first`` holds each op's first output; missing entries are filled in,
    and later outputs that differ from it count as errors.
    """
    m = Measurement(runs=[0] * len(ops), errors=[0] * len(ops))
    reported = False
    start = perf_counter()
    while True:
        latencies = []
        pass_start = perf_counter()
        probes = [speed.probe(job)]
        last_probe = perf_counter()
        for i, op in enumerate(ops):
            if perf_counter() - last_probe >= speed.EVERY_S:
                probes.append(speed.probe(job))
                last_probe = perf_counter()
            t0 = perf_counter()
            try:
                out = op.call() if run_op is None else run_op(i, op.call)
            except Exception:
                t1 = perf_counter()
                m.errors[i] += 1
                if not reported:
                    reported = True
                    print(f"op {i} ({op.label}) raised:", file=sys.stderr)
                    traceback.print_exc()
            else:
                t1 = perf_counter()
                if first[i] is _MISSING:
                    first[i] = out
                elif out != first[i]:
                    m.errors[i] += 1
            m.runs[i] += 1
            latencies.append(t1 - t0)
        end = perf_counter()
        m.passes.append(latencies)
        m.walls.append(end - pass_start - sum(probes))
        m.probes.append(probes)
        if end - start >= seconds:
            return m


def failed_ops(ops: list[Op], first: list, measurements: list[Measurement]) -> int:
    """Executions that failed: errors, plus every execution of an op whose
    output the check rejects.  Checks run here, outside the timed region."""
    bad = set()
    for i, op in enumerate(ops):
        if first[i] is _MISSING:
            continue
        try:
            ok = op.check(first[i])
        except Exception:
            print(f"check of op {i} ({op.label}) raised:", file=sys.stderr)
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"op {i} ({op.label}) gave a wrong answer", file=sys.stderr)
            bad.add(i)
    return sum(
        m.runs[i] if i in bad else m.errors[i] for m in measurements for i in range(len(ops))
    )


# -- child-process probes --------------------------------------------------------------


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, measured inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout)


def interpreter_seconds() -> float:
    """Wall time of a fresh interpreter that does nothing."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), timeout=120, check=True)
    return perf_counter() - t0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# -- runs ----------------------------------------------------------------------------


@dataclass
class Result:
    attempted: int
    failed: int
    probe_ms: float  # median probe time of the timed passes, unscaled
    metrics: dict[str, float]

    def to_json(self, units: dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    cls = WORKLOADS[name]
    if not trace:
        return plain_run(cls, seed, seconds)
    workdir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    try:
        return traced_run(cls, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def plain_run(cls: type[Workload], seed: int, seconds: float) -> Result:
    """End-to-end metrics, tracing off.  Set-up (import in a fresh process
    plus input generation) is repeated, each time scaled by the mean of the
    probes just before and after it, and the median reported."""
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe(cls.probe_job)
        imported = import_seconds("stonepair")
        t0 = perf_counter()
        workload = cls(seed)
        built = perf_counter() - t0
        probe_s = (before + speed.probe(cls.probe_job)) / 2
        setups.append((imported + built) * speed.NOMINAL_S / probe_s)
    first = [_MISSING] * len(workload.ops)
    m = measure(workload.ops, seconds, first, cls.probe_job)
    failed = failed_ops(workload.ops, first, [m])
    return Result(m.attempted, failed, m.probe_s() * 1e3, {
        "setup_s": statistics.median(setups),
        "ops_per_s": m.ops_per_s(),
        "op_p50_ms": m.per_pass(lambda lat, wall: statistics.median(lat)) * 1e3,
        "op_p90_ms": m.per_pass(lambda lat, wall: statistics.quantiles(lat, n=10, method="inclusive")[8]) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
        "ok_ratio": 1 - failed / m.attempted,
    })


def traced_run(cls: type[Workload], seed: int, seconds: float, workdir: Path) -> Result:
    """Per-layer metrics.  Set-up is traced; then whole passes run untraced
    for ``seconds``, and exactly one pass runs traced, so every count covers
    the same work on every run of a seed.  The command line is measured
    last, untraced, with the seed's ``CliMix``.  Layer times are as measured,
    not scaled; ``host.probe_ms``, the probe's median time over the untraced
    passes, gives the speed they were measured at."""
    tracer = Tracer()
    with tracer:
        workload = tracer.wrap("bench.setup", cls)(seed)
    first = [_MISSING] * len(workload.ops)
    untraced = measure(workload.ops, seconds, first, cls.probe_job)
    op_span = tracer.wrap("bench.op", lambda call: call())

    def run_op(i, call):
        tracer.op_id = i
        return op_span(call)

    with tracer:
        traced = measure(workload.ops, 0, first, cls.probe_job, run_op)
    failed = failed_ops(workload.ops, first, [untraced, traced])
    attempted = untraced.attempted + traced.attempted

    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = traced.ops_per_s() / untraced.ops_per_s()
    metrics["host.probe_ms"] = untraced.probe_s() * 1e3
    metrics["cli.interp_ms"] = statistics.median(interpreter_seconds() for _ in range(PROBE_REPEATS)) * 1e3
    metrics["cli.import_ms"] = statistics.median(import_seconds("stonepair.cli") for _ in range(PROBE_REPEATS)) * 1e3
    mix = CliMix(seed, workdir)
    cli_metrics, cli_failed = measure_cli(mix)
    metrics.update(cli_metrics)
    return Result(
        attempted + len(mix.argvs), failed + cli_failed, metrics["host.probe_ms"],
        {k: metrics[k] for k in PER_LAYER},
    )


def measure_cli(mix: CliMix) -> tuple[dict[str, float], int]:
    """Each subcommand once as a fresh process and once through ``cli.run``
    in this process, untraced.  An invocation fails when it exits non-zero
    or the two outputs differ."""
    one_shot, in_process, failed = [], [], 0
    for argv in mix.argvs:
        t0 = perf_counter()
        child = mix.one_shot(argv)
        t1 = perf_counter()
        here = mix.in_process(argv)
        t2 = perf_counter()
        one_shot.append(t1 - t0)
        in_process.append(t2 - t1)
        if child[0] != 0 or child != here:
            print(f"stonepair {' '.join(argv)}: exit {child[0]}, outputs differ: {child != here}", file=sys.stderr)
            failed += 1
    return {
        "cli.run_ms": statistics.mean(in_process) * 1e3,
        "cli.oneshot_ms": statistics.median(one_shot) * 1e3,
    }, failed


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    self_times = tracer.self_times()
    out: dict[str, float] = {}
    for layer in ("fo", "pairing", "gamma", "measure", "pl", "chains", "lattice"):
        idx = tracer.layer_spans(layer)
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.self_s"] = float(self_times[idx].sum())
    out["fo.cells"] = sum(size**width for size, width in tracer.fo_calls)
    out["fo.parse_s"] = float(self_times[tracer.spans(*FO_PARSE)].sum())
    out["gamma.ns_per_call"] = out["gamma.self_s"] / out["gamma.calls"] * 1e9 if out["gamma.calls"] else 0.0

    validations = tracer.spans("measure.validate_measure")
    grids = tracer.spans("pl.grid_measures")
    out["measure.violations"] = sum(tracer.result_sizes[i] for i in validations)
    out["pl.evals"] = len(tracer.spans(*PL_EVAL))
    out["pl.measures"] = sum(tracer.result_sizes[i] for i in grids)
    parents = set(grids.tolist())
    leaves = sum(1 for i in validations if tracer.parent[i] in parents)
    out["pl.leaf_yield"] = out["pl.measures"] / leaves if leaves else 0.0
    return out
