"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q

They run every workload for one pass in both modes, so they take about a
minute and a half.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from stonepair import fo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture
def scratch():
    """A directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_tmp" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    _remove_if_empty(path.parent)


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass  # still holds another run's files


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and line.endswith(f" {unit}") for line in lines[:-1])


def test_injected_wrong_answer_counts_as_failed(monkeypatch):
    real = fo.count_satisfying
    # one satisfying assignment short, wherever there is one
    monkeypatch.setattr(fo, "count_satisfying", lambda A, phi, ctx: max(real(A, phi, ctx) - 1, 0))
    result = harness.run("pairing-corpus", SEED, 0, False, ROOT)
    assert result.failed > 0
    assert result.metrics["ok_ratio"] == 1 - result.failed / result.attempted < 1
    assert not result.to_json(harness.END_TO_END)["correct"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_op_list(name):
    labels = [[op.label for op in workloads.WORKLOADS[name](seed).ops] for seed in (SEED, SEED, SEED + 1)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]


def test_passes_at_different_host_speeds_scale_to_the_same_timings():
    # the second pass ran at half the speed of the first: probes and ops alike took twice as long
    m = harness.Measurement(
        passes=[[0.01, 0.03], [0.02, 0.06]],
        walls=[0.05, 0.10],
        probes=[[speed.NOMINAL_S * 2] * 3, [speed.NOMINAL_S * 3, speed.NOMINAL_S * 4, speed.NOMINAL_S * 5]],
    )
    assert m.scales() == [0.5, 0.25]
    assert m.ops_per_s() == pytest.approx(2 / 0.025)
    assert m.per_pass(lambda lat, wall: max(lat)) == pytest.approx(0.015)
    assert m.probe_s() == pytest.approx(speed.NOMINAL_S * 2.5)  # over all probes of the run


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_probe_job_runs(name):
    assert speed.probe(workloads.WORKLOADS[name].probe_job) > 0


def test_same_seed_same_cli_mix(scratch):
    argvs = [workloads.CliMix(seed, scratch).argvs for seed in (SEED, SEED, SEED + 1)]
    assert argvs[0] == argvs[1]
    assert argvs[0] != argvs[2]


@pytest.mark.parametrize("name, counts", [
    ("pairing-corpus", ("fo.cells", "gamma.calls")),
    ("order-checks", ("gamma.calls", "pl.measures", "measure.violations")),
])
def test_traced_counts_repeat_exactly(name, counts):
    first, second = (harness.run(name, SEED, 0, True, ROOT) for _ in range(2))
    assert first.failed == second.failed == 0
    for count in counts:
        assert first.metrics[count] == second.metrics[count] > 0


def test_memory_budget_refuses_the_802_element_fence_query():
    phi = fo.parse_formula(inputs.width3_formula(random.Random(0), "lt"), fo.POSET_SIGNATURE)
    assert inputs.tensor_bytes(phi, 1, 802) > 11 * 2**30
    with pytest.raises(inputs.BudgetError):
        inputs.check_budget(phi, 1, 802)
    assert inputs.check_budget(phi, 1, 224) <= inputs.MEMORY_BUDGET


def test_memory_estimate_bounds_the_real_peak():
    rng = random.Random(SEED)
    A = inputs.random_structure(rng, 96, out_degree=3)
    phi = fo.parse_formula(inputs.width3_formula(rng, "r"), inputs.BINARY)
    tracemalloc.start()
    try:
        fo.count_satisfying(A, phi, ("x",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = inputs.tensor_bytes(phi, 1, A.size)
    assert 0.5 * estimate < peak <= estimate


def test_fails_without_a_result_when_the_program_is_missing(scratch):
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = _run("--workload", "fo-large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_output_mismatch_counts_as_failed(scratch, monkeypatch):
    mix = workloads.CliMix(SEED, scratch)
    metrics, failed = harness.measure_cli(mix)
    assert failed == 0
    assert metrics["cli.oneshot_ms"] > metrics["cli.run_ms"] > 0
    monkeypatch.setattr(workloads.cli, "run", lambda argv, stdout, stderr: 0)  # prints nothing
    _, failed = harness.measure_cli(mix)
    assert failed == len(mix.argvs)
