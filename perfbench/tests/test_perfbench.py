"""Smoke tests of the repo benchmark at tiny run lengths.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_DIR = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_DIR / "src")]

import bench  # noqa: E402
from repro.core.engine import TebaldiEngine  # noqa: E402
from repro.harness.runner import BenchmarkRunner  # noqa: E402
from repro.isolation.checker import IsolationReport  # noqa: E402
from repro.storage.durability import DurabilityManager  # noqa: E402

SPEC = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
TINY = {"seconds": 1, "simulations": 2, "setup_min_s": 0.0}


def run(name, **kwargs):
    lines = []
    result = bench.run_workload(name, out=lines.append, **{**TINY, **kwargs})
    return result, lines


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    result, lines = run(name, seed=3)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for metric, unit in END_TO_END.items():
        pattern = rf"^{re.escape(metric)} = \S+ {re.escape(unit)}( \(n=\d+\))?$"
        assert any(re.match(pattern, line) for line in lines), metric
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert any(line.startswith(f"workload={name} seed=3 ") for line in lines)
    # Each simulation prints its own seed and counts.
    for index in range(TINY["simulations"]):
        prefix = f"seed={bench.simulation_seed(3, index, TINY['simulations'])}: commits="
        assert any(line.startswith(prefix) for line in lines)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    original = TebaldiEngine.perform_read
    result, lines = run(name, seed=3, trace=True)
    assert result["correct"], lines
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Self times of the layers (with the simulator's own) cover the wall
    # time of the traced section.
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert metrics["trace.overhead"] > 1.0
    assert metrics["core.txn.calls"] >= metrics["core.begin.calls"] > 0
    assert TebaldiEngine.perform_read is original, "tracer left a patch installed"
    assert (bench.TRACE_DIR / f"{name}-seed3.spans").is_file()


def test_traced_spans_carry_transaction_ids_and_parents():
    spec = bench.WORKLOADS["ycsb-hot"]
    tracer = bench.Tracer()
    with tracer.install(type(spec.make_workload(1))):
        bench.Simulation(spec, 1, 0.02).execute()
    names = tracer.names
    reads = [i for i in range(tracer.span_count) if names[tracer._name[i]] == "core.read"]
    assert reads
    for index in reads:
        parent = tracer._parent[index]
        assert names[tracer._name[parent]] == "core.txn"
        assert tracer._txn[index] == tracer._txn[parent] > 0


def test_simulated_metrics_repeat_for_a_seed():
    simulated = ("sim_tput_txn_s", "sim_latency_p50_ms", "sim_latency_p90_ms",
                 "attempts_per_commit")
    first, _ = run("ycsb-hot", seed=5)
    second, _ = run("ycsb-hot", seed=5)
    for metric in simulated:
        assert first["metrics"][metric] == second["metrics"][metric]


def test_mid_quantile_interpolates_between_repeated_values():
    # Mid-CDF: 1.0 -> 0.25, 2.0 -> 0.75.
    values = [1.0, 1.0, 2.0, 2.0]
    assert bench.mid_quantile(values, 0.5) == pytest.approx(1.5)
    assert bench.mid_quantile(values, 0.1) == 1.0
    assert bench.mid_quantile(values, 0.9) == 2.0
    # Distinct values: the Hazen quantile.
    assert bench.mid_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)


def test_slices_are_scaled_to_nominal_host_speed():
    # Every probe takes twice its nominal time: the host runs at half speed,
    # so each slice counts half its wall time.  The second slice has 0.02 s
    # of full collection in it.
    probe = 2 * bench.PROBE_NOMINAL_S
    marks = [(0.0, probe, 0.0), (probe + 0.1, 2 * probe + 0.1, 0.0),
             (2 * probe + 0.2, 3 * probe + 0.2, 0.02)]
    assert bench.scaled_slices(marks) == [pytest.approx((0.05, 0.0)),
                                          pytest.approx((0.04, 0.01))]
    spec = bench.WORKLOADS["ycsb-hot"]
    sim = types.SimpleNamespace(spec=spec, marks=marks)
    # Lower quartile outside collections (0.0425 s) plus mean inside them
    # (0.005 s).
    assert bench.commit_rate([sim]) == pytest.approx(spec.slice_commits / 0.0475)


def test_window_shorter_than_a_slice_fails_the_run(monkeypatch):
    spec = bench.WORKLOADS["ycsb-hot"]
    monkeypatch.setitem(bench.WORKLOADS, "ycsb-hot",
                        dataclasses.replace(spec, slice_commits=10**9))
    result, lines = run("ycsb-hot", seed=3)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("shorter than one timed slice" in line for line in lines)


def test_corrupted_recovered_state_fails_the_run(monkeypatch):
    recover = DurabilityManager.recover

    def corrupted(self):
        result = recover(self)
        key = next(iter(result.state))
        result.state[key] = {"corrupted": True}
        return result

    monkeypatch.setattr(DurabilityManager, "recover", corrupted)
    result, lines = run("ycsb-hot", seed=3)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("FAILED: recovery:") and ", 1/" in line
               and line.endswith("keys mismatched") for line in lines)


def test_dropped_recovered_key_fails_the_run(monkeypatch):
    recover = DurabilityManager.recover

    def dropping(self):
        result = recover(self)
        key = next(k for k, writer in result.state_writers.items() if writer > 0)
        del result.state[key]
        del result.state_writers[key]
        return result

    monkeypatch.setattr(DurabilityManager, "recover", dropping)
    result, lines = run("ycsb-hot", seed=3)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any(line.startswith("FAILED: recovery:") and " 1/" in line
               and "written keys lost" in line for line in lines)


def test_lost_committed_transaction_fails_the_run(monkeypatch):
    recover = DurabilityManager.recover

    def lossy(self):
        result = recover(self)
        result.recovered_transactions.discard(max(result.recovered_transactions))
        return result

    monkeypatch.setattr(DurabilityManager, "recover", lossy)
    result, _ = run("ycsb-hot", seed=3)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_corrupted_oracle_report_fails_the_run(monkeypatch):
    def violated(self):
        return IsolationReport(serializable=False, cycles=[[1, 2, 1]])

    monkeypatch.setattr(BenchmarkRunner, "check_isolation", violated)
    result, lines = run("ycsb-hot", seed=3)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any(line.startswith("FAILED: isolation violation") for line in lines)


def test_cap_grows_with_the_run_length(monkeypatch):
    # A run of three times the default length, with little simulated work
    # per second so that it stays fast, gets nine times the default cap.
    caps = []
    arm_cap = bench._arm_cap
    monkeypatch.setattr(bench, "_arm_cap", lambda cap_s: caps.append(cap_s) or arm_cap(cap_s))
    spec = bench.WORKLOADS["ycsb-scan"]
    monkeypatch.setitem(bench.WORKLOADS, "ycsb-scan",
                        dataclasses.replace(spec, virtual_per_second=0.0005))
    result, _ = run("ycsb-scan", seed=3, seconds=3 * bench.DEFAULT_SECONDS)
    assert result["correct"]
    assert caps == [9 * bench.CAP_S]
    assert bench.run_cap_s(1) == bench.run_cap_s(bench.DEFAULT_SECONDS) == bench.CAP_S


def test_run_past_its_cap_fails():
    result, lines = run("ycsb-scan", seed=3, cap_s=0.2)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("wall-clock cap" in line for line in lines)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(REPO_DIR / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
