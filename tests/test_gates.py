"""Tests of the benchmark gate runner's checks and JSON record.

``benchmarks/gates.py`` is a script, not a package module, so it is
loaded from its path.  These tests drive its check evaluation and record
writer on synthetic results; no workload runs and no server starts.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

GATES_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "gates.py"
)


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("benchmark_gates", GATES_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def write(gates, checks, tmp_path):
    """Write the record; return (exit status, the record read back)."""
    path = tmp_path / "record.json"
    status = gates.write_record(str(path), ["kernel"], True, checks, {"kernel": {}})
    return status, json.loads(path.read_text())


def cluster_measurements(speedup):
    cold = {"load_fraction": 0.15}
    runs = [
        {"replicas": 1, "throughput_rps": 100.0, "parity_mismatches": 0, "errors": 0},
        {"replicas": 2, "throughput_rps": 100.0 * speedup, "parity_mismatches": 0,
         "errors": 0},
    ]
    return cold, runs


def test_passing_checks_exit_0_and_the_record_names_its_host(gates, tmp_path):
    checks = gates.Checks()
    checks.parity("kernel.karate.sweep_parity", True)
    checks.bound("kernel.karate.combined_speedup", 3.5)
    status, record = write(gates, checks, tmp_path)
    assert status == 0
    assert record["failed"] == []
    assert set(record["host"]) == {"cpu_count", "python", "platform"}
    assert record["host"]["cpu_count"] == os.cpu_count()
    assert record["checks"] == [
        {"name": "kernel.karate.sweep_parity", "value": True, "bound": "exact",
         "armed": True, "ok": True},
        {"name": "kernel.karate.combined_speedup", "value": 3.5, "bound": ">= 3.0",
         "armed": True, "ok": True},
    ]


def test_a_failed_parity_check_exits_1_and_is_named(gates, tmp_path):
    checks = gates.Checks()
    checks.parity("kernel.karate.sweep_parity", False)
    checks.bound("kernel.karate.combined_speedup", 3.5)
    status, record = write(gates, checks, tmp_path)
    assert status == 1
    assert record["failed"] == ["kernel.karate.sweep_parity"]


def test_a_missed_armed_bound_exits_1(gates, tmp_path):
    checks = gates.Checks()
    checks.bound("update.tokyo.sampling.update_ratio", 0.30)
    status, record = write(gates, checks, tmp_path)
    assert status == 1
    assert record["failed"] == ["update.tokyo.sampling.update_ratio"]
    assert record["checks"][0]["bound"] == "<= 0.25"


def test_ci_bounds_are_the_ci_column(gates, tmp_path):
    checks = gates.Checks(ci=True)
    checks.bound("update.tokyo.sampling.update_ratio", 0.30)
    checks.bound("kernel.tokyo.combined_speedup", 1.6)
    checks.bound("kernel.tokyo.construction_speedup", 3.1)
    status, record = write(gates, checks, tmp_path)
    assert status == 0
    assert record["bounds"] == "ci"
    assert [check["bound"] for check in record["checks"]] == [
        "<= 0.35", ">= 1.5", ">= 3.0"
    ]


def test_scaling_on_one_cpu_is_recorded_unarmed_and_cannot_fail(gates, tmp_path):
    checks = gates.Checks()
    gates.cluster_checks(checks, *cluster_measurements(1.1), cpu_count=1)
    status, record = write(gates, checks, tmp_path)
    assert status == 0
    (scaling,) = [c for c in record["checks"] if c["name"] == "cluster.replica_speedup"]
    assert scaling == {"name": "cluster.replica_speedup", "value": 1.1,
                       "bound": ">= 1.8", "armed": False, "ok": False}


def test_scaling_on_two_cpus_is_armed(gates, tmp_path):
    checks = gates.Checks()
    gates.cluster_checks(checks, *cluster_measurements(1.1), cpu_count=2)
    status, record = write(gates, checks, tmp_path)
    assert status == 1
    assert record["failed"] == ["cluster.replica_speedup"]


def test_a_divergent_answer_fails_the_cluster_parity_check(gates, tmp_path):
    checks = gates.Checks()
    cold, runs = cluster_measurements(2.0)
    runs[1]["parity_mismatches"] = 1
    gates.cluster_checks(checks, cold, runs, cpu_count=2)
    status, record = write(gates, checks, tmp_path)
    assert status == 1
    assert record["failed"] == ["cluster.parity"]
