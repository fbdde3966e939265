"""Metric-name rules of BENCHMARK.json and the shape of the result line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness

#: Names later changes claim gains against; they must not drift.
FIXED_WORKLOADS = {"bulk", "outofcore", "wire"}
FIXED_END_TO_END = {"setup_s", "solve_s", "peak_rss_mb", "lat_p50_ms",
                    "lat_p99_ms", "capacity_rps"}
FIXED_PER_LAYER = {
    "error_rate", "edgelist.from_arrays_s", "edgelist.from_arrays_us_p50",
    "edgelist.kept_ratio", "dispatch.pred_over_meas", "dispatch.regret",
    "kernel.solve_s", "kernel.rounds", "io.stream_s", "sharded.partition_s",
    "sharded.solve_s", "sharded.merge_s", "sharded.shards",
    "sharded.merge_passes", "sharded.frontier_ratio", "sharded.rss_over_budget",
    "protocol.encode_us_p50", "protocol.decode_us_p50", "protocol.bytes_per_req",
    "hashing.fingerprint_us_p50", "cache.hit_ratio",
    "gateway.accept_to_admit_ms_p50", "gateway.accept_to_admit_ms_p99",
    "gateway.protocol_errors", "server.queue_ms_p50", "server.queue_ms_p99",
    "server.service_ms_p50", "scheduler.batch_occupancy_mean",
    "scheduler.batches", "server.shed", "server.timed_out",
    "loadgen.lag_p99_ms", "trace.overhead_ratio",
}


def names(spec, section):
    return {entry["name"] for entry in spec[section]}


def test_benchmark_json_follows_the_rules():
    spec = harness.load_spec()
    assert harness.check_metric_names(spec) == []
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert names(spec, "workloads") == FIXED_WORKLOADS
    assert names(spec, "end_to_end") == FIXED_END_TO_END
    assert FIXED_PER_LAYER <= names(spec, "per_layer")
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


@pytest.mark.parametrize("entry, problem", [
    ({"name": "_lead", "unit": "s"}, "bad name"),
    ({"name": "x" * 65, "unit": "s"}, "bad name"),
    ({"name": "has space", "unit": "s"}, "bad name"),
    ({"name": "ok", "unit": "seconds-per-request!"}, "bad unit"),
    ({"name": "setup_s", "unit": "s"}, "duplicate name"),
])
def test_bad_names_are_reported(entry, problem):
    spec = {"workloads": [], "per_layer": [],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower"}, entry]}
    assert any(problem in p for p in harness.check_metric_names(spec))


def test_setup_metric_is_required():
    spec = {"workloads": [], "per_layer": [], "end_to_end": [
        {"name": "solve_s", "unit": "s", "better": "lower"}]}
    assert harness.check_metric_names(spec) == ["end_to_end: setup_s (s, lower) is missing"]


def test_result_line_has_exactly_the_result_keys():
    declared = [{"name": "setup_s", "unit": "s"}, {"name": "lat_p50_ms", "unit": "ms"}]
    line = json.loads(harness.result_line(
        declared, {"setup_s": 0.5, "lat_p50_ms": 3.25, "extra": 1.0}, 10, 2, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 2
    assert line["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"},
                               "lat_p50_ms": {"value": 3.25, "unit": "ms"}}
    assert json.loads(harness.result_line(declared, {"setup_s": 1, "lat_p50_ms": 1},
                                          1, 1, 1))["correct"] is False
    with pytest.raises(harness.BenchError):
        harness.result_line(declared, {"setup_s": 0.5}, 1, 0, 0)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: non-zero, no result."""
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
