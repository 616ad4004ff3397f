"""Smoke test of the end-to-end benchmark (CI's ``pytest benchmarks`` step).

Runs every workload at ``--smoke`` cycle counts, both passes, on two
seeds, through the same command line the driver uses.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: One generator thread and no worker threads: counts repeat exactly.
SINGLE_THREADED = ("lib_table2", "disk_cold", "disk_warm")
SEEDS = (7, 11)


def run_benchmark(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    result["stdout"] = done.stdout
    return result


first_run = functools.lru_cache(maxsize=None)(run_benchmark)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed(workload, seed, trace):
    result = first_run(workload, seed, trace)
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0  # failed_share == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert math.isfinite(reading["value"]), metric["name"]
        # ... and by name, with its unit, in the readable part too.
        assert any(
            line.split()[1:2] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in result["stdout"].splitlines()[:-1]
            if line.startswith(workload)
        ), metric["name"]
    if not trace:
        for reading in result["metrics"].values():
            assert reading["value"] > 0


@pytest.mark.parametrize("workload", SINGLE_THREADED)
def test_counts_repeat_exactly_on_one_seed(workload):
    for trace in (0, 1):
        first = first_run(workload, SEEDS[0], trace)["metrics"]
        second = run_benchmark(workload, SEEDS[0], trace)["metrics"]
        counts = [
            name
            for name, reading in first.items()
            if name == "charged_s_per_op"
            or (name.endswith("_per_op") and reading["unit"] in ("count", "bytes"))
        ]
        assert counts
        for name in counts:
            assert first[name]["value"] == second[name]["value"], name


def test_workloads_are_separated():
    """The acceptance criteria that make the workloads distinct."""
    layers = {name: first_run(name, SEEDS[0], 1)["metrics"] for name in WORKLOADS}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("lib_table2", "core.textmatch.share") >= 0.15
    for disk in ("disk_cold", "disk_warm"):
        assert value(disk, "core.textmatch.share") == 0
    # Traced op wall time per op, from a layer that reports both forms.
    wall_ms_per_op = value("remote_sharded", "core.joinmethods.self_ms_per_op") / value(
        "remote_sharded", "core.joinmethods.self_share"
    )
    remote_ms_per_op = sum(
        value("remote_sharded", f"remote.{layer}.self_ms_per_op")
        for layer in ("transport", "endpoint", "router")
    )
    remote_share = (
        value("remote_sharded", "remote.codec.share") + remote_ms_per_op / wall_ms_per_op
    )
    assert remote_share >= 0.4
    assert value("disk_cold", "textsys.diskindex.cache_hit_rate") < 0.2
    assert value("disk_warm", "textsys.diskindex.cache_hit_rate") > 0.95
    shared = ("serving.sharing.shared_searches_per_op", "gateway.cache.coalesced_per_op")
    assert sum(value("serve_coalesced", metric) for metric in shared) > 0
    assert all(value("serve_plain", metric) == 0 for metric in shared)
    for workload in WORKLOADS:
        assert abs(value(workload, "trace.unattributed_share")) <= 0.05


def test_parallel_children_are_not_counted_twice():
    tracer = Tracer()
    root = tracer.open_op("op:x", push=False)
    left = tracer.open("shard:a", root, push=False)
    right = tracer.open("shard:b", root, push=False)
    root.start, root.end = 0, 100
    left.start, left.end = 10, 60
    right.start, right.end = 20, 80
    selfs = self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(100, abs=2)
    assert selfs["op:x"] == 30  # 0-10 and 80-100
    assert selfs["shard:a"] == 10 + 20  # alone 10-20, half of 20-60
    assert selfs["shard:b"] == 20 + 20  # half of 20-60, alone 60-80


def test_verdict_rule():
    steady = [100.0, 101.0, 99.0, 100.5, 100.2]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "same"
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "worse"
    assert verdict(steady, [v * 1.20 for v in steady], "higher", 0.10) == "better"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [v * 2 for v in noisy], "lower", 0.10) == "worse"
