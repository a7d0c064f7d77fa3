"""The benchmark's own tests: schedules, op validity, launcher, smoke runs.

They run the benchmark at the ``tiny`` size, a few seconds each.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.workloads import (WORKLOADS, compile_schedule,  # noqa: E402
                                 final_rows)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_schedule_is_byte_identical_for_a_seed(workload):
    first = compile_schedule(workload, 7, 3.0, size="tiny").encode()
    again = compile_schedule(workload, 7, 3.0, size="tiny").encode()
    other = compile_schedule(workload, 8, 3.0, size="tiny").encode()
    assert first == again
    assert first != other


def _apply(rows: set, ops) -> None:
    """Apply writes in order, asserting each one is valid where it runs."""
    for op in ops:
        added = op.row if op.kind == "add-batch" else \
            (op.row,) if op.kind == "add" else ()
        for row in added:
            assert row not in rows
            rows.add(row)
        if op.kind == "retract":
            assert op.row in rows
            rows.remove(op.row)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_op_is_valid_in_any_interleaving(workload):
    schedule = compile_schedule(workload, 3, 3.0, size="tiny")
    # The count pass, warm-up and tail run in order on one connection.
    present = set(schedule.initial_rows)
    _apply(present, schedule.count + schedule.warmup)
    # The open, closed and overhead phases run on two connections.
    measured = [op for _, op in schedule.open] + schedule.closed + \
        schedule.overhead
    writes = [op for op in measured if op.kind in ("add", "retract")]
    assert writes, "the measured phases must write"
    expected = final_rows(present, writes)
    rng = random.Random(0)
    for _ in range(20):
        shuffled = list(writes)
        rng.shuffle(shuffled)
        rows = set(present)
        _apply(rows, shuffled)
        assert rows == expected
    _apply(expected, schedule.tail)


def test_count_pass_does_not_depend_on_the_seed():
    first = compile_schedule("cascade", 1, 3.0, size="tiny")
    second = compile_schedule("cascade", 2, 3.0, size="tiny")
    assert [op.as_list() for op in first.count] == \
        [op.as_list() for op in second.count]


def test_cascade_heavy_retracts_last_through_the_closed_loop():
    """Sole inspections must not run out before the last closed-loop
    quarter, or the closed loop ends on a cheaper mix than it started."""
    schedule = compile_schedule("cascade", 5, 12.0)
    counts = {}
    for row in schedule.initial_rows:
        counts[row[:2]] = counts.get(row[:2], 0) + 1
    for op in schedule.count + schedule.warmup:
        for row in op.row if op.kind == "add-batch" else (op.row,):
            if op.kind in ("add", "add-batch"):
                counts[row[:2]] = counts.get(row[:2], 0) + 1
    last = schedule.closed[-len(schedule.closed) // 4:]
    assert any(op.kind == "retract" and counts[op.row[:2]] == 1
               for op in last)


def test_launcher_round_trips(tmp_path):
    from perfbench.launcher import DaemonProcess
    from repro.serving.client import ServingClient
    data_dir = tmp_path / "data"
    fact = ("SensorReadings", ("B0-F0-R0-S0", "day00", 99.99))
    query = "?(D, V) :- SensorReadings('B0-F0-R0-S0', D, V)."
    daemon = DaemonProcess(ROOT, "reads", "tiny", data_dir)
    try:
        assert daemon.ready_seconds > 0 and daemon.ready_cpu_seconds > 0
        assert daemon.cpu_seconds() > 0 and daemon.peak_rss_mb() > 0
        with ServingClient.connect(data_dir) as client:
            client.add_facts([fact])
            before = client.answers(query)
    finally:
        daemon.shutdown()
    assert daemon.process.returncode == 0
    restarted = DaemonProcess(ROOT, "reads", "tiny", data_dir)
    try:
        with ServingClient.connect(data_dir) as client:
            assert client.answers(query) == before
            assert ("day00", 99.99) in before
            assert client.recovery()["replayed_records"] == 1
    finally:
        restarted.shutdown()
    assert restarted.process.returncode == 0


def _result(completed: subprocess.CompletedProcess):
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    record = next(json.loads(line) for line in lines
                  if line.startswith('{"workload"'))
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record, result = _result(_run(
        "--workload", workload, "--seed", "1", "--seconds", "2",
        "--trace", "0", "--size", "tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {entry["name"]
                                      for entry in spec["end_to_end"]}
    assert record["check"]["answer_sets"] > 0


def test_traced_smoke_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record, result = _result(_run(
        "--workload", "cascade", "--seed", "1", "--seconds", "2",
        "--trace", "1", "--size", "tiny"))
    assert result["correct"] is True
    assert set(result["metrics"]) == {entry["name"]
                                      for entry in spec["per_layer"]}
    assert set(result["metrics"]) <= set(record["per_layer"])
    assert result["metrics"]["daemon.handle_ms.query.p50"]["value"] > 0


def test_count_pass_counters_repeat_exactly():
    counts = []
    for seed in ("1", "2"):
        record, _ = _result(_run(
            "--workload", "ingest", "--seed", seed, "--seconds", "2",
            "--size", "tiny"))
        counts.append(record["count_counters"])
    assert counts[0] == counts[1]
    assert counts[0]["count.program.triggers_fired"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "reads", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
