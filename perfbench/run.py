"""Run one benchmark workload against a served sensor-network daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reads --seed 1 --seconds 12 --trace 0

Workloads: ``reads``, ``ingest``, ``cascade`` (see ``workloads.py``).
One run compiles its schedule from ``--seed``, starts the daemon
(``launcher.py``) on a virgin data directory, and drives it through the
count pass, the warm-up, an open loop at the workload's fixed rate and a
closed loop on two connections.  It then checkpoints, writes a fixed WAL
tail, shuts the daemon down and restarts it on the same directory.

The outputs are checked twice.  The daemon's final answers to every query
and quality query of the workload must equal a from-scratch chase of the
final EDB in this process (columnar engine), and the restarted daemon's
answers must equal the answers given before shutdown.  A mismatch fails
the run (exit 1).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs with spans recorded at the layer boundaries and prints
the per-layer metrics.  The lines before the last one are a readable
report and a JSON run record (host, run noise, every metric with its unit
and sample count).  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metric -> (unit, the workloads it applies to; None = all).
#: BENCHMARK.json gates the ones that apply to every workload and repeat
#: within its bounds; the run record reports all of them.  ``setup_s``
#: and ``recovery_s`` are the daemon's CPU seconds from spawn to its first
#: answered ping: its wall time there follows the host's CPU steal.
END_TO_END = {
    "setup_s": ("s", None),
    "throughput_ops_s": ("ops/s", None),
    "query_p50_ms": ("ms", None),
    "query_p99_ms": ("ms", {"reads"}),
    "write_p50_ms": ("ms", None),
    "write_p99_ms": ("ms", {"ingest", "cascade"}),
    "quality_p50_ms": ("ms", {"ingest", "cascade"}),
    "quality_p99_ms": ("ms", {"cascade"}),
    "error_rate": ("ratio", None),
    "recovery_s": ("s", None),
    "cpu_ms_per_op": ("ms", None),
    "daemon_rss_mb": ("MB", None),
    "data_dir_mb": ("MB", None),
}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: virgin-directory set-ups whose median is ``setup_s``, and restarts
#: whose median is ``recovery_s`` (one each at the ``tiny`` test size and
#: in a trace run); a single one swings by a quarter on a shared host
SETUPS = 5
RESTARTS = 9

#: sub-windows of the open loop; a latency median is the median over
#: them, so a few seconds of host noise moves one of them and not the
#: result
WINDOWS = 5


def windowed_median(samples) -> float:
    """The median over :data:`WINDOWS` equal due-time windows of each
    window's median latency (ms)."""
    if not samples:
        return 0.0
    origin = min(sample.due for sample in samples)
    length = max(sample.due for sample in samples) - origin or 1.0
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    for sample in samples:
        index = min(WINDOWS - 1, int((sample.due - origin) / length * WINDOWS))
        windows[index].append(sample.latency_ms)
    return median([median(window) for window in windows if window])


# ---------------------------------------------------------------------------
# Host and noise
# ---------------------------------------------------------------------------


def cpu_jiffies() -> Dict[str, int]:
    """The aggregate ``cpu`` line of ``/proc/stat``."""
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()[1:1 + len(names)]
    return dict(zip(names, map(int, fields)))


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    delta = {name: after[name] - before[name] for name in before}
    return ratio(delta["steal"], sum(delta.values()))


def host_stamp() -> Dict[str, Any]:
    from repro.engine import get_default_engine
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "default_engine": get_default_engine(),
        "flush_policy": "fsync on every group commit; checkpoint every "
                        "256 records (default CompactionPolicy)",
    }


def dir_mb(path: Path) -> float:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file()) / (1024.0 * 1024.0)


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def oracle_answers(schedule, rows) -> Dict[str, List[str]]:
    """Answers of a from-scratch chase of the final EDB, in process.

    The columnar engine is used: the naive reference engine needs tens of
    seconds for one L-size chase, more than a run can spend."""
    from repro.engine.session import MaterializedProgram, QuerySession
    from repro.quality.cleaning import rewrite_query_to_quality
    from perfbench.workloads import READINGS, scenario_for
    scenario = scenario_for(schedule.size)
    instance = scenario.instance.copy()
    if schedule.relation == READINGS:
        _replace_rows(instance.relation(READINGS), rows)
    program = scenario.context.assemble(instance)
    if schedule.relation != READINGS:
        _replace_rows(program.database.relation(schedule.relation), rows)
    session = QuerySession(MaterializedProgram(program, engine="columnar"))
    answers = {f"q:{text}": canonical(session.answers(text))
               for text in schedule.check_queries}
    for text in schedule.check_quality:
        answers[f"Q:{text}"] = canonical(session.answers(
            rewrite_query_to_quality(text, scenario.context)))
    return answers


def _replace_rows(relation, rows) -> None:
    for row in list(relation.rows()):
        relation.discard(row)
    for row in sorted(rows, key=repr):
        relation.add(tuple(row))


def canonical(rows) -> List[str]:
    return sorted(repr(tuple(row)) for row in rows)


def served_answers(client, schedule) -> Dict[str, List[str]]:
    answers = {f"q:{text}": canonical(client.answers(text))
               for text in schedule.check_queries}
    for text in schedule.check_quality:
        answers[f"Q:{text}"] = canonical(client.quality_answers(text))
    return answers


def mismatches(expected: Dict[str, List[str]],
               actual: Dict[str, List[str]]) -> List[str]:
    return [key for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


# ---------------------------------------------------------------------------
# Counters from the stats op
# ---------------------------------------------------------------------------


def counters(stats: Dict[str, Any]) -> Dict[str, float]:
    """Flatten the numeric counters of one ``stats`` response."""
    flat: Dict[str, float] = {}
    sections = {"program": stats.get("program", {}),
                "session": stats.get("session", {}),
                "quality": stats.get("quality", {}),
                "serving": stats.get("serving", {}).get("group_commit", {})}
    for section, values in sections.items():
        for key, value in values.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{section}.{key}"] = value
    return flat


def counter_delta(before: Dict[str, Any], after: Dict[str, Any]
                  ) -> Dict[str, float]:
    start, end = counters(before), counters(after)
    return {key: end[key] - start.get(key, 0) for key in sorted(end)}


def counter_ratios(delta: Dict[str, float]) -> Dict[str, float]:
    get = lambda key: delta.get(key, 0)  # noqa: E731 - local shorthand
    examined = get("program.rows_scanned") + get("program.index_probes") + \
        get("program.rows_batch_scanned")
    incremental = get("program.incremental_updates")
    return {
        "chase.triggers_fired": get("program.triggers_fired"),
        "chase.rows_examined_per_trigger":
            ratio(examined, get("program.triggers_fired")),
        "session.incremental_share":
            ratio(incremental, incremental + get("program.full_rechases")),
        "session.maintenance_fallbacks":
            get("program.maintenance_fallbacks") +
            get("session.maintenance_fallbacks"),
        "session.cache_hit_ratio": ratio(
            get("session.cache_hits"),
            get("session.cache_hits") + get("session.cache_misses")),
        "quality.cache_hit_ratio": ratio(
            get("quality.cache_hits"),
            get("quality.cache_hits") + get("quality.cache_misses")),
        "wal.records_per_fsync": ratio(get("serving.wal_records"),
                                       get("serving.wal_fsyncs")),
    }


#: count-pass counters reported as ``count.<name>`` (they repeat exactly)
COUNT_COUNTERS = ("program.triggers_fired", "program.rows_scanned",
                  "program.index_probes", "program.incremental_updates",
                  "program.full_rechases", "session.answers_maintained",
                  "session.cache_hits", "session.cache_misses",
                  "quality.cache_hits", "serving.wal_records",
                  "serving.wal_fsyncs")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def span_metrics(document, open_samples, measured_ops: int,
                 restart_document) -> Dict[str, float]:
    from perfbench import tracing
    spans = tracing.phase_spans(document, ("open", "closed"))
    selfs = tracing.self_times(spans)
    children = tracing.children_of(spans)
    p50 = lambda name: median(tracing.durations_ms(spans, name))  # noqa: E731
    metrics: Dict[str, float] = {}

    round_trips: Dict[str, List[float]] = {}
    for sample in open_samples:
        if not sample.error:
            kind = "quality" if sample.op.kind == "assess" else sample.op.kind
            round_trips.setdefault(kind, []).append(sample.service_ms)
    handles = [span for span in spans if span[2] == "daemon.handle"]
    for kind in ("query", "holds", "add", "retract", "quality"):
        metrics[f"wire.roundtrip_ms.{kind}"] = median(round_trips.get(kind, []))
        durations = [(span[5] - span[4]) / 1e6 for span in handles
                     if span[6].get("op") == kind]
        metrics[f"daemon.handle_ms.{kind}.p50"] = median(durations)
        metrics[f"daemon.handle_ms.{kind}.p99"] = percentile(durations, 0.99)
    metrics["wire.overhead_ms"] = max(
        0.0, metrics["wire.roundtrip_ms.query"] -
        metrics["daemon.handle_ms.query.p50"])
    handle_total = sum((span[5] - span[4]) / 1e6 for span in handles)
    handle_self = [selfs[span[0]] for span in handles]
    metrics["daemon.handle_self_ms"] = median(handle_self)
    metrics["daemon.handle_uncovered_share"] = ratio(sum(handle_self),
                                                     handle_total)
    lock_waits = []
    for span in handles:
        if span[6].get("op") != "quality":
            continue
        inner = sum((child[5] - child[4]) / 1e6
                    for child in children.get(span[0], ())
                    if child[2] in ("quality.answers", "quality.assess"))
        lock_waits.append((span[5] - span[4]) / 1e6 - inner)
    metrics["daemon.quality_lock_wait_ms.p50"] = median(lock_waits)
    metrics["daemon.quality_lock_wait_ms.p99"] = percentile(lock_waits, 0.99)

    metrics["commit.apply_write_ms"] = p50("commit.apply_write")
    metrics["commit.queue_wait_ms"] = median(tracing.queue_waits_ms(spans))
    metrics["commit.batch_ms"] = p50("commit.batch")
    metrics["wal.append_batch_ms"] = p50("wal.append_batch")
    appends = [span[6] for span in spans if span[2] == "wal.append_batch"]
    metrics["wal.bytes_per_record"] = ratio(
        sum(attrs.get("bytes", 0) for attrs in appends),
        sum(attrs.get("n", 0) for attrs in appends))
    applied = [span for span in spans
               if span[2] in ("apply.record", "apply.batch")]
    metrics["apply.ms_per_record"] = ratio(
        sum((span[5] - span[4]) / 1e6 for span in applied),
        sum(span[6].get("n", 1) for span in applied))
    for name in ("mvcc.publish", "session.add_facts", "session.retract_facts",
                 "session.maintain_answers", "chase.continue", "chase.repair",
                 "query.answers", "query.holds", "quality.answers",
                 "quality.assess"):
        metrics[f"{name}_ms"] = p50(name)
    checkpoint_spans = tracing.phase_spans(document, ("checkpoint",))
    checkpoints = tracing.durations_ms(spans + checkpoint_spans, "checkpoint")
    metrics["checkpoint.count"] = len(checkpoints)
    metrics["checkpoint.ms.p50"] = median(checkpoints)
    metrics["checkpoint.ms.max"] = max(checkpoints, default=0.0)
    metrics["snapshot.save_ms"] = median(tracing.durations_ms(
        spans + checkpoint_spans, "snapshot.save"))
    saves = [span[6].get("bytes", 0) for span in document["spans"]
             if span[2] == "snapshot.save"]
    metrics["snapshot.bytes"] = saves[-1] if saves else 0
    setup_spans = tracing.phase_spans(document, ("setup",))
    metrics["chase.run_s"] = sum(tracing.durations_ms(
        setup_spans, "chase.run")) / 1e3
    restart_spans = restart_document["spans"]
    metrics["snapshot.restore_s"] = sum(tracing.durations_ms(
        restart_spans, "snapshot.restore")) / 1e3
    metrics["recovery.recover_s"] = sum(tracing.durations_ms(
        restart_spans, "daemon.recover")) / 1e3
    # Self time per layer, per measured op (checkpoints and recovery are
    # timed on their own above).
    for _, _, name, _ in tracing.targets():
        if name in ("checkpoint", "snapshot.save", "snapshot.restore",
                    "daemon.recover"):
            continue
        total = sum(selfs[span[0]] for span in spans if span[2] == name)
        metrics[f"self_ms_per_op.{name}"] = ratio(total, measured_ops)
    return metrics


def overhead_pct(slices) -> float:
    """Tracing overhead: how much more throughput the untraced slices of
    the overhead phase got than the traced ones they alternate with."""
    ops = {True: 0, False: 0}
    seconds = {True: 0.0, False: 0.0}
    for traced, samples, elapsed in slices:
        ops[traced] += len(samples)
        seconds[traced] += elapsed
    return 100.0 * (ratio(ratio(ops[False], seconds[False]),
                          ratio(ops[True], seconds[True])) - 1.0)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    """One benchmark run: daemon lifecycle, phases, checks, metrics."""

    def __init__(self, args, work: Path):
        from perfbench.workloads import WORKLOADS, compile_schedule
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.size = args.size or self.workload.size
        self.trace = bool(args.trace)
        self.schedule = compile_schedule(args.workload, args.seed,
                                         args.seconds, size=self.size)
        self.record: Dict[str, Any] = {}

    def spawn(self, data_dir: Path, trace_file: Optional[Path] = None):
        from perfbench.launcher import DaemonProcess
        return DaemonProcess(ROOT, self.workload.name, self.size, data_dir,
                             trace_file=trace_file)

    def connect(self, data_dir: Path):
        from repro.serving.client import ServingClient
        return ServingClient.connect(data_dir, wait=30.0, busy_retries=0)

    def control(self, client, enabled: bool, mark: str) -> None:
        from perfbench.tracing import CONTROL_OP
        if self.trace:
            client.request(CONTROL_OP, enabled=enabled, mark=mark)

    def overhead_slices(self, clients, ops, count: int = 10) -> List:
        """Drain ``ops`` in ``count`` equal slices, tracing every other
        one; returns ``(traced, samples, seconds)`` per slice.  A
        checkpoint first keeps the phase free of checkpoint stalls."""
        from perfbench import loadgen
        self.control(clients[0], False, "checkpoint")
        clients[0].checkpoint()
        size = max(1, len(ops) // count)
        slices = []
        for index in range(count):
            traced = index % 2 == 1
            self.control(clients[0], traced, f"overhead-{index}")
            samples, elapsed = loadgen.run_closed(
                clients, ops[index * size:(index + 1) * size])
            slices.append((traced, samples, elapsed))
        return slices

    def execute(self) -> Dict[str, Any]:
        from perfbench import loadgen
        from perfbench.workloads import OP_CLASS, final_rows
        schedule = self.schedule
        seconds = self.args.seconds
        data_dir = self.work / "data"
        trace_file = self.work / "spans.json" if self.trace else None
        jiffies_start = cpu_jiffies()

        repeat = not self.trace and self.size != "tiny"
        setups, setup_walls = [], []
        setup_count = SETUPS if repeat else 1
        for index in range(setup_count):
            target = data_dir if index == setup_count - 1 else \
                self.work / f"setup{index}"
            daemon = self.spawn(target, trace_file if target == data_dir
                                else None)
            setups.append(daemon.ready_cpu_seconds)
            setup_walls.append(daemon.ready_seconds)
            if target != data_dir:
                daemon.shutdown()
                shutil.rmtree(target)

        try:
            first = self.connect(data_dir)
            second = self.connect(data_dir)
            clients = [first, second]
            self.control(first, False, "count")
            stats_count = first.stats()
            count = loadgen.run_sequential(first, schedule.count)
            count_delta = counter_delta(stats_count, first.stats())
            # One connection, so the warm-up applies in schedule order: the
            # order decides which inspection first derives each cascaded
            # fact, and with it how much later retracts cost.
            warmup = loadgen.run_sequential(first, schedule.warmup)

            # Each measured window (the open loop, each closed-loop half)
            # starts right after a checkpoint and writes fewer than the
            # policy's 256 records, so no window holds a checkpoint stall:
            # how many it holds would otherwise depend on where a seed's
            # write count crosses a multiple of 256.  The trace times the
            # checkpoints on their own.
            self.control(first, True, "checkpoint")
            first.checkpoint()
            stats_before = first.stats()
            jiffies_before = cpu_jiffies()
            self.control(first, True, "open")
            opened, lateness = loadgen.run_open(clients, schedule.open)
            closed: List = []
            closed_seconds = closed_cpu = 0.0
            half = len(schedule.closed) // 2
            for ops in (schedule.closed[:half], schedule.closed[half:]):
                self.control(first, True, "checkpoint")
                first.checkpoint()
                self.control(first, True, "closed")
                cpu_before = daemon.cpu_seconds()
                samples, elapsed = loadgen.run_closed(clients, ops)
                closed_cpu += daemon.cpu_seconds() - cpu_before
                closed_seconds += elapsed
                closed.extend(samples)
            jiffies_after = cpu_jiffies()
            stats_after = first.stats()
            slices = self.overhead_slices(clients, schedule.overhead) \
                if self.trace else []
            self.control(first, False, "tail")
            first.checkpoint()
            tail = loadgen.run_sequential(first, schedule.tail)
            final = served_answers(first, schedule)
            rss = daemon.peak_rss_mb()
            second.close()
            first.close()
        finally:
            daemon.shutdown()
        data_mb = dir_mb(data_dir)

        recoveries, recovery_walls = [], []
        recovered: Dict[str, List[str]] = {}
        recovery_report: Dict[str, Any] = {}
        restart_trace = self.work / "restart-spans.json"
        for index in range(RESTARTS if repeat else 1):
            restarted = self.spawn(
                data_dir, restart_trace if self.trace else None)
            recoveries.append(restarted.ready_cpu_seconds)
            recovery_walls.append(restarted.ready_seconds)
            try:
                if index == 0:
                    with self.connect(data_dir) as client:
                        recovered = served_answers(client, schedule)
                        recovery_report = client.recovery()
            finally:
                restarted.shutdown()

        phases = [count, warmup, opened, closed, tail] + \
            [samples for _, samples, _ in slices]
        every = [sample for phase in phases for sample in phase]
        acked = [sample.op for sample in every if not sample.error]
        expected = oracle_answers(
            schedule, final_rows(schedule.initial_rows, acked))
        wrong = mismatches(expected, final)
        unrecovered = mismatches(final, recovered)

        measured = opened + closed
        failed = [sample for sample in every if sample.error]
        errors: Dict[str, int] = {}
        for sample in failed:
            errors[sample.error] = errors.get(sample.error, 0) + 1
        self.record = {
            "workload": self.workload.name, "size": self.size,
            "seed": self.args.seed, "seconds": seconds,
            "trace": int(self.trace),
            "host": host_stamp(),
            "noise": {
                "steal_share": steal_share(jiffies_before, jiffies_after),
                "steal_share_run": steal_share(jiffies_start, cpu_jiffies()),
                "clock_lateness_p99_ms": percentile(lateness, 0.99),
                "clock_lateness_p50_ms": median(lateness),
            },
            "offered_rate_ops_s": self.workload.rate,
            "open_ops": len(opened), "closed_ops": len(closed),
            "errors": errors,
            "check": {"mismatched": wrong[:5],
                      "mismatched_after_restart": unrecovered[:5],
                      "answer_sets": len(expected)},
            "recovery": recovery_report,
            "setup_runs_cpu_s": setups, "setup_runs_wall_s": setup_walls,
            "recovery_runs_cpu_s": recoveries,
            "recovery_runs_wall_s": recovery_walls,
        }
        window_delta = counter_delta(stats_before, stats_after)
        self.record["window_counters"] = window_delta
        self.record["count_counters"] = {
            f"count.{key}": count_delta.get(key, 0) for key in COUNT_COUNTERS}

        by_class = {name: [sample for sample in opened if not sample.error
                           and OP_CLASS[sample.op.kind] == name]
                    for name in ("query", "write", "quality")}
        values = {
            "setup_s": (median(setups), len(setups)),
            "throughput_ops_s": (ratio(len(closed), closed_seconds),
                                 len(closed)),
        }
        for name, samples in by_class.items():
            values[f"{name}_p50_ms"] = (windowed_median(samples),
                                        len(samples))
            values[f"{name}_p99_ms"] = (percentile(
                [sample.latency_ms for sample in samples], 0.99),
                len(samples))
        values.update({
            "error_rate": (ratio(len([s for s in measured if s.error]),
                                 len(measured)), len(measured)),
            "recovery_s": (median(recoveries), len(recoveries)),
            "cpu_ms_per_op": (ratio(closed_cpu * 1e3, len(closed)),
                              len(closed)),
            "daemon_rss_mb": (rss, 1),
            "data_dir_mb": (data_mb, 1),
        })
        end_to_end = {}
        for name, (unit, applies) in END_TO_END.items():
            value, samples = values[name]
            end_to_end[name] = {
                "value": value, "unit": unit, "samples": samples,
                "applies": applies is None or self.workload.name in applies}
        self.record["end_to_end"] = end_to_end

        per_layer: Dict[str, float] = {}
        if self.trace:
            from perfbench import tracing
            per_layer.update(span_metrics(
                tracing.load(trace_file), opened, len(measured),
                tracing.load(restart_trace)))
            per_layer["trace.overhead_pct"] = overhead_pct(slices)
            per_layer["wal.replay_records"] = \
                recovery_report.get("replayed_records", 0)
            per_layer.update(counter_ratios(window_delta))
            per_layer.update(self.record["count_counters"])
            per_layer["run.steal_share"] = self.record["noise"]["steal_share"]
            per_layer["run.clock_lateness_p99_ms"] = \
                self.record["noise"]["clock_lateness_p99_ms"]
        self.record["per_layer"] = per_layer
        self.record["correct"] = not wrong and not unrecovered
        self.record["attempted"] = len(every)
        self.record["failed"] = len(failed)
        return self.record


def benchmark_metrics() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(record: Dict[str, Any]) -> None:
    print(f"perfbench {record['workload']} (size {record['size']}, seed "
          f"{record['seed']}, {record['seconds']} s, trace "
          f"{record['trace']}): correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"wall={record['wall_s']:.1f}s")
    for name, entry in record["end_to_end"].items():
        note = "" if entry["applies"] else "  (not a metric of this workload)"
        print(f"  {name:<18} {entry['value']:>12.4f} {entry['unit']:<6} "
              f"n={entry['samples']}{note}")
    for name, value in sorted(record["per_layer"].items()):
        print(f"  {name:<44} {value:>14.4f}")
    print(json.dumps(record, default=str, separators=(",", ":")))


def result_line(record: Dict[str, Any], spec: Dict[str, Any]) -> str:
    metrics = {}
    if record["trace"]:
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {
                "value": float(record["per_layer"].get(entry["name"], 0.0)),
                "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": float(record["end_to_end"][entry["name"]]["value"]),
                "unit": entry["unit"]}
    return json.dumps({"correct": bool(record["correct"]),
                       "attempted": int(record["attempted"]),
                       "failed": int(record["failed"]),
                       "metrics": metrics})


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="",
                        help="override the workload's data size (tests)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import SIZES, WORKLOADS
    if args.workload not in WORKLOADS or (args.size and args.size not in SIZES):
        print(f"perfbench: unknown workload or size; workloads: "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    spec = benchmark_metrics()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        record = Run(args, work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    record["wall_s"] = time.perf_counter() - started
    report(record)
    print(result_line(record, spec))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
