"""The load generator: one process, two connections, two worker threads.

* :func:`run_open` — an arrival clock thread releases each op at its due
  time into a queue two workers drain, one connection each.  The clock
  never waits on the daemon, so a stall delays later ops instead of
  thinning the offered load; latency is timed from each op's due time,
  and the clock's own lateness is returned with the samples.
* :func:`run_closed` — each of the two connections sends its next op as
  soon as the previous one returns, until every op was sent.
* :func:`run_sequential` — one connection, one op at a time.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from perfbench.workloads import Op


@dataclass
class Sample:
    """One op as the client saw it (times from ``time.perf_counter``)."""

    op: Op
    due: float
    start: float
    end: float
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.end - self.start) * 1e3


def execute(client, op: Op) -> Any:
    """Send one op; returns its result."""
    kind = op.kind
    if kind == "query":
        return client.answers(op.text)
    if kind == "holds":
        return client.holds(op.text)
    if kind == "add":
        return client.add_facts([(op.text, op.row)])
    if kind == "add-batch":
        return client.add_facts([(op.text, row) for row in op.row])
    if kind == "retract":
        return client.retract_facts([(op.text, op.row)])
    if kind == "quality":
        return client.quality_answers(op.text)
    if kind == "assess":
        return client.assess()
    raise ValueError(f"unknown op kind {kind!r}")


def _fire(client, op: Op, due: float) -> Sample:
    start = time.perf_counter()
    try:
        execute(client, op)
    except Exception as exc:  # noqa: BLE001 - a failed op is a sample
        return Sample(op, due, start, time.perf_counter(),
                      error=type(exc).__name__)
    return Sample(op, due, start, time.perf_counter())


def run_sequential(client, ops: Sequence[Op]) -> List[Sample]:
    samples = []
    for op in ops:
        now = time.perf_counter()
        samples.append(_fire(client, op, now))
    return samples


def run_closed(clients, ops: Sequence[Op]) -> Tuple[List[Sample], float]:
    """Drain ``ops`` back to back on every client.

    Returns the samples and the seconds from the start until the last op
    returned."""
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    started = time.perf_counter()

    def worker(client) -> None:
        mine = []
        while True:
            with lock:
                index = cursor[0]
                if index >= len(ops):
                    break
                cursor[0] = index + 1
            mine.append(_fire(client, ops[index], time.perf_counter()))
        with lock:
            samples.extend(mine)

    threads = [threading.Thread(target=worker, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = max((sample.end for sample in samples), default=started)
    return samples, finished - started


def run_open(clients, timed_ops: Sequence[Tuple[float, Op]],
             lead: float = 0.05) -> Tuple[List[Sample], List[float]]:
    """Fire ``(due offset, op)`` pairs on schedule.

    Returns the samples and the arrival clock's lateness (ms) per op."""
    pending: "queue.Queue" = queue.Queue()
    samples: List[Sample] = []
    lock = threading.Lock()
    lateness: List[float] = []

    def worker(client) -> None:
        mine = []
        while True:
            item = pending.get()
            if item is None:
                break
            op, due = item
            mine.append(_fire(client, op, due))
        with lock:
            samples.extend(mine)

    threads = [threading.Thread(target=worker, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    origin = time.perf_counter() + lead
    try:
        for offset, op in timed_ops:
            due = origin + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness.append(max(0.0, time.perf_counter() - due) * 1e3)
            pending.put((op, due))
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
    return samples, lateness
