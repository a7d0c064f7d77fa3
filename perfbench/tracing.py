"""In-memory spans around the daemon's layer boundaries, and their analysis.

The launcher calls :func:`install` before the daemon recovers.  It
replaces each named function with a wrapper that, while tracing is
enabled, records one span: ``(id, parent, name, thread, start_ns,
end_ns, attrs)``.  Spans nest per thread, so a span's *self time* is its
duration minus its direct children's.  Spans stay in memory and are
written out once, at shutdown (:meth:`Recorder.dump`).

Tracing is switched on and off at run time by a control request the
wrapper around :meth:`ServingDaemon.handle` answers itself (``op:
perfbench_trace``), which also drops a phase marker into the span list;
the daemon never sees that request.  A wrapped name the program no
longer has is skipped, and the metrics that need it read 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

CONTROL_OP = "perfbench_trace"

#: protocol op -> the op class its daemon.handle span reports under
HANDLE_CLASS = {"answers": "query", "holds": "holds", "add_facts": "add",
                "retract_facts": "retract", "quality_answers": "quality",
                "assess": "quality"}


def _n_records(args, _kwargs, _result) -> Dict[str, Any]:
    records = args[1] if len(args) > 1 else []
    return {"n": len(records) if isinstance(records, list) else 1}


def _wal_attrs(args, _kwargs, result) -> Dict[str, Any]:
    if not result:
        return {"n": 0, "bytes": 0}
    return {"n": len(result), "bytes": args[0].size_bytes - result[0].offset}


def _handle_attrs(args, _kwargs, _result) -> Dict[str, Any]:
    request = args[1] if len(args) > 1 else {}
    op = request.get("op") if isinstance(request, dict) else None
    return {"op": HANDLE_CLASS.get(op, op)}


def _file_bytes(_args, _kwargs, result) -> Dict[str, Any]:
    try:
        return {"bytes": os.path.getsize(result)}
    except (OSError, TypeError):
        return {}


def targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, attrs hook)`` for every boundary."""
    from repro.datalog.chase import ChaseEngine
    from repro.engine.session import MaterializedProgram, QuerySession
    from repro.engine.versioning import ReadTransaction, VersionStore
    from repro.serving.daemon import QualityBackend, ServingDaemon
    from repro.serving.wal import WriteAheadLog
    return [
        (ServingDaemon, "handle", "daemon.handle", _handle_attrs),
        (ServingDaemon, "recover", "daemon.recover", None),
        (ServingDaemon, "apply_write", "commit.apply_write", None),
        (ServingDaemon, "_commit_batch", "commit.batch", _n_records),
        (ServingDaemon, "checkpoint", "checkpoint", None),
        (WriteAheadLog, "append_batch", "wal.append_batch", _wal_attrs),
        (QualityBackend, "apply", "apply.record", None),
        (QualityBackend, "apply_many", "apply.batch", _n_records),
        (QualityBackend, "quality_answers", "quality.answers", None),
        (QualityBackend, "assess", "quality.assess", None),
        (QualityBackend, "save", "snapshot.save", _file_bytes),
        (QualityBackend, "restore", "snapshot.restore", None),
        (VersionStore, "publish", "mvcc.publish", None),
        (MaterializedProgram, "add_facts", "session.add_facts", None),
        (MaterializedProgram, "retract_facts", "session.retract_facts", None),
        (QuerySession, "_maintain_answers", "session.maintain_answers", None),
        (ChaseEngine, "run", "chase.run", None),
        (ChaseEngine, "continue_chase", "chase.continue", None),
        (ChaseEngine, "repair_after_deletion", "chase.repair", None),
        (ReadTransaction, "answers", "query.answers", None),
        (ReadTransaction, "holds", "query.holds", None),
    ]


class Recorder:
    """Spans in memory, recorded by the wrappers :func:`install` makes."""

    def __init__(self):
        self.enabled = True
        self.spans: List[Tuple] = []
        self.marks: List[Tuple[str, int]] = [("setup", time.perf_counter_ns())]
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attribute: str, name: str,
             attrs: Optional[Callable]) -> bool:
        original = owner.__dict__.get(attribute)
        if original is None:
            return False
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else {}
                recorder.spans.append((span_id, parent, name,
                                       threading.get_ident(), start, end,
                                       extra))

        setattr(owner, attribute, traced)
        return True

    def control(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.enabled = bool(request.get("enabled"))
        self.marks.append((str(request.get("mark", "")),
                           time.perf_counter_ns()))
        return {"ok": True, "id": request.get("id"),
                "result": {"enabled": self.enabled}}

    def dump(self, path: Path) -> None:
        temp = Path(str(path) + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump({"marks": self.marks, "spans": self.spans}, handle,
                      separators=(",", ":"))
        os.replace(temp, path)


def install(recorder: Recorder) -> List[str]:
    """Wrap every boundary in :func:`targets`; returns the names wrapped."""
    from repro.serving.daemon import ServingDaemon
    wrapped = [name for owner, attribute, name, attrs in targets()
               if recorder.wrap(owner, attribute, name, attrs)]
    traced_handle = ServingDaemon.handle

    def handle(self, request, connection=None):
        if isinstance(request, dict) and request.get("op") == CONTROL_OP:
            return recorder.control(request)
        return traced_handle(self, request, connection)

    ServingDaemon.handle = handle
    return wrapped


# ---------------------------------------------------------------------------
# Analysis (parent side)
# ---------------------------------------------------------------------------


def load(path: Path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def phase_spans(document: Dict[str, Any], phases: Tuple[str, ...]
                ) -> List[Tuple]:
    """The spans that started inside any of the named marker phases."""
    marks = sorted(document["marks"], key=lambda mark: mark[1])
    windows = []
    for index, (name, start) in enumerate(marks):
        end = marks[index + 1][1] if index + 1 < len(marks) else 1 << 62
        if name in phases:
            windows.append((start, end))
    return [span for span in document["spans"]
            if any(start <= span[4] < end for start, end in windows)]


def self_times(spans: List[Tuple]) -> Dict[int, float]:
    """Span id -> self time in ms (duration minus direct children)."""
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[1]:
            child_ns[span[1]] += span[5] - span[4]
    return {span[0]: (span[5] - span[4] - child_ns.get(span[0], 0)) / 1e6
            for span in spans}


def durations_ms(spans: List[Tuple], name: str) -> List[float]:
    return [(span[5] - span[4]) / 1e6 for span in spans if span[2] == name]


def children_of(spans: List[Tuple]) -> Dict[int, List[Tuple]]:
    children: Dict[int, List[Tuple]] = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append(span)
    return children


def queue_waits_ms(spans: List[Tuple]) -> List[float]:
    """Per write: the time between entering ``apply_write`` and the start
    of the commit batch that served it (the batch that started after the
    write was queued and ended before it returned)."""
    batches = sorted((span[4], span[5]) for span in spans
                     if span[2] == "commit.batch")
    waits = []
    for span in spans:
        if span[2] != "commit.apply_write":
            continue
        served = [start for start, end in batches
                  if start >= span[4] and end <= span[5]]
        if served:
            waits.append((served[-1] - span[4]) / 1e6)
    return waits
