"""Span-based structured tracing with cross-process collection.

A :class:`Tracer` records :class:`Span` entries -- named, nested,
wall-clocked, attributed -- from every layer it is threaded through:
flow passes, scheduler relaxation passes, sweep points, DSE waves,
service jobs.  Nesting is tracked per thread (the service runs several
engine threads against one tracer), and spans from worker *processes*
come home as plain dicts over the existing result channels (sweep
worker return tuples, service job done messages) via
:meth:`Tracer.absorb`.

Two export formats:

* JSONL (:meth:`Tracer.to_jsonl`): one span dict per line, grep-able.
* Chrome ``trace_event`` (:meth:`Tracer.to_chrome`): complete ("X")
  events with microsecond timestamps, loadable in Perfetto or
  chrome://tracing.

The contract everywhere a tracer is accepted: ``tracer=None`` (the
default) must cost nothing but a ``None`` check, and tracing enabled
must never change a decision -- spans observe, they do not steer.  The
equivalence suite pins traced-vs-untraced schedules bit-identical and
``benchmarks/test_obs_overhead.py`` pins the enabled-path cost.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: span schema version stamped into every export.
TRACE_SCHEMA = 1


class Span:
    """One timed, attributed region of work (mutable while open)."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "attrs", "pid", "tid", "_t0")

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int], attrs: Dict[str, object],
                 pid: int, tid: int) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.pid = pid
        self.tid = tid
        self.start = time.time()
        self.duration = 0.0
        self._t0 = time.perf_counter()

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute while the span is open."""
        self.attrs[key] = value

    def close(self) -> None:
        self.duration = time.perf_counter() - self._t0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "ts": self.start,
            "dur": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; per-thread nesting; process-merge via absorb.

    >>> tracer = Tracer()
    >>> with tracer.span("flow.pass", name="schedule") as s:
    ...     s.set("cached", False)
    >>> [e["name"] for e in tracer.export()]
    ['flow.pass']
    """

    def __init__(self) -> None:
        self._spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, /, **attrs) -> Iterator[Span]:
        """Open a nested span; closed (and recorded) on exit.

        Exceptions propagate -- the span records, it never swallows --
        but the span itself still lands in the trace with whatever
        attributes it had, so a failing pass remains visible.
        """
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        entry = Span(name, span_id, stack[-1] if stack else None,
                     dict(attrs), self._pid, threading.get_ident())
        stack.append(span_id)
        try:
            yield entry
        finally:
            stack.pop()
            entry.close()
            with self._lock:
                self._spans.append(entry.to_dict())

    def current_parent(self) -> Optional[int]:
        """The innermost open span id on this thread (absorb anchor)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- cross-process merge -------------------------------------------
    def absorb(self, span_dicts: List[Dict[str, object]],
               parent_id: Optional[int] = None) -> int:
        """Fold a worker's exported spans into this trace.

        Worker span ids are remapped into this tracer's id space (two
        workers both start counting at 1); each root span of the
        incoming batch is re-parented under ``parent_id`` (defaulting
        to the caller's innermost open span), so a sweep worker's
        points hang off the parent's ``sweep.dispatch`` span.  Worker
        pids/tids are preserved -- the Chrome rendering keeps each
        process on its own track.  Returns the number of spans added.
        """
        if not span_dicts:
            return 0
        if parent_id is None:
            parent_id = self.current_parent()
        remap: Dict[int, int] = {}
        with self._lock:
            for entry in span_dicts:
                remap[entry["id"]] = next(self._ids)
            for entry in span_dicts:
                old_parent = entry.get("parent")
                copied = dict(entry)
                copied["id"] = remap[entry["id"]]
                copied["parent"] = (remap[old_parent]
                                    if old_parent in remap
                                    else parent_id)
                self._spans.append(copied)
        return len(span_dicts)

    # -- export --------------------------------------------------------
    def export(self) -> List[Dict[str, object]]:
        """Every recorded span, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def to_jsonl(self) -> str:
        """One JSON span per line (first line: a schema header)."""
        lines = [json.dumps({"trace_schema": TRACE_SCHEMA},
                            sort_keys=True)]
        for entry in self.export():
            lines.append(json.dumps(entry, sort_keys=True, default=str))
        return "\n".join(lines) + "\n"

    def to_chrome(self) -> Dict[str, object]:
        """The trace as a Chrome ``trace_event`` JSON object.

        Complete ("X") events with microsecond ``ts``/``dur``; span
        attributes land in ``args``, the span/parent ids included so
        the hierarchy survives the format's flat event list.
        """
        return spans_to_chrome(self.export())

    def write(self, path: str) -> str:
        """Write the trace to ``path``; format chosen by extension.

        ``.jsonl`` writes the line format, anything else the Chrome
        JSON (the format Perfetto/chrome://tracing load directly).
        """
        if str(path).endswith(".jsonl"):
            payload = self.to_jsonl()
        else:
            payload = json.dumps(self.to_chrome(), sort_keys=True,
                                 default=str)
        with open(path, "w") as handle:
            handle.write(payload)
        return str(path)


def spans_to_chrome(
        span_dicts: List[Dict[str, object]]) -> Dict[str, object]:
    """Render a list of exported span dicts as Chrome ``trace_event``
    JSON -- what :meth:`Tracer.to_chrome` serves, usable on a stored
    span list (e.g. a job trace) without rebuilding a tracer."""
    events = []
    for entry in span_dicts:
        args = dict(entry.get("attrs") or {})
        args["span_id"] = entry["id"]
        if entry.get("parent") is not None:
            args["parent_id"] = entry["parent"]
        events.append({
            "name": entry["name"],
            "cat": entry["name"].split(".", 1)[0],
            "ph": "X",
            "ts": entry["ts"] * 1e6,
            "dur": max(entry["dur"], 0.0) * 1e6,
            "pid": entry["pid"],
            "tid": entry["tid"],
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_schema": TRACE_SCHEMA},
    }


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str, /,
               **attrs) -> Iterator[Optional[Span]]:
    """``tracer.span(...)`` when tracing, a no-op ``None`` otherwise.

    The single idiom every instrumented call site uses, so the
    disabled path stays one ``None`` check per *span-granularity*
    event (passes, points, waves -- never inner loops).
    """
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as entry:
        yield entry
