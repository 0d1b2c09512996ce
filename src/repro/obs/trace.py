"""Structured trace spans: a ring-buffered recorder with Chrome export.

Spans carry wall-clock timestamps (``time.perf_counter_ns``), so traces
are *not* part of the deterministic on/off equivalence surface -- they
exist for humans reading a timeline, not for regression gates.  The
recorder is a bounded ``deque``: a long run keeps the most recent
``capacity`` events instead of growing without bound.

Two export shapes:

* **jsonl** -- one event per line, the archival form
  (:func:`write_jsonl` / :func:`read_jsonl`);
* **Chrome ``trace_event``** -- :func:`chrome_trace` emits the JSON
  object format (``{"traceEvents": [...]}``) that ``chrome://tracing``
  and Perfetto (https://ui.perfetto.dev) load directly;
  ``python -m repro.obs export --format chrome`` is the CLI wrapper.

The span *hierarchy* is carried two ways: nested ``span()`` calls
record ``parent`` ids (harness cell -> whatever runs inside it), and
layers that cannot nest lexically (serving slices close after their
channel batches ran) attach context as flat fields (``slice``,
``channel``), which Perfetto shows in the args pane.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "JsonlFormatError",
    "TraceRecorder",
    "chrome_trace",
    "read_jsonl",
    "write_jsonl",
]


class JsonlFormatError(ValueError):
    """A jsonl file's bytes are not one JSON object per line:
    undecodable bytes, bad JSON, or a line holding another JSON value."""


class TraceRecorder:
    """Ring-buffered span/instant recorder."""

    def __init__(self, capacity: int = 65536) -> None:
        self.events: deque[dict] = deque(maxlen=capacity)
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def _event(self, name: str, ph: str, fields: dict) -> dict:
        event = {
            "name": name,
            "ph": ph,
            "id": next(self._ids),
            "parent": self._stack[-1] if self._stack else None,
        }
        if fields:
            event["fields"] = fields
        return event

    @contextmanager
    def span(self, name: str, **fields):
        """Record one complete span around the body."""
        event = self._event(name, "X", fields)
        self._stack.append(event["id"])
        start = time.perf_counter_ns()
        try:
            yield event
        finally:
            self._stack.pop()
            event["start_ns"] = start
            event["dur_ns"] = time.perf_counter_ns() - start
            self.events.append(event)

    def complete(
        self, name: str, start_ns: int, dur_ns: int, **fields
    ) -> None:
        """Record a span whose start/duration the caller measured --
        for phases that do not wrap a lexical block (serving slices)."""
        event = self._event(name, "X", fields)
        event["start_ns"] = start_ns
        event["dur_ns"] = dur_ns
        self.events.append(event)

    def instant(self, name: str, **fields) -> None:
        """Record a zero-duration marker (engine epoch leaps, faults)."""
        event = self._event(name, "i", fields)
        event["start_ns"] = time.perf_counter_ns()
        event["dur_ns"] = 0
        self.events.append(event)

    def snapshot(self) -> list[dict]:
        return list(self.events)


def chrome_trace(events: list[dict]) -> dict:
    """Chrome ``trace_event`` JSON-object form of recorded events.

    Timestamps are microseconds relative to the earliest event, so the
    Perfetto timeline starts at zero.
    """
    if events:
        origin_ns = min(event.get("start_ns", 0) for event in events)
    else:
        origin_ns = 0
    trace_events = []
    for event in events:
        args = dict(event.get("fields", {}))
        if event.get("parent"):
            args["parent"] = event["parent"]
        entry = {
            "name": event["name"],
            "ph": event.get("ph", "X"),
            "ts": (event.get("start_ns", 0) - origin_ns) / 1e3,
            "pid": 0,
            "tid": 0,
            "args": args,
        }
        if entry["ph"] == "X":
            entry["dur"] = event.get("dur_ns", 0) / 1e3
        else:
            entry["s"] = "t"  # instant scope: thread
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_jsonl(events: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> list[dict]:
    """The JSON objects of a jsonl file, one per non-blank line.

    Raises :class:`JsonlFormatError` when the bytes do not parse as
    such; a file that cannot be opened raises its ``OSError``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as error:
        raise JsonlFormatError(f"{path}: not UTF-8 ({error})") from error
    events = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise JsonlFormatError(
                f"{path}: line {lineno} is not JSON ({error})"
            ) from error
        if not isinstance(event, dict):
            raise JsonlFormatError(f"{path}: line {lineno} is not a JSON object")
        events.append(event)
    return events
