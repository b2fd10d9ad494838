"""In-memory spans recorded around calls into coinfer's modules.

A span is one call into a layer: its name (``<layer>.<function>``),
start and end (``time.perf_counter_ns``), the span that was open when it
started, and the run id. Spans stay in memory and are written out once,
when the run ends. A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, on_call=None):
        """Replace ``module.attr`` by a spanned call; ``on_call(args, result)`` sees each call."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(module, attr, spanned)


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end before they start, leave their parent, or overlap a sibling."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    last_end: dict[int | None, int] = {}
    for s in sorted(spans, key=lambda s: s["start_ns"]):
        if s["end_ns"] is None or s["end_ns"] < s["start_ns"]:
            errors.append(f"span {s['id']} {s['name']} has no valid end")
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and not (
            parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]
        ):
            errors.append(f"span {s['id']} {s['name']} is not inside its parent")
        if s["start_ns"] < last_end.get(s["parent"], s["start_ns"]):
            errors.append(f"span {s['id']} {s['name']} overlaps a sibling")
        last_end[s["parent"]] = s["end_ns"]
    return errors


def totals_s(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds, self seconds."""
    own = self_times_ns(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["total_s"] += (s["end_ns"] - s["start_ns"]) / 1e9
        row["self_s"] += own[s["id"]] / 1e9
    return dict(out)
