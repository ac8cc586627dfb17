"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, the span that caused it, and the
request it belongs to.  Spans stay in memory; the run writes them out
once, at the end.  The current span is context-local, so the serving
workloads' client threads each build their own trees.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Op:
    """One closed-loop operation; ``latency`` covers only the program call."""

    index: int
    latency: float
    ok: bool
    kind: str = ""
    start: float = 0.0
    end: float = 0.0


_CURRENT: ContextVar[dict | None] = ContextVar("perfbench_span", default=None)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: int | None = None, **labels) -> Iterator[dict]:
        parent = _CURRENT.get()
        with self._lock:
            sid = next(self._ids)
        rec = {
            "id": sid,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent and request is None else request,
            "labels": labels,
        }
        token = _CURRENT.set(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            _CURRENT.reset(token)
            with self._lock:
                self.spans.append(rec)

    # -- queries -----------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        values = self.durations(name)
        return statistics.median(values) * scale if values else 0.0

    def per_request(self, name: str) -> dict[int, float]:
        """Total duration of ``name`` spans per request id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name and s["request"] is not None:
                out[s["request"]] = out.get(s["request"], 0.0) + s["end"] - s["start"]
        return out

    def unattributed(self, root: str) -> tuple[float, float]:
        """``(uncovered, total)`` seconds over every ``root`` span.

        A root span's uncovered time is its duration minus that of its
        leaf descendants, the spans around single layer calls; it grows
        when a layer the trace does not wrap starts to cost time.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)

        def leaf_time(s: dict) -> float:
            kids = children.get(s["id"])
            if not kids:
                return s["end"] - s["start"]
            return sum(leaf_time(k) for k in kids)

        uncovered = total = 0.0
        for s in self.spans:
            if s["name"] == root:
                total += s["end"] - s["start"]
                uncovered += s["end"] - s["start"] - sum(
                    leaf_time(k) for k in children.get(s["id"], [])
                )
        return uncovered, total

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def to_json(self) -> list[dict]:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        return [
            {**s, "start": round(s["start"] - t0, 6), "end": round(s["end"] - t0, 6)}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
