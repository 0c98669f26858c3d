"""Span recorder for the traced benchmark run.

Spans are kept in memory and written out once, when the run ends. Each
span holds its name, start and end (``time.perf_counter`` seconds), the
index of its parent span and the id of the case it belongs to.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.case_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, peak: bool = False):
        """Record a span around the block.

        With ``peak`` the span also stores ``peak_bytes``: the tracemalloc
        peak inside the block above what was allocated when it started.
        """
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "case": self.case_id,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        if peak:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        try:
            yield record
        finally:
            if peak:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, predictor, name: str):
        """A predictor whose every ``predict`` call is one span."""
        return _SpannedPredictor(predictor, self, name)

    def total(self, case_id: int, name: str) -> float:
        """Summed duration of the case's spans with this name."""
        return sum(_duration(s) for s in self.spans if s["case"] == case_id and s["name"] == name)

    def self_time(self, case_id: int, name: str) -> float:
        """The named spans' duration minus the time their child spans cover."""
        own = {
            i for i, s in enumerate(self.spans) if s["case"] == case_id and s["name"] == name
        }
        children = sum(_duration(s) for s in self.spans if s["parent"] in own)
        return sum(_duration(self.spans[i]) for i in own) - children

    def peak_mb(self, case_id: int, name: str) -> float:
        peaks = [
            s["peak_bytes"]
            for s in self.spans
            if s["case"] == case_id and s["name"] == name and "peak_bytes" in s
        ]
        return max(peaks, default=0) / 2**20

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}))


class _SpannedPredictor:
    def __init__(self, inner, tracer: Tracer, name: str):
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def predict(self, data, where):
        with self.tracer.span(self.name):
            return self.inner.predict(data, where)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]
