"""In-memory span recorder for the benchmark's traced pass.

Spans are opened by the benchmark's own code around its calls into each
layer's public functions; nothing inside the program is instrumented.
A span keeps its name, start, end, parent span and workload id, and the
whole list is written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects nested spans of one benchmark run (single thread)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def children(self, record: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == record["id"]]

    def self_time(self, record: dict) -> float:
        """Duration minus the part of the interval its children cover."""
        covered = 0.0
        cursor = record["start"]
        for child in sorted(self.children(record), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            if child["end"] > lo:
                covered += child["end"] - lo
                cursor = child["end"]
        return self.duration(record) - covered

    def find(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
