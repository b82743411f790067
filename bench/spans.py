"""In-memory spans and counters for the traced benchmark run.

A span records a name, the op it belongs to, its parent span, and its start
and end in `perf_counter_ns`.  Spans are only ever opened by the benchmark
around its own calls into the package, so the package runs unchanged.

The benchmark's clock adds stretches: intervals of `perf_counter` seconds
with the factor that turns them into reference seconds (see run.py).  A
span's duration is its overlap with the stretches, each scaled by its
factor, so it is in reference seconds and leaves out the time the clock
spent measuring host speed, which lies between stretches.
"""

from __future__ import annotations

import bisect
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op = None
        self.stretches: list[tuple[float, float, float]] = []  # (start, end, factor), in time order
        self._ends: list[float] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time the body.  A probe span covers a call made only in the traced
        run, so it is left out of the tracing overhead; probes are repeated
        and read through their median."""
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "probe": probe,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_stretch(self, start: float, end: float, factor: float) -> None:
        self.stretches.append((start, end, factor))
        self._ends.append(end)

    def duration(self, span: dict) -> float:
        """Reference seconds in a closed span."""
        lo, hi = span["start_ns"] / 1e9, span["end_ns"] / 1e9
        total = 0.0
        i = bisect.bisect_right(self._ends, lo)
        while i < len(self.stretches) and self.stretches[i][0] < hi:
            start, end, factor = self.stretches[i]
            total += max(0.0, min(end, hi) - max(start, lo)) * factor
            i += 1
        return total

    def seconds(self, name: str) -> float:
        """Total time in the spans called `name` that are not probes."""
        return sum(self.duration(s) for s in self.spans if s["name"] == name and not s["probe"])

    def probe_medians(self) -> dict[tuple[str, str], float]:
        """{(op, name): median time of that op's repeated probe spans called name}."""
        times: dict[tuple[str, str], list[float]] = {}
        for s in self.spans:
            if s["probe"]:
                times.setdefault((s["op"], s["name"]), []).append(self.duration(s))
        return {key: statistics.median(ts) for key, ts in times.items()}
