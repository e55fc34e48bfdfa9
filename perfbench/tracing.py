"""Span and counter recording for the benchmark, plus the statistics it reports.

Spans are recorded by the benchmark's own code around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A
span is a dict ``{id, name, parent, run, start, end}``; spans stay in
memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Recorder:
    """Times named phases; when ``enabled``, also keeps every span and
    counter for one run id.

    Durations per name accumulate in :attr:`totals` either way, so the
    untraced runs time the same phases with the same code, minus the
    span records.  Spans nest by call structure: the innermost open span
    is the parent of the next one opened.
    """

    def __init__(self, run: str = "0", enabled: bool = True) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.totals: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        record = None
        if self.enabled:
            record = {"id": len(self.spans), "name": name,
                      "parent": self._open[-1] if self._open else None,
                      "run": self.run, "start": start, "end": start}
            self.spans.append(record)
            self._open.append(record["id"])
        try:
            yield
        finally:
            end = time.perf_counter()
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)
            if record is not None:
                record["end"] = end
                self._open.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """Self time per ``(run, id)``: a span's duration minus the part of it
    that its direct children cover (children of one span never count
    twice, even when they overlap)."""
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append(
                (s["start"], s["end"]))
    return {(s["run"], s["id"]): (s["end"] - s["start"]) - _covered(
                children.get((s["run"], s["id"]), []), s["start"], s["end"])
            for s in spans}


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[(s["run"], s["id"])]
    return out


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0..1) by linear interpolation between order
    statistics; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)
