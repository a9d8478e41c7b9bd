"""In-memory spans for the traced run, and the self times derived from them.

A span is one call into a layer: its name, start and end (perf_counter
seconds), the index of the span it ran inside, the run id shared by every
span of one traced run, and the attributes (counts, the encoding entry)
recorded at that boundary.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; `spans` is written out when the run ends."""

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
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    ]


def nesting_problems(spans: list[dict]) -> list[str]:
    """Spans whose parent is missing, from another run, or does not enclose them."""
    by_id = {s["id"]: s for s in spans}
    runs = {s["run"] for s in spans}
    problems = []
    if len(runs) != 1:
        problems.append(f"spans carry {len(runs)} run ids")
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} has no valid end")
            continue
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} {s['name']}: parent {s['parent']} missing")
        elif parent["end"] is None or not (
                parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            problems.append(f"span {s['id']} {s['name']} lies outside its parent")
    if sum(s["parent"] is None for s in spans) != 1:
        problems.append("a traced run needs exactly one root span")
    return problems
