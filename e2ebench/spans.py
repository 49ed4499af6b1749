"""In-memory spans recorded by the benchmark around the program's calls.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` for a root).  The benchmark is single-threaded, so
one stack is enough.  Spans are kept in memory and written out once, when
the run ends; with recording off, :meth:`Spans.span` only yields.

A span's *self time* is its duration minus the durations of its direct
children.  On one thread children never overlap, so that is exactly the
part of the span no child covers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), child in zip(self.records, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def durations(self, name: str) -> List[float]:
        """Every recorded duration of spans called ``name``, in order."""
        return [end - start for n, start, end, _ in self.records if n == name]

    def roots_wall(self) -> float:
        """Summed duration of the root spans."""
        return sum(end - start for _, start, end, parent in self.records
                   if parent < 0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent in self.records:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")
