"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, solve): times in seconds from
`time.perf_counter`, `parent` the index of the enclosing span or None, and
`solve` the id of the solve (loop iteration) it belongs to. Spans are kept
in a list and written as JSON lines once the run is over.

A span's self time is its duration minus the time its child spans cover.
The run is single-threaded, so children never overlap and that is the sum of
their durations. To print total and self time per span name:

    python3 bench/spans.py bench/out/spans-clean-s1.jsonl
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.solve = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.solve)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured elsewhere in this process."""
        self.spans.append((name, start, end, None, self.solve))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        t0 = min(start for _, start, _, _, _ in self.spans)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, solve) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "solve": solve}) + "\n")


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, total seconds, self seconds)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        dur = s["end"] - s["start"]
        row = out[s["name"]]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time[s["id"]]
    return {name: tuple(row) for name, row in out.items()}


def main() -> None:
    with open(sys.argv[1]) as fh:
        spans = [json.loads(line) for line in fh]
    print(f"{'span':34} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, own) in sorted(self_times(spans).items(), key=lambda kv: -kv[1][2]):
        print(f"{name:34} {count:7d} {total:10.4f} {own:10.4f}")


if __name__ == "__main__":
    main()
