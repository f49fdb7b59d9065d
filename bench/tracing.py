"""Spans around calls into the library, kept in memory, and per-layer self time.

A disabled tracer only calls through, so traced and untraced operations run
the same code. A span records its name, start, end, parent span, operation
id, whether the call raised, and an optional detail (the CLI command). Self
time is a span's duration minus the time its child spans cover; the loop is
single-threaded, so children never overlap and that is a plain sum.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op_id: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent, op_id, failed, detail]
        self.counts: list[tuple[str, int, float]] = []  # (name, op_id, value)
        self._open: list[int] = []

    def call(self, name: str, fn, *args, detail: str | None = None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, self.op_id, True, detail]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            record[5] = False
            return result
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((name, self.op_id, value))

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "failed", "detail")
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **dict(zip(keys, record))}) + "\n")

    def layer_metrics(self, n_ops: int, span_names, count_names) -> dict[str, float]:
        """Per span name: calls per traced operation, median self time per
        operation that made the call, and calls that raised. Names the run
        never called report 0, so every workload prints the same keys."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_time: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, op, raised, detail) in enumerate(self.spans):
            keys = (name,) if detail is None else (name, f"{name}.{detail}")
            for key in keys:
                self_time[key][op] += end - start - covered[index]
                calls[key] += 1
                failed[key] += raised
        metrics = {}
        for name in span_names:
            per_op = self_time.get(name)
            metrics[f"{name}.calls"] = calls[name] / max(n_ops, 1)
            metrics[f"{name}.busy_s"] = statistics.median(per_op.values()) if per_op else 0.0
            metrics[f"{name}.failed"] = failed[name]
        per_op_counts: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for name, op, value in self.counts:
            per_op_counts[name][op] += value
        for name in count_names:
            values = per_op_counts.get(name)
            metrics[name] = statistics.median(values.values()) if values else 0.0
        return metrics
