"""Fold a ``repro.obs`` JSON-lines trace into a per-span-name self-time table.

Usage::

    python3 perfbench/fold.py TRACE.jsonl [MORE.jsonl ...]

prints one row per span name (count, total ms, self ms, share of all self
time) followed by ``server.unspanned_share``: the share of every
``client.request`` span's wall time that lies inside no named child span.

A span's *self time* is its duration minus the part of its interval that
its descendant spans cover.  Descendants rather than direct children,
because a job handed to a worker (``runner.job``) outlives the
``runner.submit`` span that parents it; counting only direct children
would charge the whole job to ``serve.request``.  For properly nested
spans the two definitions agree.  Descendant intervals are clipped to the
span's own interval and merged before subtracting, so overlapping children
are not counted twice.

Spans from several processes can be folded together: ``start_s`` is
``time.perf_counter()``, which on Linux reads ``CLOCK_MONOTONIC`` — one
clock for every process on the machine.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

__all__ = ["load_spans", "self_times", "fold", "unspanned_share", "format_table"]


def load_spans(paths) -> list[dict]:
    """Every ``"kind": "span"`` record from the given JSON-lines files."""
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("kind") == "span":
                    spans.append(record)
    return spans


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    current_lo = current_hi = None
    for lo, hi in clipped:
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo
    return total


def self_times(spans) -> dict[str, float]:
    """``{span_id: self seconds}`` for every span."""
    children = defaultdict(list)
    for record in spans:
        if record.get("parent_id"):
            children[record["parent_id"]].append(record)

    def descendants(span_id):
        stack = list(children.get(span_id, ()))
        while stack:
            record = stack.pop()
            yield record
            stack.extend(children.get(record["span_id"], ()))

    result = {}
    for record in spans:
        start = record["start_s"]
        end = start + record["duration_s"]
        intervals = [
            (d["start_s"], d["start_s"] + d["duration_s"])
            for d in descendants(record["span_id"])
        ]
        result[record["span_id"]] = record["duration_s"] - _covered(start, end, intervals)
    return result


def fold(spans) -> dict[str, dict[str, float]]:
    """``{name: {"count", "total_s", "self_s"}}`` summed over spans of each name."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for record in spans:
        row = table.setdefault(record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += record["duration_s"]
        row["self_s"] += selfs[record["span_id"]]
    return table


def unspanned_share(spans, root: str = "client.request") -> float | None:
    """Summed self time over summed duration of the ``root`` spans."""
    selfs = self_times(spans)
    roots = [record for record in spans if record["name"] == root]
    total = sum(record["duration_s"] for record in roots)
    if not roots or total <= 0:
        return None
    return sum(selfs[record["span_id"]] for record in roots) / total


def format_table(spans) -> str:
    """The per-span-name table, largest self time first."""
    table = fold(spans)
    grand = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'span':<34} {'count':>6} {'total_ms':>12} {'self_ms':>12} {'self%':>6}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<34} {row['count']:>6d} {row['total_s'] * 1e3:>12.2f} "
            f"{row['self_s'] * 1e3:>12.2f} {100 * row['self_s'] / grand:>6.1f}"
        )
    share = unspanned_share(spans)
    if share is not None:
        lines.append(f"server.unspanned_share {share:.4f}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 perfbench/fold.py TRACE.jsonl [MORE.jsonl ...]", file=sys.stderr)
        return 2
    print(format_table(load_spans(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
