"""Process-local metrics registry: counters, gauges, log-bucket histograms.

Zero dependencies, one lock, plain dicts.  Two usage tiers:

* **Cold paths** (serve request accounting, CLI) call
  :func:`inc` / :func:`set_gauge` / :func:`observe` unconditionally — the
  registry is always live and the cost is a dict update under a lock.
* **Hot loops** (per-step engine probes) guard on the module-level
  :data:`enabled` flag so a disabled run pays exactly one branch::

      from repro.obs import metrics as _obs_metrics
      ...
      if _obs_metrics.enabled:
          _obs_metrics.inc("repro_engine_proposals_total", n * r, engine=name)

  Flip the flag with :func:`enable` / :func:`disable` (or the
  ``repro.obs`` facades of the same names).

Histograms use fixed log-scale buckets — four per decade from ``1e-7`` to
``1e4`` plus ``+Inf`` — chosen to cover everything from a single batched
kernel step (microseconds) to a full mixing-time run (hours-ish) without
per-metric configuration.

Everything here is process-local by design: worker processes in
``repro.exec`` keep their own registries, and cross-process visibility
comes from trace files (:mod:`repro.obs.trace`), not from metrics.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "REGISTRY",
    "enable",
    "disable",
    "enabled",
    "inc",
    "set_gauge",
    "observe",
    "snapshot",
    "reset",
    "render_prometheus",
]

# The single hot-path switch.  Engine probes check this and nothing else.
enabled = False

# Four buckets per decade, 1e-7 .. 1e4, then +Inf.  Upper bounds are
# inclusive (Prometheus ``le`` semantics).
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 4.0), 10) for exponent in range(-28, 17)
) + (math.inf,)


def enable() -> None:
    """Turn on the hot-loop engine probes."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn off the hot-loop engine probes (the registry stays readable)."""
    global enabled
    enabled = False


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and histograms.

    Series are keyed by ``(name, sorted label items)``.  Label values are
    coerced to ``str`` so backends/engines can pass whatever identifies
    them without worrying about types.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        self._gauges: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        # Histogram value: [bucket counts (len(BUCKET_BOUNDS))], sum, count.
        self._histograms: dict[
            tuple[str, tuple[tuple[str, str], ...]], tuple[list[int], float, int]
        ] = {}

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        value = float(value)
        index = bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            entry = self._histograms.get(key)
            if entry is None:
                entry = ([0] * len(BUCKET_BOUNDS), 0.0, 0)
            counts, total, n = entry
            counts[index] += 1
            self._histograms[key] = (counts, total + value, n + 1)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> dict[str, list[dict[str, object]]]:
        """A point-in-time copy as plain JSON-serialisable data."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = []
            for (name, labels), (counts, total, n) in sorted(self._histograms.items()):
                cumulative: list[list[float]] = []
                running = 0
                for bound, count in zip(BUCKET_BOUNDS, counts):
                    running += count
                    if count:
                        cumulative.append([bound, running])
                histograms.append(
                    {
                        "name": name,
                        "labels": dict(labels),
                        "count": n,
                        "sum": total,
                        "buckets": cumulative,
                    }
                )
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), value in counters:
            type_line(name, "counter")
            lines.append(f"{name}{_render_labels(labels)} {_render_value(value)}")
        for (name, labels), value in gauges:
            type_line(name, "gauge")
            lines.append(f"{name}{_render_labels(labels)} {_render_value(value)}")
        for (name, labels), (counts, total, n) in histograms:
            type_line(name, "histogram")
            running = 0
            for bound, count in zip(BUCKET_BOUNDS, counts):
                running += count
                le = "+Inf" if bound == math.inf else repr(bound)
                bucket_labels = labels + (("le", le),)
                lines.append(
                    f"{name}_bucket{_render_labels(bucket_labels)} {running}"
                )
            lines.append(f"{name}_sum{_render_labels(labels)} {_render_value(total)}")
            lines.append(f"{name}_count{_render_labels(labels)} {n}")
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    parts = (f'{key}="{_escape_label_value(value)}"' for key, value in labels)
    return "{" + ",".join(parts) + "}"


def _render_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


REGISTRY = MetricsRegistry()


def inc(name: str, amount: float = 1.0, **labels: object) -> None:
    REGISTRY.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    REGISTRY.observe(name, value, **labels)


def snapshot() -> dict[str, list[dict[str, object]]]:
    return REGISTRY.snapshot()


def reset() -> None:
    REGISTRY.reset()


def render_prometheus() -> str:
    return REGISTRY.render_prometheus()
