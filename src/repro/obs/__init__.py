"""``repro.obs`` — zero-dependency observability: metrics, traces, probes.

Three layers, all stdlib-only:

* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges, and log-bucket histograms, with Prometheus text rendering.
  Hot-loop engine probes are gated on one module-level flag
  (:func:`enable` / :func:`disable`); cold-path accounting (serve
  requests) records unconditionally.
* :mod:`repro.obs.trace` — ``span()`` context managers writing
  JSON-lines records with monotonic timings and parent links, with
  explicit context export/adopt for crossing the exec pool's
  process boundary.
* Engine probes live at their call sites (``chains/ensemble.py``,
  ``dynamic/ensemble.py``, ``exec/jobs.py``, ``repro.serve``) and report the paper-level quantities: rounds/sec,
  accepted-move fractions, Luby independent-set sizes, region sizes
  and budgets, per-engine kernel seconds.

Typical use::

    import repro
    repro.obs.enable()                       # engine probes on
    repro.obs.enable_tracing("trace.jsonl")  # spans on
    ...run things...
    print(repro.obs.snapshot())
    print(repro.obs.render_prometheus())
"""

from __future__ import annotations

from repro.obs import metrics, trace
from repro.obs.metrics import (
    MetricsRegistry,
    REGISTRY,
    disable,
    enable,
    inc,
    observe,
    render_prometheus,
    reset,
    set_gauge,
    snapshot,
)
from repro.obs.trace import (
    current_context,
    disable_tracing,
    enable_tracing,
    ensure_tracing,
    event,
    export_context,
    span,
    trace_path,
)

__all__ = [
    "metrics",
    "trace",
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
    "enable_tracing",
    "disable_tracing",
    "ensure_tracing",
    "trace_path",
    "span",
    "event",
    "current_context",
    "export_context",
]


def enabled() -> bool:
    """Whether the hot-loop engine probes are currently on."""
    return metrics.enabled
