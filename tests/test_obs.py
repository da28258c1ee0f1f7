"""Tests for ``repro.obs`` — metrics registry, trace spans, and the
end-to-end stitched trace across client, server, and worker processes.

The load-bearing contracts:

* **registry semantics** — counters accumulate per label set, gauges
  overwrite, histogram buckets are inclusive (``le``) and cumulative,
  and the Prometheus rendering is valid text exposition format 0.0.4;
* **two-tier gating** — engine probes record only while
  ``repro.obs.enable()`` is on; cold-path accounting (serve requests)
  records unconditionally;
* **span stitching** — one streamed submission through
  :class:`~repro.serve.ServeClient` with tracing enabled yields a
  single trace whose parent links walk
  ``engine.advance -> runner.job -> runner.submit -> serve.request ->
  client.request`` across three processes (acceptance criterion of the
  observability PR).
"""

from __future__ import annotations

import json
import math
import re
import time

import pytest

import repro
from repro.graphs import cycle_graph, path_graph
from repro.mrf import proper_coloring_mrf
from repro.obs import metrics, trace
from repro.obs.metrics import BUCKET_BOUNDS, MetricsRegistry
from repro.serve import ReproServer, ServeClient
from repro.spec import JobSpec


@pytest.fixture(autouse=True)
def _pristine_obs_state():
    """Every test starts and ends with probes off, registry empty."""
    metrics.disable()
    metrics.reset()
    trace.disable_tracing()
    yield
    metrics.disable()
    metrics.reset()
    trace.disable_tracing()


def _read_spans(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


def _poll_spans(path, predicate, timeout=30.0):
    """Re-read the trace file until ``predicate(spans)`` or timeout."""
    deadline = time.monotonic() + timeout
    while True:
        spans = _read_spans(path)
        if predicate(spans):
            return spans
        if time.monotonic() > deadline:
            return spans
        time.sleep(0.05)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("hits_total", engine="a")
        reg.inc("hits_total", 2.5, engine="a")
        reg.inc("hits_total", engine="b")
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in reg.snapshot()["counters"]
        }
        assert counters[("hits_total", (("engine", "a"),))] == 3.5
        assert counters[("hits_total", (("engine", "b"),))] == 1.0

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.set_gauge("workers", 4)
        reg.set_gauge("workers", 2)
        (gauge,) = reg.snapshot()["gauges"]
        assert gauge["value"] == 2.0

    def test_label_values_coerced_to_str(self):
        reg = MetricsRegistry()
        reg.inc("c_total", shard=3)
        (counter,) = reg.snapshot()["counters"]
        assert counter["labels"] == {"shard": "3"}

    def test_histogram_buckets_are_inclusive_and_cumulative(self):
        reg = MetricsRegistry()
        # 1.0 is an exact bucket bound: inclusive ``le`` semantics must
        # place it in the 1.0 bucket, not the next one up.
        for value in (1.0, 0.5, 200.0):
            reg.observe("lat_seconds", value)
        (hist,) = reg.snapshot()["histograms"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(201.5)
        buckets = dict((bound, cum) for bound, cum in hist["buckets"])
        assert buckets[1.0] == 2  # 0.5 and 1.0
        # Cumulative counts never decrease along the bound axis.
        cums = [cum for _, cum in hist["buckets"]]
        assert cums == sorted(cums)
        assert cums[-1] == 3

    def test_bucket_bounds_cover_microseconds_to_hours(self):
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-7)
        assert BUCKET_BOUNDS[-1] == math.inf
        assert BUCKET_BOUNDS[-2] == pytest.approx(1e4)
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a_total")
        reg.set_gauge("g", 1)
        reg.observe("h", 0.1)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("a_total", engine="x")
        reg.observe("h_seconds", 0.25, engine="x")
        json.dumps(reg.snapshot())  # must not raise


_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABELS = r'\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}'
_VALUE = r"(?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|NaN)"
_SAMPLE_RE = re.compile(rf"^{_NAME}(?:{_LABELS})? {_VALUE}$")
_TYPE_RE = re.compile(rf"^# TYPE {_NAME} (?:counter|gauge|histogram)$")


def assert_valid_prometheus(text):
    """Every line is a TYPE comment or a sample in exposition format."""
    lines = text.splitlines()
    assert lines, "empty exposition"
    for line in lines:
        assert _TYPE_RE.match(line) or _SAMPLE_RE.match(line), line


class TestPrometheusRendering:
    def test_rendering_is_valid_exposition_format(self):
        reg = MetricsRegistry()
        reg.inc("repro_engine_rounds_total", 7, engine="E")
        reg.set_gauge("repro_workers", 2)
        reg.observe("repro_seconds", 0.003, route="/v1/jobs")
        assert_valid_prometheus(reg.render_prometheus())

    def test_histogram_rendering_has_inf_sum_and_count(self):
        reg = MetricsRegistry()
        reg.observe("h_seconds", 0.5)
        text = reg.render_prometheus()
        assert '# TYPE h_seconds histogram' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.5" in text
        assert "h_seconds_count 1" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.inc("c_total", path='a"b\\c\nd')
        text = reg.render_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert_valid_prometheus(text)

    def test_whole_floats_render_as_integers(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 3.0)
        assert "c_total 3" in reg.render_prometheus()


# ----------------------------------------------------------------------
# the enabled flag and engine probes
# ----------------------------------------------------------------------


class TestEnableGating:
    def test_disabled_by_default_and_flag_flips(self):
        assert repro.obs.enabled() is False
        repro.obs.enable()
        assert repro.obs.enabled() is True
        repro.obs.disable()
        assert repro.obs.enabled() is False

    def test_engine_probes_silent_when_disabled(self):
        model = proper_coloring_mrf(cycle_graph(6), 4)
        repro.make_ensemble(model, 8, seed=1).advance(4)
        snap = repro.obs.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert not any(name.startswith("repro_engine") for name in names)

    def test_engine_probes_record_when_enabled(self):
        model = proper_coloring_mrf(cycle_graph(6), 4)
        repro.obs.enable()
        repro.make_ensemble(model, 8, seed=1, method="local-metropolis").advance(4)
        repro.make_ensemble(model, 8, seed=2, method="luby-glauber").advance(4)
        snap = repro.obs.snapshot()
        counters = {c["name"]: c for c in snap["counters"]}
        rounds = [
            c for c in snap["counters"] if c["name"] == "repro_engine_rounds_total"
        ]
        assert sum(c["value"] for c in rounds) == 8.0
        assert "repro_engine_seconds_total" in counters
        assert "repro_engine_proposals_total" in counters
        assert "repro_engine_accepted_total" in counters
        assert "repro_engine_luby_selected_total" in counters
        hist_names = {h["name"] for h in snap["histograms"]}
        assert "repro_engine_luby_set_size" in hist_names
        assert_valid_prometheus(repro.obs.render_prometheus())

    def test_accepted_never_exceeds_proposals(self):
        model = proper_coloring_mrf(cycle_graph(8), 5)
        repro.obs.enable()
        repro.make_ensemble(model, 16, seed=3, method="local-metropolis").advance(8)
        counters = {c["name"]: c["value"] for c in repro.obs.snapshot()["counters"]}
        assert 0 < counters["repro_engine_accepted_total"] <= (
            counters["repro_engine_proposals_total"]
        )


# ----------------------------------------------------------------------
# trace spans
# ----------------------------------------------------------------------


class TestTraceSpans:
    def test_disabled_spans_are_noops(self, tmp_path):
        with trace.span("anything", key="value") as handle:
            handle.set(more=1)
        assert trace.current_context() is None
        assert trace.export_context() is None
        assert trace.trace_path() is None

    def test_nested_spans_share_trace_and_link_parents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable_tracing(path)
        with trace.span("outer", layer=1) as outer:
            with trace.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                inner.set(extra="yes")
        trace.disable_tracing()
        spans = {s["name"]: s for s in _read_spans(path)}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["attrs"]["extra"] == "yes"
        assert spans["outer"]["attrs"] == {"layer": 1}
        assert spans["inner"]["duration_s"] <= spans["outer"]["duration_s"]

    def test_exceptions_are_recorded_and_propagate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable_tracing(path)
        with pytest.raises(ValueError, match="boom"):
            with trace.span("failing"):
                raise ValueError("boom")
        trace.disable_tracing()
        (record,) = _read_spans(path)
        assert record["error"] == "ValueError: boom"

    def test_explicit_parent_overrides_ambient_context(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable_tracing(path)
        remote = {"trace_id": "aa" * 8, "parent_id": "bb" * 8}
        with trace.span("ambient"):
            with trace.span("adopted", parent=remote) as handle:
                assert handle.trace_id == remote["trace_id"]
                assert handle.parent_id == remote["parent_id"]
        trace.disable_tracing()

    def test_export_context_round_trips_through_ensure(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable_tracing(path)
        with trace.span("sender"):
            context = trace.export_context()
        assert context["file"] == str(path)
        assert "trace_id" in context and "parent_id" in context
        # Re-opening the same path is a no-op (fork-inherited handles).
        trace.ensure_tracing(path)
        assert trace.trace_path() == str(path)
        trace.disable_tracing()

    def test_event_records_are_zero_duration_points(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable_tracing(path)
        trace.event("worker.lost", job_id=3)
        trace.disable_tracing()
        (record,) = _read_spans(path)
        assert record["kind"] == "event"
        assert record["duration_s"] == 0.0
        assert record["attrs"] == {"job_id": 3}


# ----------------------------------------------------------------------
# the acceptance criterion: one stitched trace across three processes
# ----------------------------------------------------------------------

_CHAIN = [
    "engine.advance",
    "runner.job",
    "runner.submit",
    "serve.request",
    "client.request",
]


class TestServedTraceEndToEnd:
    def test_streamed_mixing_time_yields_single_stitched_trace(self, tmp_path):
        path = tmp_path / "served.jsonl"
        model = proper_coloring_mrf(path_graph(3), 3)
        spec = JobSpec.mixing_time(
            model, eps=0.35, replicas=64, stride=4, max_rounds=64, seed=7
        )
        trace.enable_tracing(path)
        try:
            with (
                ReproServer(workers=1, cache_capacity=4, max_pending=8) as srv,
                ServeClient(*srv.address) as client,
            ):
                events = list(client.stream(spec))
                assert events[-1]["event"] == "result"

                def complete(spans):
                    names = {s["name"] for s in spans}
                    return set(_CHAIN) <= names

                spans = _poll_spans(path, complete)
        finally:
            trace.disable_tracing()

        names = {s["name"] for s in spans}
        assert set(_CHAIN) <= names, f"missing spans: {set(_CHAIN) - names}"

        # Reconstruct the span tree from the JSON-lines file and walk the
        # parent links upward from a worker-side engine.advance span.
        by_id = {s["span_id"]: s for s in spans}
        advance = next(s for s in spans if s["name"] == "engine.advance")
        chain = [advance["name"]]
        node = advance
        while node["parent_id"] is not None:
            node = by_id[node["parent_id"]]
            chain.append(node["name"])
        assert chain == _CHAIN
        assert len({s["trace_id"] for s in spans}) == 1
        # Three distinct processes contributed to the one trace: the
        # client/server share a pid here, the pool worker does not.
        client_pid = next(s["pid"] for s in spans if s["name"] == "client.request")
        worker_pid = next(s["pid"] for s in spans if s["name"] == "runner.job")
        assert worker_pid != client_pid


class TestServeSurface:
    def test_metrics_route_and_stats_latency(self, tmp_path):
        model = proper_coloring_mrf(path_graph(3), 3)
        with (
            ReproServer(workers=1, cache_capacity=4, max_pending=8) as srv,
            ServeClient(*srv.address) as client,
        ):
            client.run(
                JobSpec.sample_many(model, 8, rounds=2, seed=1)
            )
            text = client.metrics()
            assert_valid_prometheus(text)
            assert "repro_serve_jobs_total" in text
            assert "repro_serve_request_seconds" in text

            stats = client.stats()
            latency = stats["latency"]
            assert latency["count"] >= 1
            assert latency["p50_s"] <= latency["p90_s"] <= latency["p99_s"]
