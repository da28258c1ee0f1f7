"""End-to-end observability: metrics, engine probes, and a stitched trace.

``repro.obs`` instruments the whole stack with nothing beyond the
stdlib.  This example:

1. enables the engine probes and runs a replica ensemble, then prints
   the resulting counters as a Prometheus text exposition;
2. enables tracing and submits one streamed ``mixing_time`` request
   through :class:`repro.serve.ServeClient`, producing a single trace
   whose spans cross three processes (client/server, pool worker);
3. reconstructs the span tree from the JSON-lines trace file and prints
   it, plus the server's ``/v1/metrics`` scrape and ``/v1/stats``
   latency percentiles.

Run:  PYTHONPATH=src python examples/observability.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import repro
from repro.graphs import cycle_graph, path_graph
from repro.mrf import proper_coloring_mrf
from repro.serve import ReproServer, ServeClient
from repro.spec import JobSpec


def engine_probe_demo() -> None:
    """Probes are off by default; one flag turns them on everywhere."""
    repro.obs.enable()
    model = proper_coloring_mrf(cycle_graph(12), 5)
    repro.make_ensemble(model, 64, seed=1, method="local-metropolis").advance(16)
    repro.make_ensemble(model, 64, seed=2, method="luby-glauber").advance(16)
    print("== engine probes (Prometheus text exposition) ==")
    print(repro.obs.render_prometheus())
    repro.obs.reset()


def traced_serve_demo(trace_file: Path) -> None:
    """One streamed request -> one trace stitched across processes."""
    repro.obs.enable_tracing(trace_file)
    model = proper_coloring_mrf(path_graph(3), 3)
    spec = JobSpec.mixing_time(
        model, eps=0.35, replicas=64, stride=4, max_rounds=64, seed=7
    )
    with ReproServer(workers=1) as server, ServeClient(*server.address) as client:
        for event in client.stream(spec):
            print(f"stream event: {event['event']}")
        scrape = client.metrics()
        stats = client.stats()
    repro.obs.disable_tracing()

    print("\n== /v1/metrics scrape (first lines) ==")
    print("\n".join(scrape.splitlines()[:12]))
    print("\n== /v1/stats latency ==")
    print(json.dumps(stats["latency"], indent=2))

    spans = [json.loads(line) for line in trace_file.open()]
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)

    def show(span, depth=0):
        print(
            f"{'  ' * depth}{span['name']}  "
            f"[pid {span['pid']}, {span['duration_s'] * 1000:.2f} ms]"
        )
        for child in children.get(span["span_id"], []):
            show(child, depth + 1)

    print(f"\n== span tree ({len(spans)} spans, "
          f"{len({s['trace_id'] for s in spans})} trace) ==")
    for root in children.get(None, []):
        show(root)
    assert len({span["trace_id"] for span in spans}) == 1
    client_pid = next(s["pid"] for s in spans if s["name"] == "client.request")
    worker_pids = {s["pid"] for s in spans} - {client_pid}
    print(f"worker pids in the trace: {sorted(worker_pids)}")


def main() -> None:
    engine_probe_demo()
    with tempfile.TemporaryDirectory() as tmp:
        traced_serve_demo(Path(tmp) / "trace.jsonl")


if __name__ == "__main__":
    main()
