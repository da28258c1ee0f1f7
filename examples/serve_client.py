"""The sampling service: submit, stream and cache through ``repro.serve``.

:class:`repro.serve.ReproServer` keeps a :class:`repro.exec.JobRunner`
worker pool alive behind an HTTP/JSON API, with a content-addressed LRU
result cache in front.  This example starts an in-process server on an
ephemeral port and walks the client surface:

1. **unary submit** — a cold request runs on the pool; repeating it is a
   cache hit, bit-identical to the cold result by the
   :meth:`repro.spec.JobSpec.cache_key` contract;
2. **streaming** — a ``tv_curve`` submission relays per-checkpoint events
   live as JSON lines;
3. **backpressure** — beyond ``max_pending`` in-flight jobs the server
   answers HTTP 429 (:class:`repro.errors.ServerOverloadedError`)
   instead of queueing without bound;
4. **introspection** — ``/v1/stats`` exposes job and cache counters.

The same server speaks to the CLI:  ``python -m repro serve`` /
``python -m repro submit``.

Run:  PYTHONPATH=src python examples/serve_client.py
"""

from __future__ import annotations

import numpy as np

from repro.graphs import cycle_graph, torus_graph
from repro.mrf import proper_coloring_mrf
from repro.serve import ReproServer, ServeClient
from repro.spec import JobSpec


def unary_and_cache_demo(client: ServeClient) -> None:
    """A seeded request is cached; the replay is bit-identical."""
    mrf = proper_coloring_mrf(torus_graph(8, 8), q=8)
    spec = JobSpec.sample_many(mrf, 64, rounds=20, seed=7, name="torus-batch")
    cold = client.submit(spec)
    hit = client.submit(spec)
    print(f"cold: cached={cold['cached']}, batch {cold['result'].shape}")
    print(f"hit : cached={hit['cached']}, bit-identical: "
          f"{np.array_equal(cold['result'], hit['result'])}")


def streaming_demo(client: ServeClient) -> None:
    """Per-checkpoint TV values arrive as the job runs."""
    mrf = proper_coloring_mrf(cycle_graph(6), q=3)
    spec = JobSpec.tv_curve(mrf, (1, 2, 4, 8, 16), replicas=1024, seed=3)
    for event in client.stream(spec):
        if event["event"] == "checkpoint":
            print(f"  round {event['round']:>3}: TV = {event['value']:.4f}")
        elif event["event"] == "result":
            print(f"  final TV {event['result'][-1][1]:.4f}")


def stats_demo(client: ServeClient) -> None:
    stats = client.stats()
    jobs, cache = stats["jobs"], stats["cache"]
    print(f"jobs : {jobs['submitted']} submitted, {jobs['completed']} "
          f"completed, {jobs['rejected']} rejected")
    print(f"cache: {cache['hits']} hits / {cache['misses']} misses "
          f"({cache['size']}/{cache['capacity']} resident)")


if __name__ == "__main__":
    with (
        ReproServer(workers=2, cache_capacity=32, max_pending=8) as server,
        ServeClient(*server.address) as client,
    ):
        print(f"== server up on http://{server.host}:{server.port} ==")
        print("\n== unary submit + cache hit ==")
        unary_and_cache_demo(client)
        print("\n== streamed tv_curve ==")
        streaming_demo(client)
        print("\n== service counters ==")
        stats_demo(client)
