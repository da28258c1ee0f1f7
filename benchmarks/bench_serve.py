"""E17 — serving throughput: cold runs vs content-addressed cache hits.

E16 made one job cheaper by sharding it across cores; E17 amortises
everything *around* the job: ``repro.serve`` keeps a ``JobRunner`` pool
alive behind an HTTP/JSON request API with a content-addressed LRU result
cache keyed by :meth:`repro.spec.JobSpec.cache_key`, so a repeated
(model, method, seed, params) request is answered from memory —
bit-identical to re-running by the key's contract — without spending any
worker time.

This experiment stands up an in-process :class:`~repro.serve.ReproServer`
on an ephemeral port and measures end-to-end served requests/sec and p99
latency over ``http.client``, cold (unique seeds, every request runs on
the pool) vs cache-hit (one warmed spec requested repeatedly), for two
request shapes:

* **batch** — a ``sample_many`` batch: bulk result, so the hit path still
  pays the wire cost of shipping the samples back; and
* **mix** — a ``mixing_time`` estimate at a paper-scale replica count:
  compute-bound with a scalar result, the shape the cache exists for
  (the paper's headline quantity, re-requested across analyses).

The hit path is measured both ways: resubmitting the full model dict and
resubmitting via the ``model_fingerprint`` fast path (the client sends
the 64-hex digest instead of the serialized model; the server resolves it
from its fingerprint registry).  The tentpole acceptance criterion —
cache hits serve >= 10x the cold request rate — is asserted on the
compute-bound ``mix`` shape at full benchmark size.  The JSON metrics
(the CI regression gate's contract) carry the higher-is-better request
rates; p99 latencies appear in the human-readable table.

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes; the 10x assertion is only
enforced at full size.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import report, write_bench_json
from repro.graphs import cycle_graph, torus_graph
from repro.mrf import proper_coloring_mrf
from repro.serve import ReproServer, ServeClient
from repro.spec import JobSpec

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

BATCH_SIDE = 6 if SMOKE else 16
BATCH_Q = 8
BATCH_REPLICAS = 16 if SMOKE else 64
BATCH_ROUNDS = 4 if SMOKE else 20
MIX_REPLICAS = 2048 if SMOKE else 65536
MIX_EPS = 0.25
MIX_MAX_ROUNDS = 256
COLD_REQUESTS = 3 if SMOKE else 8
HIT_REQUESTS = 20 if SMOKE else 100
SEED = 20170625


def _timed_requests(client: ServeClient, specs) -> list[float]:
    """Submit each spec; return per-request wall-clock latencies (seconds)."""
    latencies = []
    for spec in specs:
        start = time.perf_counter()
        client.submit(spec)
        latencies.append(time.perf_counter() - start)
    return latencies


def _measure_shape(client: ServeClient, make_spec) -> dict[str, float]:
    """Cold sweep over unique seeds, then repeated hits on the first spec.

    The hit path is measured twice: shipping the full model dict on every
    request (a fresh client per request, so the server's fingerprint
    registry is never consulted, and each request opens a new connection)
    vs the fingerprint fast path (one warmed client that sends the ~64-byte
    digest instead of the model payload over its kept-alive connection).
    """
    cold = _timed_requests(
        client, [make_spec(SEED + i) for i in range(COLD_REQUESTS)]
    )
    warmed = make_spec(SEED)  # resident from the cold sweep
    assert client.submit(warmed)["cached"] is True
    full = []
    for _ in range(HIT_REQUESTS):
        # A fresh client has an empty _known_models set, so it serialises
        # the whole model, and it has no idle connection to reuse.
        with ServeClient(client.host, client.port) as fresh:
            start = time.perf_counter()
            fresh.submit(warmed)
            full.append(time.perf_counter() - start)
    hits = _timed_requests(client, [warmed] * HIT_REQUESTS)
    return {
        "cold_rps": COLD_REQUESTS / sum(cold),
        "hit_full_rps": HIT_REQUESTS / sum(full),
        "hit_rps": HIT_REQUESTS / sum(hits),
        "cold_p99_ms": float(np.quantile(cold, 0.99) * 1e3),
        "hit_full_p99_ms": float(np.quantile(full, 0.99) * 1e3),
        "hit_p99_ms": float(np.quantile(hits, 0.99) * 1e3),
    }


def _measure() -> dict[str, dict[str, float]]:
    batch_model = proper_coloring_mrf(torus_graph(BATCH_SIDE, BATCH_SIDE), BATCH_Q)
    mix_model = proper_coloring_mrf(cycle_graph(6), 3)
    with (
        ReproServer(workers=2, cache_capacity=4 * COLD_REQUESTS) as server,
        ServeClient(*server.address) as client,
    ):
        shapes = {
            "batch": _measure_shape(
                client,
                lambda seed: JobSpec.sample_many(
                    batch_model, BATCH_REPLICAS, seed=seed, rounds=BATCH_ROUNDS
                ),
            ),
            "mix": _measure_shape(
                client,
                lambda seed: JobSpec.mixing_time(
                    mix_model,
                    eps=MIX_EPS,
                    replicas=MIX_REPLICAS,
                    max_rounds=MIX_MAX_ROUNDS,
                    seed=seed,
                ),
            ),
        }
        stats = server.stats()
    assert stats["jobs"]["failed"] == 0
    assert stats["cache"]["evictions"] == 0
    return shapes


def test_serve_cache_throughput():
    shapes = _measure()
    # The JSON gate wants higher-is-better numbers only: request rates go
    # in, p99 latencies stay in the human-readable report.
    write_bench_json(
        "E17",
        {
            f"{shape}_{path}_requests_per_sec": values[f"{path}_rps"]
            for shape, values in shapes.items()
            for path in ("cold", "hit_full", "hit")
        },
        smoke=SMOKE,
    )
    lines = [
        f"batch: sample_many, {BATCH_SIDE}x{BATCH_SIDE} torus (q={BATCH_Q}), "
        f"R={BATCH_REPLICAS}, {BATCH_ROUNDS} rounds",
        f"mix:   mixing_time(eps={MIX_EPS}), 6-cycle (q=3), "
        f"R={MIX_REPLICAS} replicas",
        f"served end-to-end over HTTP/JSON; {COLD_REQUESTS} cold + "
        f"{HIT_REQUESTS} hit requests each",
        f"{'shape':>7} {'path':>10} {'req/s':>10} {'p99 ms':>9} {'speedup':>9}",
    ]
    for shape, values in shapes.items():
        speedup_full = values["hit_full_rps"] / values["cold_rps"]
        speedup = values["hit_rps"] / values["cold_rps"]
        lines.append(
            f"{shape:>7} {'cold':>10} {values['cold_rps']:>10.3g} "
            f"{values['cold_p99_ms']:>9.2f} {'1.0x':>9}"
        )
        lines.append(
            f"{shape:>7} {'hit full':>10} {values['hit_full_rps']:>10.3g} "
            f"{values['hit_full_p99_ms']:>9.2f} {speedup_full:>8.1f}x"
        )
        lines.append(
            f"{shape:>7} {'hit fp':>10} {values['hit_rps']:>10.3g} "
            f"{values['hit_p99_ms']:>9.2f} {speedup:>8.1f}x"
        )
    lines += [
        "",
        "claim: the content-addressed result cache serves repeated",
        "compute-bound requests >= 10x faster than running them, while",
        "staying bit-identical to a fresh run; 'hit fp' resubmits via the",
        "model_fingerprint fast path instead of shipping the model dict.",
    ]
    report("E17", "serving throughput (cold vs cache hit)", lines)
    if not SMOKE:
        speedup = shapes["mix"]["hit_rps"] / shapes["mix"]["cold_rps"]
        assert speedup >= 10.0, (
            f"cache-hit speedup {speedup:.1f}x on the mixing_time shape is "
            "below the 10x acceptance criterion"
        )
