"""The traced layer sweep behind the per-layer metrics.

With ``repro.obs`` tracing and metrics on, the sweep

1. runs one traced served request of each served shape against a traced
   server (a cold submit, a cache hit by fingerprint, a new-model submit
   followed by an invalidate) while a health prober runs;
2. replays each served op through the public functions on the same
   inputs, one benchmark span per layer call: ``to_wire[_fingerprint]`` ->
   json -> ``from_wire`` -> ``model_fingerprint`` -> ``cache_key`` ->
   ``ResultCache.get`` -> ``encode_result`` / ``decode_result``;
3. runs every direct job once through ``repro.run_spec`` and replays it as
   ``make_ensemble`` -> ``run`` / ``advance`` -> ``batch_tv_to_exact``,
   reading the engine counters from ``repro.obs.snapshot()``.

Every replay must reproduce the bits of the op it replays.  Layer times
are self times (see ``fold.py``); unless stated, a time is the mean per
occurrence of its span over the sweep.
"""

from __future__ import annotations

import json
import pickle
import statistics
import warnings
from dataclasses import replace

import numpy as np

import fold
from harness import OUT, HealthProber, ServerProcess, torus_coloring
from workloads import (
    ROUNDS,
    SERVED_REPLICAS,
    SWEEP_SCALE,
    ServedMutate,
    coloring_jobs,
    general_jobs,
)

#: Per-layer metric names and units, in report order.
KERNEL_JOBS = (
    "coloring-lm", "coloring-lg", "coloring-glauber", "coloring-mix",
    "hardcore-lg", "ising-lg", "ising-glauber", "domset-lm", "domset-lg",
    "hardcore-lm-fallback", "hardcore-mix",
)
PER_LAYER = [
    ("client.encode_ms", "ms"), ("client.decode_ms", "ms"),
    ("client.request_kb", "kB"), ("client.resubmit_count", "count"),
    ("spec.to_wire_ms", "ms"), ("spec.to_wire_fingerprint_ms", "ms"),
    ("spec.from_wire_ms", "ms"), ("spec.cache_key_ms", "ms"),
    ("model.fingerprint_ms", "ms"), ("model.to_dict_ms", "ms"),
    ("model.from_dict_ms", "ms"), ("model.wire_kb", "kB"), ("model.mutate_ms", "ms"),
    ("server.request_ms", "ms"), ("server.unspanned_share", "ratio"),
    ("server.health_slow_share", "ratio"), ("server.health_lateness_ms", "ms"),
    ("cache.hit_ratio", "ratio"), ("cache.get_ms", "ms"), ("cache.mb", "MB"),
    ("wire.encode_result_ms", "ms"), ("wire.decode_result_ms", "ms"),
    ("wire.result_kb", "kB"),
    ("runner.submit_ms", "ms"), ("runner.queue_wait_ms", "ms"),
    ("runner.job_ms", "ms"), ("runner.spec_pickle_kb", "kB"),
    ("engine.build_ms", "ms"),
    *[(f"kernel.{job}.site_rounds_per_s", "1/s") for job in KERNEL_JOBS],
    *[(f"job.{job}.ms", "ms") for job in KERNEL_JOBS],
    ("kernel.lm.accept_ratio", "ratio"), ("kernel.lg.luby_set_fraction", "ratio"),
    ("estimator.tv_ms", "ms"), ("estimator.probes", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def _counters() -> dict[str, float]:
    """Engine counter totals (summed over label sets) from the obs registry."""
    import repro

    totals: dict[str, float] = {}
    for series in repro.obs.snapshot()["counters"]:
        totals[series["name"]] = totals.get(series["name"], 0.0) + series["value"]
    return totals


def _mean_self_ms(table, name: str) -> float:
    row = table.get(name)
    if row is None or not row["count"]:
        raise KeyError(f"trace has no {name!r} span")
    return 1e3 * row["self_s"] / row["count"]


# ----------------------------------------------------------------------
# served ops and their replays
# ----------------------------------------------------------------------
def _replay_served(spec, served_batch, registry_model, mutate_from=None) -> dict:
    """Replay one served op layer by layer; returns sizes and the bit check.

    ``registry_model`` is the wire model the server holds for a hit by
    fingerprint; a new-model op (``mutate_from`` = (predecessor, edge))
    instead mutates, ships and decodes the full model.
    """
    import repro
    from repro.serialize import model_from_dict, model_to_dict
    from repro.serve import ResultCache
    from repro.serve.wire import decode_result, encode_result

    span = repro.obs.span
    name = "replay.served-mutate" if mutate_from else "replay.served-hit"
    sizes = {}
    with span(name):
        if mutate_from:
            predecessor, edge = mutate_from
            with span("model.mutate"):
                model = predecessor.without_edge(*edge)
            spec = replace(spec, model=model)
            with span("spec.to_wire_fingerprint"):
                fast = spec.to_wire_fingerprint()
            with span("spec.to_wire"):
                spec_payload = spec.to_wire()
            with span("model.to_dict"):
                model_to_dict(model)
        else:
            with span("spec.to_wire_fingerprint"):
                spec_payload = fast = spec.to_wire_fingerprint()
        with span("client.encode"):
            body = json.dumps({"spec": spec_payload, "stream": False})
        sizes["request_kb"] = len(body) / 1e3
        with span("server.json_loads"):
            request = json.loads(body)
        resolved = dict(request["spec"])
        if not mutate_from:
            resolved["model"] = registry_model
        else:
            with span("model.from_dict"):
                model_from_dict(resolved["model"])
        with span("spec.from_wire"):
            decoded = repro.JobSpec.from_wire(resolved)
        with span("model.fingerprint"):
            fingerprint = decoded.model.model_fingerprint()
        with span("spec.cache_key"):
            key = decoded.cache_key()
        cache = ResultCache()
        with span("wire.encode_result"):
            encoded = encode_result("sample_many", served_batch)
        if mutate_from:
            with span("cache.get"):
                cache.get(key)
            with span("runner.spec_pickle"):
                sizes["spec_pickle_kb"] = len(pickle.dumps(decoded)) / 1e3
        cache.put(key, {"kind": "sample_many", "result": encoded}, fingerprint=fingerprint)
        with span("cache.get"):
            hit = cache.get(key)
        with span("server.json_dumps"):
            response = json.dumps({"kind": hit["kind"], "cached": True, "result": hit["result"]})
        with span("client.decode"):
            document = json.loads(response)
        with span("wire.decode_result"):
            batch = decode_result(document["kind"], document["result"])
    sizes["result_kb"] = len(json.dumps(encoded)) / 1e3
    if mutate_from:
        sizes["model_kb"] = len(json.dumps(spec_payload["model"])) / 1e3
        sizes["identity_ok"] = fast["model"]["fingerprint"] == fingerprint
    sizes["bits_ok"] = bool(np.array_equal(batch, served_batch))
    return sizes


def _served_sweep(seed: int, outcome) -> tuple[dict[str, float], str, str]:
    import repro

    bench_trace = OUT / "sweep-served.jsonl"
    server_trace = OUT / "sweep-server.jsonl"
    shape = ServedMutate(seed)  # for its seeds and edge order
    model = torus_coloring(SWEEP_SCALE.side)
    spec = repro.JobSpec.sample_many(
        model, SERVED_REPLICAS, rounds=ROUNDS, seed=shape.spec_seed
    )
    edge = shape.mutation_edges(model)[0]
    mutated = model.without_edge(*edge)
    mutated_spec = replace(spec, model=mutated)
    repro.obs.enable_tracing(bench_trace)
    server = ServerProcess(server_trace)
    try:
        client = server.client
        prober = HealthProber(server.host, server.port).start()
        try:
            cold = client.submit(spec)
            hit = client.submit(spec)
            miss = client.submit(mutated_spec)
            removed = client.invalidate(model)
        finally:
            prober.stop()
        stats = client.stats()
    finally:
        server.close()
        repro.obs.disable_tracing()

    outcome.attempted += 3
    expected = repro.run_spec(spec)
    for op, response, want, cached in (
        ("cold", cold, expected, False),
        ("hit", hit, expected, True),
        ("mutate", miss, repro.run_spec(mutated_spec), False),
    ):
        if response["cached"] != cached or not np.array_equal(response["result"], want):
            outcome.fail(f"sweep-{op}", "served result or cached flag wrong")
    if removed < 1:
        outcome.fail("sweep-mutate", "invalidate removed no entry")

    registry_model = json.loads(json.dumps(spec.to_wire()["model"]))
    repro.obs.enable_tracing(bench_trace)
    try:
        hit_sizes = _replay_served(spec, hit["result"], registry_model)
        mutate_sizes = _replay_served(spec, miss["result"], None, mutate_from=(model, edge))
    finally:
        repro.obs.disable_tracing()
    for op, sizes in (("hit", hit_sizes), ("mutate", mutate_sizes)):
        if not sizes["bits_ok"] or not sizes.get("identity_ok", True):
            outcome.fail(f"replay-{op}", "replay bits differ from the op")

    client_spans = fold.load_spans([bench_trace])
    # cli.serve spans the server's whole life; it is not part of a request.
    server_spans = [
        s for s in fold.load_spans([server_trace]) if s["name"] != "cli.serve"
    ] + [
        s for s in client_spans if s["name"] == "client.request"
    ]
    replay = fold.fold([s for s in client_spans if s["name"] != "client.request"])
    served = fold.fold(server_spans)
    by_id = {s["span_id"]: s for s in server_spans}
    waits = [
        job["start_s"] - (by_id[job["parent_id"]]["start_s"] + by_id[job["parent_id"]]["duration_s"])
        for job in server_spans
        if job["name"] == "runner.job" and job.get("parent_id") in by_id
    ]
    cache = stats["cache"]
    submits = 3  # cold, hit, mutate; any extra POST /v1/jobs was a 409 resubmit
    m = {
        "client.encode_ms": _mean_self_ms(replay, "client.encode"),
        "client.decode_ms": _mean_self_ms(replay, "client.decode"),
        "client.request_kb": (hit_sizes["request_kb"] + mutate_sizes["request_kb"]) / 2,
        "client.resubmit_count": stats["latency"]["count"] - submits,
        "spec.to_wire_ms": _mean_self_ms(replay, "spec.to_wire"),
        "spec.to_wire_fingerprint_ms": _mean_self_ms(replay, "spec.to_wire_fingerprint"),
        "spec.from_wire_ms": _mean_self_ms(replay, "spec.from_wire"),
        "spec.cache_key_ms": _mean_self_ms(replay, "spec.cache_key"),
        "model.fingerprint_ms": _mean_self_ms(replay, "model.fingerprint"),
        "model.to_dict_ms": _mean_self_ms(replay, "model.to_dict"),
        "model.from_dict_ms": _mean_self_ms(replay, "model.from_dict"),
        "model.wire_kb": mutate_sizes["model_kb"],
        "model.mutate_ms": _mean_self_ms(replay, "model.mutate"),
        "server.request_ms": _mean_self_ms(served, "serve.request"),
        "server.unspanned_share": fold.unspanned_share(server_spans),
        "server.health_slow_share": prober.slow_share(),
        "server.health_lateness_ms": 1e3 * statistics.median(prober.lateness),
        "cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "cache.get_ms": _mean_self_ms(replay, "cache.get"),
        "cache.mb": cache["bytes"] / 1e6,
        "wire.encode_result_ms": _mean_self_ms(replay, "wire.encode_result"),
        "wire.decode_result_ms": _mean_self_ms(replay, "wire.decode_result"),
        "wire.result_kb": hit_sizes["result_kb"],
        "runner.submit_ms": _mean_self_ms(served, "runner.submit"),
        "runner.queue_wait_ms": 1e3 * statistics.mean(waits),
        "runner.job_ms": _mean_self_ms(served, "runner.job"),
        "runner.spec_pickle_kb": mutate_sizes["spec_pickle_kb"],
    }
    return m, fold.format_table(server_spans), fold.format_table(
        [s for s in client_spans if s["name"] != "client.request"]
    )


# ----------------------------------------------------------------------
# direct jobs and their replays
# ----------------------------------------------------------------------
def _replay_direct(job, result) -> tuple[bool, int, dict[str, float]]:
    """Replay one direct job; returns (bits equal, TV probes, counter deltas)."""
    import repro
    from repro.analysis import batch_tv_to_exact

    span = repro.obs.span
    spec = job.spec
    before = _counters()
    probes = 0
    with span(f"replay.{job.name}"):
        with span("api.make_ensemble"):
            ensemble = repro.make_ensemble(
                spec.model, spec.replicas, method=spec.method, seed=spec.seed
            )
        if spec.kind == "sample_many":
            with span("chains.run"):
                same = bool(np.array_equal(ensemble.run(spec.rounds), result))
        else:
            with span("analysis.exact"):
                target = repro.exact_gibbs_distribution(spec.model)
            rounds = 0
            while rounds < spec.max_rounds:
                with span("chains.advance"):
                    ensemble.advance(spec.stride)
                rounds += spec.stride
                with span("analysis.tv"):
                    tv = batch_tv_to_exact(ensemble.config, target)
                probes += 1
                if tv <= spec.eps:
                    break
            same = rounds == result
    after = _counters()
    delta = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}
    return same, probes, delta


def _direct_sweep(seed: int, outcome) -> tuple[dict[str, float], str]:
    import repro

    trace = OUT / "sweep-direct.jsonl"
    jobs = coloring_jobs(seed, SWEEP_SCALE) + general_jobs(seed, SWEEP_SCALE)
    m: dict[str, float] = {}
    accepted = proposals = selected = luby_sites = 0.0
    probes = 0
    repro.obs.enable_tracing(trace)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", repro.FallbackEngineWarning)
            for job in jobs:
                with repro.obs.span(f"job.{job.name}"):
                    result = repro.run_spec(job.spec)
                outcome.attempted += 1
                if job.feasible is not None and not job.feasible(result):
                    outcome.fail(f"sweep-{job.name}", "infeasible sample")
                same, job_probes, delta = _replay_direct(job, result)
                if not same:
                    outcome.fail(f"replay-{job.name}", "replay bits differ from the op")
                probes += job_probes
                sites = job.spec.model.n * job.spec.replicas
                seconds = delta.get("repro_engine_seconds_total", 0.0)
                rounds = delta.get("repro_engine_rounds_total", 0.0)
                # Glauber updates one site per replica per round; the
                # distributed chains update all n.
                updates = delta.get("repro_engine_site_updates_total", 0.0) or sites * rounds
                m[f"kernel.{job.name}.site_rounds_per_s"] = updates / seconds
                accepted += delta.get("repro_engine_accepted_total", 0.0)
                proposals += delta.get("repro_engine_proposals_total", 0.0)
                if job.spec.method == "luby-glauber":
                    selected += delta.get("repro_engine_luby_selected_total", 0.0)
                    luby_sites += sites * rounds
    finally:
        repro.obs.disable_tracing()
    spans = fold.load_spans([trace])
    table = fold.fold(spans)
    for job in jobs:
        m[f"job.{job.name}.ms"] = 1e3 * table[f"job.{job.name}"]["total_s"]
    m["engine.build_ms"] = 1e3 * table["api.make_ensemble"]["self_s"]
    m["kernel.lm.accept_ratio"] = accepted / proposals
    m["kernel.lg.luby_set_fraction"] = selected / luby_sites
    m["estimator.tv_ms"] = 1e3 * table["analysis.tv"]["self_s"]
    m["estimator.probes"] = probes
    return m, fold.format_table(
        [s for s in spans if s["name"].startswith(("replay.", "api.", "chains.", "analysis.", "engine."))]
    )


def sweep(seed: int, outcome) -> tuple[dict[str, float], list[str]]:
    """Run the whole layer sweep; returns (per-layer metrics, report tables)."""
    import repro

    OUT.mkdir(exist_ok=True)
    for path in OUT.glob("sweep-*.jsonl"):
        path.unlink()
    repro.obs.enable()
    try:
        served, server_table, replay_table = _served_sweep(seed, outcome)
        direct, direct_table = _direct_sweep(seed, outcome)
    finally:
        repro.obs.disable()
    return {**served, **direct}, [
        "served ops, server side + client.request:\n" + server_table,
        "served replays:\n" + replay_table,
        "direct replays:\n" + direct_table,
    ]
