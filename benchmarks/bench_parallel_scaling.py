"""E16 — parallel scaling: sharded multiprocess ensembles vs single process.

After E12-E15 every replica-ensemble engine is single-process: the
vectorised kernels saturate one core and stop.  The sharded execution
subsystem (``repro.exec``) splits the ``(R, n)`` batch into deterministic
``SeedSequence``-seeded shards and advances them on a persistent pool of
worker processes, each returning its shard rows over its own pipe — the
next throughput multiplier is the core count.

This experiment measures replica-rounds/sec of
``EnsembleLocalMetropolisColoring`` at R = 512 replicas on a 32x32 torus
(q = 8) as a single-process ensemble and as ``ShardedEnsemble`` pools of
1, 2 and 4 workers, and asserts the tentpole acceptance criterion —
>= 2.5x throughput at 4 workers over the single-process engine at full
size (the run must see >= 4 usable cores for the claim to be meaningful;
the assertion is skipped otherwise, exactly like a smoke run).

Pool construction (process startup, one-time pickling of the model) is
excluded from the timed region: the pool is persistent, so that cost
amortises over a convergence pipeline's many advance commands.

``jobs_queued_per_sec_w2`` times the job runner's queued traffic instead:
``JobRunner(workers=2).run_all`` of 200 short ``sample_many`` specs (q = 8
colouring of the 8x8 torus, R = 32, 10 rounds; about 2 ms each), so most
jobs wait queued behind a busy worker and the parent's per-job dispatch
cost shows.  It is reported, not gated: it has no baseline entry.

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes; the 2.5x assertion is
only enforced at full size.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.api import make_ensemble
from repro.exec import JobRunner, JobSpec, ShardedEnsemble
from repro.graphs import torus_graph
from repro.mrf import proper_coloring_mrf

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Best-of-k timing under smoke, as in E12-E15: tiny CI sizes finish in
#: milliseconds where scheduler noise alone can fake a regression.
REPEATS = 3 if SMOKE else 1

SIDE = 16 if SMOKE else 32
Q = 8
REPLICAS = 256 if SMOKE else 512
ROUNDS = 16 if SMOKE else 24
WORKER_COUNTS = (2,) if SMOKE else (1, 2, 4)
SEED = 20170625
QUEUED_JOBS = 200


def _throughputs() -> dict[str, float]:
    model = proper_coloring_mrf(torus_graph(SIDE, SIDE), Q)
    total_steps = REPLICAS * ROUNDS
    metrics: dict[str, float] = {}

    best_single = 0.0
    for _ in range(REPEATS):
        ensemble = make_ensemble(model, REPLICAS, seed=SEED)
        start = time.perf_counter()
        ensemble.run(ROUNDS)
        best_single = max(best_single, total_steps / (time.perf_counter() - start))
    metrics["single_process_replica_rounds_per_sec"] = best_single

    for workers in WORKER_COUNTS:
        best = 0.0
        for _ in range(REPEATS):
            with ShardedEnsemble(model, REPLICAS, seed=SEED, workers=workers) as sharded:
                start = time.perf_counter()
                sharded.run(ROUNDS)
                best = max(best, total_steps / (time.perf_counter() - start))
        metrics[f"parallel_replica_rounds_per_sec_w{workers}"] = best
        if not SMOKE:
            # The speedup ratio divides two milliseconds-scale smoke timings
            # and is far too noisy for the 30% regression gate; at smoke
            # size gate only the raw throughputs (as E12-E15 do) and keep
            # the ratio in the human-readable report.
            metrics[f"parallel_speedup_w{workers}"] = best / best_single
    return metrics


def _queued_jobs_per_sec() -> float:
    """Jobs/s of ``JobRunner(workers=2).run_all`` on QUEUED_JOBS short specs, best of 3."""
    model = proper_coloring_mrf(torus_graph(8, 8), 8)
    specs = [JobSpec.sample_many(model, 32, rounds=10, seed=s) for s in range(QUEUED_JOBS)]
    best = 0.0
    with JobRunner(workers=2) as runner:
        runner.run_all(specs[:20])  # warm-up: worker start-up and first engine builds
        for _ in range(3):
            start = time.perf_counter()
            runner.run_all(specs)
            best = max(best, QUEUED_JOBS / (time.perf_counter() - start))
    return best


def test_parallel_scaling_throughput():
    metrics = _throughputs()
    metrics["jobs_queued_per_sec_w2"] = _queued_jobs_per_sec()
    write_bench_json("E16", metrics, smoke=SMOKE)
    single = metrics["single_process_replica_rounds_per_sec"]
    lines = [
        f"LocalMetropolis colouring on a {SIDE}x{SIDE} torus (q={Q}),",
        f"R={REPLICAS} replicas, {ROUNDS} rounds; replica-rounds/sec",
        f"{'engine':>22} {'rounds/sec':>12} {'speedup':>9}",
        f"{'single-process':>22} {single:>12.3g} {'1.0x':>9}",
    ]
    for workers in WORKER_COUNTS:
        rate = metrics[f"parallel_replica_rounds_per_sec_w{workers}"]
        lines.append(f"{f'sharded w={workers}':>22} {rate:>12.3g} {rate / single:>8.2f}x")
    lines += [
        "",
        f"JobRunner w=2, {QUEUED_JOBS} queued sample_many jobs (8x8 torus, q=8, R=32,",
        f"10 rounds): {metrics['jobs_queued_per_sec_w2']:.0f} jobs/sec (reported, not gated)",
        "",
        "claim: sharding the replica batch across 4 worker processes yields",
        ">= 2.5x the single-process ensemble throughput (needs >= 4 cores).",
    ]
    report("E16", "parallel scaling (sharded multiprocess vs single process)", lines)
    cores = os.cpu_count() or 1
    if not SMOKE and 4 in WORKER_COUNTS and cores >= 4:
        speedup = metrics["parallel_speedup_w4"]
        assert speedup >= 2.5, (
            f"sharded speedup {speedup:.2f}x at 4 workers is below the 2.5x "
            "acceptance criterion"
        )
