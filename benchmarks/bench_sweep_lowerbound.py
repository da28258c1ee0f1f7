"""E19 — batched lower-bound experiments + declarative sweep throughput.

Two measurements behind the lower-bound vectorization:

1. engine speedup — the same gadget phase experiment run as one batched
   ``(R, n)`` ensemble (``EnsembleLubyGlauber`` through the array
   stack) vs the historical one-sequential-chain-per-replica baseline,
   in replica-rounds/sec.  Acceptance criterion: >= 20x at R = 4096
   replicas (full size; smoke runs report without asserting);
2. sweep harness throughput — cells/sec of a small declarative grid
   expanded by ``repro.sweep`` and executed in local mode, covering
   expansion, seed derivation, dedup planning and result summarising.

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.lowerbound import random_bipartite_gadget, sample_gadget_phases
from repro.sweep import expand_grid, run_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
REPEATS = 3 if SMOKE else 1

DELTA = 6
FUGACITY = 2.0
N_SIDE = 16 if SMOKE else 48
K_PORTS = 3
ROUNDS = 10 if SMOKE else 30
BATCHED_REPLICAS = 256 if SMOKE else 4096
SEQUENTIAL_REPLICAS = 16 if SMOKE else 64

SWEEP_CONFIG = {
    "sweep": {
        "name": "bench",
        "kind": "sample_many",
        "base_seed": 20170625,
        "seeds": 2,
        "rounds": 16 if SMOKE else 32,
        "models": [
            {"family": "coloring", "graph": "cycle", "q": 4},
            {"family": "ising", "graph": "path", "beta": 0.4},
        ],
        "axes": {
            "size": [4, 6] if SMOKE else [8, 12],
            "method": ["glauber", "luby-glauber"],
            "replicas": [64 if SMOKE else 256],
        },
    }
}


def _phase_rate(engine: str, replicas: int, gadget) -> float:
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        sample_gadget_phases(
            gadget, FUGACITY, replicas, ROUNDS, seed=9, engine=engine
        )
        elapsed = time.perf_counter() - start
        best = max(best, replicas * ROUNDS / elapsed)
    return best


def test_e19_sweep_lowerbound_throughput():
    gadget = random_bipartite_gadget(N_SIDE, 2 * K_PORTS, DELTA, rng=2)
    batched = _phase_rate("ensemble", BATCHED_REPLICAS, gadget)
    sequential = _phase_rate("sequential", SEQUENTIAL_REPLICAS, gadget)
    speedup = batched / sequential

    best_cells = 0.0
    for _ in range(REPEATS):
        grid = expand_grid(SWEEP_CONFIG)
        start = time.perf_counter()
        result = run_sweep(grid, mode="local", checks=False)
        best_cells = max(best_cells, len(grid) / (time.perf_counter() - start))
    counts = result.counts
    assert counts["error"] == 0

    metrics = {
        "batched_replica_rounds_per_sec": batched,
        "sequential_replica_rounds_per_sec": sequential,
        "sweep_cells_per_sec": best_cells,
    }
    if not SMOKE:
        # The ratio of two smoke-scale timings is too noisy for the 30%
        # regression gate; report it only at full size (as E16 does).
        metrics["batched_vs_sequential_speedup"] = speedup
    write_bench_json("E19", metrics, smoke=SMOKE)
    report(
        "E19",
        "batched lower-bound experiments + declarative sweep throughput",
        [
            f"gadget: n_side={N_SIDE}, Delta={DELTA}, lambda={FUGACITY}, "
            f"{ROUNDS} rounds",
            f"{'engine':>12} {'replicas':>9} {'replica-rounds/sec':>19}",
            f"{'batched':>12} {BATCHED_REPLICAS:>9} {batched:>19.3g}",
            f"{'sequential':>12} {SEQUENTIAL_REPLICAS:>9} {sequential:>19.3g}",
            f"speedup: {speedup:.1f}x (acceptance: >= 20x at R=4096 full size)",
            "",
            f"sweep harness: {counts['total']} cells "
            f"({counts['ok']} ok, {counts['dedup']} dedup) "
            f"at {best_cells:.2f} cells/sec (local mode, checks off)",
        ],
    )
    if not SMOKE:
        assert speedup >= 20.0, (
            f"batched engine speedup {speedup:.1f}x is below the 20x "
            "acceptance criterion"
        )
