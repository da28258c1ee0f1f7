"""E13 — LOCAL-runtime throughput: reference-runtime rounds/sec.

The reference runtime (`engine="reference"`) executes every round as
per-vertex Python dict message passing — the executable *definition* of the
LOCAL model, and the oracle the batched engines are tested against.  This
experiment measures its rounds/sec for both paper protocols (LubyGlauber,
LocalMetropolis) on random 6-regular colouring instances at
n ∈ {1024, 4096, 16384}, so a change that slows the oracle down shows up at
the regression gate.  Round-complexity experiments at scale run on the
replica-ensemble engines (`repro.sample_many`, `repro.make_ensemble`),
where each step is one LOCAL round.

Timings are end-to-end per protocol invocation (private-input slicing
included).  Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.distributed import (
    run_local_metropolis_protocol,
    run_luby_glauber_protocol,
)
from repro.graphs import random_regular_graph
from repro.mrf import proper_coloring_mrf

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Best-of-k timing under smoke: the tiny CI sizes finish in milliseconds,
#: where scheduler noise alone can fake a >30% "regression" at the gate.
#: Full-size runs are long enough to be stable single-shot.
REPEATS = 3 if SMOKE else 1

DEGREE = 6
Q = 21  # > (2 + sqrt 2) * Delta: inside Theorem 1.2's regime
SIZES = (128, 256, 512) if SMOKE else (1024, 4096, 16384)
PROTOCOLS = (
    ("luby-glauber", run_luby_glauber_protocol),
    ("local-metropolis", run_local_metropolis_protocol),
)


def _rounds_per_sec(runner, mrf, rounds: int) -> float:
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        config, stats = runner(mrf, rounds=rounds, seed=20170625)
        elapsed = time.perf_counter() - start
        assert stats.rounds == rounds
        assert stats.messages == rounds * 2 * mrf.graph.number_of_edges()
        assert mrf.is_feasible(config)
        best = max(best, rounds / elapsed)
    return best


def engine_throughput_series() -> tuple[list[str], dict[str, float]]:
    lines = [
        f"random {DEGREE}-regular graphs, q={Q} colourings; reference rounds/sec",
        f"{'protocol':>18} {'n':>7} {'rounds/sec':>11}",
    ]
    metrics: dict[str, float] = {}
    for n in SIZES:
        graph = random_regular_graph(DEGREE, n, seed=20170625)
        mrf = proper_coloring_mrf(graph, Q)
        # Budget sized so each timing takes O(seconds): the runtime pays
        # ~2|E| dict messages per round.
        rounds = 4 if SMOKE else max(3, 300_000 // (n * DEGREE))
        for name, runner in PROTOCOLS:
            rps = _rounds_per_sec(runner, mrf, rounds)
            metrics[f"{name.replace('-', '_')}_reference_rounds_per_sec_n{n}"] = rps
            lines.append(f"{name:>18} {n:>7} {rps:>11.3g}")
    return lines, metrics


def test_local_engine_throughput():
    lines, metrics = engine_throughput_series()
    write_bench_json("E13", metrics, smoke=SMOKE)
    report(
        "E13",
        "LOCAL-runtime throughput (reference runtime)",
        lines
        + [
            "",
            "claim: the per-vertex reference runtime, the LOCAL oracle,",
            "runs both protocols at the rounds/sec above, measuring every",
            "message (2|E| per round); the regression gate holds it there.",
        ],
    )
