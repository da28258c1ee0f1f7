"""E11 — large-scale validation: throughput and O(log n) at 10^4+ vertices.

Three series beyond the generic chains' reach:

* **throughput** of the LocalMetropolis colouring engine at one replica
  (rounds/second on a 100x100 torus) — the kernel pytest-benchmark times;
* **coalescence at scale**: the identical-proposal coupling on tori from
  n = 256 to n = 65,536, with the coalescence round count growing like
  log n (Theorem 1.2's shape at sizes where it is unambiguous).  The
  coupling is two same-seed colouring engines started apart ("twins"):
  they draw the same proposals and coins, which is Lemma 4.4's coupling,
  and each replica pair is one trial;
* **ensemble throughput** (E12): vertex-updates/sec of the batched replica
  engine (:mod:`repro.chains.ensemble`) at R ∈ {1, 32, 256} on a 1k-vertex
  random graph — the replica-parallelism headroom every statistical
  experiment inherits.

Set ``REPRO_BENCH_SMOKE=1`` to shrink every series to CI-smoke sizes.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from benchmarks.conftest import report, write_bench_json
from repro.chains.ensemble import EnsembleLocalMetropolisColoring, EnsembleLubyGlauber
from repro.graphs import random_regular_graph, torus_graph
from repro.mrf import proper_coloring_mrf

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def coalescence_at_scale() -> tuple[list[str], dict[int, int]]:
    trials = 3
    lines = [f"{'n (torus, q=18)':>16} {'median coalescence rounds':>26} {'/log2(n)':>9}"]
    medians: dict[int, int] = {}
    for side in (8, 16, 32) if SMOKE else (16, 32, 64, 128, 256):
        n = side * side
        mrf = proper_coloring_mrf(torus_graph(side, side), 18)
        twins = [
            EnsembleLocalMetropolisColoring(mrf, trials, initial=np.full(n, spin), seed=0)
            for spin in (0, 1)
        ]
        coalesced = np.zeros(trials, dtype=np.int64)  # 0 while a pair still differs
        steps = 0
        while not coalesced.all():
            for twin in twins:
                twin.step()
            steps += 1
            agree = (twins[0].config == twins[1].config).all(axis=1)
            coalesced[(coalesced == 0) & agree] = steps
            if steps > 20_000:
                raise RuntimeError("unexpectedly slow coalescence")
        median = int(np.median(coalesced))
        medians[n] = median
        lines.append(f"{n:>16} {median:>26} {median / math.log2(n):>9.2f}")
    return lines, medians


def ensemble_throughput_series() -> tuple[list[str], dict[str, float]]:
    """Vertex-updates/sec of the batched LocalMetropolis colouring ensemble.

    Each timing includes the ensemble construction, so it is end-to-end
    wall time to produce R advanced replicas of the model.
    """
    if SMOKE:
        n, degree, q, rounds, replica_series = 128, 6, 24, 4, (1, 8, 32)
        repeats = 3  # best-of-k: smoke timings are too short to be stable
    else:
        n, degree, q, rounds, replica_series = 1000, 10, 40, 16, (1, 32, 256)
        repeats = 1
    mrf = proper_coloring_mrf(random_regular_graph(degree, n, seed=20170301), q)

    def best_elapsed(work) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - start)
        return best

    lines = [
        f"random {degree}-regular graph, n={n}, q={q}, {rounds} rounds per replica",
        f"{'replicas':>8} {'wall (s)':>9} {'updates/sec':>12}",
    ]
    ensemble_ups = 0.0
    for replicas in replica_series:
        def ensemble_run(replicas=replicas):
            EnsembleLocalMetropolisColoring(mrf, replicas, seed=0).run(rounds)

        elapsed = best_elapsed(ensemble_run)
        ensemble_ups = replicas * n * rounds / elapsed
        lines.append(f"{replicas:>8} {elapsed:>9.3f} {ensemble_ups:>12.3g}")
    return lines, {"ensemble_updates_per_sec": ensemble_ups}


def test_ensemble_throughput():
    lines, metrics = ensemble_throughput_series()
    write_bench_json("E12", metrics, smoke=SMOKE)
    report(
        "E12",
        "batched replica-ensemble throughput (LocalMetropolis)",
        lines
        + [
            "",
            "claim: updates/sec grow with R, because per-round numpy-call",
            "overhead and construction are paid once per ensemble, not once",
            "per replica.",
        ],
    )


def test_e11_scale_and_throughput(benchmark):
    # Throughput kernel: 5 LocalMetropolis rounds on a 100x100 torus.
    mrf = proper_coloring_mrf(torus_graph(20, 20) if SMOKE else torus_graph(100, 100), 16)
    chain = EnsembleLocalMetropolisColoring(mrf, 1, seed=0)

    def kernel():
        chain.run(5)
        return chain.steps_taken

    benchmark(kernel)
    assert chain.is_feasible().all()

    lg = EnsembleLubyGlauber(mrf, 1, seed=1)
    lg.run(5)
    assert lg.is_feasible().all()

    lines, medians = coalescence_at_scale()
    sizes = sorted(medians)
    # 256x growth in n must not blow up the round count super-logarithmically:
    # allow a generous factor over the log ratio.
    log_ratio = math.log2(sizes[-1]) / math.log2(sizes[0])
    assert medians[sizes[-1]] <= 3.0 * log_ratio * max(1, medians[sizes[0]])
    report(
        "E11",
        "large-scale O(log n) and vectorised throughput",
        lines
        + [
            "",
            "paper claim: LocalMetropolis mixes in O(log(n/eps)) rounds.",
            "measured: coalescence rounds of the identical-proposal coupling",
            "(same-seed engine twins) grow ~ log n across 256 -> 65,536",
            "vertices (last column flat);",
            "the vectorised kernel sustains thousands of vertex-updates per ms",
            "(see the pytest-benchmark table).",
        ],
    )
