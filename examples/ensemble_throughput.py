"""Replica ensembles: batched sampling and ensemble-native estimators.

Every statistical experiment in this reproduction averages over many
independent replicas.  This example shows the batched way to run them:

1. ``repro.sample_many`` draws an (R, n) batch of independent approximate
   samples in one call (R replicas advance simultaneously inside
   :mod:`repro.chains.ensemble`);
2. the ``batch_*`` estimators in :mod:`repro.analysis` consume such
   batches directly — here an empirical-TV-versus-round curve against the
   exact Gibbs distribution of a small model;
3. a throughput comparison against running the same replicas one
   one-replica engine at a time (the tracked ensemble series, E12, lives
   in ``benchmarks/bench_scale_throughput.py``).

Run:  PYTHONPATH=src python examples/ensemble_throughput.py
"""

from __future__ import annotations

import time

import repro
from repro.analysis import batch_agreement, batch_tv_to_exact
from repro.chains.ensemble import EnsembleLocalMetropolisColoring
from repro.graphs import path_graph, random_regular_graph
from repro.mrf import exact_gibbs_distribution, proper_coloring_mrf


def batched_sampling_demo() -> None:
    mrf = proper_coloring_mrf(random_regular_graph(4, 200, seed=0), q=16)
    batch = repro.sample_many(mrf, r=64, method="local-metropolis", eps=0.05, seed=1)
    proper = sum(mrf.is_feasible(row) for row in batch)
    print(f"sample_many: batch shape {batch.shape}, {proper}/64 replicas proper")


def tv_curve_demo() -> None:
    """Empirical TV to the exact Gibbs distribution, round by round."""
    mrf = proper_coloring_mrf(path_graph(3), 4)
    gibbs = exact_gibbs_distribution(mrf)
    replicas = 2000
    ensemble = EnsembleLocalMetropolisColoring(mrf, replicas, seed=2)
    print(f"\nTV(empirical over {replicas} replicas, exact Gibbs) on path3/q4:")
    for round_number in (0, 1, 2, 4, 8, 16, 32):
        while ensemble.steps_taken < round_number:
            ensemble.step()
        tv = batch_tv_to_exact(ensemble.config, gibbs)
        print(f"  round {round_number:>2}: TV = {tv:.3f}")


def agreement_curve_demo() -> None:
    """Two ensembles from opposite starts; mean agreement per round."""
    mrf = proper_coloring_mrf(random_regular_graph(4, 100, seed=3), 16)
    cold = EnsembleLocalMetropolisColoring(mrf, 256, seed=4)
    hot = EnsembleLocalMetropolisColoring(
        mrf, 256, initial=cold.config[:, ::-1].copy(), seed=5
    )
    print("\nmean per-vertex agreement between two independent ensembles:")
    for round_number in (1, 4, 16):
        while cold.steps_taken < round_number:
            cold.step()
            hot.step()
        agreement = batch_agreement(cold.config, hot.config).mean()
        print(f"  round {round_number:>2}: agreement = {agreement:.3f}")
    print("  (~1/q per vertex once both ensembles forget their starts)")


def throughput_demo() -> None:
    mrf = proper_coloring_mrf(random_regular_graph(10, 1000, seed=6), 40)
    replicas, rounds = 256, 16
    start = time.perf_counter()
    for seed in range(replicas):
        EnsembleLocalMetropolisColoring(mrf, 1, seed=seed).run(rounds)
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    EnsembleLocalMetropolisColoring(mrf, replicas, seed=7).run(rounds)
    batched = time.perf_counter() - start
    updates = replicas * mrf.n * rounds
    print(
        f"\nthroughput, {replicas} replicas x {rounds} rounds on n=1000:\n"
        f"  one by one: {sequential:6.2f} s ({updates / sequential:10.3g} updates/s)\n"
        f"  batched:    {batched:6.2f} s ({updates / batched:10.3g} updates/s)\n"
        f"  speedup:    {sequential / batched:.1f}x"
    )


def main() -> None:
    batched_sampling_demo()
    tv_curve_demo()
    agreement_curve_demo()
    throughput_demo()


if __name__ == "__main__":
    main()
