"""CSP ensembles: batched sampling beyond MRFs.

The paper's remarks after Algorithms 1-2 extend both distributed chains
from MRFs to *weighted local CSPs* — dominating sets, maximal independent
sets, hypergraph colourings.  This example shows the batched way to run
them:

1. every facade call (``repro.sample_many``, ``repro.tv_curve``,
   ``repro.make_ensemble``) accepts a :class:`repro.LocalCSP` directly and
   dispatches to the batched engines of :mod:`repro.chains.ensemble`, the
   same classes that run MRFs;
2. an ensemble-native TV-decay curve against the exact CSP Gibbs measure
   of a small dominating-set instance;
3. a throughput comparison against advancing the same replicas one
   sequential CSP chain at a time (the full-size version, with the >= 20x
   acceptance gate, lives in ``benchmarks/bench_csp_ensemble.py``).

Run:  PYTHONPATH=src python examples/csp_ensemble.py
"""

from __future__ import annotations

import time

import repro
from repro.analysis.convergence import SequentialChainEnsemble
from repro.chains.csp_chains import LocalMetropolisCSP
from repro.chains.ensemble import EnsembleLocalMetropolis
from repro.csp import dominating_set_csp, not_all_equal_csp
from repro.graphs import cycle_graph, path_graph


def batched_csp_sampling_demo() -> None:
    """sample_many on a hypergraph colouring: one (R, n) batch, one call."""
    n = 30
    scopes = [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    csp = not_all_equal_csp(scopes, n=n, q=3)
    batch = repro.sample_many(csp, r=64, method="luby-glauber", seed=1)
    feasible = sum(csp.is_feasible(row) for row in batch)
    print(f"sample_many on 3-uniform NAE ring: batch {batch.shape}, "
          f"{feasible}/64 replicas feasible")


def csp_tv_curve_demo() -> None:
    """Ensemble-native TV decay against the exact CSP Gibbs measure."""
    csp = dominating_set_csp(path_graph(5), weight=2.0)
    print("\nTV(empirical over 2000 replicas, exact CSP Gibbs) on weighted "
          "dominating sets of P5:")
    for rounds, tv in repro.tv_curve(csp, [1, 2, 4, 8, 16, 32], replicas=2000, seed=2):
        print(f"  round {rounds:>2}: TV = {tv:.3f}")


def throughput_demo() -> None:
    """Batched engine vs per-chain fallback at matched work, on a CSP."""
    n, replicas, rounds = 32, 128, 16
    csp = dominating_set_csp(cycle_graph(n))

    start = time.perf_counter()
    EnsembleLocalMetropolis(csp, replicas, seed=3).run(rounds)
    batched = time.perf_counter() - start

    start = time.perf_counter()
    SequentialChainEnsemble(
        lambda rng: LocalMetropolisCSP(csp, seed=rng), replicas, seed=3
    ).run(rounds)
    sequential = time.perf_counter() - start

    print(f"\n{replicas} replicas x {rounds} LocalMetropolis rounds on "
          f"dominating sets of C{n}:")
    print(f"  batched CSP ensemble : {batched:.3f}s")
    print(f"  per-chain fallback   : {sequential:.3f}s  "
          f"({sequential / batched:.1f}x slower)")


if __name__ == "__main__":
    batched_csp_sampling_demo()
    csp_tv_curve_demo()
    throughput_demo()
