"""E15 — CSP-ensemble throughput: batched engines on a CSP vs per-chain fallback.

The paper's remarks extend LubyGlauber and LocalMetropolis to weighted
local CSPs; until this experiment their only implementations were the
per-vertex Python chains of ``repro.chains.csp_chains``.  The batched
engines (``EnsembleLubyGlauber`` / ``EnsembleLocalMetropolis``, the same
classes that run MRFs) precompile every constraint scope into flat-table offsets plus a
constraint-incidence CSR scatter and advance all R replicas per step with
whole-ensemble array operations.

This experiment measures replica-rounds/sec of both batched engines
against ``SequentialChainEnsemble`` wrapping the sequential CSP chains on
a 3-uniform not-all-equal hypergraph colouring (NAE scopes sliding along a
ring) at R = 256 replicas, and asserts the tentpole acceptance criterion —
>= 20x throughput for both engines at full size.

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes; the 20x assertion is only
enforced at full size.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.analysis.convergence import SequentialChainEnsemble
from repro.chains.csp_chains import LocalMetropolisCSP, LubyGlauberCSP
from repro.chains.ensemble import EnsembleLocalMetropolis, EnsembleLubyGlauber
from repro.csp import not_all_equal_csp

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Best-of-k timing under smoke, as in E12-E14: tiny CI sizes finish in
#: milliseconds where scheduler noise alone can fake a regression.
REPEATS = 3 if SMOKE else 1

N = 12 if SMOKE else 64
Q = 3
REPLICAS = 64 if SMOKE else 256
ROUNDS = 8 if SMOKE else 32
SEED = 20170625

ENGINES = (
    ("luby_glauber", EnsembleLubyGlauber, LubyGlauberCSP),
    ("local_metropolis", EnsembleLocalMetropolis, LocalMetropolisCSP),
)


def _nae_ring():
    scopes = [(i, (i + 1) % N, (i + 2) % N) for i in range(N)]
    return not_all_equal_csp(scopes, n=N, q=Q)


def _throughputs() -> dict[str, float]:
    csp = _nae_ring()
    total_steps = REPLICAS * ROUNDS
    metrics: dict[str, float] = {}
    for name, ensemble_cls, chain_cls in ENGINES:
        best_batched = best_sequential = 0.0
        for _ in range(REPEATS):
            start = time.perf_counter()
            ensemble_cls(csp, REPLICAS, seed=SEED).run(ROUNDS)
            best_batched = max(
                best_batched, total_steps / (time.perf_counter() - start)
            )

            start = time.perf_counter()
            SequentialChainEnsemble(
                lambda rng: chain_cls(csp, seed=rng), REPLICAS, seed=SEED
            ).run(ROUNDS)
            best_sequential = max(
                best_sequential, total_steps / (time.perf_counter() - start)
            )
        metrics[f"csp_{name}_replica_rounds_per_sec"] = best_batched
        metrics[f"csp_{name}_sequential_replica_rounds_per_sec"] = best_sequential
        metrics[f"csp_{name}_speedup"] = best_batched / best_sequential
    return metrics


def test_csp_ensemble_throughput():
    metrics = _throughputs()
    write_bench_json("E15", metrics, smoke=SMOKE)
    lines = [
        f"3-uniform NAE ring (n={N}, q={Q}), R={REPLICAS} replicas,",
        f"{ROUNDS} rounds; replica-rounds/sec per implementation",
        f"{'engine':>18} {'batched':>12} {'per-chain':>12} {'speedup':>9}",
    ]
    for name, _, _ in ENGINES:
        lines.append(
            f"{name:>18} "
            f"{metrics[f'csp_{name}_replica_rounds_per_sec']:>12.3g} "
            f"{metrics[f'csp_{name}_sequential_replica_rounds_per_sec']:>12.3g} "
            f"{metrics[f'csp_{name}_speedup']:>8.1f}x"
        )
    lines += [
        "",
        "claim: the batched engines advance R CSP replicas at >= 20x the",
        "throughput of SequentialChainEnsemble over the sequential chains.",
    ]
    report("E15", "CSP-ensemble throughput (batched vs per-chain)", lines)
    if not SMOKE:
        for name, _, _ in ENGINES:
            speedup = metrics[f"csp_{name}_speedup"]
            assert speedup >= 20.0, (
                f"CSP {name} ensemble speedup {speedup:.1f}x at R={REPLICAS} "
                "is below the 20x acceptance criterion"
            )
