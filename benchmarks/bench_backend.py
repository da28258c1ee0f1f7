"""E18 — array-backend throughput: numpy vs torch-CPU on the hot kernels.

The pluggable backend layer (:mod:`repro.backend`) runs the replica-ensemble
engines through one array-ops interface.  This experiment measures what the
indirection costs (numpy through the shim is the baseline the regression
gate tracks) and what a torch backend buys on an E12-style ensemble
workload: ``EnsembleLocalMetropolisColoring`` on a random 6-regular
colouring instance, replica-rounds/sec.

Metrics are emitted per backend (``numpy`` always; ``torch-cpu`` only when
torch is importable, so the committed torch-less baseline and a torch-equipped
CI run still compare their shared numpy series).  No speedup assertion: torch
CPU is allowed to lose to numpy at these sizes — the series exists to track
both backends over time, not to gate one against the other.

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes.
"""

from __future__ import annotations

import importlib.util
import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.chains.ensemble import EnsembleLocalMetropolisColoring
from repro.graphs import random_regular_graph
from repro.mrf import proper_coloring_mrf

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Best-of-k timing under smoke, as in E12-E15: tiny CI sizes finish in
#: milliseconds where scheduler noise alone can fake a regression.
REPEATS = 3 if SMOKE else 1

DEGREE = 6
Q = 21  # > (2 + sqrt 2) * Delta: inside Theorem 1.2's regime
N = 256 if SMOKE else 4096
REPLICAS = 32 if SMOKE else 256
ENSEMBLE_ROUNDS = 8 if SMOKE else 64
SEED = 20170625

BACKENDS = ["numpy"] + (
    ["torch-cpu"] if importlib.util.find_spec("torch") is not None else []
)


def _metric_key(workload: str, backend: str) -> str:
    return f"{workload}_{backend.replace('-', '_')}_rounds_per_sec"


def backend_throughputs() -> dict[str, float]:
    mrf = proper_coloring_mrf(random_regular_graph(DEGREE, N, seed=SEED), Q)
    metrics: dict[str, float] = {}
    for backend in BACKENDS:
        best = 0.0
        for _ in range(REPEATS):
            start = time.perf_counter()
            EnsembleLocalMetropolisColoring(
                mrf, REPLICAS, seed=SEED, backend=backend
            ).run(ENSEMBLE_ROUNDS)
            elapsed = time.perf_counter() - start
            best = max(best, REPLICAS * ENSEMBLE_ROUNDS / elapsed)
        metrics[_metric_key("ensemble_lm", backend)] = best
    if "torch-cpu" in BACKENDS:
        metrics["ensemble_lm_torch_cpu_vs_numpy"] = (
            metrics[_metric_key("ensemble_lm", "torch-cpu")]
            / metrics[_metric_key("ensemble_lm", "numpy")]
        )
    return metrics


def test_backend_throughput():
    metrics = backend_throughputs()
    write_bench_json("E18", metrics, smoke=SMOKE)
    lines = [
        f"random {DEGREE}-regular graph (n={N}), q={Q} colourings",
        f"ensemble: LocalMetropolis, R={REPLICAS} replicas, {ENSEMBLE_ROUNDS} rounds "
        "(replica-rounds/sec)",
        f"{'backend':>10} {'ensemble-LM':>13}",
    ]
    for backend in BACKENDS:
        lines.append(
            f"{backend:>10} {metrics[_metric_key('ensemble_lm', backend)]:>13.3g}"
        )
    if "torch-cpu" not in BACKENDS:
        lines.append("(torch not installed — numpy series only)")
    lines += [
        "",
        "claim: the engines run unchanged on any registered array backend;",
        "numpy through the shim is the bit-identical reference the",
        "regression gate tracks, torch series are informational.",
    ]
    report("E18", "array-backend throughput (numpy vs torch-CPU)", lines)
    for name, value in metrics.items():
        assert value > 0.0, f"metric {name} should be positive, got {value}"
