"""E21 — observability overhead: the probes must be (near-)free.

Times the E12 ensemble workload (:class:`EnsembleLocalMetropolisColoring`
on a random regular graph) twice in one process:

* **probes disabled** (the default state) — hot loops pay exactly one
  module-flag branch per ``advance``.  The committed
  ``baselines/BENCH_E21.json`` pins this series to the pre-observability
  E12 throughput, and CI re-checks it with
  ``REPRO_BENCH_TOLERANCE=0.03`` — i.e. *instrumented-but-disabled code
  must stay within 3% of the code before instrumentation existed*;
* **probes enabled** (metrics + per-advance spans' bookkeeping, no trace
  file) — asserted in-test to keep >= 90% of the disabled throughput
  (full size only; smoke timings are too short to be meaningful).

Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.chains.ensemble import EnsembleLocalMetropolisColoring
from repro.graphs import random_regular_graph
from repro.mrf import proper_coloring_mrf
from repro.obs import metrics as obs_metrics

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def _throughput(mrf, n, replicas, rounds, repeats) -> float:
    """Best-of-``repeats`` vertex-updates/sec, engine construction included."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ensemble = EnsembleLocalMetropolisColoring(mrf, replicas, seed=0)
        ensemble.run(rounds)
        best = min(best, time.perf_counter() - start)
    return replicas * n * rounds / best


def overhead_series() -> tuple[list[str], dict[str, float]]:
    # Sizes and rounds replicate E12's ensemble series exactly, so the
    # disabled number here is measured the same way as the committed
    # pre-instrumentation baseline it is gated against.
    if SMOKE:
        n, degree, q, replicas, rounds, repeats = 128, 6, 24, 32, 4, 5
    else:
        n, degree, q, replicas, rounds, repeats = 1000, 10, 40, 256, 16, 3
    mrf = proper_coloring_mrf(random_regular_graph(degree, n, seed=20170301), q)

    obs_metrics.disable()
    obs_metrics.reset()
    try:
        disabled_ups = _throughput(mrf, n, replicas, rounds, repeats)
        obs_metrics.enable()
        enabled_ups = _throughput(mrf, n, replicas, rounds, repeats)
        recorded = {
            c["name"] for c in obs_metrics.snapshot()["counters"]
        }
    finally:
        obs_metrics.disable()
        obs_metrics.reset()
    assert "repro_engine_rounds_total" in recorded  # probes actually fired

    ratio = enabled_ups / disabled_ups
    lines = [
        f"random {degree}-regular graph, n={n}, q={q}, R={replicas}, "
        f"{rounds} rounds (best of {repeats})",
        f"{'probes':>10} {'updates/sec':>12}",
        f"{'disabled':>10} {disabled_ups:>12.3g}",
        f"{'enabled':>10} {enabled_ups:>12.3g}",
        f"enabled/disabled throughput ratio: {ratio:.3f}",
    ]
    metrics = {
        "ensemble_updates_per_sec": disabled_ups,
        "enabled_updates_per_sec": enabled_ups,
        "enabled_over_disabled": ratio,
    }
    return lines, metrics


def test_obs_overhead():
    lines, metrics = overhead_series()
    write_bench_json("E21", metrics, smoke=SMOKE)
    report(
        "E21",
        "observability probe overhead on the E12 ensemble workload",
        lines
        + [
            "",
            "claim: the repro.obs engine probes cost one branch per advance",
            "when disabled (<= 3% vs the pre-instrumentation baseline, CI-",
            "gated) and stay within 10% of disabled throughput when enabled.",
        ],
    )
    if not SMOKE:
        ratio = metrics["enabled_over_disabled"]
        assert ratio >= 0.90, (
            f"enabled probes cost {(1 - ratio) * 100:.1f}% throughput, "
            "over the 10% budget"
        )
