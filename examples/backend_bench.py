"""Array backends: selecting one and timing numpy vs torch.

The replica-ensemble engines run their hot loops through the pluggable
array-ops layer in :mod:`repro.backend`.  This example shows:

1. **Selection** — a backend can be named per call (``backend=`` on
   ``sample_many`` / ``make_ensemble``), per job (``JobSpec.backend``), or
   per process (``$REPRO_BACKEND``); explicit argument wins, then the spec,
   then the environment, then ``numpy``.
2. **Throughput** — a small numpy-vs-torch timing on the ensemble workload
   (the tracked version, E18, lives in ``benchmarks/bench_backend.py``).

Every backend draws its proposals from the engine's single numpy
``Generator``, so runs are seed-for-seed deterministic on any backend; the
numpy backend is additionally *bit-identical* to the pre-backend engines,
torch backends are distributionally equivalent.

Runs fine without torch installed: the torch timing is skipped with a
note, the numpy sections always run.

Run:  PYTHONPATH=src python examples/backend_bench.py
"""

from __future__ import annotations

import importlib.util
import time

import repro
from repro.chains.ensemble import EnsembleLocalMetropolisColoring
from repro.graphs import random_regular_graph
from repro.mrf import proper_coloring_mrf

HAVE_TORCH = importlib.util.find_spec("torch") is not None


def selection_demo() -> None:
    print(f"registered backends: {', '.join(repro.available_backends())}")
    print("selection order: backend= arg > JobSpec.backend > $REPRO_BACKEND > numpy")

    mrf = proper_coloring_mrf(random_regular_graph(4, 60, seed=0), q=16)
    batch = repro.sample_many(mrf, r=8, seed=1, backend="numpy")
    print(f"sample_many(backend='numpy'): batch shape {batch.shape}")

    spec = repro.JobSpec.sample_many(mrf, 8, seed=1)
    torch_spec = repro.JobSpec.sample_many(mrf, 8, seed=1, backend="torch-cpu")
    print(f"cache key, default backend:   {spec.cache_key()[:16]}…")
    print(f"cache key, backend=torch-cpu: {torch_spec.cache_key()[:16]}…")
    print("(None and 'numpy' hash identically to pre-backend specs;")
    print(" any other backend participates in the key)")

    try:
        repro.get_backend("no-such-backend")
    except repro.BackendError as err:
        print(f"unknown names fail loudly: {err}")


def throughput_demo() -> None:
    backends = ["numpy"] + (["torch-cpu"] if HAVE_TORCH else [])
    mrf = proper_coloring_mrf(random_regular_graph(6, 512, seed=4), 21)
    replicas, rounds = 64, 16
    print(f"\nEnsembleLocalMetropolisColoring, n=512, R={replicas}, {rounds} rounds:")
    for backend in backends:
        start = time.perf_counter()
        EnsembleLocalMetropolisColoring(mrf, replicas, seed=5, backend=backend).run(rounds)
        elapsed = time.perf_counter() - start
        print(f"  {backend:>9}: {elapsed:6.2f} s ({replicas * rounds / elapsed:10.3g} replica-rounds/s)")
    if not HAVE_TORCH:
        print("  (torch not installed — numpy only; install with:")
        print("   pip install 'repro-local-sampling[gpu]')")
    print("full tracked comparison: benchmarks/bench_backend.py (E18)")


def main() -> None:
    selection_demo()
    throughput_demo()


if __name__ == "__main__":
    main()
