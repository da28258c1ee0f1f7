"""Parallel execution: sharded ensembles and the sampling-job scheduler.

The sharded execution subsystem (:mod:`repro.exec`) is the repo's
multi-core layer.  This example walks its two faces:

1. **sharded determinism** — ``repro.sample_many(..., parallel=N)``
   splits the replica batch into ``SeedSequence``-seeded shards and runs
   them on N worker processes; the batch is bit-identical for every N
   (including the in-process ``parallel=0`` reference) given the same
   seed;
2. **the job scheduler** — :class:`repro.exec.JobRunner` multiplexes a
   mixed batch of heterogeneous requests (colouring sample batches, a CSP
   TV curve, a mixing-time estimate) onto one shared worker pool,
   streaming per-checkpoint progress while the jobs run; each job's
   result arrives in its own streamed event.

Run:  PYTHONPATH=src python examples/parallel_jobs.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.csp import dominating_set_csp
from repro.exec import JobRunner, JobSpec
from repro.graphs import cycle_graph, torus_graph
from repro.mrf import proper_coloring_mrf


def sharded_determinism_demo() -> None:
    """The same root SeedSequence gives the same batch at any worker count."""
    mrf = proper_coloring_mrf(torus_graph(8, 8), q=8)
    batches = {
        workers: repro.sample_many(
            mrf, 64, rounds=20, seed=np.random.SeedSequence(7), parallel=workers
        )
        for workers in (0, 2, 4)
    }
    reference = batches.pop(0)
    for workers, batch in batches.items():
        same = np.array_equal(reference, batch)
        print(f"parallel={workers}: batch {batch.shape}, bit-identical to "
              f"in-process reference: {same}")


def job_scheduler_demo() -> None:
    """A mixed coloring + CSP job batch on one pool, streamed live."""
    coloring = proper_coloring_mrf(cycle_graph(6), q=3)
    csp = dominating_set_csp(cycle_graph(8))
    jobs = [
        JobSpec.sample_many(coloring, 256, method="local-metropolis",
                                seed=1, name="coloring-batch"),
        JobSpec.sample_many(csp, 128, method="luby-glauber",
                                seed=2, name="dominating-set-batch"),
        JobSpec.tv_curve(csp, (1, 2, 4, 8, 16), method="luby-glauber",
                             replicas=512, seed=3, name="csp-tv-curve"),
        JobSpec.mixing_time(coloring, eps=0.25, replicas=1024,
                                stride=2, max_rounds=500, seed=4,
                                name="coloring-mixing-time"),
    ]
    results = {}  # the runner keeps no outcome: collect each from its event
    with JobRunner(workers=2) as runner:
        ids = {runner.submit(job): job for job in jobs}
        for event in runner.stream():
            if event.kind == "checkpoint":
                print(f"  [{event.label}] round {event.round:>3}: "
                      f"TV = {event.value:.4f}")
            else:
                print(f"  [{event.label}] {event.kind}")
            if event.kind == "result":
                results[event.job_id] = event.payload
    for job_id, job in ids.items():
        result = results[job_id]
        if job.kind == "sample_many":
            print(f"{job.label}: batch {result.shape}")
        elif job.kind == "tv_curve":
            print(f"{job.label}: final TV {result[-1][1]:.4f} "
                  f"after {result[-1][0]} rounds")
        else:
            print(f"{job.label}: tau(0.25) = {result} rounds")


if __name__ == "__main__":
    print("== sharded determinism across worker counts ==")
    sharded_determinism_demo()
    print("\n== mixed job batch on a shared worker pool ==")
    job_scheduler_demo()
