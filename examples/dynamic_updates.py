"""Dynamic graphs: mutate the model, resample only the influenced region.

:class:`repro.dynamic.DynamicEnsemble` wraps any replica-ensemble engine
with a mutation workflow.  Edges (MRF) or constraints (CSP) arrive and
leave through the models' copy-on-write API; each mutation marks a
bounded-radius influence ball around the touched vertices, and
``resample()`` re-mixes only that ball with the boundary clamped — an
O(log |S|)-shaped round budget instead of the O(log n) full budget.
This example walks:

1. **MRF updates** — remove / re-add an edge of a torus colouring and
   resample the ~18-vertex influence ball instead of all n vertices;
2. **determinism** — the whole mutate/resample trajectory is a pure
   function of the seed and the operation sequence, bit for bit;
3. **CSP updates** — toggle a constraint of a not-all-equal CSP, with
   feasibility preserved by the clamped region kernel;
4. **serving mutating models** — mutations re-derive
   ``model_fingerprint()``, so the serve-layer cache can never answer a
   mutated model with pre-mutation results; ``/v1/invalidate`` frees the
   stale entries.

The same workflow streams from the CLI:
``python -m repro dynamic --model coloring --graph torus --size 8 --q 8``.

Run:  PYTHONPATH=src python examples/dynamic_updates.py
"""

from __future__ import annotations

import numpy as np

from repro import DynamicEnsemble, JobSpec
from repro.csp import not_all_equal_csp
from repro.graphs import torus_graph
from repro.mrf import proper_coloring_mrf
from repro.serve import ReproServer, ServeClient

SEED = 20170625


def mrf_update_demo() -> None:
    """Single-edge updates on a torus colouring, resampled incrementally."""
    mrf = proper_coloring_mrf(torus_graph(16, 16), q=8)
    dyn = DynamicEnsemble(mrf, replicas=128, method="luby-glauber", seed=SEED)
    dyn.mix()  # the full budget, paid once
    print(f"mixed: n={mrf.n}, engine={type(dyn.engine).__name__}")

    dyn.remove_edge(0, 1)
    region = dyn.pending_region
    print(f"remove_edge(0, 1): region {region.size} of {mrf.n} vertices")
    dyn.resample()

    dyn.add_edge(0, 1)  # homogeneous model: the shared activity is reused
    dyn.resample()
    restored = dyn.model_fingerprint() == mrf.model_fingerprint()
    feasible = sum(1 for row in dyn.config if dyn.model.is_feasible(row))
    print(f"re-added: fingerprint restored={restored}, "
          f"{feasible}/{len(dyn.config)} replicas proper")


def determinism_demo() -> None:
    """The trajectory is a pure function of seed + operation sequence."""
    def trajectory(seed):
        dyn = DynamicEnsemble(
            proper_coloring_mrf(torus_graph(6, 6), 8), 64,
            method="luby-glauber", seed=seed,
        )
        dyn.mix(8)
        dyn.remove_edge(0, 1)
        dyn.resample(16)
        return dyn.config

    replayed = np.array_equal(trajectory(SEED), trajectory(SEED))
    diverged = not np.array_equal(trajectory(SEED), trajectory(SEED + 1))
    print(f"bit-identical replay={replayed}, different seed diverges={diverged}")


def csp_update_demo() -> None:
    """Constraint toggles on a not-all-equal CSP."""
    scopes = [(v, (v + 1) % 12, (v + 2) % 12) for v in range(12)]
    csp = not_all_equal_csp(scopes, n=12, q=3)
    dyn = DynamicEnsemble(csp, replicas=96, method="luby-glauber", seed=SEED)
    dyn.mix()

    tail = dyn.model.constraints[-1]
    dyn.remove_constraint(len(dyn.model.constraints) - 1)
    dyn.resample()
    dyn.add_constraint(tail)
    dyn.resample()
    feasible = sum(1 for row in dyn.config if dyn.model.is_feasible(row))
    print(f"constraint toggled: {feasible}/{len(dyn.config)} replicas feasible, "
          f"mutations={dyn.mutations}")


def serve_mutation_demo() -> None:
    """A mutated model never hits pre-mutation cache entries."""
    mrf = proper_coloring_mrf(torus_graph(4, 4), q=8)
    with ReproServer(workers=1) as server, ServeClient(*server.address) as client:
        spec = JobSpec.sample_many(mrf, 32, rounds=8, seed=SEED)
        client.submit(spec)
        hit = client.submit(spec)  # resubmits via the fingerprint fast path

        from repro import mutate
        mutated = mutate(mrf, "remove_edge", 0, 1)
        after = client.submit(JobSpec.sample_many(mutated, 32, rounds=8, seed=SEED))
        freed = client.invalidate(mrf)  # free the pre-mutation entries
        print(f"pre-mutation hit={hit['cached']}, mutated ran fresh="
              f"{not after['cached']}, invalidated {freed} stale entries")


if __name__ == "__main__":
    mrf_update_demo()
    determinism_demo()
    csp_update_demo()
    serve_mutation_demo()
