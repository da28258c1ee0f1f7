"""Dynamic graphs: streaming model mutations with incremental resampling.

Production workloads mutate — edges and constraints arrive and leave.  The
paper's locality argument says a mutation perturbs the Gibbs measure only
through a bounded neighbourhood, so a warm-started chain needs to re-mix
only the *influenced region* with the rest clamped, not restart from
scratch.  This package implements that workflow:

* :func:`~repro.dynamic.region.influenced_region` — the bounded-radius
  ball around the touched vertices, over the union of pre- and
  post-mutation adjacency;
* :class:`~repro.dynamic.ensemble.DynamicEnsemble` — a mutable-model
  wrapper over the replica-ensemble engines with copy-on-write mutations,
  pending-region accumulation, and region-restricted resampling through
  the engines' batched ``advance_region`` kernels;
* :func:`~repro.dynamic.region.sequential_region_glauber` — the
  per-replica reference kernel (the test oracle);
* :func:`~repro.dynamic.region.region_round_budget` — round budgets
  governed by ``|region|`` instead of ``n``.
"""

from repro.dynamic.ensemble import DynamicEnsemble
from repro.dynamic.region import (
    influenced_region,
    region_round_budget,
    sequential_region_glauber,
)

__all__ = [
    "DynamicEnsemble",
    "influenced_region",
    "region_round_budget",
    "sequential_region_glauber",
]
