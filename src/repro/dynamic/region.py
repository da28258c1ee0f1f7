"""Influenced regions, region round budgets, and the sequential oracle.

A graph mutation (edge/constraint insert or delete, factor update) changes
the Gibbs conditional of a vertex only through its bounded neighbourhood —
the paper's LOCAL-model locality argument.  :func:`influenced_region`
materialises that argument: the ball of a given radius around the touched
vertices, taken in the *union* of the pre- and post-mutation adjacency (an
edge removal still couples its former endpoints through the boundary
conditions they leave behind).

:func:`region_round_budget` mirrors :func:`repro.api.default_round_budget`
with the region size in place of ``n`` — the point of incremental
resampling is that the warm-started region re-mixes in rounds governed by
``|S|``, not ``n``.  :func:`sequential_region_glauber` is the plain
per-replica reference kernel: the distributional oracle the equivalence
tests compare the batched ``advance_region`` implementations against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.api import _BUDGET_CONSTANT, METHODS, model_degree
from repro.chains.cftp import _inverse_cdf_spin
from repro.csp.hypergraph import csp_neighbors
from repro.csp.model import LocalCSP
from repro.errors import ModelError
from repro.mrf.marginals import conditional_marginal
from repro.mrf.model import MRF

__all__ = [
    "influenced_region",
    "region_round_budget",
    "sequential_region_glauber",
]


def _adjacency(model: MRF | LocalCSP) -> list[set[int]]:
    """Neighbour sets of a model: graph adjacency (MRF) or co-scope (CSP)."""
    if isinstance(model, LocalCSP):
        return csp_neighbors(model)
    return [set(model.neighbors(v)) for v in range(model.n)]


def influenced_region(
    old_model: MRF | LocalCSP,
    new_model: MRF | LocalCSP,
    touched: Iterable[int],
    radius: int = 2,
) -> np.ndarray:
    """The radius-``radius`` ball around ``touched`` in the union adjacency.

    ``touched`` is the set of vertices whose incident factors changed (the
    endpoints of an added/removed edge, the scope of an added/removed
    constraint).  The ball is grown over the union of the old and new
    neighbourhood structures, so both an insertion's new couplings and a
    deletion's former couplings are covered.  Returns a sorted int64
    vertex array; radius 0 is the touched set itself.
    """
    if old_model.n != new_model.n:
        raise ModelError(
            f"mutation must preserve the vertex set, got n={old_model.n} "
            f"-> n={new_model.n}"
        )
    if radius < 0:
        raise ModelError(f"radius must be >= 0, got {radius}")
    n = old_model.n
    frontier = {int(v) for v in touched}
    if not frontier:
        raise ModelError("a mutation must touch at least one vertex")
    if any(v < 0 or v >= n for v in frontier):
        raise ModelError(f"touched vertices must lie in 0..{n - 1}")
    old_adj = _adjacency(old_model)
    new_adj = _adjacency(new_model)
    region = set(frontier)
    for _ in range(radius):
        frontier = {
            u
            for v in frontier
            for u in old_adj[v] | new_adj[v]
            if u not in region
        }
        if not frontier:
            break
        region.update(frontier)
    return np.asarray(sorted(region), dtype=np.int64)


def region_round_budget(
    model: MRF | LocalCSP, method: str, size: int, eps: float = 0.05
) -> int:
    """Round budget for re-mixing a region of ``size`` vertices.

    The region kernels are the heat-bath ones — per-round LubyGlauber over
    the region for the distributed methods (a clamped LocalMetropolis
    round has no stationarity guarantee, so ``"local-metropolis"`` shares
    the LubyGlauber budget), single-site Glauber for ``"glauber"`` — so
    the shapes mirror :func:`repro.api.default_round_budget` with ``|S|``
    in place of ``n``:

    * distributed methods: ``O(Delta * log(|S| / eps))``;
    * ``glauber``:         ``O(|S| * log(|S| / eps))``.
    """
    if not 0.0 < eps < 1.0:
        raise ModelError(f"eps must be in (0, 1), got {eps}")
    size = int(size)
    if size < 1:
        raise ModelError(f"region size must be >= 1, got {size}")
    clamped = max(size, 2)
    log_term = math.log(clamped / eps)
    if method == "glauber":
        scale = float(clamped)
    elif method in ("local-metropolis", "luby-glauber"):
        scale = model_degree(model) + 1.0
    else:
        raise ModelError(f"unknown method {method!r}; choose from {METHODS}")
    return max(1, int(math.ceil(_BUDGET_CONSTANT * scale * log_term)))


def sequential_region_glauber(
    model: MRF | LocalCSP,
    batch: np.ndarray,
    region: Iterable[int],
    steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Region-restricted single-site Glauber on an ``(R, n)`` batch, in place.

    One step resamples, in every replica, one uniformly chosen *region*
    vertex from its exact conditional marginal given everything else —
    the plain-Python reference law of the batched region kernels, and the
    distributional oracle of the equivalence tests.  Spins are drawn by
    :func:`~repro.chains.cftp._inverse_cdf_spin`, so a zero-mass spin is
    never drawn.  Returns ``batch``.
    """
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != model.n:
        raise ModelError(
            f"batch must have shape (R, {model.n}), got {batch.shape}"
        )
    region = np.asarray(sorted(int(v) for v in region), dtype=np.int64)
    if region.size == 0:
        raise ModelError("region must contain at least one vertex")
    if region[0] < 0 or region[-1] >= model.n:
        raise ModelError(f"region vertices must lie in 0..{model.n - 1}")
    replicas = batch.shape[0]
    is_csp = isinstance(model, LocalCSP)
    for _ in range(int(steps)):
        picks = rng.integers(0, region.size, size=replicas)
        for i in range(replicas):
            v = int(region[picks[i]])
            if is_csp:
                marginal = model.conditional_marginal(batch[i], v)
            else:
                marginal = conditional_marginal(model, batch[i], v)
            batch[i, v] = _inverse_cdf_spin(marginal, rng.random())
    return batch
