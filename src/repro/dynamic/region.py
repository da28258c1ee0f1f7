"""Influenced regions, region round budgets, and the sequential oracle.

A graph mutation (edge/constraint insert or delete, factor update) changes
the Gibbs conditional of a vertex only through its bounded neighbourhood —
the paper's LOCAL-model locality argument.  :func:`influenced_region`
materialises that argument: the ball of a given radius around the touched
vertices, taken in the *union* of the pre- and post-mutation adjacency (an
edge removal still couples its former endpoints through the boundary
conditions they leave behind).

:func:`region_round_budget` is the formula of
:func:`repro.api.default_round_budget` (:func:`repro.families.round_budget`)
with the region size in place of ``n`` — the point of incremental
resampling is that the warm-started region re-mixes in rounds governed by
``|S|``, not ``n``.  :func:`sequential_region_glauber` is the plain
per-replica reference kernel: the distributional oracle the equivalence
tests compare the batched ``advance_region`` implementations against.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.chains.cftp import _inverse_cdf_spin
from repro.csp.model import LocalCSP
from repro.errors import ModelError
from repro.families import round_budget
from repro.mrf.marginals import conditional_marginal
from repro.mrf.model import MRF

__all__ = [
    "influenced_region",
    "region_round_budget",
    "sequential_region_glauber",
]


def influenced_region(
    old_model: MRF | LocalCSP,
    new_model: MRF | LocalCSP,
    touched: Iterable[int],
    radius: int = 2,
) -> np.ndarray:
    """The radius-``radius`` ball around ``touched`` in the union adjacency.

    ``touched`` is the set of vertices whose incident factors changed (the
    endpoints of an added/removed edge, the scope of an added/removed
    constraint).  The ball is grown breadth-first over the union of the old
    and new conflict edges (an MRF's edges, a CSP's co-scope pairs), so
    both an insertion's new couplings and a deletion's former couplings
    are covered.  Returns a
    sorted int64 vertex array; radius 0 is the touched set itself.
    """
    if old_model.n != new_model.n:
        raise ModelError(
            f"mutation must preserve the vertex set, got n={old_model.n} "
            f"-> n={new_model.n}"
        )
    if radius < 0:
        raise ModelError(f"radius must be >= 0, got {radius}")
    n = old_model.n
    touched = np.asarray([int(v) for v in touched], dtype=np.int64)
    if not touched.size:
        raise ModelError("a mutation must touch at least one vertex")
    if touched.min() < 0 or touched.max() >= n:
        raise ModelError(f"touched vertices must lie in 0..{n - 1}")
    old, new = old_model.compiled(), new_model.compiled()
    ends = np.concatenate([old.conflict_u, old.conflict_v, new.conflict_u, new.conflict_v])
    others = np.concatenate([old.conflict_v, old.conflict_u, new.conflict_v, new.conflict_u])
    region = np.zeros(n, dtype=bool)
    region[touched] = True
    frontier = region.copy()
    for _ in range(radius):
        reached = np.zeros(n, dtype=bool)
        reached[others[frontier[ends]]] = True
        frontier = reached & ~region
        if not frontier.any():
            break
        region |= frontier
    return np.flatnonzero(region)


def region_round_budget(
    model: MRF | LocalCSP, method: str, size: int, eps: float = 0.05
) -> int:
    """Round budget for re-mixing a region of ``size`` vertices.

    ``O(Delta * log(|S| / eps))`` for the distributed methods, whose region
    kernels are the LubyGlauber heat-bath ones, and ``O(|S| * log(|S| /
    eps))`` for ``"glauber"`` (:func:`repro.families.round_budget`).
    """
    size = int(size)
    if size < 1:
        raise ModelError(f"region size must be >= 1, got {size}")
    return round_budget(model, method, size, eps, region=True)


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
