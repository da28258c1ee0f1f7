""":class:`DynamicEnsemble` — mutate the model, resample only the region.

The wrapper owns a replica-ensemble engine (dispatched through
:func:`repro.api.make_ensemble`, so every engine family is covered) plus
the mutation workflow around it:

1. a mutation (``add_edge`` / ``remove_edge`` / ``update_factor`` for
   MRFs, ``add_constraint`` / ``remove_constraint`` for CSPs) derives the
   new model through the copy-on-write API of the model classes — the
   ``model_fingerprint`` re-derives automatically, which is what keys
   serve-layer cache invalidation;
2. the influenced region (:func:`repro.dynamic.region.influenced_region`)
   is accumulated into a pending set, and the engine is rebuilt on the new
   model *warm-started from the current batch* with the same RNG stream —
   so the whole trajectory stays a pure function of the seed and the
   operation sequence (bit-identical for a fixed ``SeedSequence``);
3. ``resample()`` re-mixes only the pending region with the boundary
   clamped, through the engine's batched ``advance_region``, for a round
   budget governed by ``|region|`` rather than ``n``.

The incremental claim — region resampling is distributionally equivalent
to a full re-run on the mutated model — is validated per engine family by
the statutils equivalence suite in ``tests/test_dynamic.py``.
"""

from __future__ import annotations

import numpy as np

from repro.api import default_round_budget, make_ensemble
from repro.backend import ArrayBackend
from repro.chains.base import SeedLike, as_generator
from repro.csp.model import Constraint, LocalCSP
from repro.dynamic.region import influenced_region, region_round_budget
from repro.errors import ModelError
from repro.mrf.model import MRF
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

__all__ = ["DynamicEnsemble"]


class DynamicEnsemble:
    """A replica ensemble over a *mutable* model with incremental resampling.

    Parameters
    ----------
    model:
        The initial :class:`~repro.mrf.model.MRF` or
        :class:`~repro.csp.model.LocalCSP`.
    replicas:
        Number of independent replicas R.
    method:
        Engine method, as in :func:`repro.api.make_ensemble`.
    eps:
        Accuracy target of the default mixing and region round budgets.
    radius:
        Influence radius: mutations mark the ball of this radius around
        the touched vertices (in the union of old and new adjacency) for
        resampling.  Larger radii trade work for fidelity; radius 0
        resamples the touched vertices only.
    seed:
        Seed for the single RNG stream (int, ``SeedSequence``, Generator
        or ``None``).  The whole trajectory — including every engine
        rebuild after a mutation — is bit-identical for a fixed
        ``SeedSequence`` and operation sequence.
    backend:
        Array backend for the batched kernels (:mod:`repro.backend`).
    """

    def __init__(
        self,
        model: MRF | LocalCSP,
        replicas: int,
        method: str = "luby-glauber",
        eps: float = 0.05,
        radius: int = 2,
        seed: SeedLike = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        if radius < 0:
            raise ModelError(f"radius must be >= 0, got {radius}")
        self.model = model
        self.replicas = int(replicas)
        self.method = method
        self.eps = float(eps)
        self.radius = int(radius)
        self.backend = backend
        self.rng = as_generator(seed)
        self._engine = make_ensemble(
            model, self.replicas, method=method, seed=self.rng, backend=backend
        )
        self._pending: set[int] = set()
        self.mutations = 0
        self.resamples = 0

    # ------------------------------------------------------------------
    # batch views
    # ------------------------------------------------------------------
    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 copy — safe to mutate)."""
        return self._engine.config

    @property
    def pending_region(self) -> np.ndarray:
        """Vertices marked for resampling by mutations since the last
        :meth:`resample`, as a sorted int64 array (possibly empty)."""
        return np.asarray(sorted(self._pending), dtype=np.int64)

    @property
    def engine(self):
        """The current underlying replica-ensemble engine (rebuilt on mutation)."""
        return self._engine

    @property
    def steps_taken(self) -> int:
        """Steps taken by the *current* engine (resets on mutation rebuilds)."""
        return self._engine.steps_taken

    def model_fingerprint(self) -> str:
        """Content fingerprint of the *current* model (changes on mutation)."""
        return self.model.model_fingerprint()

    # ------------------------------------------------------------------
    # full-model advancement
    # ------------------------------------------------------------------
    def mix(self, rounds: int | None = None) -> DynamicEnsemble:
        """Advance the full model by ``rounds`` (default: the method's budget)."""
        if rounds is None:
            rounds = default_round_budget(self.model, self.method, self.eps)
        self._engine.advance(rounds)
        return self

    def advance(self, steps: int) -> DynamicEnsemble:
        """Advance all replicas ``steps`` full-model rounds."""
        self._engine.advance(steps)
        return self

    def run(self, steps: int) -> np.ndarray:
        """Advance ``steps`` full-model rounds; return the ``(R, n)`` batch."""
        return self.advance(steps).config

    # ------------------------------------------------------------------
    # mutations (MRF)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, activity=None) -> DynamicEnsemble:
        """Add edge ``{u, v}``; mark its influence ball for resampling.

        ``activity`` may be omitted when every existing edge shares one
        activity matrix (the homogeneous case — colourings, Ising,
        hardcore), which the new edge then reuses.
        """
        model = self._require_mrf("add_edge")
        if activity is None:
            activity = self._shared_edge_activity()
        return self._mutate(model.with_edge(u, v, activity), (u, v))

    def remove_edge(self, u: int, v: int) -> DynamicEnsemble:
        """Remove edge ``{u, v}``; mark its influence ball for resampling."""
        model = self._require_mrf("remove_edge")
        return self._mutate(model.without_edge(u, v), (u, v))

    def update_factor(self, u: int, v: int, activity) -> DynamicEnsemble:
        """Replace the activity matrix on existing edge ``{u, v}``."""
        model = self._require_mrf("update_factor")
        return self._mutate(model.with_edge_activity(u, v, activity), (u, v))

    # ------------------------------------------------------------------
    # mutations (CSP)
    # ------------------------------------------------------------------
    def add_constraint(self, constraint: Constraint) -> DynamicEnsemble:
        """Append ``constraint``; mark its scope's influence ball."""
        model = self._require_csp("add_constraint")
        return self._mutate(model.with_constraint(constraint), constraint.scope)

    def remove_constraint(self, index: int) -> DynamicEnsemble:
        """Remove constraint ``index``; mark its scope's influence ball."""
        model = self._require_csp("remove_constraint")
        index = int(index)
        if not (0 <= index < len(model.constraints)):
            raise ModelError(
                f"constraint index {index} outside "
                f"0..{len(model.constraints) - 1}"
            )
        touched = model.constraints[index].scope
        return self._mutate(model.without_constraint(index), touched)

    # ------------------------------------------------------------------
    # incremental resampling
    # ------------------------------------------------------------------
    def resample(self, rounds: int | None = None) -> DynamicEnsemble:
        """Re-mix the pending region with the boundary clamped; clear it.

        ``rounds`` defaults to :func:`~repro.dynamic.region.region_round_budget`
        for the pending region's size — O(log |S|)-shaped for the
        distributed methods instead of the O(log n)-shaped full budget.
        A no-op when no mutation is pending.
        """
        if not self._pending:
            return self
        region = self.pending_region
        if rounds is None:
            rounds = region_round_budget(
                self.model, self.method, int(region.size), self.eps
            )
        with _obs_trace.span(
            "dynamic.resample",
            engine=type(self._engine).__name__,
            region=int(region.size),
            rounds=int(rounds),
        ):
            self._engine.advance_region(rounds, region)
        if _obs_metrics.enabled:
            _obs_metrics.inc("repro_dynamic_resamples_total")
            _obs_metrics.observe("repro_dynamic_region_size", int(region.size))
            _obs_metrics.observe("repro_dynamic_region_rounds", int(rounds))
        self._pending.clear()
        self.resamples += 1
        return self

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_mrf(self, op: str) -> MRF:
        if not isinstance(self.model, MRF):
            raise ModelError(f"{op} applies to MRF models, not LocalCSP")
        return self.model

    def _require_csp(self, op: str) -> LocalCSP:
        if not isinstance(self.model, LocalCSP):
            raise ModelError(f"{op} applies to LocalCSP models, not MRF")
        return self.model

    def _shared_edge_activity(self) -> np.ndarray:
        model = self.model
        if not model.edges:
            raise ModelError(
                "add_edge on an edgeless model needs an explicit activity matrix"
            )
        first = model.edge_activity(*model.edges[0])
        if any(
            model.edge_activity(u, v) is not first
            and not np.array_equal(model.edge_activity(u, v), first)
            for u, v in model.edges[1:]
        ):
            raise ModelError(
                "model has heterogeneous edge activities; pass the new "
                "edge's activity matrix explicitly"
            )
        return first

    def _mutate(self, new_model, touched) -> DynamicEnsemble:
        region = influenced_region(
            self.model, new_model, touched, radius=self.radius
        )
        self._pending.update(int(v) for v in region)
        self.model = new_model
        # Rebuild on the new model, warm-started from the current batch.
        # The Generator object is shared, so the RNG stream carries over and
        # the trajectory stays deterministic across rebuilds.
        self._engine = make_ensemble(
            new_model,
            self.replicas,
            method=self.method,
            seed=self.rng,
            initial=self._engine.config,
            backend=self.backend,
        )
        self.mutations += 1
        if _obs_metrics.enabled:
            _obs_metrics.inc("repro_dynamic_mutations_total")
        return self
