"""Batched replica-ensemble engines: advance R independent chains at once.

Every empirical claim in this reproduction (TV decay, marginal error,
agreement curves) averages over hundreds-to-thousands of *independent*
replicas of the same chain.  Running those replicas one sequential chain
object at a time leaves almost all the throughput on the table:
per-round numpy-call overhead dominates once ``n`` is modest, and
per-chain construction (greedy start, edge-array setup) is paid R times.

The ensembles in this module store all replicas in one array and advance
them with single whole-ensemble array operations:

* :class:`EnsembleGlauberDynamics` — batched single-site heat-bath Glauber
  for pairwise MRFs;
* :class:`EnsembleLubyGlauberMRF` — batched Algorithm 1 for pairwise MRFs
  (proper and list colourings, hardcore, Ising): each replica draws its
  own Luby independent set and heat-bath-resamples every selected vertex
  from its exact conditional marginal;
* :class:`EnsembleLocalMetropolisMRF` — batched Algorithm 2 for pairwise
  MRFs: proposals proportional to ``b_v`` from per-vertex palette CDFs,
  the three-factor edge filter read from pass tables, and one coin per
  (edge, replica);
* :class:`EnsembleLocalMetropolisColoring` — batched Algorithm 2 for
  uniform proper q-colourings, the one specialised kernel: uniform
  proposals and the three deterministic colouring rules, no coins;
* :class:`EnsembleLubyGlauberCSP` and :class:`EnsembleLocalMetropolisCSP` —
  the paper's CSP extensions (remarks after Algorithms 1-2) batched over
  replicas: constraints are bucketed by arity, so flat table indices are
  per-bucket scope gathers — no per-vertex or per-constraint Python loop.

Both general LocalMetropolis engines filter through one
:class:`_MetropolisFilter`: a factor's pass probability (the product of
its ``2^k - 1`` normalised values at the mixings of the proposed and
current spins on its scope) is a fixed function of ``2k`` spins, so each
model record tabulates it once per distinct table
(:mod:`repro.compiled`), and a round reads every factor's probability
with one gather per arity bucket; an MRF's edges are one arity-2 bucket.
A bucket whose tables would pass :data:`repro.compiled.MAX_PASS_TABLE`
gathers its factors instead, with the same bits.

The three heat-bath engines (Glauber, LubyGlauber-MRF, LubyGlauber-CSP)
share one kernel.  The conditional weights of all selected (vertex,
replica) pairs are built by one product loop over padded positions —
the ascending neighbours of each vertex, or the constraints containing
it — read from the model's padded tables: at each position a flat gather
of the neighbours' spins (or the constraints' flat indices) and one
``(pairs, q)`` gather of factor rows, multiplied in.  Pad slots read an
all-ones row, so there is no validity mask, slot expansion or segmented
product.  One column-by-column inverse-CDF sampler then draws every
pair's spin.  The same kernel, masked to a vertex region, is the region
advance of every MRF and CSP engine.

Every engine builds from the model's index-array form
(:mod:`repro.compiled`): ``mrf.compiled()`` and ``csp.compiled()`` return
the arrays the model is stored as, and the tables an engine reads beyond
them are derived once per model and memoized, so no engine walks
constraint objects or reads a networkx graph.

Layout and exactness contract
-----------------------------

Publicly an ensemble is an ``(R, n)`` batch: ``config`` returns an
``(R, n)`` int64 numpy array, and ``run(steps)`` returns a fresh
``(R, n)`` copy.  ``initial`` is one start for every replica or an
``(R, n)`` batch; without it every replica starts at the model's greedy
start (:func:`~repro.chains.base.start_config`).  Internally every
batched engine stores the transposed *vertex-major* ``(n, R)`` layout in
the smallest integer dtype that holds ``q``: every per-edge or
per-neighbour operation then gathers contiguous rows, memory-bandwidth
bound rather than Python-overhead bound.  The Luby step compares each
vertex's rank with Δ row gathers from a padded neighbour table
(:class:`_LubySelector`).  The LocalMetropolis accept's
edge-to-vertex "any incident edge failed" reduction stays a sparse
incidence-matrix product: an incidence has no width, so LocalMetropolis
runs models (a star with thousands of leaves) whose padded tables
:data:`repro.compiled.MAX_PADDING` refuses.  The accept itself is integer
arithmetic, not a ``np.where`` select, which is an order of magnitude
slower on int8 spins.

Each replica evolves by exactly the same Markov kernel as the
corresponding sequential chain (same proposal distribution, same filters,
same tie-breaking rules), so replica ``i`` is *distributionally* identical
to a sequential run; the test-suite validates this with exact-stationarity
chi-squared tests and cross-implementation agreement.  Replicas are
mutually independent: all randomness is drawn from one shared RNG stream,
but no value is reused across replicas.  For
:class:`EnsembleGlauberDynamics` the equivalence is even bitwise: with
``replicas=1``, the same seed and the same initial configuration it
reproduces :class:`~repro.chains.glauber.GlauberDynamics` state-for-state.

Seed and stream contract
------------------------

Every engine accepts ``seed`` as an int, a
:class:`numpy.random.SeedSequence`, a ``numpy.random.Generator`` or
``None`` (see :func:`repro.chains.base.as_generator`).  One ensemble owns
exactly *one* PCG64 stream shared by all of its replicas; an int seed and
the ``SeedSequence`` wrapping it build the same stream, so both are
bit-reproducible.  This is the contract the sharded execution subsystem
(:mod:`repro.exec`) is built on: a shard plan spawns one ``SeedSequence``
child per shard and constructs each shard's engine from its child, which
makes the concatenated ``(R, n)`` trajectory a pure function of the root
sequence and the shard partition — *not* of how many OS processes execute
the shards.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from repro.chains.base import as_generator, start_config
from repro.compiled import _padded_rows
from repro.csp.model import LocalCSP
from repro.errors import (
    ConvergenceError, InfeasibleStateError, ModelError, ReproError, StateSpaceTooLargeError
)
from repro.mrf.model import MRF
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.serialize import wire_int

__all__ = [
    "canonical_checkpoints",
    "EnsembleTrajectoryMixin",
    "EnsembleLocalMetropolisColoring",
    "EnsembleGlauberDynamics",
    "EnsembleLubyGlauberMRF",
    "EnsembleLocalMetropolisMRF",
    "EnsembleLubyGlauberCSP",
    "EnsembleLocalMetropolisCSP",
]


def canonical_checkpoints(
    checkpoints: Sequence[int] | None, error: type[ReproError] = ConvergenceError
) -> tuple[int, ...]:
    """The checkpoints as ints; raises ``error`` unless they increase strictly from 1.

    The one checkpoint rule, applied by
    :meth:`EnsembleTrajectoryMixin.iter_checkpoints`, the probe loops of
    :mod:`repro.analysis.convergence` and :class:`~repro.spec.JobSpec`.
    ``2.0`` is accepted; ``1.5``, ``True`` and ``"2"`` are rejected rather
    than coerced (:func:`~repro.serialize.wire_int`).
    """
    values = () if checkpoints is None else tuple(checkpoints)
    if not values:
        raise error("checkpoints must be a non-empty sequence of rounds")
    try:
        rounds = tuple(wire_int(value, "checkpoint") for value in values)
    except TypeError:
        rounds = ()
    if not rounds or any(b <= a for a, b in zip((0, *rounds), rounds)):
        raise error(
            f"checkpoints must be strictly increasing positive integers, got {list(values)!r}"
        )
    return rounds


class EnsembleTrajectoryMixin:
    """Checkpointed advancement shared by every replica-ensemble engine.

    The convergence/diagnostics layer drives ensembles exclusively through
    this protocol: ``advance(steps)`` moves all replicas forward without
    materialising a batch copy, ``run(steps)`` advances and returns the
    fresh ``(R, n)`` batch, and ``iter_checkpoints(checkpoints)`` yields
    ``(round, batch)`` pairs at increasing round counts (measured from the
    ensemble's current position) — the trajectory-recording primitive the
    TV-decay and agreement curves are built on.

    Host classes provide ``step()`` and a ``config`` property returning the
    ``(R, n)`` batch; :meth:`_run_steps` is the one step loop, which a host
    may override to order its work differently.
    """

    def advance(self, steps: int):
        """Advance all replicas ``steps`` rounds; returns ``self`` for chaining."""
        if steps < 0:
            raise ModelError(f"advance needs steps >= 0, got {steps}")
        if not (_obs_metrics.enabled or _obs_trace.enabled):
            self._run_steps(steps)
            return self
        engine = type(self).__name__
        with _obs_trace.span(
            "engine.advance",
            engine=engine,
            steps=int(steps),
            replicas=int(getattr(self, "replicas", 1)),
        ):
            start = perf_counter()
            self._run_steps(steps)
            elapsed = perf_counter() - start
        if _obs_metrics.enabled and steps:
            _obs_metrics.inc("repro_engine_rounds_total", steps, engine=engine)
            _obs_metrics.inc("repro_engine_seconds_total", elapsed, engine=engine)
        return self

    def _run_steps(self, steps: int) -> None:
        """Take ``steps`` rounds: ``step()`` once per round."""
        for _ in range(steps):
            self.step()

    def run(self, steps: int) -> np.ndarray:
        """Advance all replicas ``steps`` rounds; return the ``(R, n)`` batch."""
        return self.advance(steps).config

    def iter_checkpoints(self, checkpoints):
        """Yield ``(round, batch)`` at each checkpoint.

        ``checkpoints`` must be strictly increasing positive integers,
        counted from the ensemble's current position
        (:func:`canonical_checkpoints`); a refused list raises
        :class:`~repro.errors.ModelError` here, before any round runs.  The
        ensemble is left at the last checkpoint.
        """
        rounds = canonical_checkpoints(checkpoints, error=ModelError)
        return (
            (checkpoint, self.advance(checkpoint - previous).config)
            for previous, checkpoint in zip((0, *rounds), rounds)
        )

    def write_batch_into(self, out: np.ndarray) -> np.ndarray:
        """Write the current ``(R, n)`` int64 batch into ``out``; return ``out``.

        The shard-publication hook of the multiprocess execution subsystem:
        :mod:`repro.exec` workers call this after every ``advance`` command
        to publish their shard's block of a ``multiprocessing.shared_memory``
        state array.  Hosts whose internal layout differs from the public
        batch (the vertex-major MRF/CSP engines) override it to write
        straight from internal state instead of materialising the
        intermediate ``config`` copy.
        """
        np.copyto(out, self.config)
        return out


def _uniform_spins(rng: np.random.Generator, q: int, size, dtype: np.dtype) -> np.ndarray:
    """Uniform spins in ``0..q-1`` with shape ``size`` in ``dtype``.

    int8 bounded-integer generation is measurably slower in numpy, so
    sub-16-bit dtypes draw via int16: part of the RNG stream contract.
    """
    if dtype.itemsize < 2:
        return rng.integers(0, q, size=size, dtype=np.int16).astype(dtype)
    return rng.integers(0, q, size=size, dtype=dtype)


def _metropolis_accept(engine, proposals, failed, incidence) -> None:
    """The accept step of every LocalMetropolis engine; ends the round.

    ``failed`` is the ``(factors, R)`` mask of failed checks (edges, or
    constraints) and ``incidence`` the scipy CSR ``(n, factors)`` vertex
    incidence: a vertex takes its ``(n, R)`` proposal iff none of its
    factors failed.  The sparse product counts each vertex's failed
    factors; viewing the mask as uint8 keeps it in integer arithmetic
    without a copy.  The blocked pairs keep their spin through
    ``proposals + (config - proposals) * blocked``, the same integers as a
    ``np.where`` select at a fraction of its cost.  With metrics enabled,
    one count of the blocked mask is the entire overhead of the
    accepted-move probes.
    """
    blocked = (incidence @ failed.view(np.uint8)) > 0
    if _obs_metrics.enabled:
        total = engine.n * engine.replicas
        rejected = int(np.count_nonzero(blocked))
        name = type(engine).__name__
        _obs_metrics.inc("repro_engine_proposals_total", total, engine=name)
        _obs_metrics.inc("repro_engine_accepted_total", total - rejected, engine=name)
    engine._config = proposals + (engine._config - proposals) * blocked
    engine.steps_taken += 1


def _spin_dtype(q: int) -> np.dtype:
    """Smallest signed integer dtype that holds spins ``0..q-1``.

    The ensemble kernels are memory-bound, so halving the element size is a
    direct throughput win.
    """
    if q <= 127:
        return np.dtype(np.int8)
    if q <= 32_767:
        return np.dtype(np.int16)
    return np.dtype(np.int64)


def _as_region(region, n: int) -> np.ndarray:
    """Validate a vertex region into a sorted unique int64 array."""
    vertices = np.unique(np.asarray(sorted(int(v) for v in region), dtype=np.int64))
    if vertices.size == 0:
        raise ModelError("region must contain at least one vertex")
    if vertices[0] < 0 or vertices[-1] >= n:
        raise ModelError(
            f"region vertices must lie in 0..{n - 1}, got "
            f"[{int(vertices[0])}, {int(vertices[-1])}]"
        )
    return vertices


class _LubySelector:
    """The batched Luby step of one graph: i.i.d. ranks, strict local maxima win.

    Every step draws one float32 rank per (vertex, replica) into rows
    ``0..n-1`` of an ``(n + 1, R)`` buffer, and a vertex is selected in a
    replica iff its rank is ``>`` every neighbour's: ties lose on both
    sides, exactly as the sequential kernels, so each column is an
    independent set.  The neighbours are a position-major ``(width, n)``
    table built by :func:`repro.compiled._padded_rows` (so
    :data:`repro.compiled.MAX_PADDING` refuses it before anything is
    allocated); pad slots name the sentinel row ``n``, whose rank ``-1``
    every draw beats.  A step is one rank draw plus ``width`` row gathers
    and comparisons.  A graph without edges selects every vertex and draws
    no ranks.  Shared by the MRF engines (model graph), the CSP engines
    (conflict graph) and :class:`_RegionSelector`.
    """

    def __init__(self, edge_u: np.ndarray, edge_v: np.ndarray, n: int, replicas: int):
        self.n = int(n)
        self.replicas = int(replicas)
        self._neighbours = None
        if not len(edge_u):
            return
        ends = np.concatenate([edge_u, edge_v])
        order = np.argsort(ends, kind="stable")
        others = np.concatenate([edge_v, edge_u])[order]
        (table,) = _padded_rows(ends[order], [others], [self.n], self.n, "Luby neighbour")
        self._neighbours = np.ascontiguousarray(table.T)
        self._ranks = np.full((self.n + 1, self.replicas), -1.0, dtype=np.float32)

    def select(self, rng: np.random.Generator) -> np.ndarray:
        """One Luby step: the ``(n, R)`` boolean mask of selected pairs."""
        if self._neighbours is None:
            return np.ones((self.n, self.replicas), dtype=bool)
        ranks = self._ranks
        own = ranks[: self.n]
        rng.random(dtype=np.float32, out=own)
        selected = own > np.take(ranks, self._neighbours[0], axis=0)
        for neighbours in self._neighbours[1:]:
            selected &= own > np.take(ranks, neighbours, axis=0)
        return selected

    def select_pairs(self, rng: np.random.Generator):
        """One Luby step: the selected ``(v_idx, r_idx)`` pairs, vertex-major.

        The order of a 2-D ``np.nonzero`` of the mask, from the flat indices:
        a floor division and a subtraction take half the time of
        ``np.divmod``.
        """
        flat = np.flatnonzero(self.select(rng))
        v_idx = flat // self.replicas
        return v_idx, flat - v_idx * self.replicas


class _RegionSelector(_LubySelector):
    """The Luby step of a vertex region, over its internal edges.

    Restricting the Luby step to the *region-internal* edges is exact:
    heat-bath updates preserve the conditional Gibbs distribution given
    the clamped complement for any state-independently selected set that
    is independent *within itself*, and two region vertices are adjacent
    iff the connecting edge has both endpoints in the region.  Ranks are
    drawn only for region vertices (``(|S|, R)`` instead of ``(n, R)``),
    so a region step costs O(|S|·R) — the whole point of incremental
    resampling.
    """

    def __init__(
        self, region: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray, n: int, replicas: int
    ):
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[region] = np.arange(region.size, dtype=np.int64)
        internal = (local_of[edge_u] >= 0) & (local_of[edge_v] >= 0)
        super().__init__(
            local_of[edge_u[internal]], local_of[edge_v[internal]], region.size, replicas
        )
        self.region = region

    def select_pairs(self, rng: np.random.Generator):
        """Luby-select over the region; return global ``(v_idx, r_idx)`` pairs."""
        s_idx, r_idx = super().select_pairs(rng)
        return self.region[s_idx], r_idx


def _edge_incidence(edge_u: np.ndarray, edge_v: np.ndarray, n: int):
    """Scipy CSR matrix of the ``(n, m)`` vertex-edge incidence (None without edges).

    ``incidence @ failed`` counts each vertex's failed incident edges: the
    LocalMetropolis accept reduction.  Sparse matmul is the fastest
    edge-to-vertex scatter available from numpy land —
    ``np.logical_or.reduceat`` is ~50x slower on the same data.
    """
    m = len(edge_u)
    if not m:
        return None
    arange = np.arange(m)
    ends = (np.concatenate([edge_u, edge_v]), np.concatenate([arange, arange]))
    return sp.csr_matrix((np.ones(2 * m, dtype=np.int32), ends), shape=(n, m))


def _multiply_factor_rows(weights, factors, indices):
    """The heat-bath product loop: ``weights *= factors[index]`` per position.

    ``weights`` is a fresh ``(pairs, q)`` array holding each pair's own
    factor (``b_v`` for an MRF, ones for a CSP).  ``indices`` yields one
    index array per padded position of the pairs' vertices (ascending
    neighbours, or containing constraints in constraint order); row-gathering
    it from ``factors`` gives the ``(pairs, q)`` factor block of that
    position.  Pad slots gather all-ones rows, so every pair runs through
    the same positions with no mask, and the product is taken left to right
    in position order.
    """
    for index in indices:
        weights *= np.take(factors, index, axis=0)
    return weights


def _heatbath_spins(rng, weights, v_idx, undefined):
    """Inverse-CDF draw of one spin per row of the ``(pairs, q)`` ``weights``.

    The sampler of every heat-bath engine.  One ``random`` call draws a
    uniform ``u`` per pair, in pair order, and each pair takes the number
    of cumulative normalised weights ``<= u``: the smallest spin whose
    cumulative mass exceeds ``u``.  The cumulative sum runs column by
    column, left to right, so its bits equal a row ``cumsum`` and the
    sequential :func:`~repro.chains.glauber.sample_spin`.  Rounding can
    leave the last cumulative entry below 1 and let ``u`` pass every spin;
    such a pair takes its largest positive-mass spin, never a zero-mass
    one (the rule of :func:`repro.chains.cftp._inverse_cdf_spin`).  A pair
    whose weights are all zero raises ``undefined(vertex)``.
    """
    q = int(weights.shape[1])
    totals = np.sum(weights, axis=1)
    if np.any(totals <= 0.0):
        raise undefined(int(v_idx[np.argmax(totals <= 0.0)]))
    uniforms = rng.random(int(weights.shape[0]))
    cdf = weights[:, 0] / totals
    spins = (cdf <= uniforms).astype(np.int64)
    for spin in range(1, q):
        cdf = cdf + weights[:, spin] / totals
        spins += cdf <= uniforms
    past = spins == q
    if np.any(past):
        rows = np.flatnonzero(past)
        positive = np.take(weights, rows, axis=0) > 0.0
        spins[rows] = np.argmax(positive * np.arange(q), axis=1)
    return spins


class _HeatBathEnsemble(EnsembleTrajectoryMixin):
    """State, heat-bath update and region advance of every batched engine.

    ``self._config`` is the vertex-major ``(n, R)`` batch in the smallest
    integer dtype that holds ``q``.  Hosts (the MRF and CSP bases) set what
    their hooks read before calling ``__init__``, and provide
    ``_luby_edges()``, the edges of the graph the Luby step runs on
    (the model graph, or the CSP's conflict graph);
    ``_ensure_heatbath_structures()``, which builds the heat-bath tables
    once; ``_heatbath_weights(v_idx, r_idx)``, the ``(pairs, q)``
    conditional weights of the given (vertex, replica) pairs; and
    ``_undefined_marginal(vertex)``.  Engines provide ``step()``.  The
    Glauber and LubyGlauber engines, whose every step reads the heat-bath
    tables, build them with the engine; the LocalMetropolis engines at
    their first region advance, so a model too uneven for the tables
    (:data:`repro.compiled.MAX_PADDING`) still runs LocalMetropolis.  The
    parameters are those of the public subclasses (module docstring).
    """

    def __init__(
        self,
        model: MRF | LocalCSP,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        self.n = model.n
        self.q = model.q
        self.replicas = int(replicas)
        self._dtype = _spin_dtype(self.q)
        self.rng = as_generator(seed)
        # One start per replica, or one start shared by every replica.
        start = start_config(model, initial, self.replicas)
        if start.ndim == 1:
            start = np.repeat(start[:, None], self.replicas, axis=1)
        else:
            start = start.T
        self._config = np.ascontiguousarray(start, dtype=self._dtype)
        self._heatbath_ready = False
        self.steps_taken = 0

    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 numpy copy — safe to mutate)."""
        return self._config.T.astype(np.int64)

    def write_batch_into(self, out: np.ndarray) -> np.ndarray:
        """Transposed write from the internal vertex-major state, no copy."""
        np.copyto(out, self._config.T)
        return out

    def _heatbath_update(self, v_idx, r_idx) -> None:
        """Heat-bath-resample the given (vertex, replica) pairs in place.

        Each pair's conditioning spins must stay fixed for the whole
        update: the pairs are independent within each replica (strongly
        independent, for a CSP).
        """
        weights = self._heatbath_weights(v_idx, r_idx)
        self._config[v_idx, r_idx] = _heatbath_spins(
            self.rng, weights, v_idx, self._undefined_marginal
        )

    def advance_region(self, steps: int, region) -> _HeatBathEnsemble:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Every round Luby-selects an independent set among the region
        vertices, over the region-internal edges of the Luby graph (so a
        CSP's selection is strongly independent), and heat-bath-resamples
        it from the exact conditional marginals; vertices outside the
        region never change and enter the weights as fixed boundary spins.
        Used by :mod:`repro.dynamic` for incremental resampling.  The
        kernel is this masked LubyGlauber one for the LocalMetropolis
        engines too — a clamped LocalMetropolis round has no stationarity
        guarantee.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        self._ensure_heatbath_structures()
        selector = _RegionSelector(
            _as_region(region, self.n), *self._luby_edges(), self.n, self.replicas
        )
        for _ in range(steps):
            self._heatbath_update(*selector.select_pairs(self.rng))
            self.steps_taken += 1
        return self


class _LubyGlauberRound(_HeatBathEnsemble):
    """The round of both LubyGlauber engines, over their host's Luby graph.

    The heat-bath tables and the :class:`_LubySelector` are built with the
    engine, so a model too uneven for them is refused at build.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ensure_heatbath_structures()
        self._luby = _LubySelector(*self._luby_edges(), self.n, self.replicas)

    def step(self) -> None:
        """One LubyGlauber round: select independent sets, heat-bath-update them in parallel."""
        v_idx, r_idx = self._luby.select_pairs(self.rng)
        if _obs_metrics.enabled:
            # The selected pairs, and the mean independent-set size per replica.
            pairs, name = int(v_idx.shape[0]), type(self).__name__
            _obs_metrics.inc("repro_engine_luby_selected_total", pairs, engine=name)
            _obs_metrics.observe("repro_engine_luby_set_size", pairs / self.replicas, engine=name)
        self._heatbath_update(v_idx, r_idx)
        self.steps_taken += 1


def _in_factor_order(parts, ids, shape: tuple[int, int], dtype) -> np.ndarray:
    """Scatter per-bucket ``(C_k, R)`` results into one ``(C, R)`` array in factor order.

    ``ids`` holds each bucket's factor (constraint or edge) indices.
    """
    if len(parts) == 1:  # one arity: the bucket is every factor, in order
        return parts[0]
    out = np.zeros(shape, dtype=dtype)
    for bucket_ids, part in zip(ids, parts):
        out[bucket_ids] = part
    return out


class _MetropolisFilter:
    """The LocalMetropolis filter of both general engines: each factor's pass probability.

    A factor of arity ``k`` (an MRF edge or a CSP constraint) passes with
    the product of its ``2^k - 1`` max-normalised values at the mixings of
    the proposed and current spins on its scope, multiplied in the record's
    ``mixing_masks`` order.  The filter runs once per arity bucket of the
    record (``compiled.buckets``: an MRF's edges are one arity-2 bucket).

    A bucket with pass tables (``compiled.pass_table``) reads every
    product from them: one int32 code ``sigma * q + X`` per (vertex,
    replica), summed over the scope positions at the table strides
    ``q**(2(k-1-p))`` onto each factor's table start, then one gather.  A
    bucket past :data:`repro.compiled.MAX_PASS_TABLE` gathers its factors
    from ``compiled.flat_norm`` instead, one ``(C_k, R)`` gather per
    mixing in mask order (mixing ``mask`` reads the proposal at the
    positions whose bit is set); :attr:`gather_rows` counts those factors.
    Both paths give the same bits.
    """

    def __init__(self, compiled) -> None:
        q = compiled.q
        self.q = q
        self._count = int(compiled.pass_starts.size)
        self._pass_table = compiled.pass_table
        self._flat_norm = compiled.flat_norm
        self._masks = compiled.mixing_masks
        #: The (factor, mixing) factors of one round's gather path, per replica.
        self.gather_rows = 0
        # Per bucket: (factor ids, (k, C_k) position-major scopes, strides,
        # starts, tabled); on the table path strides and starts address the
        # pass tables and are int32 (every index is under MAX_PASS_TABLE).
        self._buckets = []
        for bucket in compiled.buckets:
            k, ids = bucket.arity, bucket.constraints
            scopes = np.ascontiguousarray(bucket.scopes.T)
            starts = compiled.pass_starts[ids]
            tabled = bool(starts[0] >= 0)
            if tabled:
                strides = ((q * q) ** np.arange(k - 1, -1, -1)).astype(np.int32)
                starts = starts.astype(np.int32)[:, None]
            else:
                strides, starts = bucket.strides[:, None, None], bucket.table_starts[:, None]
                self.gather_rows += ids.size * ((1 << k) - 1)
            self._buckets.append((ids, scopes, strides, starts, tabled))

    def __call__(self, proposals: np.ndarray, config: np.ndarray) -> np.ndarray:
        """The ``(factors, R)`` pass probabilities of the ``(n, R)`` proposals, in factor order."""
        parts, code = [], None
        for _, scopes, strides, starts, tabled in self._buckets:
            if not tabled:
                parts.append(self._gathered(proposals, config, scopes, strides, starts))
                continue
            if code is None:
                code = proposals.astype(np.int32)
                code *= self.q
                code += config
            flat = starts + np.take(code, scopes[0], axis=0) * strides[0]
            for scope, stride in zip(scopes[1:], strides[1:]):
                flat += np.take(code, scope, axis=0) * stride
            # Fancy indexing: np.take is twice as slow with int32 indices.
            parts.append(self._pass_table[flat])
        shape = (self._count, config.shape[1])
        return _in_factor_order(parts, [ids for ids, *_ in self._buckets], shape, float)

    def _gathered(self, proposals, config, scopes, strides, starts):
        """One bucket's pass probabilities from its ``2^k - 1`` factor gathers, in mask order."""
        # The current and the proposed spins' (k, C_k, R) int64 terms of the
        # flat index, each factor's table start added at position 0.
        spins = (config[scopes] * strides, proposals[scopes] * strides)
        for spin in spins:
            spin[0] += starts
        # A mixing's flat index is a low part, over the first half of the
        # positions, plus a high part over the rest; each half holds its part
        # for every sub-mask (bit set: the proposal), built by doubling.
        k = len(scopes)
        low = (k + 1) // 2
        halves = []
        for first, last in ((0, low), (low, k)):
            parts = [spin[first] for spin in spins] if first < last else [0]
            for position in range(first + 1, last):
                parts = [part + spin[position] for spin in spins for part in parts]
            halves.append(parts)
        lows, highs = halves

        def factor(mask):
            return np.take(self._flat_norm, lows[mask & ((1 << low) - 1)] + highs[mask >> low])

        first, *rest = self._masks(k)
        product = factor(first)
        for mask in rest:
            product *= factor(mask)
        return product


class _LocalMetropolisRound(_HeatBathEnsemble):
    """The round of both general LocalMetropolis engines.

    Hosts provide ``_propose()``, the ``(n, R)`` proposals, and set
    ``_filter`` (a :class:`_MetropolisFilter`) and ``_incidence``, the
    ``(n, factors)`` CSR vertex incidence (None without factors).  The
    region advance is the inherited masked LubyGlauber heat-bath; its
    padded tables are built on its first call, so a model too uneven for
    them (:data:`repro.compiled.MAX_PADDING`) still runs full rounds.
    """

    def step(self) -> None:
        """Propose; one coin per (factor, replica) against the filter; accept if clean."""
        proposals = self._propose()
        if self._incidence is None:
            self._config = proposals
            self.steps_taken += 1
            return
        pass_probability = self._filter(proposals, self._config)
        # u < p always holds at p = 1 and never at p = 0, as the sequential
        # chains' deterministic branches.
        failed = self.rng.random(pass_probability.shape) >= pass_probability
        _metropolis_accept(self, proposals, failed, self._incidence)


class _EnsembleMRFBase(_HeatBathEnsemble):
    """Heat-bath weights and structures of the general-MRF engines.

    The conditional weights of paper eq. (2) are read from the model's
    padded neighbour tables (``mrf.compiled()``): one pass per neighbour
    position, up to the maximum degree, each a flat gather of the
    neighbours' spins and a row gather of the matching factor rows.  Pad
    slots read the vertex's own spin through an all-ones table appended
    to the palette, so they multiply by one.  The Luby graph is the model
    graph.
    """

    def __init__(
        self,
        mrf: MRF,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.mrf = mrf
        compiled = mrf.compiled()
        self._vertex_activity = compiled.vertex_activity
        self._eu, self._ev = compiled.edge_u, compiled.edge_v
        super().__init__(mrf, replicas, initial=initial, seed=seed)
        # Replica i's row index: the pairs of a one-vertex-per-replica update.
        self._rows = np.arange(self.replicas)

    def _luby_edges(self) -> tuple[np.ndarray, np.ndarray]:
        return self._eu, self._ev

    def _ensure_heatbath_structures(self) -> None:
        """The padded neighbour offsets and factor rows of the heat-bath kernel."""
        if self._heatbath_ready:
            return
        compiled = self.mrf.compiled()
        # Row t * q + s is column s of palette table t: the factors
        # A_uv(c, s) over c of a neighbour u in spin s.  Table P, one past
        # the palette, is all ones: the table of every pad slot.
        tables = np.concatenate([compiled.palette, np.ones((1, self.q, self.q))])
        self._factor_rows = np.ascontiguousarray(tables.transpose(0, 2, 1)).reshape(-1, self.q)
        # Row k holds, per vertex, the flat offset u * R of its k-th
        # neighbour's spins in the (n, R) batch and the first factor row
        # t * q of that edge's table.
        self._neighbour_offsets = (
            np.ascontiguousarray(compiled.padded_neighbours.T) * self.replicas
        )
        self._table_offsets = np.ascontiguousarray(compiled.padded_tables.T) * self.q
        self._heatbath_ready = True

    def is_feasible(self) -> np.ndarray:
        """Per-replica feasibility mask, shape ``(R,)``: the support of mu.

        A replica is feasible iff the activity ``b_v`` of every spin and the
        factor ``A_uv`` of every edge are positive: one gather over the
        compiled arrays per check, so, unlike a weight product, many tiny
        factors cannot underflow to "infeasible".
        """
        compiled = self.mrf.compiled()
        config = self._config.astype(np.int64)
        feasible = np.all(np.take_along_axis(compiled.vertex_activity, config, axis=1) > 0, axis=0)
        if compiled.m:
            factors = compiled.palette[
                compiled.edge_table[:, None], config[self._eu], config[self._ev]
            ]
            feasible &= np.all(factors > 0, axis=0)
        return feasible

    def _heatbath_weights(self, v_idx, r_idx):
        """Weights ``b_v(c) * prod_u A_uv(c, X_u)`` of eq. (2), one row per pair.

        Multiplied in the sequential oracle's order, ``((b_v * A_1) * A_2)
        ...`` over ascending neighbours, so each row equals
        :func:`~repro.mrf.marginals.conditional_marginal_unnormalized` bit
        for bit.  Requires :meth:`_ensure_heatbath_structures`.
        """
        indices = (
            np.take(tables, v_idx)
            + np.take(self._config, np.take(neighbours, v_idx) + r_idx)
            for neighbours, tables in zip(self._neighbour_offsets, self._table_offsets)
        )
        weights = np.take(self._vertex_activity, v_idx, axis=0)
        return _multiply_factor_rows(weights, self._factor_rows, indices)

    def _undefined_marginal(self, vertex: int) -> InfeasibleStateError:
        return InfeasibleStateError(
            f"conditional marginal at vertex {vertex} is undefined: all {self.q} "
            "spins have zero weight given the neighbours' spins"
        )


class EnsembleGlauberDynamics(_EnsembleMRFBase):
    """Batched single-site heat-bath Glauber for general pairwise MRFs.

    One step advances *each* replica by one single-site update: every
    replica independently picks a uniform vertex and resamples it from the
    conditional marginal of paper eq. (2).  All R conditional weight
    vectors go through the shared padded-neighbour heat-bath kernel (one
    vectorised pass per neighbour position, bounded by the maximum degree)
    and one vectorised inverse-CDF — no per-replica Python loop.

    With ``replicas=1`` this consumes the RNG stream in exactly the same
    order as :class:`repro.chains.glauber.GlauberDynamics` and reproduces
    it bitwise (same seed, same initial configuration) — the strongest form
    of the ensemble-vs-sequential exactness contract.
    """

    def __init__(
        self,
        mrf: MRF,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        super().__init__(mrf, replicas, initial=initial, seed=seed)
        self._ensure_heatbath_structures()

    def step(self) -> None:
        """One single-site heat-bath update in every replica."""
        vertices = self.rng.integers(self.n, size=self.replicas)
        if _obs_metrics.enabled:
            _obs_metrics.inc(
                "repro_engine_site_updates_total", self.replicas, engine=type(self).__name__
            )
        self._heatbath_update(vertices, self._rows)
        self.steps_taken += 1

    def advance_region(self, steps: int, region) -> EnsembleGlauberDynamics:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Each round every replica heat-bath-updates one uniformly chosen
        *region* vertex; the complement never changes and enters the
        conditional weights as fixed boundary spins.  Used by
        :mod:`repro.dynamic` for incremental resampling.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        region = _as_region(region, self.n)
        for _ in range(steps):
            picks = self.rng.integers(int(region.size), size=self.replicas)
            self._heatbath_update(region[picks], self._rows)
            self.steps_taken += 1
        return self


class EnsembleLubyGlauberMRF(_LubyGlauberRound, _EnsembleMRFBase):
    """Batched Algorithm 1 (LubyGlauber) for *general* pairwise MRFs.

    Every selected (replica, vertex) pair is heat-bath-resampled from its
    exact conditional marginal (paper eq. (2)), so one batched kernel
    covers proper and list colourings, hardcore and Ising models — any
    pairwise MRF.

    One step advances all R replicas by one LubyGlauber round: each
    replica draws its own Luby independent set, then the conditional
    weight vectors of *all* selected pairs are assembled at once by the
    heat-bath kernel shared with :class:`EnsembleGlauberDynamics`: one
    pass per padded neighbour position gathers the neighbours' current
    spins and the matching rows of the deduplicated edge-activity stack
    and multiplies them in.  Sampling is the shared vectorised
    inverse-CDF, with the largest-positive-mass fallthrough rule.

    Each replica evolves by exactly the same Markov kernel as the
    sequential :class:`~repro.chains.luby_glauber.LubyGlauberChain` (same
    Luby selection law, same heat-bath conditional), so the ensemble is
    distributionally identical to independent sequential runs.
    """


class EnsembleLocalMetropolisMRF(_LocalMetropolisRound, _EnsembleMRFBase):
    """Batched Algorithm 2 (LocalMetropolis) for *general* pairwise MRFs.

    One step advances all R replicas by one round, exactly as the
    sequential :class:`~repro.chains.local_metropolis.LocalMetropolisChain`:

    * every (vertex, replica) pair proposes a spin with probability
      proportional to ``b_v``: one uniform ``u`` per pair, in vertex-major
      order, and the spin is the number of entries ``<= u`` of the CDF of
      ``v``'s vertex-palette row, built once with the bits of
      :func:`_heatbath_spins` and its largest-positive-mass fallthrough, so
      a zero-mass spin is never proposed;
    * every (edge, replica) pair passes with probability
      ``Ã(sigma_u, sigma_v) * Ã(X_u, sigma_v) * Ã(sigma_u, X_v)``, where
      ``Ã = A / max A``: the arity-2 case of the CSP filter
      (:class:`_MetropolisFilter`), one pass-table gather, against one coin;
    * a vertex accepts iff every incident edge passed.
    """

    def __init__(
        self,
        mrf: MRF,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        super().__init__(mrf, replicas, initial=initial, seed=seed)
        compiled = mrf.compiled()
        self._filter = _MetropolisFilter(compiled)
        self._incidence = _edge_incidence(self._eu, self._ev, self.n)
        # Each palette row's CDF, divided and summed column by column as
        # _heatbath_spins does, and its largest positive-mass spin; then per
        # vertex, as q columns of shape (n, 1) against the (n, R) uniforms.
        # Every row total is positive: the MRF constructor refuses a vertex
        # whose activities are all zero.
        palette, vertex = compiled.vertex_palette, compiled.vertex_index
        cdf = np.cumsum(palette / np.sum(palette, axis=1, keepdims=True), axis=1)
        self._cdf_columns = np.ascontiguousarray(cdf[vertex].T)[:, :, None]
        last = np.argmax((palette > 0.0) * np.arange(self.q), axis=1)
        self._last_positive = last[vertex, None].astype(self._dtype)

    def _propose(self) -> np.ndarray:
        """The ``(n, R)`` proposals, each spin drawn with probability proportional to ``b_v``."""
        uniforms = self.rng.random(self.n * self.replicas).reshape(self.n, self.replicas)
        spins = np.zeros((self.n, self.replicas), dtype=self._dtype)
        for column in self._cdf_columns:
            spins += column <= uniforms
        # Rounding can leave a CDF's last entry below 1 and let u pass it.
        past = spins == self.q
        if np.any(past):
            spins[past] = np.broadcast_to(self._last_positive, spins.shape)[past]
        return spins


class EnsembleLocalMetropolisColoring(_EnsembleMRFBase):
    """Batched Algorithm 2 for uniform proper q-colourings.

    The one specialised kernel: for ``A_e = J - I`` every filter is
    deterministic given the proposals, so a step draws no coin and no
    ``b_v`` weights.  Every (replica, vertex) pair proposes a uniform
    colour, every (replica, edge) pair applies the three filtering rules
    of Section 4.2, and a vertex accepts iff none of its incident edges
    failed.  :func:`repro.api.make_ensemble` picks it for LocalMetropolis
    on a model whose compiled form is a uniform colouring
    (:attr:`~repro.compiled.CompiledMRF.is_uniform_coloring`); any other
    model raises :class:`~repro.errors.ModelError`.

    The region advance is the inherited masked LubyGlauber heat-bath.
    """

    def __init__(
        self,
        mrf: MRF,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        if not mrf.compiled().is_uniform_coloring:
            raise ModelError(
                f"{type(self).__name__} needs a uniform proper colouring "
                "(A_e a positive multiple of J - I, constant b_v); use "
                "EnsembleLocalMetropolisMRF for other models"
            )
        super().__init__(mrf, replicas, initial=initial, seed=seed)
        self._incidence = _edge_incidence(self._eu, self._ev, self.n)

    def step(self) -> None:
        """Uniform proposals; the three colouring rules per edge; accept if clean."""
        proposals = _uniform_spins(self.rng, self.q, (self.n, self.replicas), self._dtype)
        if self._incidence is None:
            self._config = proposals
            self.steps_taken += 1
            return
        pu = proposals[self._eu]
        pv = proposals[self._ev]
        xu = self._config[self._eu]
        xv = self._config[self._ev]
        failed = (pu == pv) | (pu == xv) | (pv == xu)
        _metropolis_accept(self, proposals, failed, self._incidence)


# ----------------------------------------------------------------------
# CSP ensembles: batched extensions of Algorithms 1-2 to weighted local
# CSPs (the remarks after both algorithms).
# ----------------------------------------------------------------------
class _EnsembleCSPBase(_HeatBathEnsemble):
    """Shared structure for the batched CSP chains, read from ``csp.compiled()``.

    The model's distinct constraint tables are concatenated into one flat
    array addressed by per-constraint offsets, and the constraints are
    bucketed by arity (:class:`~repro.compiled.CompiledCSP`).  Within a
    bucket of arity ``k`` every scope is a row of one ``(C_k, k)`` index
    array, so gathering the ``(n, R)`` spin batch at the scopes and
    weighting each position by its row-major stride gives the flat index
    of every ``f_c(sigma|_{S_c})`` — gathers and integer arithmetic, no
    per-constraint Python loop.  The Luby graph is the conflict graph, so
    every selected set is strongly independent.
    """

    def __init__(
        self,
        csp: LocalCSP,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.csp = csp
        compiled = csp.compiled()
        self._num_constraints = compiled.num_constraints
        # Per arity bucket k: (k, constraint ids, (k, C_k) position-major
        # scopes, (k, 1, 1) strides, (C_k, 1) table starts).  Gathering an
        # (n, R) batch at the scopes gives (k, C_k, R): one contiguous
        # (C_k, R) plane per scope position.
        self._buckets = [
            (
                bucket.arity,
                bucket.constraints,
                np.ascontiguousarray(bucket.scopes.T),
                bucket.strides[:, None, None],
                bucket.table_starts[:, None],
            )
            for bucket in compiled.buckets
        ]
        self._spin_arange = np.arange(csp.q)
        super().__init__(csp, replicas, initial=initial, seed=seed)

    def _luby_edges(self) -> tuple[np.ndarray, np.ndarray]:
        compiled = self.csp.compiled()
        return compiled.conflict_u, compiled.conflict_v

    # ------------------------------------------------------------------
    # batch views and diagnostics
    # ------------------------------------------------------------------
    def _scope_flat_indices(self, batch):
        """Flat row-major index of every scope restriction, shape ``(C, R)``.

        ``result[c, i]`` addresses ``f_c(batch|_{S_c})`` for replica ``i``
        inside the flattened table stack (relative to the constraint's
        table start).
        """
        return _in_factor_order(
            [np.sum(batch[scopes] * strides, axis=0) for _, _, scopes, strides, _ in self._buckets],
            [ids for _, ids, _, _, _ in self._buckets],
            (self._num_constraints, self.replicas),
            np.int64,
        )

    def is_feasible(self) -> np.ndarray:
        """Per-replica feasibility mask, shape ``(R,)``: every factor is positive."""
        if not self._num_constraints:
            return np.ones(self.replicas, dtype=bool)
        compiled = self.csp.compiled()
        flat = self._scope_flat_indices(self._config)
        values = compiled.flat_raw[compiled.table_starts[:, None] + flat]
        return np.all(values > 0.0, axis=0)

    # ------------------------------------------------------------------
    # heat-bath machinery (LubyGlauber step and region-restricted advance)
    # ------------------------------------------------------------------
    def _ensure_heatbath_structures(self) -> None:
        """The padded (constraint, stride) incidence of the heat-bath weights."""
        if self._heatbath_ready:
            return
        compiled = self.csp.compiled()
        # Row k holds, per vertex, for its k-th containing constraint c: the
        # flat offset c * R of c's row in the (C + 1, R) flat-index buffer,
        # the start of c's table among the factors, and the stride of the
        # vertex's axis in it.  Pad slots name the extra constraint C: a
        # zero buffer row, a start at the factor 1.0 appended to the raw
        # tables and stride 0, so they read a factor of one.
        constraints = np.ascontiguousarray(compiled.padded_constraints.T)
        starts = np.append(compiled.table_starts, compiled.flat_raw.size)
        self._incidence_offsets = constraints * self.replicas
        self._incidence_starts = starts[constraints]
        self._incidence_strides = np.ascontiguousarray(compiled.padded_strides.T)
        self._factors = np.append(compiled.flat_raw, 1.0)
        self._flat = np.zeros((self._num_constraints + 1, self.replicas), dtype=np.int64)
        self._heatbath_ready = True

    def _heatbath_weights(self, v_idx, r_idx):
        """Weights ``prod_c f_c(sigma with v -> s)`` over spins ``s``, one row per pair.

        Multiplied in constraint order from ones, so each row equals the
        unnormalised weights of
        :meth:`~repro.csp.model.LocalCSP.conditional_marginal` bit for bit.
        The pairs must be strongly independent within each replica (no two
        share a constraint scope), so every co-scoped vertex is fixed
        conditioning.  Requires :meth:`_ensure_heatbath_structures`.
        """
        self._flat[:-1] = self._scope_flat_indices(self._config)
        current = np.take(self._config, v_idx * self.replicas + r_idx)

        def indices():
            for offsets, starts, strides in zip(
                self._incidence_offsets, self._incidence_starts, self._incidence_strides
            ):
                # f_c's flat index with v's axis at spin 0, then one entry
                # per candidate spin of v.
                stride = np.take(strides, v_idx)
                base = (
                    np.take(starts, v_idx)
                    + np.take(self._flat, np.take(offsets, v_idx) + r_idx)
                    - current * stride
                )
                yield base[:, None] + stride[:, None] * self._spin_arange

        weights = np.ones((int(v_idx.shape[0]), self.q))
        return _multiply_factor_rows(weights, self._factors, indices())

    def _undefined_marginal(self, vertex: int) -> ModelError:
        return ModelError(
            f"CSP conditional marginal at vertex {vertex} is undefined (zero mass)"
        )


class EnsembleLubyGlauberCSP(_LubyGlauberRound, _EnsembleCSPBase):
    """Batched LubyGlauber on a weighted local CSP (remark after Algorithm 1).

    One step advances all R replicas by one round: each replica draws its
    own Luby independent set *of the CSP's conflict graph* (so the selected
    set is strongly independent in the constraint hypergraph), then every
    selected (replica, vertex) pair heat-bath-resamples from its
    conditional marginal.  The marginal weights of *all* selected pairs are
    assembled at once by the shared heat-bath kernel, one pass per padded
    (constraint, stride) incidence position: a flat gather pulls each
    constraint's current flat index, a second one the ``q`` candidate
    factor values of the pair's vertex, and they are multiplied in — no
    per-vertex Python loop.
    """


class EnsembleLocalMetropolisCSP(_LocalMetropolisRound, _EnsembleCSPBase):
    """Batched LocalMetropolis on a weighted local CSP (remark after Algorithm 2).

    One step advances all R replicas by one round: every (replica, vertex)
    pair proposes a uniform spin; every constraint of arity ``k`` passes
    with probability equal to the product of its ``2^k - 1`` normalised
    factors over the mixings of the proposal vector with the current vector
    on its scope; a vertex accepts iff every incident constraint passed.

    The filter (:class:`_MetropolisFilter`) runs once per arity bucket of
    the compiled model: one code per (vertex, replica), its proposed and
    current spin, summed over every scope addresses the bucket's pass
    tables, and one gather reads every constraint's pass probability.  A
    bucket whose tables would pass :data:`repro.compiled.MAX_PASS_TABLE`
    gathers its ``2^k - 1`` factors instead, with the same bits.  The
    per-constraint coins are shared across the scope exactly as in the
    sequential chain.
    """

    #: Hard cap on the (constraint, mixing) factors of one filter's gather
    #: path, which enumerates 2^arity - 1 mixings per constraint: a
    #: very-high-arity CSP must use the sequential chain instead.
    MAX_MIXING_ROWS = 1_000_000

    def __init__(
        self,
        csp: LocalCSP,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        super().__init__(csp, replicas, initial=initial, seed=seed)
        compiled = csp.compiled()
        self._filter = _MetropolisFilter(compiled)
        total_rows = self._filter.gather_rows
        if total_rows > self.MAX_MIXING_ROWS:
            raise StateSpaceTooLargeError(
                f"LocalMetropolis mixing filter needs {total_rows} factors per "
                f"replica (2^arity - 1 per constraint), over the "
                f"{self.MAX_MIXING_ROWS} cap; use the sequential "
                "LocalMetropolisCSP chain for very-high-arity CSPs"
            )
        self._incidence = None
        if self._num_constraints:
            ones = np.ones(compiled.incidence_constraint.size, dtype=np.int32)
            self._incidence = sp.csr_matrix(
                (ones, compiled.incidence_constraint, compiled.incidence_indptr),
                shape=(csp.n, self._num_constraints),
            )

    def _propose(self) -> np.ndarray:
        """The ``(n, R)`` proposals: uniform spins."""
        return _uniform_spins(self.rng, self.q, (self.n, self.replicas), self._dtype)
