"""High-level sampling API.

``sample(model, ...)`` is the one-call entry point: pick an algorithm, run
it for a round budget derived from the paper's bounds (or an explicit
budget), and return the configuration.  ``sample_many(model, r, ...)`` is
its batched sibling: it draws ``r`` independent approximate samples as one
``(r, n)`` batch on the replica-ensemble engines of
:mod:`repro.chains.ensemble`, which cover every model/method pair.
``make_ensemble`` exposes that dispatch directly, and
``tv_curve``/``mixing_time`` build on it to measure convergence
ensemble-natively (see :mod:`repro.analysis.convergence`).

Those three build a :class:`~repro.spec.JobSpec` and run it through
:func:`run_spec`, the one execution body that the job workers also use.

Models are either pairwise :class:`~repro.mrf.model.MRF` instances or
general weighted local CSPs (:class:`~repro.csp.model.LocalCSP`) — the
paper's remarks extend both distributed chains to CSPs, and every facade
function dispatches on the model type through the one table of
:mod:`repro.families`.  The heavy lifting lives in
:mod:`repro.chains`; this facade exists so the examples and downstream
users do not need to assemble chains by hand.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.analysis.convergence import mixing_time_probes, tv_curve_probes
from repro.chains.base import as_generator, as_seed_sequence
from repro.csp.model import LocalCSP, exact_csp_gibbs_distribution
from repro.errors import ModelError
from repro.families import METHODS, dispatch, model_degree, round_budget, validate_method
from repro.mrf.distribution import GibbsDistribution, exact_gibbs_distribution
from repro.mrf.model import MRF
from repro.spec import JobSpec

__all__ = [
    "sample",
    "sample_many",
    "make_ensemble",
    "mutate",
    "resample_region",
    "tv_curve",
    "mixing_time",
    "run_spec",
    "JobSpec",
    "default_round_budget",
    "model_degree",
    "ENGINES",
    "METHODS",
    "MUTATIONS",
]

#: Named copy-on-write mutations accepted by :func:`mutate`, per model kind.
MUTATIONS = {
    "mrf": ("add_edge", "remove_edge", "update_factor", "update_vertex"),
    "csp": ("add_constraint", "remove_constraint"),
}

#: Execution engines for :func:`sample`.  ``"chain"`` runs the sequential
#: chain, the oracle the batched engines are tested against; ``"reference"``
#: executes the genuine LOCAL-model message-passing protocol of
#: :mod:`repro.distributed` on the per-node :mod:`repro.local` runtime.
#: Neither is the fast path: for one sample of LocalMetropolis or
#: LubyGlauber, ``sample_many(model, 1)`` is faster.
ENGINES = ("chain", "reference")


def _exact_distribution(model: MRF | LocalCSP) -> GibbsDistribution:
    """Exact Gibbs distribution of an MRF or CSP model."""
    if isinstance(model, LocalCSP):
        return exact_csp_gibbs_distribution(model)
    return exact_gibbs_distribution(model)


def default_round_budget(model: MRF | LocalCSP, method: str, eps: float) -> int:
    """Heuristic round budget matching each algorithm's theoretical shape.

    * ``local-metropolis``: ``O(log(n / eps))`` (Theorem 1.2);
    * ``luby-glauber``:     ``O(Delta * log(n / eps))`` (Theorem 1.1);
    * ``glauber``:          ``O(n * log(n / eps))`` (Dobrushin bound).

    ``Delta`` is the conflict-graph degree for CSP models.  These are
    heuristics with a fixed leading constant — for certified budgets under
    Dobrushin's condition use
    :meth:`repro.chains.luby_glauber.LubyGlauberChain.rounds_bound` with the
    exact total influence from :func:`repro.mrf.influence.dobrushin_alpha`.
    """
    return round_budget(model, method, model.n, eps)


def sample(
    model: MRF | LocalCSP,
    method: str = "local-metropolis",
    eps: float = 0.05,
    rounds: int | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    initial: np.ndarray | None = None,
    engine: str = "chain",
):
    """Draw one approximate Gibbs sample from ``model``.

    Parameters
    ----------
    model:
        The target model — a pairwise :class:`~repro.mrf.model.MRF` or a
        weighted local CSP (:class:`~repro.csp.model.LocalCSP`).
    method:
        ``"local-metropolis"`` (default), ``"luby-glauber"`` or
        ``"glauber"``.
    eps:
        Target total-variation accuracy used by the default round budget.
    rounds:
        Explicit number of chain iterations; overrides the budget heuristic.
    seed, initial:
        Chain seeding and starting configuration; without ``initial`` the
        run starts at the model's greedy start
        (:func:`~repro.chains.base.start_config`).
    engine:
        ``"chain"`` (default) runs the sequential chain, the oracle of the
        batched engines; ``"reference"`` runs the LOCAL-model
        message-passing protocol on the per-node runtime, for MRFs and
        CSPs alike.  ``"glauber"`` has no LOCAL protocol and only supports
        ``"chain"``.  Neither is the fast path: on a q=16 colouring of the
        16x16 torus, one LocalMetropolis sample takes about 130 ms on the
        chain and 3 ms through ``sample_many(model, 1)``; only Glauber is
        faster sequentially.  For round complexity at scale use
        :func:`sample_many` or :func:`make_ensemble`: each step of those
        engines is one LOCAL round.

    Returns
    -------
    numpy.ndarray
        The sampled configuration (length ``n`` spin array).
    """
    if engine not in ENGINES:
        raise ModelError(f"unknown engine {engine!r}; choose from {ENGINES}")
    row = dispatch(model, method)
    if rounds is None:
        rounds = default_round_budget(model, method, eps)
    if rounds < 0:
        raise ModelError(f"rounds must be >= 0, got {rounds}")
    if engine == "reference":
        # Shared SeedLike coercion: SeedSequence roots pass through to the
        # LOCAL runtime unchanged (so seed=x and seed=SeedSequence(x) run
        # the same protocol execution); a Generator derives one draw.
        config, _ = row.local_runner()(
            model, rounds, seed=as_seed_sequence(seed), initial=initial
        )
        return config
    chain = row.chain(model, initial=initial, seed=seed)
    chain.run(rounds)
    return chain.config.copy()


def make_ensemble(
    model: MRF | LocalCSP,
    r: int,
    method: str = "local-metropolis",
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    initial: np.ndarray | None = None,
    parallel: int | None = None,
    shard_size: int | None = None,
):
    """Build the batched replica-ensemble engine for ``(model, method)``.

    The engine is the ``ensemble`` of the :data:`repro.families.DISPATCH`
    row that :func:`repro.families.dispatch` picks, shared with
    :func:`sample_many` and the convergence layer.  Every returned object
    exposes the same ``advance``/``run``/``config``/``iter_checkpoints``
    protocol, and every in-process engine the region-restricted
    ``advance_region``.

    ``initial`` is a length-n configuration, an ``(r, n)`` batch giving
    each replica its own start, or ``None``: the model's greedy start
    (:func:`~repro.chains.base.start_config`, the smallest allowed spin
    per vertex in vertex order) for every replica and every shard.

    ``parallel`` switches to the sharded execution subsystem
    (:mod:`repro.exec`): the batch is split into deterministic shards
    (``shard_size`` replicas each) with ``SeedSequence``-spawned streams
    and executed on ``parallel`` worker processes (``0`` = in-process, the
    bit-identical reference).  The returned
    :class:`~repro.exec.pool.ShardedEnsemble` should be closed (it is a
    context manager) to release its workers; it requires an int or
    :class:`numpy.random.SeedSequence` seed.
    """
    if r < 1:
        raise ModelError(f"ensemble needs r >= 1 replicas, got {r}")
    validate_method(model, method)
    if parallel is not None:
        from repro.exec.pool import ShardedEnsemble

        return ShardedEnsemble(
            model,
            r,
            method=method,
            seed=seed,
            initial=initial,
            workers=parallel,
            shard_size=shard_size,
        )
    if shard_size is not None:
        raise ModelError("shard_size only applies to sharded runs; pass parallel=")
    rng = as_generator(seed)
    return dispatch(model, method).ensemble(model, r, initial=initial, seed=rng)


def sample_many(
    model: MRF | LocalCSP,
    r: int,
    method: str = "local-metropolis",
    eps: float = 0.05,
    rounds: int | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    initial: np.ndarray | None = None,
    parallel: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Draw ``r`` independent approximate Gibbs samples as an ``(r, n)`` batch.

    The batched counterpart of :func:`sample`: all replicas advance
    simultaneously through the batched replica-ensemble engine picked by
    :func:`make_ensemble` (including the CSP engines for
    :class:`~repro.csp.model.LocalCSP` models).

    Parameters
    ----------
    model:
        The target model (MRF or weighted local CSP).
    r:
        Number of independent replicas (rows of the returned batch).
    method, eps, rounds, seed, initial:
        As in :func:`sample`; ``initial`` may additionally be an ``(r, n)``
        batch giving each replica its own starting configuration.
    parallel, shard_size:
        Shard the batch across ``parallel`` worker processes
        (:mod:`repro.exec`); the workers are released before returning.
        Requires an int or ``SeedSequence`` seed, and the result is
        bit-identical for every worker count given the same seed and
        ``shard_size``.

    Returns
    -------
    numpy.ndarray
        An ``(r, n)`` int64 array; row ``i`` is replica ``i``'s sample.
    """
    return JobSpec.sample_many(
        model,
        r,
        method=method,
        eps=eps,
        rounds=rounds,
        seed=seed,
        initial=initial,
        parallel=parallel,
        shard_size=shard_size,
    ).run()


def tv_curve(
    model: MRF | LocalCSP,
    checkpoints: Sequence[int],
    method: str = "local-metropolis",
    replicas: int = 1024,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    initial: np.ndarray | None = None,
    target: GibbsDistribution | None = None,
    parallel: int | None = None,
    shard_size: int | None = None,
) -> list[tuple[int, float]]:
    """Ensemble-native TV-decay curve of ``method`` on ``model``.

    Builds the ensemble via :func:`make_ensemble` and measures the TV
    distance between the ensemble's empirical distribution and the exact
    Gibbs distribution — the CSP Gibbs measure for
    :class:`~repro.csp.model.LocalCSP` models — at each checkpoint.  All
    replicas start at the model's greedy start unless ``initial`` says
    otherwise: the smallest allowed spin per vertex, in vertex order,
    which is not a far start (for hardcore it is the empty set), so a
    mixing estimate from a far start needs ``initial``.  Requires
    ``q**n`` enumerable unless ``target`` is given; the estimate's noise
    floor scales like ``sqrt(q**n / replicas)``.
    ``parallel``/``shard_size`` shard the ensemble across worker processes
    (:mod:`repro.exec`); each checkpoint is one barrier.

    Returns a list of ``(round, tv)`` pairs.
    """
    return JobSpec.tv_curve(
        model,
        checkpoints,
        method=method,
        replicas=replicas,
        seed=seed,
        initial=initial,
        parallel=parallel,
        shard_size=shard_size,
    ).run(target=target)


def mixing_time(
    model: MRF | LocalCSP,
    eps: float = 0.125,
    method: str = "local-metropolis",
    replicas: int = 2048,
    max_rounds: int = 10_000,
    stride: int = 1,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    initial: np.ndarray | None = None,
    target: GibbsDistribution | None = None,
    parallel: int | None = None,
    shard_size: int | None = None,
) -> int:
    """Empirical mixing time ``tau(eps)`` of ``method`` on ``model``.

    The first multiple of ``stride`` (clamped to ``max_rounds``) at which
    the ensemble TV to the exact Gibbs distribution (CSP Gibbs measure for
    :class:`~repro.csp.model.LocalCSP` models) drops to ``eps``.
    Raises :class:`~repro.errors.ConvergenceError` if the budget is
    exhausted.  The same noise-floor caveat as :func:`tv_curve` applies —
    on tiny models prefer :func:`repro.chains.transition.exact_mixing_time`.
    ``parallel``/``shard_size`` shard the ensemble across worker processes
    (:mod:`repro.exec`); each TV probe is one barrier.
    """
    return JobSpec.mixing_time(
        model,
        eps=eps,
        method=method,
        replicas=replicas,
        max_rounds=max_rounds,
        stride=stride,
        seed=seed,
        initial=initial,
        parallel=parallel,
        shard_size=shard_size,
    ).run(target=target)


def mutate(model: MRF | LocalCSP, op: str, *args):
    """Apply a named copy-on-write mutation; return the derived model.

    The string-dispatched twin of the model classes' mutation methods, for
    callers that receive operations as data (the CLI demo, streaming-update
    feeds).  MRF operations: ``add_edge(u, v, activity)``,
    ``remove_edge(u, v)``, ``update_factor(u, v, activity)``,
    ``update_vertex(v, activity)``.  CSP operations:
    ``add_constraint(constraint)``, ``remove_constraint(index)``.  The
    original model is never modified, and the derived model's
    ``model_fingerprint`` reflects the change — which is what keys cache
    invalidation in :mod:`repro.serve`.
    """
    if isinstance(model, LocalCSP):
        operations = {
            "add_constraint": model.with_constraint,
            "remove_constraint": model.without_constraint,
        }
        kind = "csp"
    else:
        operations = {
            "add_edge": model.with_edge,
            "remove_edge": model.without_edge,
            "update_factor": model.with_edge_activity,
            "update_vertex": model.with_vertex_activity,
        }
        kind = "mrf"
    if op not in operations:
        raise ModelError(
            f"unknown {kind} mutation {op!r}; choose from {MUTATIONS[kind]}"
        )
    return operations[op](*args)


def resample_region(
    model: MRF | LocalCSP,
    batch: np.ndarray,
    region,
    rounds: int | None = None,
    method: str = "luby-glauber",
    eps: float = 0.05,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> np.ndarray:
    """Resample ``region`` of an ``(R, n)`` batch under ``model``, boundary clamped.

    The one-shot functional form of incremental resampling: warm-start the
    engine picked by :func:`make_ensemble` from ``batch``, advance only
    ``region`` for ``rounds`` rounds (default: the
    :func:`~repro.dynamic.region.region_round_budget` for the region's
    size), and return the new ``(R, n)`` batch.  Vertices outside
    ``region`` are returned bit-unchanged.  For stateful streaming
    mutation workflows use :class:`repro.dynamic.DynamicEnsemble`, which
    owns the model, the batch and the RNG stream across operations.
    """
    from repro.dynamic.region import region_round_budget

    batch = np.asarray(batch, dtype=np.int64)
    if batch.ndim != 2 or batch.shape[1] != model.n:
        raise ModelError(f"batch must have shape (R, {model.n}), got {batch.shape}")
    # The budget sizes the region the engine runs: each vertex once.
    region = np.unique(np.asarray([int(v) for v in region], dtype=np.int64))
    ensemble = make_ensemble(model, batch.shape[0], method=method, seed=seed, initial=batch)
    if rounds is None:
        rounds = region_round_budget(model, method, int(region.size), eps)
    return ensemble.advance_region(rounds, region).config


def run_spec(
    spec: JobSpec,
    target: GibbsDistribution | None = None,
    on_checkpoint: Callable[[int, float], None] | None = None,
):
    """Execute a :class:`~repro.spec.JobSpec`: the one body for every job kind.

    Every request path runs here — the facade, :meth:`JobSpec.run`, the
    :mod:`repro.exec` job workers (so the :mod:`repro.serve` daemon), the
    sweep runner and the CLI:

    * ``"sample_many"`` returns the ``(r, n)`` sample batch,
    * ``"tv_curve"`` returns the list of ``(round, tv)`` pairs,
    * ``"mixing_time"`` returns the empirical mixing round count.

    ``target`` optionally supplies a pre-computed exact distribution for
    the convergence kinds (a runtime convenience, not part of the spec).
    ``on_checkpoint(round, tv)`` is called at each of their TV probes; an
    exception it raises ends the run there, which is how a job worker
    cancels.  Results are a pure function of the spec — see
    :meth:`repro.spec.JobSpec.cache_key`.
    """
    if not isinstance(spec, JobSpec):
        raise ModelError(f"run_spec needs a JobSpec, got {type(spec).__name__}")
    # What can fail cheaply fails before any sharded worker process starts.
    if spec.kind == "sample_many":
        rounds = spec.rounds
        if rounds is None:
            eps = 0.05 if spec.eps is None else spec.eps
            rounds = default_round_budget(spec.model, spec.method, eps)
    elif target is None:
        target = _exact_distribution(spec.model)
    ensemble = make_ensemble(
        spec.model,
        spec.replicas,
        method=spec.method,
        seed=spec.seed,
        initial=spec.initial,
        parallel=spec.parallel,
        shard_size=spec.shard_size,
    )
    try:
        if spec.kind == "sample_many":
            return ensemble.run(rounds)
        if spec.kind == "tv_curve":
            probes = tv_curve_probes(ensemble, target, spec.checkpoints)
        else:
            probes = mixing_time_probes(ensemble, target, spec.eps, spec.max_rounds, spec.stride)
        curve = []
        for checkpoint, tv in probes:
            if on_checkpoint is not None:
                on_checkpoint(checkpoint, tv)
            curve.append((checkpoint, tv))
        # A mixing-time run's last probe is its first with TV <= eps.
        return curve if spec.kind == "tv_curve" else curve[-1][0]
    finally:
        if spec.parallel is not None:
            ensemble.close()
