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
function dispatches on the model type.  The heavy lifting lives in
:mod:`repro.chains`; this facade exists so the examples and downstream
users do not need to assemble chains by hand.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.analysis.convergence import mixing_time_probes, tv_curve_probes
from repro.backend import ArrayBackend, get_backend
from repro.chains.base import SeedLike, as_generator, as_seed_sequence
from repro.chains.csp_chains import LocalMetropolisCSP, LubyGlauberCSP
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisCSP,
    EnsembleLocalMetropolisMRF,
    EnsembleLubyGlauberColoring,
    EnsembleLubyGlauberCSP,
    EnsembleLubyGlauberMRF,
)
from repro.chains.glauber import GlauberDynamics
from repro.chains.local_metropolis import LocalMetropolisChain
from repro.chains.luby_glauber import LubyGlauberChain
from repro.csp.hypergraph import csp_neighbors
from repro.csp.model import LocalCSP, exact_csp_gibbs_distribution
from repro.errors import ModelError
from repro.mrf.distribution import GibbsDistribution, exact_gibbs_distribution
from repro.mrf.model import MRF
from repro.spec import METHODS, JobSpec, validate_method

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

#: Execution engines for :func:`sample`.  ``"chain"`` advances a global
#: configuration directly (the analyst's view; fastest for one sample);
#: ``"reference"`` and ``"vectorized"`` execute the genuine LOCAL-model
#: message-passing protocol of :mod:`repro.distributed` on the
#: :mod:`repro.local` runtime — per-node dict semantics vs whole-graph
#: array rounds respectively.
ENGINES = ("chain", "reference", "vectorized")

#: Safety factor applied to the heuristic round budgets.  The paper's
#: theorems give O(.) bounds; the constants here were validated against the
#: exact-mixing experiments (E2/E3) with margin to spare.
_BUDGET_CONSTANT = 8.0


def model_degree(model: MRF | LocalCSP) -> int:
    """Maximum neighbourhood size of a model.

    For MRFs this is the graph degree; for CSPs it is the degree of the
    *conflict graph* — ``Gamma(v)`` counts every co-scoped vertex, the
    neighbourhood both CSP chains operate on.
    """
    if isinstance(model, LocalCSP):
        return max((len(s) for s in csp_neighbors(model)), default=0)
    return int(model.max_degree)


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
    if not 0.0 < eps < 1.0:
        raise ModelError(f"eps must be in (0, 1), got {eps}")
    n = max(model.n, 2)
    log_term = math.log(n / eps)
    if method == "local-metropolis":
        scale = 1.0
    elif method == "luby-glauber":
        scale = model_degree(model) + 1.0
    elif method == "glauber":
        scale = float(n)
    else:
        raise ModelError(f"unknown method {method!r}; choose from {METHODS}")
    return max(1, int(math.ceil(_BUDGET_CONSTANT * scale * log_term)))


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
        Chain seeding and starting configuration.
    engine:
        ``"chain"`` (default) advances a global configuration directly;
        ``"reference"`` / ``"vectorized"`` run the LOCAL-model
        message-passing protocol on the corresponding runtime engine.  The
        two distributed methods support all three engines on MRFs and the
        reference engine on CSPs; ``"glauber"`` has no LOCAL protocol and
        only supports ``"chain"``.

    Returns
    -------
    numpy.ndarray
        The sampled configuration (length ``n`` spin array).
    """
    if engine not in ENGINES:
        raise ModelError(f"unknown engine {engine!r}; choose from {ENGINES}")
    validate_method(model, method)
    if rounds is None:
        rounds = default_round_budget(model, method, eps)
    if isinstance(model, LocalCSP):
        return _sample_csp(model, method, rounds, seed, initial, engine)
    if engine != "chain":
        if method == "glauber":
            raise ModelError(
                "method 'glauber' has no LOCAL-model protocol; use engine='chain'"
            )
        from repro.distributed.sampling_protocols import (
            run_local_metropolis_protocol,
            run_luby_glauber_protocol,
        )

        # Shared SeedLike coercion: SeedSequence roots pass through to the
        # LOCAL runtime unchanged (so seed=x and seed=SeedSequence(x) run
        # the same protocol execution); a Generator derives one draw.
        seed = as_seed_sequence(seed)
        runner = (
            run_local_metropolis_protocol
            if method == "local-metropolis"
            else run_luby_glauber_protocol
        )
        config, _ = runner(model, rounds, seed=seed, initial=initial, engine=engine)
        return config
    if method == "local-metropolis":
        chain = LocalMetropolisChain(model, initial=initial, seed=seed)
    elif method == "luby-glauber":
        chain = LubyGlauberChain(model, initial=initial, seed=seed)
    else:
        chain = GlauberDynamics(model, initial=initial, seed=seed)
    chain.run(rounds)
    return chain.config.copy()


def _sample_csp(
    csp: LocalCSP,
    method: str,
    rounds: int,
    seed,
    initial: np.ndarray | None,
    engine: str,
) -> np.ndarray:
    """CSP branch of :func:`sample`: sequential CSP chains or LOCAL protocol."""
    if engine == "vectorized":
        raise ModelError(
            "CSP protocols run on the reference LOCAL runtime only; use "
            "engine='chain' or engine='reference'"
        )
    if engine == "reference":
        from repro.distributed.csp_protocols import (
            run_local_metropolis_csp_protocol,
            run_luby_glauber_csp_protocol,
        )

        seed = as_seed_sequence(seed)
        runner = (
            run_local_metropolis_csp_protocol
            if method == "local-metropolis"
            else run_luby_glauber_csp_protocol
        )
        config, _ = runner(csp, rounds, seed=seed, initial=initial)
        return config
    chain_cls = LocalMetropolisCSP if method == "local-metropolis" else LubyGlauberCSP
    chain = chain_cls(csp, initial=initial, seed=seed)
    chain.run(rounds)
    return chain.config.copy()


def _uniform_coloring_q(mrf: MRF) -> int | None:
    """Return ``q`` if ``mrf`` is a uniform proper-colouring model, else None.

    Detects the models whose Gibbs distribution is uniform over proper
    q-colourings — every edge matrix is a positive constant times
    ``(J - I)`` and every vertex-activity row is a positive constant —
    which is exactly when the specialised colouring ensembles of
    :mod:`repro.chains.ensemble` apply.  Constant rescalings do not change
    the distribution, so they are accepted.
    """
    # Relative comparisons only (atol=0): activities are scale-free, so a
    # default absolute tolerance would misclassify small-magnitude
    # non-uniform models as uniform colourings.
    activity = mrf.vertex_activity
    if np.any(activity <= 0.0) or not np.allclose(
        activity, activity[:, :1], rtol=1e-9, atol=0.0
    ):
        return None
    off_diagonal = ~np.eye(mrf.q, dtype=bool)
    # The per-edge checks are independent, so edges sharing one frozen
    # matrix object (the homogeneous / copy-on-write case) are checked once.
    seen: set[int] = set()
    for u, v in mrf.edges:
        matrix = mrf.edge_activity(u, v)
        if id(matrix) in seen:
            continue
        if np.any(np.diagonal(matrix) != 0.0):
            return None
        off = matrix[off_diagonal]
        if np.any(off <= 0.0) or not np.allclose(off, off[0], rtol=1e-9, atol=0.0):
            return None
        seen.add(id(matrix))
    return mrf.q


def make_ensemble(
    model: MRF | LocalCSP,
    r: int,
    method: str = "local-metropolis",
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    initial: np.ndarray | None = None,
    parallel: int | None = None,
    shard_size: int | None = None,
    backend: str | ArrayBackend | None = None,
):
    """Build the batched replica-ensemble engine for ``(model, method)``.

    Dispatch, shared with :func:`sample_many` and the convergence layer:
    ``"glauber"`` always gets the batched single-site
    :class:`~repro.chains.ensemble.EnsembleGlauberDynamics`; weighted local
    CSPs get the batched CSP kernels
    (:class:`~repro.chains.ensemble.EnsembleLubyGlauberCSP` /
    :class:`~repro.chains.ensemble.EnsembleLocalMetropolisCSP`); uniform
    proper-colouring MRFs get the specialised batched colouring kernels
    for the two distributed methods; every other pairwise MRF gets the
    general batched kernels
    :class:`~repro.chains.ensemble.EnsembleLubyGlauberMRF` and
    :class:`~repro.chains.ensemble.EnsembleLocalMetropolisMRF`.
    Every returned object exposes the same
    ``advance``/``run``/``config``/``iter_checkpoints`` protocol, and every
    in-process engine the region-restricted ``advance_region``.

    ``initial`` is ``None`` (a shared deterministic start), a length-n
    configuration, or an ``(r, n)`` batch giving each replica its own
    start.

    ``parallel`` switches to the sharded execution subsystem
    (:mod:`repro.exec`): the batch is split into deterministic shards
    (``shard_size`` replicas each) with ``SeedSequence``-spawned streams
    and executed on ``parallel`` worker processes (``0`` = in-process, the
    bit-identical reference).  The returned
    :class:`~repro.exec.pool.ShardedEnsemble` should be closed (it is a
    context manager) to release its workers; it requires an int or
    :class:`numpy.random.SeedSequence` seed.

    ``backend`` selects the array backend the batched kernels run on
    (:mod:`repro.backend`; name, instance, or ``None`` to resolve via
    ``$REPRO_BACKEND``, then numpy).  The numpy backend is bit-identical
    to the pre-backend engines.
    """
    if r < 1:
        raise ModelError(f"ensemble needs r >= 1 replicas, got {r}")
    validate_method(model, method)
    if parallel is not None:
        from repro.exec.pool import ShardedEnsemble

        # Resolve eagerly: an unusable backend fails here in the parent,
        # not mid-run in a worker, and the picklable *name* (never an
        # instance) is what travels to the worker processes.
        backend_name = get_backend(backend).name
        return ShardedEnsemble(
            model,
            r,
            method=method,
            seed=seed,
            initial=initial,
            workers=parallel,
            shard_size=shard_size,
            backend=backend_name,
        )
    if shard_size is not None:
        raise ModelError("shard_size only applies to sharded runs; pass parallel=")
    rng = as_generator(seed)
    if isinstance(model, LocalCSP):
        ensemble_cls = (
            EnsembleLocalMetropolisCSP
            if method == "local-metropolis"
            else EnsembleLubyGlauberCSP
        )
        return ensemble_cls(model, r, initial=initial, seed=rng, backend=backend)
    if method == "glauber":
        return EnsembleGlauberDynamics(model, r, initial=initial, seed=rng, backend=backend)
    coloring_q = _uniform_coloring_q(model)
    if coloring_q is not None:
        ensemble_cls = (
            EnsembleLocalMetropolisColoring
            if method == "local-metropolis"
            else EnsembleLubyGlauberColoring
        )
        return ensemble_cls(
            model.graph, coloring_q, r, initial=initial, seed=rng, backend=backend
        )
    # General pairwise MRFs (hardcore, Ising, list colourings).
    ensemble_cls = (
        EnsembleLocalMetropolisMRF if method == "local-metropolis" else EnsembleLubyGlauberMRF
    )
    return ensemble_cls(model, r, initial=initial, seed=rng, backend=backend)


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
    backend: str | ArrayBackend | None = None,
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
    backend:
        Array backend for the batched kernels (:mod:`repro.backend`);
        ``None`` resolves via ``$REPRO_BACKEND``, then numpy (the
        bit-identical reference).

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
        backend=backend,
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
    backend: str | ArrayBackend | None = None,
) -> list[tuple[int, float]]:
    """Ensemble-native TV-decay curve of ``method`` on ``model``.

    Builds the fastest ensemble via :func:`make_ensemble` (all replicas
    share a worst-ish deterministic start unless ``initial`` says
    otherwise) and measures the TV distance between the ensemble's
    empirical distribution and the exact Gibbs distribution — the CSP
    Gibbs measure for :class:`~repro.csp.model.LocalCSP` models — at each
    checkpoint.  Requires ``q**n`` enumerable unless ``target`` is given;
    the estimate's noise floor scales like ``sqrt(q**n / replicas)``.
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
        backend=backend,
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
    backend: str | ArrayBackend | None = None,
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
        backend=backend,
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
    backend: str | ArrayBackend | None = None,
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
    region = np.asarray(sorted(int(v) for v in region), dtype=np.int64)
    ensemble = make_ensemble(
        model, batch.shape[0], method=method, seed=seed, initial=batch,
        backend=backend,
    )
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
        backend=spec.backend,
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
