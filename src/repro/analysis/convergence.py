"""Ensemble-native convergence measurement.

The paper's empirical story is told through TV-decay and mixing-time
curves: run many independent replicas of a chain from a common start and
trace the distance between the ensemble's empirical distribution and the
exact target as rounds progress.  Without ``initial`` that start is the
model's greedy start (:func:`repro.chains.base.start_config`): the
smallest allowed spin per vertex, in vertex order.  It is not chosen to be
far from the target (for hardcore it is the empty set), so a mixing-time
estimate from a far start passes one as ``initial``.  This module measures those
curves *on top of the replica-ensemble engines* of
:mod:`repro.chains.ensemble` — every checkpoint is one ``advance`` of a
whole ``(R, n)`` batch plus one whole-batch estimator call from
:mod:`repro.analysis.empirical`, never a per-chain Python loop.  Both
probe loops are generators that :func:`repro.api.run_spec` also streams.

Any object exposing ``advance(steps)`` and an ``(R, n)`` ``config`` batch
(the :class:`~repro.chains.ensemble.EnsembleTrajectoryMixin` protocol)
works as a source.  :class:`SequentialChainEnsemble` adapts ``R``
ordinary sequential chains behind the same protocol: it is the per-chain
baseline the batched engines are benchmarked against and a test oracle,
and every convergence function accepts either an ensemble or a
``chain_factory(rng)`` callable (which it wraps automatically).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.analysis.empirical import batch_agreement, batch_tv_to_exact
from repro.chains.base import SeedLike, as_seed_sequence
from repro.chains.ensemble import EnsembleTrajectoryMixin, canonical_checkpoints
from repro.errors import ConvergenceError, ModelError
from repro.mrf.distribution import GibbsDistribution

__all__ = [
    "SequentialChainEnsemble",
    "tv_curve_probes",
    "mixing_time_probes",
    "ensemble_tv_curve",
    "ensemble_agreement_curve",
    "ensemble_scalar_trajectory",
    "empirical_mixing_time",
]


class SequentialChainEnsemble(EnsembleTrajectoryMixin):
    """R sequential chains behind the ensemble protocol.

    Wraps ``chain_factory(rng)`` — any callable returning an object with
    ``step()`` and a length-n ``config`` — behind
    :class:`repro.chains.ensemble.EnsembleTrajectoryMixin`, so the
    convergence machinery also measures any sequential chain: the
    per-chain baseline of the throughput benchmarks and a test oracle.

    Stream contract: chain ``i`` draws from ``default_rng(root.spawn(R)[i])``
    where ``root`` is the :class:`numpy.random.SeedSequence` built from
    ``seed`` (an int seed and the SeedSequence wrapping it give the same
    root; a Generator seed draws one int to form the root, so passing the
    same Generator twice gives two *different* ensembles).
    """

    def __init__(
        self,
        chain_factory: Callable[[np.random.Generator], object],
        replicas: int,
        seed: SeedLike = None,
    ) -> None:
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        root = as_seed_sequence(seed)
        self._chains = [
            chain_factory(np.random.default_rng(child)) for child in root.spawn(replicas)
        ]
        self.replicas = int(replicas)
        self.steps_taken = 0

    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 copy — safe to mutate)."""
        return np.stack(
            [np.asarray(chain.config, dtype=np.int64) for chain in self._chains]
        )

    def step(self) -> None:
        """Advance every chain by one round."""
        for chain in self._chains:
            chain.step()
        self.steps_taken += 1

    def _run_steps(self, steps: int) -> None:
        # Chain-major: each chain owns its RNG, so chain-major and
        # round-major orders produce identical trajectories, and chain-major
        # avoids R attribute lookups per round.
        for chain in self._chains:
            for _ in range(steps):
                chain.step()
        self.steps_taken += steps


def _as_ensemble(source, n_chains: int | None, seed) -> object:
    """Coerce ``source`` into the ensemble protocol.

    A callable is treated as a ``chain_factory(rng)`` and wrapped in a
    :class:`SequentialChainEnsemble` (requires ``n_chains``);
    anything else must already expose ``advance``/``config``.
    """
    if callable(source) and not hasattr(source, "advance"):
        if n_chains is None or n_chains < 1:
            raise ConvergenceError(
                "a chain factory needs n_chains >= 1 to build a SequentialChainEnsemble"
            )
        return SequentialChainEnsemble(source, n_chains, seed=seed)
    if not hasattr(source, "advance") or not hasattr(source, "config"):
        raise ConvergenceError(
            "source must be an ensemble (advance/config) or a chain_factory(rng) "
            f"callable, got {type(source).__name__}"
        )
    return source


def ensemble_tv_curve(
    source,
    target: GibbsDistribution,
    n_chains: int | None = None,
    checkpoints: Sequence[int] | None = None,
    seed: int | None = None,
) -> list[tuple[int, float]]:
    """TV between the ensemble empirical distribution and ``target`` over time.

    Parameters
    ----------
    source:
        Either a replica ensemble (anything exposing ``advance(steps)`` and
        an ``(R, n)`` ``config`` batch — see :mod:`repro.chains.ensemble`)
        or a ``chain_factory(rng)`` callable, which is wrapped in a
        :class:`SequentialChainEnsemble`.
    target:
        The exact Gibbs distribution (``q**n`` must be enumerable).
    n_chains:
        Ensemble size — required with a chain factory, ignored for a
        prebuilt ensemble.  The TV estimate's noise floor scales like
        ``sqrt(#states / n_chains)``.
    checkpoints:
        Strictly increasing positive round counts at which to measure,
        relative to the source's current position.
    seed:
        Seeds the wrapped chain factory; ignored for a prebuilt ensemble.

    Returns
    -------
    List of ``(round, tv)`` pairs.
    """
    ensemble = _as_ensemble(source, n_chains, seed)
    return list(tv_curve_probes(ensemble, target, checkpoints))


def tv_curve_probes(
    ensemble, target: GibbsDistribution, checkpoints: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """Yield ``(round, tv)`` at each checkpoint: advance, then read the batch once."""
    rounds = canonical_checkpoints(checkpoints)
    for previous, checkpoint in zip((0, *rounds), rounds):
        ensemble.advance(checkpoint - previous)
        yield checkpoint, batch_tv_to_exact(ensemble.config, target)


def ensemble_agreement_curve(
    ensemble_x,
    ensemble_y,
    checkpoints: Sequence[int],
) -> list[tuple[int, float]]:
    """Mean per-vertex agreement of two coupled twin ensembles over time.

    Advance two ensembles in lockstep and record
    ``batch_agreement(X, Y).mean()`` — the fraction of (replica, vertex)
    pairs on which the twins agree — at each checkpoint.  Constructing the
    twins with the *same integer seed* but different initial batches gives
    the common-random-numbers grand coupling whose coalescence the paper's
    agreement curves trace; independent seeds give the stationary overlap
    instead.

    Returns a list of ``(round, mean_agreement)`` pairs.
    """
    checkpoints = canonical_checkpoints(checkpoints)
    for name, ensemble in (("ensemble_x", ensemble_x), ("ensemble_y", ensemble_y)):
        if not hasattr(ensemble, "advance") or not hasattr(ensemble, "config"):
            raise ConvergenceError(f"{name} does not expose the ensemble protocol")
    curve: list[tuple[int, float]] = []
    for previous, checkpoint in zip((0, *checkpoints), checkpoints):
        ensemble_x.advance(checkpoint - previous)
        ensemble_y.advance(checkpoint - previous)
        agreement = batch_agreement(ensemble_x.config, ensemble_y.config)
        curve.append((checkpoint, float(agreement.mean())))
    return curve


def ensemble_scalar_trajectory(
    ensemble,
    observable: Callable[[np.ndarray], np.ndarray],
    rounds: int,
    thin: int = 1,
) -> np.ndarray:
    """Record a per-replica scalar observable along an ensemble trajectory.

    Advances ``ensemble`` for ``rounds`` total rounds, evaluating
    ``observable(batch) -> (R,)`` every ``thin`` rounds (the final stride is
    clamped so exactly ``rounds`` rounds are taken).  Returns an ``(R, T)``
    array — one scalar series per replica — ready for the cross-chain
    diagnostics: ``gelman_rubin`` consumes it directly, and
    :func:`repro.analysis.diagnostics.batch_effective_sample_size` sums the
    per-replica effective sample sizes.  This is the diagnostics path for
    models where ``q**n`` is unenumerable and TV curves are unavailable.
    """
    if rounds < 1:
        raise ConvergenceError(f"trajectory needs rounds >= 1, got {rounds}")
    if thin < 1:
        raise ConvergenceError(f"thin must be >= 1, got {thin}")
    records: list[np.ndarray] = []
    taken = 0
    while taken < rounds:
        stride = min(thin, rounds - taken)
        ensemble.advance(stride)
        taken += stride
        value = np.asarray(observable(ensemble.config), dtype=float)
        if value.ndim != 1:
            raise ConvergenceError(
                f"observable must map an (R, n) batch to an (R,) vector, "
                f"got shape {value.shape}"
            )
        records.append(value)
    return np.stack(records, axis=1)


def empirical_mixing_time(
    source,
    target: GibbsDistribution,
    eps: float,
    n_chains: int = 2000,
    max_rounds: int = 10_000,
    stride: int = 1,
    seed: int | None = None,
) -> int:
    """First checkpoint (every ``stride`` rounds) with ensemble TV <= eps.

    The final stride is clamped to ``max_rounds`` so the returned round
    count never exceeds the budget.  ``source`` is an ensemble or a legacy
    ``chain_factory(rng)`` callable, as in :func:`ensemble_tv_curve`.

    Note the estimator is biased upward by the sampling noise floor
    ``~sqrt(#states / n_chains)``; choose the ensemble size accordingly or
    prefer :func:`repro.chains.transition.exact_mixing_time` on tiny models.
    """
    ensemble = _as_ensemble(source, n_chains, seed)
    for rounds, _ in mixing_time_probes(ensemble, target, eps, max_rounds, stride):
        pass
    return rounds


def mixing_time_probes(
    ensemble, target: GibbsDistribution, eps: float, max_rounds: int, stride: int
) -> Iterator[tuple[int, float]]:
    """Yield ``(round, tv)`` every ``stride`` rounds, up to the first TV <= ``eps``.

    The final stride is clamped to ``max_rounds``; exhausting the budget
    raises :class:`~repro.errors.ConvergenceError`.
    """
    if stride < 1:
        raise ConvergenceError(f"stride must be >= 1, got {stride}")
    if max_rounds < 1:
        raise ConvergenceError(f"max_rounds must be >= 1, got {max_rounds}")
    rounds = 0
    while rounds < max_rounds:
        step = min(stride, max_rounds - rounds)
        ensemble.advance(step)
        rounds += step
        tv = batch_tv_to_exact(ensemble.config, target)
        yield rounds, tv
        if tv <= eps:
            return
    raise ConvergenceError(
        f"ensemble TV did not reach {eps} within {max_rounds} rounds"
    )
