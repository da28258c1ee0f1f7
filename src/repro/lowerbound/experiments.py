"""Batched replica experiments over the lower-bound constructions.

The gadget/lift experiments of Section 5.1 were previously driven one
sequential :class:`~repro.chains.luby_glauber.LubyGlauberChain` at a time.
This module runs them as ``(R, n)`` replica ensembles through the array
execution stack — :func:`repro.api.make_ensemble` with
``method="luby-glauber"`` dispatches to the batched heat-bath kernel
:class:`~repro.chains.ensemble.EnsembleLubyGlauber` — and reduces the
final batch with the vectorized phase kernels of
:mod:`repro.lowerbound.phases`.

``engine="sequential"`` keeps the exact per-chain baseline (one sequential
Luby-Glauber chain per replica behind
:class:`~repro.analysis.convergence.SequentialChainEnsemble`): it is the
correctness oracle the equivalence tests and the E19 benchmark compare the
batched path against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.lowerbound.gadget import BipartiteGadget
from repro.lowerbound.lift import CycleLift
from repro.lowerbound.phases import (
    batch_cut_sizes,
    batch_is_max_cut,
    batch_phase_of_configurations,
    batch_phase_vectors,
)
from repro.mrf.builders import hardcore_mrf

__all__ = [
    "GadgetPhaseSample",
    "LiftPhaseSample",
    "sample_gadget_phases",
    "sample_lift_phases",
    "protocol_phase_hit_rate",
]

_ENGINES = ("ensemble", "sequential")


def _phase_initial_gadget(gadget: BipartiteGadget, phase: int) -> np.ndarray:
    """All-occupied on one side: a configuration deep inside phase ``+-1``."""
    initial = np.zeros(2 * gadget.n_side, dtype=np.int64)
    side = gadget.plus_side if phase > 0 else gadget.minus_side
    initial[side] = 1
    return initial


def _phase_initial_lift(lift: CycleLift, pattern: list[int] | np.ndarray) -> np.ndarray:
    """Per-copy phase pattern realised by occupying the matching sides."""
    initial = np.zeros(lift.n_vertices, dtype=np.int64)
    for x, phase in enumerate(pattern):
        side = lift.copy_plus[x] if phase > 0 else lift.copy_minus[x]
        initial[side] = 1
    return initial


def _make_engine(mrf, replicas, initial, seed, engine):
    if engine == "ensemble":
        from repro.api import make_ensemble

        return make_ensemble(mrf, replicas, method="luby-glauber", seed=seed, initial=initial)
    if engine == "sequential":
        from repro.analysis.convergence import SequentialChainEnsemble
        from repro.chains.luby_glauber import LubyGlauberChain

        return SequentialChainEnsemble(
            lambda rng: LubyGlauberChain(mrf, initial=initial, seed=rng),
            replicas,
            seed=seed,
        )
    raise ModelError(f"engine must be one of {_ENGINES}, got {engine!r}")


@dataclass
class GadgetPhaseSample:
    """Final-round replica batch on one gadget, reduced to phase statistics.

    Attributes
    ----------
    configs:
        The ``(R, 2 n_side)`` final hardcore configurations.
    phases:
        ``(R,)`` phases ``Y(sigma)`` in ``{-1, 0, +1}``.
    plus_density / minus_density:
        ``(R,)`` per-replica occupied fractions of each side — the
        empirical counterpart of the tree densities ``q+``/``q-`` of
        Proposition 5.3.
    """

    gadget: BipartiteGadget
    fugacity: float
    rounds: int
    configs: np.ndarray
    phases: np.ndarray
    plus_density: np.ndarray
    minus_density: np.ndarray

    @property
    def phase_persistence(self) -> float:
        """Fraction of replicas still in the ``+`` phase."""
        return float((self.phases > 0).mean())


@dataclass
class LiftPhaseSample:
    """Final-round replica batch on a cycle lift, reduced to cut statistics.

    Attributes
    ----------
    configs:
        The ``(R, m * 2 n_side)`` final hardcore configurations.
    phase_vectors:
        ``(R, m)`` per-copy phases.
    cut_sizes:
        ``(R,)`` cycle cut sizes of the phase vectors.
    max_cut_mask:
        ``(R,)`` booleans — which replicas sit exactly on a maximum cut.
    """

    lift: CycleLift
    fugacity: float
    rounds: int
    configs: np.ndarray
    phase_vectors: np.ndarray
    cut_sizes: np.ndarray
    max_cut_mask: np.ndarray

    @property
    def max_cut_fraction(self) -> float:
        """Fraction of replicas on a maximum cut (Theorem 5.4's 1 - o(1))."""
        return float(self.max_cut_mask.mean())


def sample_gadget_phases(
    gadget: BipartiteGadget,
    fugacity: float,
    replicas: int,
    rounds: int,
    seed=None,
    start_phase: int = 1,
    engine: str = "ensemble",
) -> GadgetPhaseSample:
    """Run ``replicas`` hardcore chains on the gadget and report phases.

    Every replica starts deep inside ``start_phase`` (that side fully
    occupied) and runs ``rounds`` rounds of Luby-Glauber dynamics; in the
    non-uniqueness regime the phase persists (Proposition 5.3), so the
    reduced batch measures within-phase side densities against the tree
    predictions.
    """
    if rounds < 0:
        raise ModelError(f"rounds must be >= 0, got {rounds}")
    mrf = hardcore_mrf(gadget.graph, fugacity)
    initial = _phase_initial_gadget(gadget, start_phase)
    ensemble = _make_engine(mrf, replicas, initial, seed, engine)
    ensemble.advance(rounds)
    configs = np.asarray(ensemble.config, dtype=np.int64)
    phases = batch_phase_of_configurations(configs, gadget.plus_side, gadget.minus_side)
    return GadgetPhaseSample(
        gadget=gadget,
        fugacity=float(fugacity),
        rounds=int(rounds),
        configs=configs,
        phases=phases,
        plus_density=configs[:, gadget.plus_side].mean(axis=1),
        minus_density=configs[:, gadget.minus_side].mean(axis=1),
    )


def sample_lift_phases(
    lift: CycleLift,
    fugacity: float,
    replicas: int,
    rounds: int,
    seed=None,
    start_pattern: list[int] | np.ndarray | None = None,
    engine: str = "ensemble",
) -> LiftPhaseSample:
    """Run ``replicas`` hardcore chains on the lift and report phase cuts.

    ``start_pattern`` is a length-``m`` vector of per-copy phases (default:
    the alternating maximum cut).  Theorem 5.4's metastability shows up as
    the reduced statistics: replicas started on a maximum cut stay there
    under local dynamics, replicas started on a constant pattern stay off
    it — the batched form of the E8 long-range-order experiment.
    """
    if rounds < 0:
        raise ModelError(f"rounds must be >= 0, got {rounds}")
    if start_pattern is None:
        start_pattern = [1 if x % 2 == 0 else -1 for x in range(lift.m)]
    if len(start_pattern) != lift.m:
        raise ModelError(
            f"start_pattern needs one phase per copy ({lift.m}), "
            f"got {len(start_pattern)}"
        )
    mrf = hardcore_mrf(lift.graph, fugacity)
    initial = _phase_initial_lift(lift, start_pattern)
    ensemble = _make_engine(mrf, replicas, initial, seed, engine)
    ensemble.advance(rounds)
    configs = np.asarray(ensemble.config, dtype=np.int64)
    phase_vectors = batch_phase_vectors(configs, lift)
    return LiftPhaseSample(
        lift=lift,
        fugacity=float(fugacity),
        rounds=int(rounds),
        configs=configs,
        phase_vectors=phase_vectors,
        cut_sizes=batch_cut_sizes(phase_vectors),
        max_cut_mask=batch_is_max_cut(phase_vectors),
    )


def protocol_phase_hit_rate(
    m: int,
    trials: int,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Measured probability that independent uniform phases hit a max cut.

    The protocol side of Theorem 5.4: a ``t < diam/2``-round protocol
    outputs independent per-copy phases (property (27)), which alternate
    perfectly with probability exactly ``2^(1-m)``.  One vectorized
    ``(trials, m)`` draw replaces the historical per-trial Python loop.
    """
    if m < 2 or m % 2 != 0:
        raise ModelError(f"hit rate needs an even cycle length m >= 2, got {m}")
    if trials < 1:
        raise ModelError(f"trials must be >= 1, got {trials}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    phases = rng.choice(np.array([1, -1], dtype=np.int64), size=(trials, m))
    return float(batch_is_max_cut(phases).mean())
