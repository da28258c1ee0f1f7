"""Seeded-determinism regression tests for every replica-ensemble engine.

Three contracts, all load-bearing for reproducible experiments and for
the benchmark-regression gate and the sharded execution subsystem:

* an ensemble built from an *integer* seed reproduces bit-identical
  trajectories across two independent runs,
* ``advance(a)`` followed by ``run(b)`` consumes the RNG stream exactly
  like a single ``run(a + b)`` — checkpointed trajectories (TV curves,
  mixing-time sweeps) equal one-shot runs state-for-state, and
* an integer seed and the ``numpy.random.SeedSequence`` wrapping it build
  the *same* stream — the bridge :mod:`repro.exec` relies on to make a
  sharded run a pure function of its root SeedSequence.
"""

import numpy as np
import pytest

from repro.api import make_ensemble
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisCSP,
    EnsembleLubyGlauberColoring,
    EnsembleLubyGlauberCSP,
    EnsembleLubyGlauberMRF,
)
from repro.csp import dominating_set_csp, not_all_equal_csp
from repro.dynamic import DynamicEnsemble
from repro.exec import ShardedEnsemble
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.mrf import ising_mrf, proper_coloring_mrf

REPLICAS = 7
SEED = 20170625


def _nae():
    return not_all_equal_csp([(0, 1, 2), (1, 2, 3), (2, 3, 4)], n=5, q=3)


def _lm_mrf_ensemble(seed):
    return make_ensemble(
        ising_mrf(path_graph(4), beta=0.7, field=0.5),
        REPLICAS,
        method="local-metropolis",
        seed=seed,
    )


ENGINE_FACTORIES = {
    "lm-coloring": lambda seed: EnsembleLocalMetropolisColoring(
        grid_graph(4, 4), 8, REPLICAS, seed=seed
    ),
    "lg-coloring": lambda seed: EnsembleLubyGlauberColoring(
        grid_graph(4, 4), 8, REPLICAS, seed=seed
    ),
    "glauber": lambda seed: EnsembleGlauberDynamics(
        ising_mrf(path_graph(5), beta=0.9, field=0.4), REPLICAS, seed=seed
    ),
    "lg-csp": lambda seed: EnsembleLubyGlauberCSP(
        dominating_set_csp(cycle_graph(6)), REPLICAS, seed=seed
    ),
    "lm-csp": lambda seed: EnsembleLocalMetropolisCSP(_nae(), REPLICAS, seed=seed),
    "lg-mrf": lambda seed: EnsembleLubyGlauberMRF(
        ising_mrf(path_graph(5), beta=0.9, field=0.4), REPLICAS, seed=seed
    ),
    "lm-mrf": _lm_mrf_ensemble,
    "sharded": lambda seed: ShardedEnsemble(
        proper_coloring_mrf(grid_graph(3, 3), 5),
        REPLICAS,
        seed=seed,
        shard_size=3,
        workers=0,
    ),
    "dynamic": lambda seed: DynamicEnsemble(
        proper_coloring_mrf(grid_graph(3, 3), 5),
        REPLICAS,
        method="luby-glauber",
        seed=seed,
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
def test_integer_seed_reproduces_bit_identical_trajectories(name):
    make = ENGINE_FACTORIES[name]
    first = make(SEED)
    second = make(SEED)
    for _ in range(4):
        first.advance(3)
        second.advance(3)
        assert np.array_equal(first.config, second.config)
    # A different seed diverges (the trajectories are genuinely random).
    other = make(SEED + 1).run(12)
    assert not np.array_equal(first.config, other)


@pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
def test_advance_run_composition_equals_one_run(name):
    make = ENGINE_FACTORIES[name]
    split = make(SEED)
    split.advance(5)
    composed = split.run(7)
    one_shot = make(SEED).run(12)
    assert np.array_equal(composed, one_shot)
    assert split.steps_taken == 12


@pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
def test_seed_sequence_equals_the_integer_seed_it_wraps(name):
    """``seed=x`` and ``seed=SeedSequence(x)`` build bit-identical streams."""
    make = ENGINE_FACTORIES[name]
    from_int = make(SEED).run(10)
    from_sequence = make(np.random.SeedSequence(SEED)).run(10)
    assert np.array_equal(from_int, from_sequence)


def _dynamic_trajectory(seed):
    """One full mutate/resample trajectory of a DynamicEnsemble."""
    dyn = DynamicEnsemble(
        proper_coloring_mrf(grid_graph(3, 3), 5),
        REPLICAS,
        method="luby-glauber",
        seed=seed,
    )
    dyn.mix(6)
    dyn.remove_edge(0, 1)
    dyn.resample(4)
    dyn.add_edge(0, 1)
    dyn.resample(4)
    return dyn.config


def test_dynamic_mutation_sequence_is_bit_identical():
    """The whole mutate/resample trajectory is a pure function of the seed.

    Mutations rebuild the engine warm-started on the *shared* Generator,
    so two runs with the same seed and operation sequence must agree bit
    for bit — including across the rebuilds.
    """
    assert np.array_equal(_dynamic_trajectory(SEED), _dynamic_trajectory(SEED))
    assert not np.array_equal(_dynamic_trajectory(SEED), _dynamic_trajectory(SEED + 1))
    assert np.array_equal(
        _dynamic_trajectory(SEED), _dynamic_trajectory(np.random.SeedSequence(SEED))
    )
