"""The batched LocalMetropolis engine for general MRFs, and the dispatch.

:class:`~repro.chains.ensemble.EnsembleLocalMetropolisMRF` runs Algorithm 2
for every pairwise MRF that is not a uniform colouring.  Its one-step law
is checked against rows of the exact transition matrix: on the per-edge
model below both it and the sequential chain are still far from Gibbs
after 150 rounds, so a stationarity test there would measure the chain,
not the engine.  Stationarity is checked on a fast-mixing model through
:func:`repro.run_spec`, in-process and sharded.  The dispatch walk pins
that every valid (model, method) pair gets a batched engine.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from statutils import assert_stationary

import repro
from repro import JobSpec
from repro.analysis.convergence import SequentialChainEnsemble
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisCSP,
    EnsembleLocalMetropolisMRF,
    EnsembleLubyGlauberColoring,
    EnsembleLubyGlauberCSP,
    EnsembleLubyGlauberMRF,
)
from repro.chains.transition import local_metropolis_transition_matrix
from repro.csp import dominating_set_csp
from repro.errors import ModelError
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.mrf import MRF, hardcore_mrf, ising_mrf, proper_coloring_mrf
from repro.mrf.distribution import GibbsDistribution, config_index, exact_gibbs_distribution

REPLICAS = 20_000


def per_edge_mrf() -> MRF:
    """Path 0-1-2 plus isolated vertex 3, q = 3, a distinct table per edge.

    Both tables vanish on spins {1, 2}, vertex 1 never proposes spin 1,
    and vertex 3 has no edge.
    """
    graph = path_graph(3)
    graph.add_node(3)
    rng = np.random.default_rng(61)
    tables = {}
    for u, v in graph.edges():
        raw = rng.uniform(0.3, 2.0, size=(3, 3))
        table = raw + raw.T
        table[1, 2] = table[2, 1] = 0.0
        tables[(u, v)] = table
    activity = rng.uniform(0.5, 1.5, size=(4, 3))
    activity[1, 1] = 0.0
    return MRF(graph, 3, tables, activity, name="per-edge")


#: Model builder and three start states per model.
ONE_STEP_CASES = {
    "ising-field": (
        lambda: ising_mrf(cycle_graph(4), 0.6, 1.5),
        [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1)],
    ),
    "hardcore-path": (
        lambda: hardcore_mrf(path_graph(4), 0.8),
        [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)],
    ),
    "per-edge": (per_edge_mrf, [(0, 0, 0, 0), (2, 0, 2, 1), (1, 0, 0, 2)]),
}


@pytest.mark.parametrize(
    "name, state",
    [(name, state) for name, (_, states) in ONE_STEP_CASES.items() for state in states],
)
def test_one_step_matches_the_transition_matrix_row(name, state):
    mrf = ONE_STEP_CASES[name][0]()
    row = local_metropolis_transition_matrix(mrf)[config_index(state, mrf.q)]
    ensemble = EnsembleLocalMetropolisMRF(mrf, REPLICAS, initial=state, seed=71)
    assert_stationary(ensemble.run(1), GibbsDistribution(mrf.n, mrf.q, row))


@pytest.mark.parametrize("parallel", [None, 0])
def test_run_spec_is_stationary(parallel):
    mrf = hardcore_mrf(cycle_graph(5), 0.7)
    spec = JobSpec.sample_many(
        mrf, REPLICAS, method="local-metropolis", rounds=60, seed=72, parallel=parallel
    )
    assert_stationary(repro.run_spec(spec), exact_gibbs_distribution(mrf))


#: Every valid (model kind, method) cell of ``make_ensemble`` and its engine.
DISPATCH = {
    ("coloring", "local-metropolis"): EnsembleLocalMetropolisColoring,
    ("coloring", "luby-glauber"): EnsembleLubyGlauberColoring,
    ("coloring", "glauber"): EnsembleGlauberDynamics,
    ("general", "local-metropolis"): EnsembleLocalMetropolisMRF,
    ("general", "luby-glauber"): EnsembleLubyGlauberMRF,
    ("general", "glauber"): EnsembleGlauberDynamics,
    ("csp", "local-metropolis"): EnsembleLocalMetropolisCSP,
    ("csp", "luby-glauber"): EnsembleLubyGlauberCSP,
}

DISPATCH_MODELS = {
    "coloring": lambda: proper_coloring_mrf(cycle_graph(5), 4),
    "general": lambda: ising_mrf(star_graph(4), 0.7, 1.3),
    "csp": lambda: dominating_set_csp(cycle_graph(5)),
}


def test_every_dispatch_cell_is_a_batched_engine():
    for kind, make in DISPATCH_MODELS.items():
        model = make()
        for method in repro.METHODS:
            if (kind, method) not in DISPATCH:
                with pytest.raises(ModelError):
                    repro.make_ensemble(model, 4, method=method, seed=1)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                engine = repro.make_ensemble(model, 4, method=method, seed=1)
                engine.advance(2)
            assert type(engine) is DISPATCH[kind, method], (kind, method)
            assert not isinstance(engine, SequentialChainEnsemble)
