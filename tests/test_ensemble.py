"""Tests for the batched replica-ensemble engines.

The exactness contract: each replica of an ensemble must evolve by the same
Markov kernel as the corresponding sequential chain.  Validated three ways:

* *bitwise* — :class:`EnsembleGlauberDynamics` with one replica reproduces
  :class:`GlauberDynamics` state-for-state from the same seed;
* *stationarity* — after burn-in, the cross-replica empirical distribution
  matches the exact Gibbs distribution: the law matrix of
  ``tests/test_law_matrix.py`` runs every registry family under every
  method, and this file checks the LocalMetropolis engine against the
  sequential chain;
* *invariants* — the per-round structural invariants of the sequential
  chains (monotone monochromatic-edge counts for LocalMetropolis,
  independent-set update sets for LubyGlauber) hold in every replica.
"""

import numpy as np
import pytest
from statutils import assert_same_distribution, assert_stationary

import repro
from repro.chains import GlauberDynamics, LocalMetropolisChain, LubyGlauberChain
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLubyGlauber,
)
from repro.csp import coloring_csp
from repro.errors import InfeasibleStateError, ModelError
from repro.graphs import cycle_graph, grid_graph, is_independent_set, path_graph
from repro.mrf import (
    exact_gibbs_distribution,
    hardcore_mrf,
    ising_mrf,
    list_coloring_mrf,
    proper_coloring_mrf,
)

#: The two engines that run a uniform colouring's distributed chains.
ENSEMBLE_COLORING_CLASSES = (
    EnsembleLocalMetropolisColoring,
    EnsembleLubyGlauber,
)


def monochromatic_edges(mrf, batch) -> np.ndarray:
    """Per-replica count of monochromatic edges of an ``(R, n)`` batch."""
    compiled = mrf.compiled()
    return (batch[:, compiled.edge_u] == batch[:, compiled.edge_v]).sum(axis=1)


class TestConstruction:
    @pytest.mark.parametrize("cls", ENSEMBLE_COLORING_CLASSES)
    def test_shapes_and_greedy_start(self, cls):
        ensemble = cls(proper_coloring_mrf(grid_graph(5, 5), 8), 12, seed=0)
        assert ensemble.config.shape == (12, 25)
        assert ensemble.config.dtype == np.int64
        assert ensemble.is_feasible().shape == (12,)
        assert ensemble.is_feasible().all()

    def test_shared_initial_is_tiled(self):
        initial = np.array([0, 1, 2, 0, 1, 2])
        ensemble = EnsembleLocalMetropolisColoring(
            proper_coloring_mrf(cycle_graph(6), 4), 5, initial=initial, seed=0
        )
        assert np.array_equal(ensemble.config, np.tile(initial, (5, 1)))

    def test_per_replica_initial(self):
        batch = np.array([[0, 1, 2, 0], [2, 0, 1, 2], [1, 2, 0, 1]])
        ensemble = EnsembleLubyGlauber(
            proper_coloring_mrf(path_graph(4), 3), 3, initial=batch, seed=0
        )
        assert np.array_equal(ensemble.config, batch)

    def test_validation(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        with pytest.raises(ModelError):
            EnsembleLocalMetropolisColoring(mrf, 0)
        with pytest.raises(ModelError):
            EnsembleLocalMetropolisColoring(mrf, 4, initial=[0, 1])
        with pytest.raises(ModelError):
            EnsembleLocalMetropolisColoring(mrf, 4, initial=[0, 1, 9])
        with pytest.raises(ModelError, match="integers"):
            EnsembleLocalMetropolisColoring(mrf, 4, initial=[0.5, 1, 2])
        with pytest.raises(ModelError):
            EnsembleLocalMetropolisColoring(mrf, 4, initial=np.zeros((2, 3), dtype=int))

    def test_colouring_engine_refuses_other_models(self):
        # Colouring filters on an Ising model would sample the wrong law.
        with pytest.raises(ModelError, match="uniform proper colouring"):
            EnsembleLocalMetropolisColoring(ising_mrf(path_graph(3), 0.5, 1.0), 4)

    def test_colouring_engine_refuses_a_csp(self):
        # Even a colouring CSP: the kernel reads an MRF record's edges.
        with pytest.raises(ModelError, match="uniform proper colouring"):
            EnsembleLocalMetropolisColoring(coloring_csp(path_graph(3), 3), 4)

    @pytest.mark.parametrize("cls", ENSEMBLE_COLORING_CLASSES)
    def test_edgeless_graph(self, cls):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        ensemble = cls(proper_coloring_mrf(graph, 3), 6, seed=0)
        ensemble.run(4)
        assert ensemble.is_feasible().all()

    @pytest.mark.parametrize("cls", ENSEMBLE_COLORING_CLASSES)
    def test_seed_reproducible(self, cls):
        mrf = proper_coloring_mrf(grid_graph(4, 4), 8)
        first = cls(mrf, 7, seed=9).run(12)
        second = cls(mrf, 7, seed=9).run(12)
        assert np.array_equal(first, second)
        third = cls(mrf, 7, seed=10).run(12)
        assert not np.array_equal(first, third)

    def test_run_returns_copy(self):
        ensemble = EnsembleLocalMetropolisColoring(
            proper_coloring_mrf(cycle_graph(6), 5), 4, seed=0
        )
        batch = ensemble.run(3)
        batch[:] = 0
        assert not np.array_equal(ensemble.config, batch)


class TestFeasibility:
    @pytest.mark.parametrize(
        "mrf",
        [
            proper_coloring_mrf(cycle_graph(5), 3),
            hardcore_mrf(grid_graph(2, 3), 0.8),
            list_coloring_mrf(
                path_graph(4), 4, {0: [0, 1], 1: [1, 2], 2: [0, 3], 3: [2]}
            ),
        ],
        ids=["coloring", "hardcore", "list-coloring"],
    )
    def test_mask_equals_the_per_row_check(self, mrf):
        """The vectorised support check agrees with ``mrf.is_feasible``."""
        rng = np.random.default_rng(17)
        batch = np.concatenate(
            [
                rng.integers(0, mrf.q, size=(40, mrf.n)),
                repro.sample_many(mrf, 8, method="luby-glauber", rounds=4, seed=18),
            ]
        )
        ensemble = EnsembleLubyGlauber(mrf, len(batch), initial=batch, seed=19)
        expected = np.array([mrf.is_feasible(row) for row in batch])
        assert expected.any() and not expected.all()
        assert np.array_equal(ensemble.is_feasible(), expected)


class TestInvariants:
    def test_lm_monochromatic_never_increases(self):
        mrf = proper_coloring_mrf(cycle_graph(30), 6)
        ensemble = EnsembleLocalMetropolisColoring(
            mrf, 16, initial=np.zeros(30, dtype=int), seed=1
        )
        previous = monochromatic_edges(mrf, ensemble.config)
        for _ in range(60):
            ensemble.step()
            current = monochromatic_edges(mrf, ensemble.config)
            assert np.all(current <= previous)
            previous = current
        assert ensemble.is_feasible().all()

    def test_lg_changed_sets_are_independent(self):
        graph = grid_graph(5, 5)
        ensemble = EnsembleLubyGlauber(proper_coloring_mrf(graph, 9), 8, seed=2)
        for _ in range(15):
            before = ensemble.config
            ensemble.step()
            after = ensemble.config
            for i in range(8):
                changed = np.nonzero(before[i] != after[i])[0]
                assert is_independent_set(graph, changed)

    def test_lg_preserves_propriety(self):
        ensemble = EnsembleLubyGlauber(proper_coloring_mrf(grid_graph(6, 6), 9), 12, seed=3)
        assert ensemble.is_feasible().all()
        ensemble.run(30)
        assert ensemble.is_feasible().all()

    def test_lg_rejection_guard(self):
        # q = 2 on C4 from (0, 0, 1, 1): every vertex sees both colours in
        # its neighbourhood, so whoever the Luby step selects has no
        # available colour in every replica and its conditional is undefined.
        ensemble = repro.make_ensemble(
            proper_coloring_mrf(cycle_graph(4), 2),
            4,
            method="luby-glauber",
            initial=np.array([0, 0, 1, 1]),
            seed=4,
        )
        with pytest.raises(InfeasibleStateError, match="undefined"):
            ensemble.step()


class TestSequentialEquivalence:
    def test_glauber_single_replica_bitwise(self):
        """R=1 ensemble Glauber == sequential Glauber, state-for-state."""
        mrf = ising_mrf(path_graph(3), beta=1.6, field=0.8)
        initial = np.array([0, 1, 0])
        sequential = GlauberDynamics(mrf, initial=initial, seed=42)
        ensemble = EnsembleGlauberDynamics(mrf, 1, initial=initial, seed=42)
        for step in range(300):
            sequential.step()
            ensemble.step()
            assert np.array_equal(sequential.config, ensemble.config[0]), step

    def test_glauber_infeasible_state_raises(self):
        # Hardcore on a triangle with both neighbours occupied is fine for
        # the unoccupied vertex, but a colouring with q=2 on a triangle has
        # vertices with no available colour at all.
        mrf = proper_coloring_mrf(cycle_graph(3), 2)
        ensemble = EnsembleGlauberDynamics(
            mrf, 8, initial=np.array([0, 1, 0]), seed=5
        )
        with pytest.raises(InfeasibleStateError):
            ensemble.run(50)

    def test_luby_glauber_mrf_and_sequential_same_distribution(self):
        """Batched MRF heat-bath kernel == sequential LubyGlauberChain.

        The engine-equivalence contract of the vectorized lower-bound
        experiments: the same per-round Markov kernel, verified by the
        two-sample homogeneity test between the batched ensemble and R
        independent sequential chains at a matched round budget.
        """
        mrf = hardcore_mrf(cycle_graph(5), 2.0)
        rounds, replicas = 50, 3000
        ensemble = EnsembleLubyGlauber(mrf, replicas, seed=16)
        batched = ensemble.run(rounds)
        sequential = np.stack(
            [
                LubyGlauberChain(mrf, seed=1000 + i).run(rounds)
                for i in range(replicas // 4)
            ]
        )
        assert_same_distribution(batched, sequential, mrf.q)

    def test_luby_glauber_mrf_infeasible_state_raises(self):
        mrf = proper_coloring_mrf(cycle_graph(3), 2)
        ensemble = EnsembleLubyGlauber(
            mrf, 8, initial=np.array([0, 1, 0]), seed=5
        )
        with pytest.raises(InfeasibleStateError):
            ensemble.run(50)

    def test_luby_glauber_mrf_dispatch_and_feasibility(self):
        mrf = hardcore_mrf(cycle_graph(6), 1.0)
        ensemble = repro.make_ensemble(mrf, 5, method="luby-glauber", seed=6)
        assert isinstance(ensemble, EnsembleLubyGlauber)
        batch = ensemble.run(10)
        assert batch.shape == (5, 6)
        assert all(mrf.is_feasible(row) for row in batch)
        assert ensemble.is_feasible().all()

    def test_lm_ensemble_and_sequential_same_distribution(self):
        """Both implementations reproduce the exact edge pair-marginal.

        The exact (0, 1) pair marginal is itself a distribution over
        ``[q]^2``, so both implementations' restricted batches go through
        the shared stationarity assertion — the sequential chain's
        consecutive states are dependent, hence the effective-sample-size
        form of the bound.
        """
        from repro.mrf.distribution import GibbsDistribution

        graph = cycle_graph(4)
        mrf = proper_coloring_mrf(graph, 5)
        gibbs = exact_gibbs_distribution(mrf)
        pair_target = GibbsDistribution(2, 5, gibbs.pair_marginal(0, 1).ravel())

        ensemble = EnsembleLocalMetropolisColoring(mrf, 4000, seed=7)
        batch = ensemble.run(60)
        assert_stationary(batch[:, [0, 1]], pair_target)

        sequential = LocalMetropolisChain(mrf, seed=8)
        sequential.run(60)
        samples = []
        for _ in range(8000):
            sequential.step()
            sequential.step()
            samples.append((int(sequential.config[0]), int(sequential.config[1])))
        assert_stationary(samples, pair_target, effective_samples=1500)


class TestSampleMany:
    def test_shape_and_feasibility_all_methods(self):
        mrf = proper_coloring_mrf(cycle_graph(8), 6)
        for method in repro.METHODS:
            batch = repro.sample_many(mrf, 10, method=method, seed=1)
            assert batch.shape == (10, 8)
            assert all(mrf.is_feasible(row) for row in batch)

    def test_seed_reproducible(self):
        mrf = proper_coloring_mrf(grid_graph(4, 4), 8)
        first = repro.sample_many(mrf, 6, seed=3)
        second = repro.sample_many(mrf, 6, seed=3)
        assert np.array_equal(first, second)

    def test_general_model_every_method(self):
        mrf = ising_mrf(path_graph(4), beta=0.6, field=1.0)
        for method in repro.METHODS:
            batch = repro.sample_many(mrf, 4, method=method, rounds=12, seed=2)
            assert batch.shape == (4, 4)
            assert np.all((batch >= 0) & (batch < 2))

    def test_explicit_rounds_and_initial_batch(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        initial = np.tile(np.array([0, 1, 2, 0, 1, 2]), (3, 1))
        batch = repro.sample_many(mrf, 3, rounds=5, seed=4, initial=initial)
        assert batch.shape == (3, 6)

    def test_rejects_bad_arguments(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError, match="r >= 1"):
            repro.sample_many(mrf, 0)
        with pytest.raises(ModelError, match="unknown method"):
            repro.sample_many(mrf, 4, method="simulated-annealing")

    def test_rejects_a_fractional_start(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        with pytest.raises(ModelError, match="integers"):
            repro.sample_many(mrf, 2, rounds=2, seed=1, initial=[0.7, 1.9, 2.2])
