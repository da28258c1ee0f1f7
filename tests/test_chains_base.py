"""Tests for chain infrastructure (repro.chains.base)."""

import numpy as np
import pytest

from repro.chains import GlauberDynamics, random_config
from repro.errors import ModelError
from repro.graphs import cycle_graph, grid_graph, path_graph, torus_graph
from repro.mrf import MRF, hardcore_mrf, ising_mrf, list_coloring_mrf, proper_coloring_mrf


def reference_greedy(mrf):
    """The greedy start as a plain array loop: the oracle of the bitmask one."""
    compiled = mrf.compiled()
    config = np.zeros(mrf.n, dtype=np.int64)
    for v in range(mrf.n):
        spins = compiled.vertex_activity[v] > 0
        for u, v_, t in zip(compiled.edge_u, compiled.edge_v, compiled.edge_table):
            if v_ == v:
                spins = spins & (compiled.palette[t, :, config[u]] > 0)
        candidates = np.flatnonzero(spins)
        if candidates.size == 0:
            config[v] = int(np.argmax(compiled.vertex_activity[v]))
        else:
            config[v] = int(candidates[0])
    return config


def sparse_tables_mrf():
    """Random symmetric tables and activities with many zeros, q = 4."""
    graph = grid_graph(4, 5)
    rng = np.random.default_rng(5)
    tables = {}
    for u, v in graph.edges():
        raw = rng.uniform(0.0, 2.0, size=(4, 4))
        raw[raw < 0.6] = 0.0
        tables[(u, v)] = (raw + raw.T) / 2.0
    activity = rng.uniform(0.0, 1.5, size=(20, 4))
    activity[activity < 0.3] = 0.0
    return MRF(graph, 4, tables, activity)


class TestInitialConfigs:
    @pytest.mark.parametrize(
        "mrf",
        [
            proper_coloring_mrf(torus_graph(6, 6), 5),
            proper_coloring_mrf(grid_graph(4, 4), 2),
            proper_coloring_mrf(path_graph(5), 70),
            hardcore_mrf(torus_graph(4, 4), 0.7),
            ising_mrf(grid_graph(3, 4), 0.3, 1.2),
            list_coloring_mrf(cycle_graph(6), 5, {v: [v % 5, (v + 2) % 5] for v in range(6)}),
            sparse_tables_mrf(),
        ],
        ids=["coloring", "tight-coloring", "q70", "hardcore", "ising", "list", "sparse"],
    )
    def test_greedy_matches_the_reference_loop(self, mrf):
        """The compiled greedy start is the plain loop's, spin for spin."""
        start = mrf.compiled().greedy_start
        assert np.array_equal(start, reference_greedy(mrf))
        assert start.dtype == np.int64 and not start.flags.writeable
        assert mrf.compiled().greedy_start is start

    def test_greedy_coloring_is_proper_when_q_exceeds_degree(self):
        for q in (3, 4, 5):
            mrf = proper_coloring_mrf(cycle_graph(7), q)
            assert mrf.is_feasible(mrf.compiled().greedy_start)

    def test_greedy_hardcore_feasible(self):
        mrf = hardcore_mrf(cycle_graph(6), 2.0)
        assert mrf.is_feasible(mrf.compiled().greedy_start)
        assert not mrf.compiled().greedy_start.any()

    def test_random_config_in_range(self, rng):
        mrf = proper_coloring_mrf(path_graph(5), 3)
        config = random_config(mrf, rng)
        assert config.shape == (5,)
        assert np.all((config >= 0) & (config < 3))


class TestChainMechanics:
    def test_explicit_initial_config(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, initial=[0, 1, 2], seed=0)
        assert tuple(chain.config) == (0, 1, 2)

    def test_initial_validation(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        with pytest.raises(ModelError):
            GlauberDynamics(mrf, initial=[0, 1])
        with pytest.raises(ModelError):
            GlauberDynamics(mrf, initial=[0, 1, 5])

    def test_run_counts_steps(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, seed=0)
        chain.run(17)
        assert chain.steps_taken == 17

    def test_trajectory_records_initial_and_strides(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, initial=[0, 1, 0], seed=0)
        states = chain.trajectory(10, record_every=2)
        assert states[0] == (0, 1, 0)
        assert len(states) == 6  # initial + 5 checkpoints

    def test_trajectory_rejects_bad_stride(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, seed=0)
        with pytest.raises(ModelError):
            chain.trajectory(5, record_every=0)

    def test_seeding_reproducible(self):
        mrf = proper_coloring_mrf(cycle_graph(5), 4)
        a = GlauberDynamics(mrf, initial=[0, 1, 0, 1, 2], seed=5).run(100)
        b = GlauberDynamics(mrf, initial=[0, 1, 0, 1, 2], seed=5).run(100)
        assert np.array_equal(a, b)

    def test_generator_seed_accepted(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, seed=np.random.default_rng(3))
        chain.run(5)
        assert chain.steps_taken == 5

    def test_current_returns_tuple(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, initial=[0, 1, 0], seed=0)
        assert chain.current == (0, 1, 0)


class TestSeedCoercion:
    """The shared SeedLike coercion helper (as_seed_sequence).

    One helper serves every entry point that needs a spawnable root:
    the LOCAL runtime, the sharded exec subsystem, the sequential-chain
    fallback ensemble and the facade's protocol engines.
    """

    def test_int_and_seed_sequence_give_same_root(self):
        from repro.chains.base import as_seed_sequence

        a = as_seed_sequence(7)
        b = as_seed_sequence(np.random.SeedSequence(7))
        assert a.entropy == b.entropy == 7
        assert np.random.default_rng(a).integers(1 << 30) == np.random.default_rng(
            b
        ).integers(1 << 30)

    def test_none_draws_fresh_entropy(self):
        from repro.chains.base import as_seed_sequence

        assert as_seed_sequence(None).entropy != as_seed_sequence(None).entropy

    def test_generator_derives_one_draw(self):
        from repro.chains.base import as_seed_sequence

        root = as_seed_sequence(np.random.default_rng(3))
        expected = int(
            np.random.default_rng(3).integers(np.iinfo(np.int64).max)
        )
        assert root.entropy == expected

    def test_generator_rejected_when_disallowed(self):
        from repro.chains.base import as_seed_sequence

        with pytest.raises(ModelError, match="Generator"):
            as_seed_sequence(np.random.default_rng(3), allow_generator=False)

    def test_unsupported_type_rejected(self):
        from repro.chains.base import as_seed_sequence

        with pytest.raises(ModelError, match="seed type"):
            as_seed_sequence("nope")

    def test_facade_local_engine_accepts_seed_sequence(self):
        import repro

        mrf = proper_coloring_mrf(cycle_graph(5), 5)
        by_int = repro.sample(mrf, engine="reference", rounds=4, seed=11)
        by_seq = repro.sample(
            mrf, engine="reference", rounds=4, seed=np.random.SeedSequence(11)
        )
        assert np.array_equal(by_int, by_seq)

    def test_fallback_ensemble_accepts_seed_sequence(self):
        from repro.analysis.convergence import SequentialChainEnsemble

        mrf = proper_coloring_mrf(cycle_graph(5), 4)

        def factory(rng):
            return GlauberDynamics(mrf, seed=rng)

        a = SequentialChainEnsemble(factory, 4, seed=9).advance(10).config
        b = SequentialChainEnsemble(
            factory, 4, seed=np.random.SeedSequence(9)
        ).advance(10).config
        assert np.array_equal(a, b)
