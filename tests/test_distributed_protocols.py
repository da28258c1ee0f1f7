"""Tests for the message-passing implementations of Algorithms 1 and 2."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis import empirical_distribution
from repro.distributed import (
    run_local_metropolis_protocol,
    run_luby_glauber_protocol,
)
from repro.distributed.sampling_protocols import make_private_inputs
from repro.errors import ProtocolError
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.local import Network, run_protocol
from repro.mrf import exact_gibbs_distribution, hardcore_mrf, proper_coloring_mrf

RUNNERS = (run_luby_glauber_protocol, run_local_metropolis_protocol)


class TestRunners:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_zero_rounds_return_initial(self, runner):
        mrf = proper_coloring_mrf(cycle_graph(5), 4)
        initial = np.arange(5) % 2
        config, stats = runner(mrf, rounds=0, seed=0, initial=initial)
        assert np.array_equal(config, initial)
        assert (stats.rounds, stats.messages, stats.max_message_atoms) == (0, 0, 0)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_edgeless_graph_sends_no_messages(self, runner):
        mrf = proper_coloring_mrf(nx.empty_graph(4), 3)
        _, stats = runner(mrf, rounds=3, seed=0)
        assert stats.rounds == 3
        assert stats.messages == 0
        assert stats.max_message_atoms == 0


class TestPrivateInputs:
    def test_slices_are_local(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        inputs = make_private_inputs(mrf, np.zeros(3, dtype=int))
        assert set(inputs[0].edge_activities) == {1}
        assert set(inputs[1].edge_activities) == {0, 2}
        assert inputs[2].q == 3

    def test_activities_normalized(self):
        mrf = hardcore_mrf(path_graph(2), 3.0)
        inputs = make_private_inputs(mrf, np.zeros(2, dtype=int))
        assert inputs[0].edge_activities[1].max() == 1.0


class TestLubyGlauberProtocol:
    def test_produces_proper_coloring(self):
        mrf = proper_coloring_mrf(grid_graph(3, 3), 9)
        out, stats = run_luby_glauber_protocol(mrf, rounds=40, seed=0)
        assert mrf.is_feasible(out)
        assert stats.rounds == 40

    def test_one_round_per_iteration_message_complexity(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 4)
        _, stats = run_luby_glauber_protocol(mrf, rounds=10, seed=1)
        # Every vertex messages each neighbour every round: 2|E| per round.
        assert stats.messages == 10 * 2 * 6

    def test_seed_reproducible(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 4)
        out1, _ = run_luby_glauber_protocol(mrf, rounds=25, seed=7)
        out2, _ = run_luby_glauber_protocol(mrf, rounds=25, seed=7)
        assert np.array_equal(out1, out2)

    def test_distribution_matches_exact_gibbs(self):
        """Many independent protocol executions approximate mu — the
        end-to-end statement of Theorem 1.1 at laptop scale."""
        mrf = hardcore_mrf(path_graph(3), 1.0)
        gibbs = exact_gibbs_distribution(mrf)
        samples = [
            tuple(
                int(s)
                for s in run_luby_glauber_protocol(mrf, rounds=40, seed=seed)[0]
            )
            for seed in range(1500)
        ]
        empirical = empirical_distribution(samples, mrf.n, mrf.q)
        assert gibbs.tv_distance(empirical) < 0.06

    def test_rejects_undefined_conditional(self):
        # A 2-colouring path whose middle vertex sees both colours in its
        # neighbourhood: once the middle wins the Luby step (seed chosen so
        # it does in round 1), its conditional marginal is identically zero.
        mrf = proper_coloring_mrf(path_graph(3), 2)
        with pytest.raises(ProtocolError, match="conditional marginal undefined"):
            run_luby_glauber_protocol(mrf, rounds=1, seed=4, initial=np.array([0, 0, 1]))

    def test_missing_private_input_raises(self):
        from repro.distributed.sampling_protocols import LubyGlauberProtocol

        net = Network(path_graph(2))
        with pytest.raises(ProtocolError):
            run_protocol(LubyGlauberProtocol(), net, rounds=1, seed=0)


class TestLocalMetropolisProtocol:
    def test_produces_proper_coloring(self):
        mrf = proper_coloring_mrf(grid_graph(3, 3), 16)
        out, _ = run_local_metropolis_protocol(mrf, rounds=40, seed=0)
        assert mrf.is_feasible(out)

    def test_seed_reproducible(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        out1, _ = run_local_metropolis_protocol(mrf, rounds=25, seed=3)
        out2, _ = run_local_metropolis_protocol(mrf, rounds=25, seed=3)
        assert np.array_equal(out1, out2)

    def test_distribution_matches_exact_gibbs(self):
        """End-to-end Theorem 1.2 statement at laptop scale — including the
        shared-coin implementation over messages."""
        mrf = hardcore_mrf(path_graph(3), 1.0)
        gibbs = exact_gibbs_distribution(mrf)
        samples = [
            tuple(
                int(s)
                for s in run_local_metropolis_protocol(mrf, rounds=60, seed=seed)[0]
            )
            for seed in range(1500)
        ]
        empirical = empirical_distribution(samples, mrf.n, mrf.q)
        assert gibbs.tv_distance(empirical) < 0.06

    def test_agrees_with_chain_implementation(self):
        """Protocol and chain are two implementations of one algorithm:
        their output distributions must agree."""
        from repro.chains import LocalMetropolisChain

        mrf = proper_coloring_mrf(path_graph(3), 3)
        protocol_samples = [
            tuple(
                int(s)
                for s in run_local_metropolis_protocol(
                    mrf, rounds=30, seed=seed, initial=np.array([0, 1, 0])
                )[0]
            )
            for seed in range(1200)
        ]
        chain_samples = []
        for seed in range(1200):
            chain = LocalMetropolisChain(mrf, initial=[0, 1, 0], seed=10_000 + seed)
            chain.run(30)
            chain_samples.append(tuple(int(s) for s in chain.config))
        a = empirical_distribution(protocol_samples, mrf.n, mrf.q)
        b = empirical_distribution(chain_samples, mrf.n, mrf.q)
        assert a.tv_distance(b) < 0.08

    def test_improper_never_gets_worse(self):
        """The monochromatic-edge count is non-increasing round over round
        (filter rules 1-2), also through the message-passing path."""
        mrf = proper_coloring_mrf(cycle_graph(8), 5)

        def bad_edges(config):
            return sum(1 for u, v in mrf.edges if config[u] == config[v])

        initial = np.zeros(8, dtype=int)
        previous = bad_edges(initial)
        for rounds in (1, 2, 4, 8, 16):
            out, _ = run_local_metropolis_protocol(
                mrf, rounds=rounds, seed=42, initial=initial
            )
            # Same seed: longer runs extend the same trajectory.
            current = bad_edges(out)
            assert current <= previous
            previous = current
