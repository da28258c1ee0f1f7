"""Cross-module integration tests.

These tie independent subsystems together: the high-level API against the
exact CFTP sampler and the message-passing protocols against the chain
implementations.
"""

import numpy as np

import repro
from repro.analysis import empirical_distribution, marginal_from_samples
from repro.chains import LubyGlauberChain
from repro.chains.cftp import MonotoneCFTP
from repro.distributed import run_luby_glauber_protocol
from repro.graphs import cycle_graph, path_graph, torus_graph
from repro.mrf import exact_gibbs_distribution, ising_mrf, proper_coloring_mrf


class TestSamplerCrossValidation:
    def test_api_sampler_matches_cftp_ground_truth(self):
        """Two entirely different samplers — approximate LocalMetropolis via
        the public API and exact Propp-Wilson CFTP — must agree on the
        per-vertex marginals of an Ising chain."""
        mrf = ising_mrf(path_graph(6), beta=1.7, field=0.8)
        api_samples = [
            tuple(int(s) for s in repro.sample(mrf, method="local-metropolis",
                                               rounds=120, seed=seed))
            for seed in range(800)
        ]
        cftp_samples = [
            tuple(int(s) for s in MonotoneCFTP(mrf, seed=50_000 + seed).sample())
            for seed in range(800)
        ]
        for v in range(6):
            api_marginal = marginal_from_samples(api_samples, v, 2)
            cftp_marginal = marginal_from_samples(cftp_samples, v, 2)
            assert np.abs(api_marginal - cftp_marginal).max() < 0.08

    def test_protocol_matches_chain_luby_glauber(self):
        """Message-passing LubyGlauber and the chain implementation target
        the same distribution."""
        mrf = proper_coloring_mrf(cycle_graph(4), 3)
        gibbs = exact_gibbs_distribution(mrf)
        protocol_samples = [
            tuple(int(s) for s in run_luby_glauber_protocol(mrf, rounds=60, seed=seed)[0])
            for seed in range(1200)
        ]
        chain_samples = []
        for seed in range(1200):
            chain = LubyGlauberChain(mrf, seed=90_000 + seed)
            chain.run(60)
            chain_samples.append(tuple(int(s) for s in chain.config))
        a = empirical_distribution(protocol_samples, 4, 3)
        b = empirical_distribution(chain_samples, 4, 3)
        assert gibbs.tv_distance(a) < 0.08
        assert gibbs.tv_distance(b) < 0.08


class TestEndToEndBudgets:
    def test_theorem_budget_suffices_on_torus(self):
        """Sampling with the default eps-budget yields proper colourings and
        plausible marginal uniformity on a real 2-d instance."""
        mrf = proper_coloring_mrf(torus_graph(8, 8), 16)
        samples = [
            repro.sample(mrf, method="local-metropolis", eps=0.1, seed=seed)
            for seed in range(60)
        ]
        for sample in samples:
            assert mrf.is_feasible(sample)
        # Vertex 0's colour should look uniform over 16 colours.
        counts = np.zeros(16)
        for sample in samples:
            counts[sample[0]] += 1
        assert counts.max() <= 60 * 0.35  # no colour grossly dominates
