"""Tests for GibbsDistribution, including hypothesis TV-metric properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp import dominating_set_csp, exact_csp_gibbs_distribution, not_all_equal_csp
from repro.errors import ModelError, StateSpaceTooLargeError
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.mrf import exact_gibbs_distribution, hardcore_mrf, ising_mrf, proper_coloring_mrf
from repro.mrf import distribution
from repro.mrf.distribution import GibbsDistribution, config_index, index_config, spin_blocks


class TestIndexing:
    def test_roundtrip(self):
        for q, n in [(2, 4), (3, 3), (5, 2)]:
            for index in range(q**n):
                assert config_index(index_config(index, q, n), q) == index

    def test_lexicographic_order(self):
        # Vertex 0 is the most significant digit.
        assert config_index((0, 0, 1), 2) == 1
        assert config_index((1, 0, 0), 2) == 4

    @given(n=st.integers(1, 5), q=st.integers(2, 4), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, n, q, data):
        config = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
        assert index_config(config_index(config, q), q, n) == config


class TestQueries:
    def test_marginals_sum_to_one(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        for v in range(3):
            assert dist.marginal(v).sum() == pytest.approx(1.0)

    def test_pair_marginal_consistent(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        joint = dist.pair_marginal(0, 2)
        assert joint.sum() == pytest.approx(1.0)
        assert np.allclose(joint.sum(axis=1), dist.marginal(0))
        assert np.allclose(joint.sum(axis=0), dist.marginal(2))

    def test_pair_marginal_orientation(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        assert np.allclose(dist.pair_marginal(0, 2), dist.pair_marginal(2, 0).T)

    def test_pair_marginal_rejects_same_vertex(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        with pytest.raises(ModelError):
            dist.pair_marginal(1, 1)

    def test_restrict_matches_marginal(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        restricted = dist.restrict([2])
        assert np.allclose(restricted.probs, dist.marginal(2))

    def test_restrict_order(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        ab = dist.restrict([0, 2])
        ba = dist.restrict([2, 0])
        assert np.allclose(
            ab.probs.reshape(2, 2), ba.probs.reshape(2, 2).T
        )

    def test_condition(self, path3_coloring):
        dist = exact_gibbs_distribution(path3_coloring)
        conditioned = dist.condition({0: 0})
        for config in conditioned.support():
            assert config[0] == 0
        assert conditioned.probs.sum() == pytest.approx(1.0)

    def test_condition_zero_probability_event(self, path3_coloring):
        dist = exact_gibbs_distribution(path3_coloring)
        with pytest.raises(ModelError, match="probability zero"):
            dist.condition({0: 0, 1: 0})

    def test_entropy_uniform(self):
        dist = GibbsDistribution(2, 2, np.ones(4))
        assert dist.entropy() == pytest.approx(np.log(4))

    def test_sampling_matches_distribution(self, rng):
        dist = GibbsDistribution(1, 3, np.array([0.2, 0.3, 0.5]))
        samples = dist.sample(rng, size=20_000)
        counts = np.zeros(3)
        for (spin,) in samples:
            counts[spin] += 1
        assert np.allclose(counts / 20_000, [0.2, 0.3, 0.5], atol=0.02)

    def test_single_sample_shape(self, rng):
        dist = GibbsDistribution(2, 2, np.ones(4))
        sample = dist.sample(rng)
        assert isinstance(sample, tuple) and len(sample) == 2


class TestTVDistance:
    def test_identical_distributions(self, path3_ising):
        dist = exact_gibbs_distribution(path3_ising)
        assert dist.tv_distance(dist) == 0.0

    def test_disjoint_supports(self):
        a = GibbsDistribution(1, 2, np.array([1.0, 0.0]))
        b = GibbsDistribution(1, 2, np.array([0.0, 1.0]))
        assert a.tv_distance(b) == pytest.approx(1.0)

    def test_mismatched_spaces_rejected(self):
        a = GibbsDistribution(1, 2, np.ones(2))
        b = GibbsDistribution(2, 2, np.ones(4))
        with pytest.raises(ModelError):
            a.tv_distance(b)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_property_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        size = 8
        a = GibbsDistribution(3, 2, rng.uniform(0.0, 1.0, size) + 1e-9)
        b = GibbsDistribution(3, 2, rng.uniform(0.0, 1.0, size) + 1e-9)
        c = GibbsDistribution(3, 2, rng.uniform(0.0, 1.0, size) + 1e-9)
        dab, dba = a.tv_distance(b), b.tv_distance(a)
        assert dab == pytest.approx(dba)  # symmetry
        assert 0.0 <= dab <= 1.0  # bounds
        assert a.tv_distance(c) <= dab + b.tv_distance(c) + 1e-12  # triangle


class TestValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(ModelError):
            GibbsDistribution(2, 2, np.ones(3))

    def test_rejects_negative_mass(self):
        with pytest.raises(ModelError):
            GibbsDistribution(1, 2, np.array([0.5, -0.5]))

    def test_rejects_zero_mass(self):
        with pytest.raises(ModelError):
            GibbsDistribution(1, 2, np.zeros(2))

    def test_state_space_guard(self):
        mrf = proper_coloring_mrf(path_graph(20), 3)
        with pytest.raises(StateSpaceTooLargeError):
            exact_gibbs_distribution(mrf, max_states=100)


class TestBlockedEnumeration:
    """The blocked, vectorised enumeration equals the per-configuration loop."""

    @pytest.fixture(params=[1, 7, 25, 1 << 15], ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(distribution, "ENUMERATION_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("n, q", [(3, 2), (4, 3), (2, 5)])
    def test_spin_blocks_follow_config_index_order(self, n, q, block):
        rows = np.concatenate([spins.T for _, spins in spin_blocks(n, q)])
        expected = np.array(list(itertools.product(range(q), repeat=n)))
        np.testing.assert_array_equal(rows, expected)
        starts = [start for start, _ in spin_blocks(n, q)]
        assert starts == list(range(0, q**n, block))

    @pytest.mark.parametrize(
        "model",
        [
            hardcore_mrf(grid_graph(3, 3), 0.5),
            proper_coloring_mrf(cycle_graph(6), 3),
            ising_mrf(cycle_graph(7), 0.3, 1.3),
        ],
        ids=["hardcore-3x3", "coloring-C6-q3", "ising-C7"],
    )
    def test_mrf_weights_equal_the_loop_bit_for_bit(self, model, block):
        weights = [model.weight(c) for c in itertools.product(range(model.q), repeat=model.n)]
        expected = GibbsDistribution(model.n, model.q, np.array(weights))
        np.testing.assert_array_equal(exact_gibbs_distribution(model).probs, expected.probs)

    @pytest.mark.parametrize(
        "csp",
        [
            dominating_set_csp(cycle_graph(7), weight=0.7),
            not_all_equal_csp([(0, 1, 2), (2, 3), (3, 4, 5, 0)], n=6, q=3),
        ],
        ids=["domset-weighted", "nae"],
    )
    def test_csp_weights_equal_the_loop_bit_for_bit(self, csp, block):
        weights = [csp.weight(c) for c in itertools.product(range(csp.q), repeat=csp.n)]
        expected = GibbsDistribution(csp.n, csp.q, np.array(weights))
        np.testing.assert_array_equal(exact_csp_gibbs_distribution(csp).probs, expected.probs)
