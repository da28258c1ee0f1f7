"""Tests for the MRF container (repro.mrf.model)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graphs import path_graph, cycle_graph
from repro.mrf import MRF, proper_coloring_mrf
from repro.mrf.model import as_config


def two_state_edge(off_diag=1.0, diag=0.0):
    return np.array([[diag, off_diag], [off_diag, diag]])


class TestValidation:
    def test_rejects_q_below_two(self):
        with pytest.raises(ModelError):
            MRF(path_graph(2), 1, np.ones((1, 1)), np.ones(1))

    def test_rejects_wrong_edge_shape(self):
        with pytest.raises(ModelError, match="activity must be"):
            MRF(path_graph(2), 2, np.ones((3, 3)), np.ones(2))

    def test_rejects_negative_edge_activity(self):
        bad = np.array([[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(ModelError, match="non-negative"):
            MRF(path_graph(2), 2, bad, np.ones(2))

    def test_rejects_asymmetric_edge(self):
        bad = np.array([[1.0, 0.2], [0.8, 1.0]])
        with pytest.raises(ModelError, match="symmetric"):
            MRF(path_graph(2), 2, bad, np.ones(2))

    def test_rejects_zero_matrix(self):
        with pytest.raises(ModelError, match="identically zero"):
            MRF(path_graph(2), 2, np.zeros((2, 2)), np.ones(2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_edge_activity(self, bad):
        with pytest.raises(ModelError, match="finite"):
            MRF(path_graph(2), 2, np.array([[1.0, bad], [bad, 1.0]]), np.ones(2))
        with pytest.raises(ModelError, match="finite"):
            MRF(path_graph(2), 2, {(0, 1): np.full((2, 2), bad)}, np.ones(2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_vertex_activity(self, bad):
        with pytest.raises(ModelError, match="finite"):
            MRF(path_graph(2), 2, np.ones((2, 2)), np.array([1.0, bad]))

    def test_rejects_all_zero_vertex_activity(self):
        with pytest.raises(ModelError, match="positive activity"):
            MRF(path_graph(2), 2, np.ones((2, 2)), np.zeros(2))

    def test_rejects_missing_edge_activity_in_mapping(self):
        with pytest.raises(ModelError, match="no edge activity"):
            MRF(path_graph(3), 2, {(0, 1): np.ones((2, 2))}, np.ones(2))

    def test_rejects_bad_vertex_labels(self):
        import networkx as nx

        g = nx.Graph([(1, 2)])
        with pytest.raises(ModelError, match="0..n-1"):
            MRF(g, 2, np.ones((2, 2)), np.ones(2))

    def test_accepts_reversed_edge_key(self):
        mrf = MRF(path_graph(2), 2, {(1, 0): two_state_edge()}, np.ones(2))
        assert mrf.edge_activity(0, 1)[0, 1] == 1.0

    def test_per_vertex_activity_matrix(self):
        acts = np.array([[1.0, 2.0], [3.0, 4.0]])
        mrf = MRF(path_graph(2), 2, np.ones((2, 2)), acts)
        assert mrf.vertex_activity[1, 0] == 3.0


class TestWeights:
    def test_coloring_weight_is_indicator(self, path3_coloring):
        assert path3_coloring.weight((0, 1, 0)) == 1.0
        assert path3_coloring.weight((0, 0, 1)) == 0.0

    def test_weight_rejects_wrong_length(self, path3_coloring):
        with pytest.raises(ModelError):
            path3_coloring.weight((0, 1))

    def test_log_weight(self, path3_ising):
        config = (0, 0, 0)
        assert np.isclose(
            path3_ising.log_weight(config), np.log(path3_ising.weight(config))
        )

    def test_log_weight_infeasible(self, path3_coloring):
        assert path3_coloring.log_weight((1, 1, 1)) == float("-inf")

    def test_hardcore_weights(self, path3_hardcore):
        lam = 1.5
        assert path3_hardcore.weight((0, 0, 0)) == 1.0
        assert path3_hardcore.weight((1, 0, 1)) == pytest.approx(lam**2)
        assert path3_hardcore.weight((1, 1, 0)) == 0.0

    def test_feasibility(self, path3_hardcore):
        assert path3_hardcore.is_feasible((1, 0, 1))
        assert not path3_hardcore.is_feasible((1, 1, 1))


class TestAccessors:
    def test_neighbors_sorted(self):
        mrf = proper_coloring_mrf(cycle_graph(5), 3)
        assert mrf.neighbors(0) == (1, 4)
        assert mrf.degree(0) == 2
        assert mrf.max_degree == 2

    def test_edge_activity_rejects_non_edge(self, path3_coloring):
        with pytest.raises(ModelError, match="not an edge"):
            path3_coloring.edge_activity(0, 2)

    def test_normalized_edge_activity(self):
        mrf = MRF(path_graph(2), 2, 2.0 * np.ones((2, 2)), np.ones(2))
        assert np.allclose(mrf.normalized_edge_activity(0, 1), np.ones((2, 2)))

    def test_hard_constraint_detection(self, path3_coloring, path3_ising):
        assert path3_coloring.is_hard_constraint_model()
        assert not path3_ising.is_hard_constraint_model()

    def test_as_config(self):
        assert as_config(np.array([1, 2, 0])) == (1, 2, 0)

    def test_activities_readonly(self, path3_coloring):
        with pytest.raises(ValueError):
            path3_coloring.vertex_activity[0, 0] = 5.0
        with pytest.raises(ValueError):
            path3_coloring.edge_activity(0, 1)[0, 0] = 5.0
