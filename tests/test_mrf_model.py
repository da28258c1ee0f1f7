"""Tests for the MRF container (repro.mrf.model)."""

import json
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import DynamicEnsemble, JobSpec
from repro.errors import ModelError
from repro.families import DISPATCH, dispatch
from repro.graphs import cycle_graph, path_graph, torus_graph
from repro.mrf import MRF, hardcore_mrf, proper_coloring_mrf
from repro.mrf.model import as_config
from repro.serialize import encode_array


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


class TestSimpleGraph:
    """Every entry path refuses a graph that is not simple, by the one rule."""

    def test_constructor_refuses_a_self_loop(self):
        graph = path_graph(2)
        graph.add_edge(1, 1)
        with pytest.raises(ModelError, match="self-loop; an MRF's edges must form a simple"):
            MRF(graph, 2, two_state_edge(), np.ones(2))

    def test_constructor_refuses_a_repeated_edge(self):
        graph = nx.MultiGraph([(0, 1), (1, 0)])
        with pytest.raises(ModelError, match="repeated; an MRF's edges must form a simple"):
            MRF(graph, 2, two_state_edge(), np.ones(2))

    @pytest.mark.parametrize(
        "edges, edge_index",
        [([[1, 1]], [0]), ([[0, 1], [0, 1]], [0, 1]), ([[0, 1], [1, 0]], [1, 1])],
        ids=["self-loop", "repeated", "reversed-repeat"],
    )
    def test_from_dict_refuses_a_self_loop_or_repeated_edge(self, edges, edge_index):
        payload = MRF(path_graph(2), 2, two_state_edge(), np.ones(2)).to_dict()
        edges = np.array(edges)
        payload["arrays"].update(
            edge_u=encode_array(edges[:, 0]),
            edge_v=encode_array(edges[:, 1]),
            edge_table=encode_array(np.array(edge_index)),
            palette=encode_array(np.array([two_state_edge(), two_state_edge(2.0, 1.0)])),
        )
        with pytest.raises(ModelError, match="an MRF's edges must form a simple graph"):
            MRF.from_dict(payload)

    def test_with_edge_refuses_a_self_loop_by_the_same_rule(self):
        mrf = MRF(path_graph(3), 2, two_state_edge(), np.ones(2))
        with pytest.raises(ModelError, match="self-loop; an MRF's edges must form a simple"):
            mrf.with_edge(1, 1, two_state_edge())
        with pytest.raises(ModelError, match="outside vertices"):
            mrf.with_edge(0, 3, two_state_edge())


Q = 3
#: Edge tables: a colouring, a soft table, a constant, a value-equal copy of
#: the colouring (must share its palette entry) and one differing only in
#: the sign of its zeros (distinct float64 bytes, so a distinct entry).
TABLES = [
    np.ones((Q, Q)) - np.eye(Q),
    np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 3.0]]),
    np.full((Q, Q), 0.25),
    np.ones((Q, Q)) - np.eye(Q),
    np.where(np.eye(Q) > 0, -0.0, 1.0),
]
ROWS = [np.ones(Q), np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0]), np.ones(Q)]
N = 6
START_EDGES = {(0, 1): 1, (1, 2): 0, (2, 3): 2, (3, 4): 3, (0, 5): 1}
START_ROWS = [0, 1, 1, 2, 3, 0]


def _fresh(edges: dict, rows: list) -> MRF:
    """The model built from scratch by the public constructor."""
    graph = nx.Graph()
    graph.add_nodes_from(range(N))
    graph.add_edges_from(edges)
    tables = {edge: TABLES[k] for edge, k in edges.items()}
    return MRF(graph, Q, tables, np.array([ROWS[k] for k in rows]))


def _stored(mrf: MRF) -> list[np.ndarray]:
    arrays = mrf.compiled()
    return [
        arrays.edge_u, arrays.edge_v, arrays.edge_table, arrays.palette,
        arrays.vertex_index, arrays.vertex_palette,
    ]


def _in_first_use_order(index: np.ndarray, size: int) -> bool:
    """Entries ``0..size-1`` each used, and first used in that order."""
    firsts = [int(value) for i, value in enumerate(index) if value not in index[:i]]
    return firsts == list(range(size))


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["with_edge", "without_edge", "with_edge_activity",
                         "with_vertex_activity"]),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
        st.integers(0, len(TABLES) - 1),
    ),
    max_size=12,
)


class TestStoredForm:
    @settings(max_examples=80, deadline=None)
    @given(OPERATIONS)
    def test_mutations_store_the_arrays_of_a_fresh_build(self, operations):
        edges, rows = dict(START_EDGES), list(START_ROWS)
        mrf = _fresh(edges, rows)
        for op, u, v, k in operations:
            key = (min(u, v), max(u, v))
            if op == "with_vertex_activity":
                mrf = mrf.with_vertex_activity(u, ROWS[k % len(ROWS)])
                rows[u] = k % len(ROWS)
            elif u == v or (op != "with_edge" and key not in edges):
                with pytest.raises(ModelError):
                    getattr(mrf, op)(u, v, *([TABLES[k]] if op != "without_edge" else []))
            elif op == "without_edge":
                mrf = mrf.without_edge(v, u)
                del edges[key]
            else:
                mrf = getattr(mrf, op)(v, u, TABLES[k])
                edges[key] = k
        fresh = _fresh(edges, rows)
        decoded = MRF.from_dict(json.loads(json.dumps(mrf.to_dict())))
        for built in (fresh, decoded):
            for mine, theirs in zip(_stored(mrf), _stored(built)):
                assert mine.dtype == theirs.dtype
                np.testing.assert_array_equal(mine, theirs)
            assert built.model_fingerprint() == mrf.model_fingerprint()
        arrays = mrf.compiled()
        assert _in_first_use_order(arrays.edge_table.tolist(), arrays.palette.shape[0])
        assert _in_first_use_order(arrays.vertex_index.tolist(), arrays.vertex_palette.shape[0])
        assert mrf.edges == sorted(edges)
        for (u, v), k in edges.items():
            np.testing.assert_array_equal(mrf.edge_activity(v, u), TABLES[k])


def _refuse_networkx(self, *args, **kwargs):
    raise AssertionError("a networkx graph was built")


class TestNoNetworkx:
    """Decode, mutate, identify, pickle and run an MRF without building a graph."""

    def test_model_paths_build_no_graph(self, monkeypatch):
        mrf = hardcore_mrf(torus_graph(4, 4), 1.5)
        payload = json.loads(json.dumps(mrf.to_dict()))
        monkeypatch.setattr(nx.Graph, "__init__", _refuse_networkx)
        decoded = MRF.from_dict(payload)
        derived = [
            decoded.with_edge(0, 5, np.ones((2, 2))),
            decoded.without_edge(0, 1),
            decoded.with_edge_activity(0, 1, np.full((2, 2), 2.0)),
            decoded.with_vertex_activity(3, [1.0, 0.5]),
        ]
        for model in [decoded, *derived]:
            model.model_fingerprint()
            JobSpec.sample_many(model, 2, rounds=1, seed=0).cache_key()
            restored = pickle.loads(pickle.dumps(model))
            assert restored.model_fingerprint() == model.model_fingerprint()
        with pytest.raises(AssertionError, match="networkx"):
            decoded.graph

    @pytest.mark.parametrize("row", [row for row in DISPATCH if row.kind == "mrf"],
                             ids=lambda row: row.ensemble.__name__)
    def test_every_mrf_dispatch_row_runs_without_a_graph(self, monkeypatch, row):
        model = (
            proper_coloring_mrf(path_graph(4), 3) if row.when is not None
            else hardcore_mrf(path_graph(4), 0.7)
        )
        monkeypatch.setattr(nx.Graph, "__init__", _refuse_networkx)
        assert dispatch(model, row.method) is row
        batch = repro.run_spec(JobSpec.sample_many(model, 4, method=row.method, rounds=3, seed=1))
        assert batch.shape == (4, 4)
        curve = repro.run_spec(
            JobSpec.tv_curve(model, (1, 2), method=row.method, replicas=64, seed=2)
        )
        assert [r for r, _ in curve] == [1, 2]

    def test_dynamic_remove_and_resample_build_no_graph(self, monkeypatch):
        dyn = DynamicEnsemble(proper_coloring_mrf(torus_graph(6, 6), 6), 8, seed=3)
        monkeypatch.setattr(nx.Graph, "__init__", _refuse_networkx)
        dyn.remove_edge(0, 1).resample()
        assert dyn.resamples == 1 and dyn.config.shape == (8, 36)
