"""Oracles for the per-round kernels of the batched engines.

A mixing job runs thousands of replicas on a few vertices, so each of its
rounds is dominated by three small kernels: the Luby select of the
LubyGlauber engines, the accept of the LocalMetropolis engines and the TV
probe.  Each is checked here against the straightforward formulation it
replaced:

* the Luby select against the sparse-matmul select (two one-sided
  incidence products), mask for mask from equal RNG states, including
  float32 rank ties forced through a stub RNG;
* the accept against a ``np.where`` select, at int8 and int16 spins;
* the TV probe against the distance to a normalised empirical
  :class:`~repro.mrf.distribution.GibbsDistribution`, compared with ``==``;
* every engine's feasibility mask against the model's own test, row by
  row.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.analysis import batch_empirical_distribution, batch_tv_to_exact
from repro.chains import ensemble as ensemble_module
from repro.chains.ensemble import _LubySelector, _RegionSelector
from repro.csp import exact_csp_gibbs_distribution
from repro.csp.builders import coloring_csp, dominating_set_csp
from repro.families import DISPATCH, dispatch
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph, torus_graph
from repro.mrf import (
    hardcore_mrf,
    ising_mrf,
    list_coloring_mrf,
    potts_mrf,
    proper_coloring_mrf,
)
from repro.mrf.distribution import GibbsDistribution, exact_gibbs_distribution


def sparse_luby_select(rng, n, replicas, edge_u, edge_v):
    """The Luby select as two sparse incidence products (the replaced kernel).

    Vertex ``u`` of edge ``(u, v)`` loses in a replica when its rank is
    ``<=`` the rank of ``v``, and likewise for ``v``; a vertex is selected
    iff it loses on no edge.  Draws no ranks without edges.
    """
    m = len(edge_u)
    if not m:
        return np.ones((n, replicas), dtype=bool)
    ones = np.ones(m, dtype=np.int32)
    arange = np.arange(m)
    side_u = sp.csr_matrix((ones, (edge_u, arange)), shape=(n, m))
    side_v = sp.csr_matrix((ones, (edge_v, arange)), shape=(n, m))
    ranks = rng.random((n, replicas), dtype=np.float32)
    ru = ranks[edge_u]
    rv = ranks[edge_v]
    lose = side_u @ (ru <= rv).view(np.uint8) + side_v @ (rv <= ru).view(np.uint8)
    return lose == 0


class TiedRanks:
    """A stub RNG whose float32 ranks take three values, so neighbours tie often.

    It serves both call forms of ``Generator.random``: a fresh ``size``
    array (the oracle) and a fill of ``out`` (the kernel).
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def random(self, size=None, dtype=np.float64, out=None):
        shape = out.shape if out is not None else size
        values = (self._rng.integers(0, 3, size=shape) / 4).astype(dtype)
        if out is None:
            return values
        out[...] = values
        return out


def _edges(graph):
    """Sorted ``u < v`` edge arrays of a networkx graph on ``0..n-1``."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.ascontiguousarray(edges[:, 0]), np.ascontiguousarray(edges[:, 1])


def _with_isolated_vertices():
    graph = nx.Graph()
    graph.add_nodes_from(range(7))
    graph.add_edges_from([(1, 2), (2, 4), (4, 1), (5, 6)])  # 0 and 3 isolated
    return graph


def _assert_selects_like_the_oracle(edge_u, edge_v, n, replicas, make_rng, steps=4):
    selector = _LubySelector(edge_u, edge_v, n, replicas)
    rng, oracle_rng = make_rng(), make_rng()
    for _ in range(steps):
        expected = sparse_luby_select(oracle_rng, n, replicas, edge_u, edge_v)
        mask = selector.select(rng)
        np.testing.assert_array_equal(mask, expected)
        v_idx, r_idx = selector.select_pairs(rng)
        expected_v, expected_r = np.nonzero(
            sparse_luby_select(oracle_rng, n, replicas, edge_u, edge_v)
        )
        np.testing.assert_array_equal(v_idx, expected_v)
        np.testing.assert_array_equal(r_idx, expected_r)
    if isinstance(rng, np.random.Generator):
        # Equal streams afterwards: the kernel draws exactly what the oracle drew.
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return mask


class TestLubySelect:
    @pytest.mark.parametrize("replicas", [1, 37])
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(6), grid_graph(3, 3), torus_graph(4, 4), star_graph(9),
         _with_isolated_vertices(), nx.empty_graph(4)],
        ids=["cycle", "grid", "torus", "star", "isolated", "edgeless"],
    )
    def test_mrf_graphs_match_the_sparse_select(self, graph, replicas):
        model = hardcore_mrf(graph, 0.7)
        compiled = model.compiled()
        _assert_selects_like_the_oracle(
            compiled.edge_u, compiled.edge_v, model.n, replicas,
            lambda: np.random.default_rng(11),
        )

    def test_isolated_vertices_are_always_selected(self):
        edge_u, edge_v = _edges(_with_isolated_vertices())
        mask = _LubySelector(edge_u, edge_v, 7, 64).select(np.random.default_rng(0))
        assert mask[[0, 3]].all()

    @pytest.mark.parametrize(
        "csp",
        [dominating_set_csp(grid_graph(3, 3)), coloring_csp(cycle_graph(5), 3),
         dominating_set_csp(star_graph(6))],
        ids=["domset-grid", "coloring-csp", "domset-star"],
    )
    def test_csp_conflict_graphs_match_the_sparse_select(self, csp):
        compiled = csp.compiled()
        _assert_selects_like_the_oracle(
            compiled.conflict_u, compiled.conflict_v, csp.n, 50,
            lambda: np.random.default_rng(5),
        )

    def test_region_selector_matches_the_sparse_select_on_the_region(self):
        graph = torus_graph(4, 4)
        edge_u, edge_v = _edges(graph)
        region = np.array([0, 1, 2, 5, 6, 9, 15], dtype=np.int64)
        local = {int(v): i for i, v in enumerate(region)}
        internal = [
            (local[u], local[v]) for u, v in zip(edge_u.tolist(), edge_v.tolist())
            if u in local and v in local
        ]
        local_u = np.asarray([u for u, _ in internal], dtype=np.int64)
        local_v = np.asarray([v for _, v in internal], dtype=np.int64)
        selector = _RegionSelector(region, edge_u, edge_v, 16, 40)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(4):
            v_idx, r_idx = selector.select_pairs(rng)
            s_idx, expected_r = np.nonzero(
                sparse_luby_select(oracle_rng, region.size, 40, local_u, local_v)
            )
            np.testing.assert_array_equal(v_idx, region[s_idx])
            np.testing.assert_array_equal(r_idx, expected_r)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize(
        "graph", [cycle_graph(6), torus_graph(4, 4), star_graph(5)],
        ids=["cycle", "torus", "star"],
    )
    def test_float32_ties_lose_on_both_sides(self, graph):
        edge_u, edge_v = _edges(graph)
        n, replicas = graph.number_of_nodes(), 64
        mask = _assert_selects_like_the_oracle(
            edge_u, edge_v, n, replicas, lambda: TiedRanks(2), steps=1
        )
        ranks = TiedRanks(2).random((n, replicas), dtype=np.float32)
        ties = ranks[edge_u] == ranks[edge_v]
        assert ties.any()
        edge, replica = np.nonzero(ties)
        assert not mask[edge_u[edge], replica].any()
        assert not mask[edge_v[edge], replica].any()

    def test_luby_tables_are_refused_past_the_padding_cap(self):
        # One hub among many leaves: the padded rows would be mostly padding.
        edge_u, edge_v = _edges(star_graph(3000))
        with pytest.raises(repro.StateSpaceTooLargeError, match="Luby neighbour"):
            _LubySelector(edge_u, edge_v, 3001, 4)


def _wide_coloring():
    return proper_coloring_mrf(path_graph(4), 200)


def _wide_list_coloring():
    lists = {v: list(range(v, 150 + v)) for v in range(5)}
    return list_coloring_mrf(cycle_graph(5), 200, lists)


class TestMetropolisAccept:
    @pytest.mark.parametrize(
        "model, engine, dtype",
        [
            (proper_coloring_mrf(cycle_graph(6), 3), "EnsembleLocalMetropolisColoring", np.int8),
            (_wide_coloring(), "EnsembleLocalMetropolisColoring", np.int16),
            (hardcore_mrf(grid_graph(3, 3), 1.5), "EnsembleLocalMetropolisMRF", np.int8),
            (_wide_list_coloring(), "EnsembleLocalMetropolisMRF", np.int16),
            (dominating_set_csp(cycle_graph(6)), "EnsembleLocalMetropolisCSP", np.int8),
            (coloring_csp(cycle_graph(5), 200), "EnsembleLocalMetropolisCSP", np.int16),
        ],
        ids=["coloring-int8", "coloring-int16", "mrf-int8", "mrf-int16", "csp-int8",
             "csp-int16"],
    )
    def test_accept_equals_the_where_select(self, monkeypatch, model, engine, dtype):
        accept = ensemble_module._metropolis_accept
        blocked_counts = []

        def checked_accept(host, proposals, failed, incidence):
            blocked = (incidence @ failed.astype(np.int64)) > 0
            expected = np.where(blocked, host._config, proposals)
            accept(host, proposals, failed, incidence)
            assert host._config.dtype == expected.dtype == dtype
            np.testing.assert_array_equal(host._config, expected)
            blocked_counts.append(int(blocked.sum()))

        monkeypatch.setattr(ensemble_module, "_metropolis_accept", checked_accept)
        ensemble = repro.make_ensemble(model, 256, method="local-metropolis", seed=4)
        assert type(ensemble).__name__ == engine
        ensemble.advance(6)
        assert len(blocked_counts) == 6
        # Both branches of the select ran: some pairs blocked, some accepted.
        assert 0 < sum(blocked_counts) < 6 * model.n * 256


def _parent_tv(batch, exact):
    """The TV probe as a distribution: normalised counts, then ``tv_distance``."""
    n, q = batch.shape[1], exact.q
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    counts = np.bincount(batch @ powers, minlength=q**n).astype(float)
    return exact.tv_distance(GibbsDistribution(n, q, counts))


_CANDIDATES = [
    proper_coloring_mrf(cycle_graph(5), 3),
    hardcore_mrf(path_graph(5), 0.7),
    ising_mrf(cycle_graph(5), 0.3),
    potts_mrf(path_graph(4), 3, 0.5),
    dominating_set_csp(path_graph(5)),
    coloring_csp(cycle_graph(4), 3),
]


def _model_for(row):
    for model in _CANDIDATES:
        try:
            if dispatch(model, row.method) is row:
                return model
        except repro.ModelError:
            continue
    raise AssertionError(f"no candidate model dispatches to {row}")


class TestTvProbe:
    @pytest.mark.parametrize(
        "row", DISPATCH, ids=[f"{row.kind}-{row.ensemble.__name__}" for row in DISPATCH]
    )
    @pytest.mark.parametrize("parallel", [None, 0], ids=["direct", "sharded"])
    def test_probe_equals_the_distance_to_the_empirical_distribution(self, row, parallel):
        model = _model_for(row)
        exact = (
            exact_csp_gibbs_distribution(model)
            if row.kind == "csp" else exact_gibbs_distribution(model)
        )
        ensemble = repro.make_ensemble(
            model, 3000, method=row.method, seed=8, parallel=parallel,
            shard_size=None if parallel is None else 1000,
        )
        for _ in range(5):
            batch = ensemble.advance(1).config
            tv = batch_tv_to_exact(batch, exact)
            assert tv == _parent_tv(batch, exact)
            assert tv == exact.tv_distance(batch_empirical_distribution(batch, exact.q))
        if parallel is not None:
            ensemble.close()

    def test_out_of_range_spins_are_refused_by_one_unsigned_comparison(self):
        exact = exact_gibbs_distribution(proper_coloring_mrf(path_graph(3), 3))
        for dtype in (np.int8, np.int16, np.int64, np.uint8):
            # [0, 1, 3] has the index of the proper colouring [0, 2, 0].
            with pytest.raises(repro.ModelError, match="0..2"):
                batch_tv_to_exact(np.array([[0, 2, 0], [0, 1, 3]], dtype=dtype), exact)
        for dtype in (np.int8, np.int64, np.float64):
            with pytest.raises(repro.ModelError, match="0..2"):
                batch_tv_to_exact(np.array([[0, 2, 0], [0, -1, 0]], dtype=dtype), exact)


@pytest.mark.parametrize(
    "row", DISPATCH, ids=[f"{row.kind}-{row.ensemble.__name__}" for row in DISPATCH]
)
def test_feasibility_mask_is_the_model_test_row_by_row(row):
    """``is_feasible()`` is an ``(R,)`` bool mask, from a start with infeasible rows."""
    model = _model_for(row)
    start = np.random.default_rng(3).integers(0, model.q, size=(64, model.n))
    ensemble = repro.make_ensemble(model, 64, method=row.method, initial=start, seed=4)
    for _ in range(3):
        mask = ensemble.is_feasible()
        assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (64,)
        expected = [model.is_feasible(config) for config in ensemble.config]
        assert mask.tolist() == expected
        ensemble.advance(1)
    assert not all(model.is_feasible(config) for config in start)
