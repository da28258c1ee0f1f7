"""The compiled index-array forms the general engines build from.

``MRF.compiled()`` / ``LocalCSP.compiled()`` must describe exactly the
model's Python structures, be memoized per immutable instance (built on
the first engine build, never at construction, decode or fingerprint
time), stay read-only, and stay out of pickles.  The batched
LocalMetropolis CSP filter built on them must equal the sequential
chain's pass probabilities bit for bit.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

import repro
import repro.compiled
from repro import JobSpec
from repro.backend import get_backend
from repro.chains.csp_chains import constraint_pass_probability, greedy_csp_config
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisCSP,
    EnsembleLubyGlauberCSP,
    EnsembleLubyGlauberMRF,
)
from repro.chains.fastpaths import sorted_edge_arrays
from repro.chains.luby_glauber import LubyGlauberChain
from repro.csp import (
    Constraint,
    LocalCSP,
    dominating_set_csp,
    maximal_independent_set_csp,
    not_all_equal_csp,
)
from repro.errors import StateSpaceTooLargeError
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph, torus_graph
from repro.mrf import MRF, hardcore_mrf, ising_mrf
from repro.serialize import model_from_dict


def per_edge_mrf(seed: int = 3) -> MRF:
    """A distinct random symmetric table on every edge, passed as a dict."""
    graph = grid_graph(3, 4)
    rng = np.random.default_rng(seed)
    tables = {}
    for u, v in graph.edges():
        raw = rng.uniform(0.1, 1.0, size=(3, 3))
        tables[(v, u)] = raw + raw.T  # either orientation is accepted
    return MRF(graph, 3, tables, rng.uniform(0.5, 1.5, size=(12, 3)))


def mixed_csp() -> LocalCSP:
    """Arities 1, 2, 3 and 4 interleaved in constraint order."""
    rng = np.random.default_rng(8)
    scopes = [(0, 1, 2), (3,), (2, 4), (1, 3, 5, 6), (6,), (5, 0), (4, 6, 2)]
    constraints = [
        Constraint(scope, rng.uniform(0.2, 1.0, size=(3,) * len(scope)))
        for scope in scopes
    ]
    return LocalCSP(7, 3, constraints)


def uneven_mrf() -> MRF:
    """An isolated vertex, leaves and a hub: most rows of the padded table are pads."""
    graph = star_graph(5)
    graph.add_edge(1, 2)
    graph.add_node(6)
    return hardcore_mrf(graph, 0.8)


def isolated_vertex_csp() -> LocalCSP:
    """Vertex 3 is in no constraint; vertex 0 is in three."""
    rng = np.random.default_rng(9)
    scopes = [(0, 1), (2, 0, 4), (0,), (1, 4)]
    constraints = [
        Constraint(scope, rng.uniform(0.2, 1.0, size=(2,) * len(scope)))
        for scope in scopes
    ]
    return LocalCSP(5, 2, constraints)


def _arrays(compiled):
    return [
        value for value in vars(compiled).values() if isinstance(value, np.ndarray)
    ]


class TestCompiledMRF:
    def test_edges_match_the_graph(self):
        mrf = per_edge_mrf()
        compiled = mrf.compiled()
        edge_u, edge_v = sorted_edge_arrays(mrf.graph)
        np.testing.assert_array_equal(compiled.edge_u, edge_u)
        np.testing.assert_array_equal(compiled.edge_v, edge_v)

    def test_every_edge_names_its_table(self):
        mrf = per_edge_mrf()
        compiled = mrf.compiled()
        # One table per edge, plus the all-ones pad table.
        assert compiled.palette.shape == (mrf.graph.number_of_edges() + 1, 3, 3)
        np.testing.assert_array_equal(compiled.palette[-1], np.ones((3, 3)))
        for u, v, table in zip(compiled.edge_u, compiled.edge_v, compiled.edge_table):
            np.testing.assert_array_equal(
                compiled.palette[table], mrf.edge_activity(int(u), int(v))
            )

    @pytest.mark.parametrize("make", [per_edge_mrf, uneven_mrf])
    def test_padded_rows_are_ascending_neighbourhoods_padded_with_ones(self, make):
        mrf = make()
        compiled = mrf.compiled()
        ones = compiled.palette.shape[0] - 1
        width = max(max(mrf.degree(v) for v in range(mrf.n)), 1)
        assert compiled.padded_neighbours.shape == (mrf.n, width)
        assert not compiled.padded_neighbours.flags.writeable
        assert not compiled.padded_tables.flags.writeable
        for v in range(mrf.n):
            neighbours = list(mrf.neighbors(v))
            degree = len(neighbours)
            assert compiled.padded_neighbours[v, :degree].tolist() == neighbours
            for k, u in enumerate(neighbours):
                np.testing.assert_array_equal(
                    compiled.palette[compiled.padded_tables[v, k]], mrf.edge_activity(u, v)
                )
            # Pads read the vertex's own spin through the all-ones table.
            assert np.all(compiled.padded_neighbours[v, degree:] == v)
            assert np.all(compiled.padded_tables[v, degree:] == ones)

    def test_shared_tables_compile_to_one_palette_entry(self):
        compiled = ising_mrf(torus_graph(4, 4), 0.4).compiled()
        assert compiled.palette.shape == (2, 2, 2)  # the shared table + the pad table
        assert not compiled.edge_table.any()

    def test_edgeless_model(self):
        graph = path_graph(1)
        compiled = hardcore_mrf(graph, 2.0).compiled()
        assert compiled.m == 0
        assert compiled.padded_neighbours.tolist() == [[0]]
        assert compiled.padded_tables.tolist() == [[0]]
        np.testing.assert_array_equal(compiled.palette, np.ones((1, 2, 2)))

    def test_uneven_degrees_beyond_the_padding_cap_are_refused(self):
        """A 3000-leaf star would pad 3001 x 3000 slots; nothing that large is built."""
        mrf = hardcore_mrf(star_graph(3000), 1.0)
        compiled = mrf.compiled()  # the edge form is O(m) and stays available
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLargeError, match="pad slots"):
                compiled.padded_neighbours
            for engine in (EnsembleGlauberDynamics, EnsembleLubyGlauberMRF):
                with pytest.raises(StateSpaceTooLargeError, match="pad slots"):
                    engine(mrf, 2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # Sequential chains do not read the padded tables.
        assert LubyGlauberChain(mrf, seed=0).run(2).shape == (mrf.n,)

    def test_local_metropolis_runs_beyond_the_padding_cap(self):
        """Its rounds never read the padded tables; only its region advance does."""
        mrf = hardcore_mrf(star_graph(3000), 1.0)
        engine = repro.make_ensemble(mrf, 2, method="local-metropolis", seed=0)
        assert engine.run(3).shape == (2, mrf.n)
        with pytest.raises(StateSpaceTooLargeError, match="pad slots"):
            engine.advance_region(1, [0, 1])

    def test_bounded_degree_models_stay_under_the_cap(self):
        compiled = hardcore_mrf(torus_graph(128, 128), 1.0).compiled()
        assert compiled.padded_neighbours.shape == (128 * 128, 4)
        star = star_graph(200)  # 201 x 200 slots, well under the cap
        assert hardcore_mrf(star, 1.0).compiled().padded_tables.shape == (201, 200)


class TestCompiledCSP:
    @pytest.mark.parametrize("make", [mixed_csp, isolated_vertex_csp])
    def test_padded_incidence_lists_each_vertex_constraints(self, make):
        csp = make()
        compiled = csp.compiled()
        width = max(max(len(csp.incident[v]) for v in range(csp.n)), 1)
        assert compiled.padded_constraints.shape == (csp.n, width)
        assert not compiled.padded_constraints.flags.writeable
        assert not compiled.padded_strides.flags.writeable
        for v in range(csp.n):
            incident = list(csp.incident[v])
            count = len(incident)
            assert compiled.padded_constraints[v, :count].tolist() == incident
            for k, c in enumerate(incident):
                scope = csp.constraints[c].scope
                assert compiled.padded_strides[v, k] == csp.q ** (len(scope) - 1 - scope.index(v))
            assert np.all(compiled.padded_constraints[v, count:] == len(csp.constraints))
            assert np.all(compiled.padded_strides[v, count:] == 0)

    def test_padded_incidence_is_capped(self, monkeypatch):
        monkeypatch.setattr(repro.compiled, "MAX_PADDING", 3)
        compiled = dominating_set_csp(star_graph(4)).compiled()  # hub in 5 covers
        with pytest.raises(StateSpaceTooLargeError, match="constraint-incidence"):
            compiled.padded_constraints
        # The LocalMetropolis filter and the greedy start do not need it.
        assert compiled.greedy_start.shape == (5,)

    def test_buckets_are_ascending_arity_in_constraint_order(self):
        compiled = mixed_csp().compiled()
        assert [bucket.arity for bucket in compiled.buckets] == [1, 2, 3, 4]
        assert [bucket.constraints.tolist() for bucket in compiled.buckets] == [
            [1, 4], [2, 5], [0, 6], [3],
        ]
        assert compiled.mixing_rows == 2 * 1 + 2 * 3 + 2 * 7 + 15
        np.testing.assert_array_equal(compiled.buckets[2].strides, [9, 3, 1])

    def test_palette_stores_each_distinct_table_once(self):
        csp = dominating_set_csp(torus_graph(4, 4), 0.5)
        compiled = csp.compiled()
        # One arity-5 cover table and one unary pick table.
        assert compiled.flat_raw.size == 2**5 + 2
        assert sorted(set(compiled.table_starts.tolist())) == [0, 2**5]

    def test_greedy_start_is_shared_by_engines_and_chains(self):
        csp = dominating_set_csp(cycle_graph(7))
        start = greedy_csp_config(csp)
        start[:] = 9  # a copy: the memoized start is untouched
        np.testing.assert_array_equal(
            EnsembleLubyGlauberCSP(csp, 3, seed=0).config,
            np.tile(csp.compiled().greedy_start, (3, 1)),
        )

    def test_no_constraints(self):
        compiled = LocalCSP(3, 2, []).compiled()
        assert compiled.buckets == ()
        assert compiled.conflict_u.size == 0
        np.testing.assert_array_equal(compiled.greedy_start, [0, 0, 0])
        assert EnsembleLocalMetropolisCSP(LocalCSP(3, 2, []), 2, seed=1).run(2).shape == (2, 3)


MODELS = [per_edge_mrf, mixed_csp, lambda: maximal_independent_set_csp(cycle_graph(6))]


class TestMemoization:
    @pytest.mark.parametrize("make", MODELS)
    def test_memoized_per_instance_and_read_only(self, make):
        model = make()
        compiled = model.compiled()
        assert model.compiled() is compiled
        for array in _arrays(compiled):
            assert not array.flags.writeable
        for bucket in getattr(compiled, "buckets", ()):
            assert not any(a.flags.writeable for a in _arrays(bucket))

    @pytest.mark.parametrize("make", MODELS)
    def test_not_built_by_construction_decode_or_fingerprint(self, make, monkeypatch):
        calls = []
        for name in ("compile_mrf", "compile_csp"):
            original = getattr(repro.compiled, name)
            monkeypatch.setattr(
                repro.compiled,
                name,
                lambda model, original=original: calls.append(model) or original(model),
            )
        model = make()
        model.model_fingerprint()
        decoded = model_from_dict(model.to_dict())
        decoded.model_fingerprint()
        JobSpec.sample_many(decoded, 2, rounds=1, seed=0).cache_key()
        assert calls == []
        model.compiled()
        model.compiled()
        assert calls == [model]

    @pytest.mark.parametrize("make", MODELS)
    def test_left_out_of_pickles(self, make):
        model = make()
        before = pickle.dumps(model)
        repro.run_spec(JobSpec.sample_many(model, 3, method="luby-glauber", rounds=2, seed=4))
        assert model._compiled is not None
        after = pickle.dumps(model)
        assert len(after) == len(before)
        restored = pickle.loads(after)
        assert restored._compiled is None
        assert restored.model_fingerprint() == model.model_fingerprint()

    def test_mutation_compiles_a_new_form(self):
        mrf = per_edge_mrf()
        first = mrf.compiled()
        smaller = mrf.without_edge(0, 1)
        assert smaller.compiled() is not first
        assert smaller.compiled().m == first.m - 1

    @pytest.mark.parametrize(
        "make, method",
        [
            (per_edge_mrf, "luby-glauber"),
            (per_edge_mrf, "glauber"),
            (mixed_csp, "local-metropolis"),
            (mixed_csp, "luby-glauber"),
        ],
    )
    def test_memoized_build_reproduces_a_fresh_build(self, make, method):
        model = make()
        spec = JobSpec.sample_many(model, 5, method=method, rounds=6, seed=12)
        first = repro.run_spec(spec)
        second = repro.run_spec(spec)  # reads the memoized form
        fresh = repro.run_spec(JobSpec.sample_many(
            model_from_dict(model.to_dict()), 5, method=method, rounds=6, seed=12
        ))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, fresh)


class TestEnginesReadTheCompiledForm:
    def test_mrf_engines_read_one_compiled_form(self, monkeypatch):
        calls = []
        original = repro.compiled.compile_mrf
        monkeypatch.setattr(
            repro.compiled, "compile_mrf", lambda model: calls.append(model) or original(model)
        )
        mrf = per_edge_mrf()
        engines = [EnsembleLubyGlauberMRF(mrf, 2, seed=0), EnsembleGlauberDynamics(mrf, 2, seed=0)]
        assert calls == [mrf]
        palette = mrf.compiled().palette
        for engine in engines:
            rows = engine.xp.to_numpy(engine._factor_rows).reshape(palette.shape)
            np.testing.assert_array_equal(rows, palette.transpose(0, 2, 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_filter_equals_the_sequential_pass_probability(self, seed):
        """Per-arity gathers + mask-order product == the sequential chain's product."""
        csp = mixed_csp()
        ensemble = EnsembleLocalMetropolisCSP(csp, 6, seed=seed)
        ensemble.advance(2)
        xp = ensemble.xp
        proposals = xp.uniform_spins(ensemble.rng, csp.q, (csp.n, 6), ensemble._dtype)
        got = xp.to_numpy(ensemble._pass_probabilities(proposals))
        current = ensemble.config
        proposed = xp.to_numpy(proposals).T
        expected = np.array([
            [
                constraint_pass_probability(
                    c.normalized_table(), c.scope, proposed[r], current[r]
                )
                for r in range(6)
            ]
            for c in csp.constraints
        ])
        if xp.bitwise_reference:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_filter_over_one_arity_uses_no_scatter(self):
        csp = not_all_equal_csp([(0, 1, 2), (2, 3, 4), (4, 5, 0)], n=6, q=3)
        ensemble = EnsembleLocalMetropolisCSP(csp, 4, seed=1)
        assert len(ensemble._buckets) == 1
        assert ensemble.run(5).shape == (4, 6)


def test_numpy_prod_is_a_left_to_right_product():
    """The mixing-axis reduction multiplies in index order, like a loop."""
    xp = get_backend("numpy")
    rng = np.random.default_rng(0)
    values = rng.random((31, 7, 5)) ** 9
    expected = np.ones((7, 5))
    for row in values:
        expected = expected * row
    np.testing.assert_array_equal(xp.prod(values, axis=0), expected)
