"""The index-array forms the general engines build from.

``MRF.compiled()`` and ``LocalCSP.compiled()`` are the records the models
store: each must describe its model exactly, hold the model's only copy of
its arrays (engines read them, not copies), stay read-only and pickle
without its derived tables.  The CSP cases compare against walks over the
scopes the test built the model from, never against the model's own
derived views.  The batched LocalMetropolis CSP filter built on the record
must equal the sequential chain's pass probabilities bit for bit.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

import repro
import repro.compiled
from repro import JobSpec
from repro.chains import ensemble as ensemble_module
from repro.chains.base import start_config
from repro.chains.csp_chains import constraint_pass_probability
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisCSP,
    EnsembleLocalMetropolisMRF,
    EnsembleLubyGlauberCSP,
    EnsembleLubyGlauberMRF,
    _uniform_spins,
)
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


MIXED_SCOPES = [(0, 1, 2), (3,), (2, 4), (1, 3, 5, 6), (6,), (5, 0), (4, 6, 2)]
ISOLATED_SCOPES = [(0, 1), (2, 0, 4), (0,), (1, 4)]  # vertex 3 in none, vertex 0 in three


def mixed_constraints() -> list[Constraint]:
    """Arities 1, 2, 3 and 4 interleaved in constraint order."""
    rng = np.random.default_rng(8)
    return [
        Constraint(scope, rng.uniform(0.2, 1.0, size=(3,) * len(scope)))
        for scope in MIXED_SCOPES
    ]


def mixed_csp() -> LocalCSP:
    return LocalCSP(7, 3, mixed_constraints())


def uneven_mrf() -> MRF:
    """An isolated vertex, leaves and a hub: most rows of the padded table are pads."""
    graph = star_graph(5)
    graph.add_edge(1, 2)
    graph.add_node(6)
    return hardcore_mrf(graph, 0.8)


def isolated_vertex_csp() -> LocalCSP:
    rng = np.random.default_rng(9)
    constraints = [
        Constraint(scope, rng.uniform(0.2, 1.0, size=(2,) * len(scope)))
        for scope in ISOLATED_SCOPES
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
        edges = np.array(sorted((min(u, v), max(u, v)) for u, v in mrf.graph.edges()))
        np.testing.assert_array_equal(compiled.edge_u, edges[:, 0])
        np.testing.assert_array_equal(compiled.edge_v, edges[:, 1])

    def test_every_edge_names_its_table(self):
        mrf = per_edge_mrf()
        compiled = mrf.compiled()
        # One table per edge, and no table that no edge uses.
        assert compiled.palette.shape == (mrf.graph.number_of_edges(), 3, 3)
        for u, v, table in zip(compiled.edge_u, compiled.edge_v, compiled.edge_table):
            np.testing.assert_array_equal(
                compiled.palette[table], mrf.edge_activity(int(u), int(v))
            )

    @pytest.mark.parametrize("make", [per_edge_mrf, uneven_mrf])
    def test_padded_rows_are_ascending_neighbourhoods_padded_with_ones(self, make):
        mrf = make()
        compiled = mrf.compiled()
        past = compiled.palette.shape[0]
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
            # Pads read the vertex's own spin and name table P, one past the
            # palette, which the engines read as all ones.
            assert np.all(compiled.padded_neighbours[v, degree:] == v)
            assert np.all(compiled.padded_tables[v, degree:] == past)

    def test_shared_tables_compile_to_one_palette_entry(self):
        compiled = ising_mrf(torus_graph(4, 4), 0.4).compiled()
        assert compiled.palette.shape == (1, 2, 2)  # the shared table
        assert not compiled.edge_table.any()

    def test_edgeless_model(self):
        graph = path_graph(1)
        compiled = hardcore_mrf(graph, 2.0).compiled()
        assert compiled.m == 0
        assert compiled.padded_neighbours.tolist() == [[0]]
        assert compiled.padded_tables.tolist() == [[0]]
        assert compiled.palette.shape == (0, 2, 2)

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
    @pytest.mark.parametrize(
        "make, scopes", [(mixed_csp, MIXED_SCOPES), (isolated_vertex_csp, ISOLATED_SCOPES)]
    )
    def test_padded_incidence_lists_each_vertex_constraints(self, make, scopes):
        csp = make()
        compiled = csp.compiled()
        incident = [[c for c, scope in enumerate(scopes) if v in scope] for v in range(csp.n)]
        width = max(max(map(len, incident)), 1)
        assert compiled.padded_constraints.shape == (csp.n, width)
        assert not compiled.padded_constraints.flags.writeable
        assert not compiled.padded_strides.flags.writeable
        for v in range(csp.n):
            count = len(incident[v])
            assert compiled.padded_constraints[v, :count].tolist() == incident[v]
            for k, c in enumerate(incident[v]):
                scope = scopes[c]
                assert compiled.padded_strides[v, k] == csp.q ** (len(scope) - 1 - scope.index(v))
            assert np.all(compiled.padded_constraints[v, count:] == len(scopes))
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
        # Each bucket's distinct tables, q**(2k) pass-table entries apiece, in turn.
        np.testing.assert_array_equal(
            compiled.pass_starts[[1, 4, 2, 5, 0, 6, 3]], [0, 9, 18, 99, 180, 909, 1638]
        )
        assert compiled.pass_table.size == 1638 + 3**8
        np.testing.assert_array_equal(compiled.buckets[2].strides, [9, 3, 1])

    def test_palette_stores_each_distinct_table_once(self):
        csp = dominating_set_csp(torus_graph(4, 4), 0.5)
        compiled = csp.compiled()
        # One arity-5 cover table and one unary pick table.
        assert compiled.flat_raw.size == 2**5 + 2
        assert sorted(set(compiled.table_starts.tolist())) == [0, 2**5]

    def test_greedy_start_is_shared_by_engines_and_chains(self):
        csp = dominating_set_csp(cycle_graph(7))
        start = start_config(csp)
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
CSP_STATE = {"name", "n", "q", "_arrays"}
CSP_FIELDS = {"n", "q", "scope_indptr", "scope_vertex", "constraint_table", "palette"}
#: The arrays each record derives on first use, which engines share by identity.
MRF_DERIVED = (
    "vertex_activity", "padded_neighbours", "padded_tables", "greedy_start", "flat_norm",
    "pass_table", "pass_starts",
)
CSP_DERIVED = (
    "table_starts", "flat_raw", "flat_norm", "incidence_indptr", "incidence_constraint",
    "incidence_stride", "conflict_u", "conflict_v", "padded_constraints", "padded_strides",
    "greedy_start", "pass_table", "pass_starts",
)


class TestMemoization:
    @pytest.mark.parametrize("make", MODELS)
    def test_memoized_per_instance_and_read_only(self, make):
        model = make()
        compiled = model.compiled()
        assert model.compiled() is compiled
        names = CSP_DERIVED if isinstance(model, LocalCSP) else MRF_DERIVED
        derived = [getattr(compiled, name) for name in names]
        assert all(getattr(compiled, name) is array for name, array in zip(names, derived))
        buckets = getattr(compiled, "buckets", ())
        arrays = [
            *_arrays(compiled), *derived, *map(np.asarray, compiled.palette),
            *(array for bucket in buckets for array in _arrays(bucket)),
        ]
        assert len(arrays) >= len(names) + 3
        for array in arrays:
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            mixed_csp,
            lambda: LocalCSP.from_dict(mixed_csp().to_dict()),
            lambda: mixed_csp().without_constraint(2),
            lambda: mixed_csp().with_constraint(Constraint((1, 5), np.ones((3, 3)))),
        ],
        ids=["constructed", "decoded", "removed", "appended"],
    )
    def test_csp_stores_its_arrays_and_no_constraint_objects(self, build):
        csp = build()
        assert set(vars(csp)) == CSP_STATE
        compiled = csp.compiled()
        assert compiled is csp.compiled()
        # Nothing but the stored fields until something reads a derived one;
        # identifying the model derives nothing but its memoized fingerprint.
        assert set(vars(compiled)) == CSP_FIELDS
        csp.model_fingerprint()
        JobSpec.sample_many(csp, 2, rounds=1, seed=0).cache_key()
        assert set(vars(compiled)) == CSP_FIELDS | {"fingerprint"}
        assert set(vars(csp)) == CSP_STATE

    @pytest.mark.parametrize("method", ["luby-glauber", "local-metropolis"])
    def test_csp_pickle_holds_the_arrays_only(self, method):
        csp = mixed_csp()
        before = pickle.dumps(csp)
        repro.run_spec(JobSpec.sample_many(csp, 3, method=method, rounds=2, seed=4))
        compiled = csp.compiled()
        csp.constraints, csp.incident, csp.max_degree, csp.model_fingerprint()
        for derived in ("buckets", *CSP_DERIVED):
            getattr(compiled, derived)
        after = pickle.dumps(csp)
        assert len(after) == len(before)
        restored = pickle.loads(after)
        assert set(vars(restored)) == CSP_STATE
        assert set(vars(restored.compiled())) == CSP_FIELDS
        assert restored.model_fingerprint() == csp.model_fingerprint()
        for field in ("scope_indptr", "scope_vertex", "constraint_table"):
            np.testing.assert_array_equal(
                getattr(restored.compiled(), field), getattr(compiled, field)
            )
        for mine, theirs in zip(restored.compiled().palette, compiled.palette, strict=True):
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize(
        "build",
        [per_edge_mrf, lambda: MRF.from_dict(per_edge_mrf().to_dict()), uneven_mrf],
        ids=["constructed", "decoded", "uneven"],
    )
    def test_mrf_stores_its_arrays_and_no_per_edge_dict(self, build):
        mrf = build()
        assert not any(isinstance(value, dict) for value in vars(mrf).values())
        compiled = mrf.compiled()
        assert compiled is mrf.compiled()
        # Nothing but the stored fields until something reads a derived table.
        assert set(vars(compiled)) == {
            "n", "q", "edge_u", "edge_v", "edge_table", "palette",
            "vertex_index", "vertex_palette",
        }

    @pytest.mark.parametrize("method", ["luby-glauber", "glauber", "local-metropolis"])
    def test_mrf_pickle_holds_the_arrays_only(self, method):
        mrf = per_edge_mrf()
        before = pickle.dumps(mrf)
        repro.run_spec(JobSpec.sample_many(mrf, 3, method=method, rounds=2, seed=4))
        mrf.graph, mrf.edges, mrf.neighbors(0), mrf.edge_activity(0, 1)
        mrf.compiled().padded_tables, mrf.compiled().greedy_start, mrf.vertex_activity
        mrf.model_fingerprint()
        after = pickle.dumps(mrf)
        assert len(after) == len(before)
        restored = pickle.loads(after)
        assert set(vars(restored)) == {"name", "n", "q", "_arrays"}
        assert "fingerprint" not in vars(restored.compiled())
        assert restored.model_fingerprint() == mrf.model_fingerprint()
        for field in ("edge_u", "edge_v", "edge_table", "palette", "vertex_index",
                      "vertex_palette"):
            np.testing.assert_array_equal(
                getattr(restored.compiled(), field), getattr(mrf.compiled(), field)
            )
        assert sorted(restored.graph.edges()) == sorted(mrf.graph.edges())

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
    def test_mrf_engines_hold_the_model_arrays(self):
        mrf = per_edge_mrf()
        compiled = mrf.compiled()
        engines = [
            EnsembleLubyGlauberMRF(mrf, 2, seed=0),
            EnsembleGlauberDynamics(mrf, 2, seed=0),
            EnsembleLocalMetropolisMRF(mrf, 2, seed=0),
        ]
        for engine in engines:
            assert engine._eu is compiled.edge_u and engine._ev is compiled.edge_v
            assert engine._vertex_activity is compiled.vertex_activity
        for engine in engines[:2]:
            # The palette's factor rows, then the all-ones table of the pads.
            rows = engine._factor_rows.reshape(-1, mrf.q, mrf.q)
            np.testing.assert_array_equal(rows[:-1], compiled.palette.transpose(0, 2, 1))
            np.testing.assert_array_equal(rows[-1], np.ones((mrf.q, mrf.q)))

    @pytest.mark.parametrize("seed", range(5))
    def test_filter_equals_the_sequential_pass_probability(self, monkeypatch, seed):
        """Per-arity pass tables, and the gathers past the cap, == the sequential chain's product."""
        for cap in (repro.compiled.MAX_PASS_TABLE, 0):
            monkeypatch.setattr(repro.compiled, "MAX_PASS_TABLE", cap)
            csp = mixed_csp()
            ensemble = EnsembleLocalMetropolisCSP(csp, 6, seed=seed)
            assert (csp.compiled().pass_starts >= 0).all() == (cap > 0)
            ensemble.advance(2)
            proposals = _uniform_spins(ensemble.rng, csp.q, (csp.n, 6), ensemble._dtype)
            got = ensemble._filter(proposals, ensemble._config)
            current = ensemble.config
            proposed = proposals.T
            expected = np.array([
                [
                    constraint_pass_probability(
                        c.normalized_table(), c.scope, proposed[r], current[r]
                    )
                    for r in range(6)
                ]
                for c in mixed_constraints()
            ])
            np.testing.assert_array_equal(got, expected)

    def test_mrf_filter_equals_the_sequential_pass_probability(self, monkeypatch):
        """The edge filter, on both paths, == the sequential (Ã(σu, σv) · Ã(Xu, σv)) · Ã(σu, Xv)."""
        for cap in (repro.compiled.MAX_PASS_TABLE, 0):
            monkeypatch.setattr(repro.compiled, "MAX_PASS_TABLE", cap)
            mrf = per_edge_mrf()
            ensemble = EnsembleLocalMetropolisMRF(mrf, 6, seed=2)
            assert (mrf.compiled().pass_starts >= 0).all() == (cap > 0)
            ensemble.advance(2)
            proposals = ensemble._propose()
            got = ensemble._filter(proposals, ensemble._config)
            current, proposed = ensemble.config, proposals.T.astype(np.int64)
            expected = []
            for u, v in mrf.edges:
                table = mrf.normalized_edge_activity(u, v)
                su, sv, xu, xv = proposed[:, u], proposed[:, v], current[:, u], current[:, v]
                expected.append((table[su, sv] * table[xu, sv]) * table[su, xv])
            np.testing.assert_array_equal(got, np.array(expected))

    def test_csp_engines_read_the_memoized_derived_fields(self):
        csp = mixed_csp()
        compiled = csp.compiled()
        engines = [
            EnsembleLubyGlauberCSP(csp, 2, seed=0),
            EnsembleLocalMetropolisCSP(csp, 2, seed=0),
            EnsembleLocalMetropolisCSP(csp, 3, seed=1),
        ]
        assert compiled is csp.compiled()
        for engine in engines:
            for (arity, ids, _, _, starts), bucket in zip(
                engine._buckets, compiled.buckets, strict=True
            ):
                assert arity == bucket.arity and ids is bucket.constraints
                assert starts.base is bucket.table_starts
        for engine in engines[1:]:
            assert engine._filter._pass_table is compiled.pass_table
            assert engine._filter._flat_norm is compiled.flat_norm

    def test_filter_over_one_arity_uses_no_scatter(self, monkeypatch):
        # The one bucket's array is the filter's result itself, not a scattered copy.
        scatter, unscattered = ensemble_module._in_factor_order, []

        def spy(parts, *args):
            out = scatter(parts, *args)
            unscattered.append(out is parts[0])
            return out

        monkeypatch.setattr(ensemble_module, "_in_factor_order", spy)
        for cap in (repro.compiled.MAX_PASS_TABLE, 0):
            monkeypatch.setattr(repro.compiled, "MAX_PASS_TABLE", cap)
            csp = not_all_equal_csp([(0, 1, 2), (2, 3, 4), (4, 5, 0)], n=6, q=3)
            ensemble = EnsembleLocalMetropolisCSP(csp, 4, seed=1)
            assert len(ensemble._filter._buckets) == 1
            assert (csp.compiled().pass_starts >= 0).all() == (cap > 0)
            assert ensemble.run(5).shape == (4, 6)
        assert len(unscattered) == 10 and all(unscattered)


# The golden LocalMetropolis CSP digests were pinned with an np.prod reduction
# over the mixing axis; the filter's explicit loop in mask order gives the
# same bits because that reduction multiplies left to right.
def test_numpy_prod_is_a_left_to_right_product():
    """The mixing-axis reduction multiplies in index order, like a loop."""
    rng = np.random.default_rng(0)
    values = rng.random((31, 7, 5)) ** 9
    expected = np.ones((7, 5))
    for row in values:
        expected = expected * row
    np.testing.assert_array_equal(np.prod(values, axis=0), expected)
