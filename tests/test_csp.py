"""Tests for weighted local CSPs: model, builders, hypergraph structure."""

import json
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import DynamicEnsemble, JobSpec
from repro.csp import (
    Constraint,
    LocalCSP,
    coloring_csp,
    conflict_graph,
    csp_neighbors,
    dominating_set_csp,
    exact_csp_gibbs_distribution,
    is_strongly_independent,
    maximal_independent_set_csp,
    mrf_as_csp,
    not_all_equal_csp,
)
from repro.errors import ModelError
from repro.families import DISPATCH
from repro.graphs import cycle_graph, path_graph, star_graph, torus_graph
from repro.mrf import MRF, exact_gibbs_distribution, ising_mrf, proper_coloring_mrf
from repro.serialize import decode_array, encode_array


class TestConstraint:
    def test_validation(self):
        with pytest.raises(ModelError, match="distinct"):
            Constraint((0, 0), np.ones((2, 2)))
        with pytest.raises(ModelError, match="non-empty"):
            Constraint((), np.ones(1))
        with pytest.raises(ModelError, match="one axis"):
            Constraint((0, 1), np.ones(2))
        with pytest.raises(ModelError, match="non-negative"):
            Constraint((0,), np.array([-1.0, 1.0]))
        with pytest.raises(ModelError, match="identically zero"):
            Constraint((0,), np.zeros(2))

    def test_evaluate(self):
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = Constraint((1, 2), table)
        assert c.evaluate((9, 0, 0)) == 1.0
        assert c.evaluate((9, 0, 1)) == 0.0
        assert c.arity == 2 and c.q == 2

    def test_normalized_table(self):
        c = Constraint((0,), np.array([2.0, 4.0]))
        assert np.allclose(c.normalized_table(), [0.5, 1.0])

    def test_non_finite_table_rejected(self):
        """Regression: an inf entry used to survive construction and turn
        into NaN inside normalized_table (inf / inf)."""
        with pytest.raises(ModelError, match="finite"):
            Constraint((0,), np.array([1.0, np.inf]))
        with pytest.raises(ModelError, match="finite"):
            Constraint((0, 1), np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_normalized_table_guards_non_normalisable(self):
        """Even if the table is corrupted after construction, the filter
        factors raise instead of emitting NaN probabilities."""
        c = Constraint((0,), np.array([1.0, 2.0]))
        c.table = np.zeros(2)
        with pytest.raises(ModelError, match="non-normalisable"):
            c.normalized_table()


class TestLocalCSP:
    def test_weight_and_feasibility(self):
        csp = coloring_csp(path_graph(3), 3)
        assert csp.weight((0, 1, 0)) == 1.0
        assert csp.weight((0, 0, 1)) == 0.0
        assert csp.is_feasible((0, 1, 2))

    def test_conditional_marginal_matches_exact(self):
        csp = mrf_as_csp(ising_mrf(path_graph(3), beta=1.5, field=0.6))
        dist = exact_csp_gibbs_distribution(csp)
        config = (1, 0, 1)
        for v in range(3):
            fixed = {u: config[u] for u in range(3) if u != v}
            exact = dist.condition(fixed).marginal(v)
            formula = csp.conditional_marginal(config, v)
            assert np.allclose(exact, formula, atol=1e-12)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ModelError, match="domain"):
            LocalCSP(2, 3, [Constraint((0, 1), np.ones((2, 2)))])

    def test_scope_out_of_range_rejected(self):
        with pytest.raises(ModelError, match="outside"):
            LocalCSP(2, 2, [Constraint((0, 5), np.ones((2, 2)))])

    @pytest.mark.parametrize("q", [1, 2**31, 2**40, 10**30])
    def test_q_outside_2_to_2_to_the_31_is_refused(self, q):
        """With no constraints no table bounds q, so the constructor does."""
        with pytest.raises(ModelError, match=rf"2 <= q < 2\*\*31 spin states, got q = {q}"):
            LocalCSP(3, q, [])
        payload = json.loads(json.dumps(LocalCSP(3, 2, []).to_dict()))
        payload["q"] = q
        with pytest.raises(ModelError, match=rf"got q = {q}"):
            LocalCSP.from_dict(payload)
        assert LocalCSP(3, 2**31 - 1, []).q == 2**31 - 1

    def test_constraint_index_out_of_range_rejected(self):
        csp = coloring_csp(path_graph(3), 3)
        for index in (-1, 2):
            with pytest.raises(ModelError, match="outside 0..1"):
                csp.without_constraint(index)
            with pytest.raises(ModelError, match="outside 0..1"):
                csp.scope(index)
        assert csp.scope(1) == (1, 2)


_BASE = dominating_set_csp(path_graph(4), weight=2.0)
_SCOPES = [list(_BASE.scope(c)) for c in range(_BASE.compiled().num_constraints)]


def _with_scopes(payload: dict, scopes) -> None:
    """Re-encode ``payload``'s scope CSR arrays from a list of scopes."""
    sizes = [len(scope) for scope in scopes]
    payload["arrays"]["scope_indptr"] = encode_array(np.cumsum([0, *sizes]))
    payload["arrays"]["scope_vertex"] = encode_array(
        np.array([v for scope in scopes for v in scope], dtype=np.int64)
    )


def _payload(scope=None, table=None, palette=None, arrays=()) -> dict:
    """A decoded q=2 payload with arities 1, 2 and 3.

    Constraint 0 gets ``scope`` or palette index ``table``, ``palette``
    joins the palette and ``arrays`` replaces raw ``arrays`` entries.
    """
    payload = json.loads(json.dumps(_BASE.to_dict()))
    if scope is not None:
        _with_scopes(payload, [scope, *_SCOPES[1:]])
    if table is not None:
        index = decode_array(payload["arrays"]["constraint_table"], "int")
        index[0] = table
        payload["arrays"]["constraint_table"] = encode_array(index)
    if palette is not None:
        payload["arrays"]["palette"].append(encode_array(np.array(palette, dtype=float)))
    payload["arrays"].update(arrays)
    return json.loads(json.dumps(payload))


class TestFromDict:
    """``from_dict`` checks what every other entry path checks, and builds no Constraint."""

    @pytest.mark.parametrize(
        "edits, needle",
        [
            ({"scope": [0, 0]}, "distinct"),
            ({"scope": [0, 4]}, "outside 0..3"),
            ({"scope": []}, "non-empty"),
            ({"scope": [0, 1, 2]}, "one axis per scope vertex"),
            ({"table": 7}, "palette index"),
            ({"palette": [[float("nan"), -1.0], [0.0, 0.0]]}, "palette entry 3: .*finite"),
            ({"palette": [-1.0, 1.0]}, "palette entry 3: .*non-negative"),
            ({"palette": [[1.0, 1.0, 1.0]] * 3}, "palette entry 3: table domain 3"),
            ({"arrays": {"scope_vertex": "ab"}}, "malformed"),
        ],
    )
    def test_refused(self, edits, needle):
        with pytest.raises(ModelError, match=needle):
            LocalCSP.from_dict(_payload(**edits))

    @pytest.mark.parametrize(
        "indptr",
        [[1, 2, 5, 8, 10, 11, 12, 13, 14], [0, 2, 5, 4, 10, 11, 12, 13, 14],
         [0, 2, 5, 8, 10, 11, 12, 13, 13], [0, 2, 5, 8, 10, 11, 12, 13, 15]],
        ids=["not-from-0", "decreasing", "short-end", "long-end"],
    )
    def test_scope_offsets_are_checked(self, indptr):
        payload = _payload(arrays={"scope_indptr": encode_array(np.array(indptr))})
        with pytest.raises(ModelError, match="scope_indptr must start at 0"):
            LocalCSP.from_dict(payload)

    def test_unused_entry_is_named_by_its_payload_position(self):
        payload = _payload()
        palette = payload["arrays"]["palette"]
        # Entry 3 repeats entry 0, so the bad entry 4 is the fourth distinct one.
        palette += [palette[0], encode_array(np.array([[float("nan"), -1.0], [0.0, 0.0]]))]
        with pytest.raises(ModelError, match="palette entry 4: .*finite"):
            LocalCSP.from_dict(payload)

    def test_scope_checks_hold_up_to_the_vertex_bound(self):
        """At n = 2**31 - 1 no (constraint, vertex) pair is mistaken for a repeat.

        Nothing here reads ``max_degree``, ``incident`` or an engine: they
        allocate O(n).
        """
        payload = _payload()
        payload["n"] = 2**31 - 1
        scopes = [[v * 2**29 for v in scope] for scope in _SCOPES]
        _with_scopes(payload, scopes)
        csp = LocalCSP.from_dict(payload)  # vertex 0 is in constraints 0, 1 and 4
        assert csp.scope(4) == (0,)
        scopes[5] = [2**31 - 2, 2**31 - 2]
        _with_scopes(payload, scopes)
        payload["arrays"]["constraint_table"] = encode_array(np.array([0, 1, 1, 0, 2, 0, 2, 2]))
        with pytest.raises(ModelError, match=r"constraint 5: scope vertices must be distinct"):
            LocalCSP.from_dict(payload)

    @pytest.mark.parametrize("model", [_BASE, proper_coloring_mrf(path_graph(4), 3)],
                             ids=["csp", "mrf"])
    def test_n_of_2_to_the_31_is_refused(self, model):
        """Vertex pairs are keyed as ``lo * n + hi`` in int64."""
        payload = json.loads(json.dumps(model.to_dict()))
        payload["n"] = 2**31
        with pytest.raises(ModelError, match=r"n < 2\*\*31 vertices, got n = 2147483648"):
            repro.serialize.model_from_dict(payload)
        payload["n"], payload["q"] = model.n, 2**31
        with pytest.raises(ModelError, match=r"q < 2\*\*31 spin states, got q = 2147483648"):
            repro.serialize.model_from_dict(payload)

    def test_non_finite_used_entry_is_refused_naming_its_constraint(self):
        payload = _payload()
        table = decode_array(payload["arrays"]["palette"][0], "float")
        table[0, 0] = float("inf")
        payload["arrays"]["palette"][0] = encode_array(table)
        with pytest.raises(ModelError, match=r"constraint 0: .*finite"):
            LocalCSP.from_dict(payload)


#: Tables over q=3: a colouring, a unary row, a 3-ary NAE table, a
#: value-equal copy of the colouring (must share its palette entry), one
#: differing only in the sign of its zeros (distinct float64 bytes, so a
#: distinct entry) and a unary row with a zero.
Q = 3
TABLES = [
    np.ones((Q, Q)) - np.eye(Q),
    np.array([1.0, 2.0, 0.5]),
    np.where(np.arange(Q**3).reshape(Q, Q, Q) % 13 == 0, 0.0, 1.0),
    np.ones((Q, Q)) - np.eye(Q),
    np.where(np.eye(Q) > 0, -0.0, 1.0),
    np.array([0.0, 1.0, 1.0]),
]
N = 6
START = [((0, 1), 0), ((2,), 1), ((1, 2, 3), 2), ((3, 4), 3), ((5, 0), 4), ((4,), 5)]
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["with_constraint", "without_constraint"]),
        st.integers(0, len(TABLES) - 1),
        st.permutations(range(N)),
        st.integers(-1, 8),
    ),
    max_size=12,
)


def _constraint(scope, k: int) -> Constraint:
    return Constraint(scope, TABLES[k])


def _stored(csp: LocalCSP) -> list[np.ndarray]:
    arrays = csp.compiled()
    return [arrays.scope_indptr, arrays.scope_vertex, arrays.constraint_table]


class TestStoredForm:
    @settings(max_examples=80, deadline=None)
    @given(OPERATIONS)
    def test_mutations_store_the_arrays_of_a_fresh_build(self, operations):
        constraints = list(START)
        csp = LocalCSP(N, Q, [_constraint(*entry) for entry in START])
        for op, k, order, index in operations:
            if op == "with_constraint":
                scope = tuple(order[: TABLES[k].ndim])
                csp = csp.with_constraint(_constraint(scope, k))
                constraints.append((scope, k))
            elif 0 <= index < len(constraints):
                csp = csp.without_constraint(index)
                del constraints[index]
            else:
                with pytest.raises(ModelError, match="outside"):
                    csp.without_constraint(index)
        fresh = LocalCSP(N, Q, [_constraint(*entry) for entry in constraints])
        decoded = LocalCSP.from_dict(json.loads(json.dumps(csp.to_dict())))
        for built in (fresh, decoded):
            for mine, theirs in zip(_stored(csp), _stored(built), strict=True):
                assert mine.dtype == theirs.dtype == np.int64
                np.testing.assert_array_equal(mine, theirs)
            mine, theirs = csp.compiled().palette, built.compiled().palette
            assert [t.tobytes() for t in mine] == [t.tobytes() for t in theirs]
            assert built.model_fingerprint() == csp.model_fingerprint()
        # The palette: each table once by its bytes, in first-use order.
        arrays = csp.compiled()
        firsts = list(dict.fromkeys(TABLES[k].tobytes() for _, k in constraints))
        assert [table.tobytes() for table in arrays.palette] == firsts
        assert not any(table.flags.writeable for table in arrays.palette)
        assert [csp.scope(c) for c in range(len(constraints))] == [s for s, _ in constraints]


def _refuse_constraint(self, *args, **kwargs):
    raise AssertionError("a Constraint was built")


def _mixed_csp() -> LocalCSP:
    """Arities 1, 2 and 3: covers of P5 plus a unary pick weight per vertex."""
    return dominating_set_csp(path_graph(5), weight=2.0)


class TestNoConstraintObjects:
    """Decode, mutate, identify, pickle and run a CSP without building a Constraint."""

    def test_model_paths_build_no_constraint(self, monkeypatch):
        payload = json.loads(json.dumps(_mixed_csp().to_dict()))
        extra = Constraint((0, 4), np.ones((2, 2)))
        monkeypatch.setattr(Constraint, "__init__", _refuse_constraint)
        decoded = LocalCSP.from_dict(payload)
        derived = [decoded.with_constraint(extra), decoded.without_constraint(3)]
        # Vertex 2 shares a cover with 0, 1, 3 and 4 until cover(3) goes.
        for model, degree in zip([decoded, *derived], [4, 4, 3], strict=True):
            model.model_fingerprint()
            JobSpec.sample_many(model, 2, rounds=1, seed=0).cache_key()
            restored = pickle.loads(pickle.dumps(model))
            assert restored.model_fingerprint() == model.model_fingerprint()
            assert repro.model_degree(model) == degree
        with pytest.raises(AssertionError, match="Constraint"):
            decoded.constraints

    @pytest.mark.parametrize("parallel", [None, 0], ids=["direct", "sharded"])
    @pytest.mark.parametrize("row", [row for row in DISPATCH if row.kind == "csp"],
                             ids=lambda row: row.ensemble.__name__)
    def test_every_csp_dispatch_row_runs_without_a_constraint(self, monkeypatch, row, parallel):
        model = _mixed_csp()
        monkeypatch.setattr(Constraint, "__init__", _refuse_constraint)
        shards = {} if parallel is None else {"parallel": parallel, "shard_size": 2}
        batch = repro.run_spec(
            JobSpec.sample_many(model, 4, method=row.method, rounds=3, seed=1, **shards)
        )
        assert batch.shape == (4, 5)
        curve = repro.run_spec(
            JobSpec.tv_curve(model, (1, 2), method=row.method, replicas=64, seed=2, **shards)
        )
        assert [r for r, _ in curve] == [1, 2]

    @pytest.mark.parametrize("method", ["luby-glauber", "local-metropolis"])
    def test_dynamic_remove_and_resample_build_no_constraint(self, monkeypatch, method):
        model = dominating_set_csp(torus_graph(4, 4))
        monkeypatch.setattr(Constraint, "__init__", _refuse_constraint)
        dyn = DynamicEnsemble(model, 8, method=method, seed=3)
        dyn.remove_constraint(3).resample()
        assert dyn.resamples == 1 and dyn.config.shape == (8, 16)


def _per_edge_mrf() -> MRF:
    """Random symmetric tables per edge, two edges sharing one, and an isolated vertex."""
    rng = np.random.default_rng(7)
    graph = nx.cycle_graph(5)
    graph.add_node(5)
    tables = {edge: rng.uniform(0.0, 2.0, size=(3, 3)) for edge in graph.edges()}
    tables = {edge: (table + table.T) / 2 for edge, table in tables.items()}
    tables[(3, 4)] = tables[(0, 1)]
    return MRF(graph, 3, tables, rng.uniform(0.5, 1.5, size=(6, 3)), name="per-edge")


_MRF_MODELS = {
    **{
        name: lambda name=name: repro.families.build_model({"family": name, "graph": "grid"}, 3)
        for name, family in repro.families.FAMILIES.items() if family.kind == "mrf"
    },
    "per-edge": _per_edge_mrf,
    "edgeless": lambda: ising_mrf(path_graph(1), beta=0.5, field=0.2),
}


class TestBuilders:
    @pytest.mark.parametrize("make", _MRF_MODELS.values(), ids=_MRF_MODELS)
    def test_mrf_as_csp_is_the_csp_of_one_constraint_per_factor(self, make):
        """Built from the MRF's arrays, it stores what one ``Constraint`` per factor builds."""
        mrf = make()
        constraints = [Constraint((u, v), mrf.edge_activity(u, v)) for u, v in mrf.edges]
        constraints += [Constraint((v,), mrf.vertex_activity[v]) for v in range(mrf.n)]
        reference = LocalCSP(mrf.n, mrf.q, constraints, name=f"csp[{mrf.name}]")
        csp = mrf_as_csp(mrf)
        assert csp.model_fingerprint() == reference.model_fingerprint()
        assert csp.to_dict() == reference.to_dict()

    def test_mrf_as_csp_same_distribution(self):
        mrf = ising_mrf(cycle_graph(4), beta=0.7, field=1.3)
        a = exact_gibbs_distribution(mrf)
        b = exact_csp_gibbs_distribution(mrf_as_csp(mrf))
        assert a.tv_distance(b) < 1e-12

    def test_coloring_csp_matches_mrf(self):
        g = cycle_graph(4)
        a = exact_gibbs_distribution(proper_coloring_mrf(g, 3))
        b = exact_csp_gibbs_distribution(coloring_csp(g, 3))
        assert a.tv_distance(b) < 1e-12

    def test_dominating_set_support(self):
        csp = dominating_set_csp(path_graph(3))
        support = exact_csp_gibbs_distribution(csp).support()
        # Dominating sets of P3: any set containing vertex 1, plus {0,2}.
        as_sets = {tuple(s) for s in support}
        assert (0, 1, 0) in as_sets
        assert (1, 0, 1) in as_sets
        assert (1, 0, 0) not in as_sets  # vertex 2 undominated
        for config in support:
            for v in range(3):
                closed = {v} | set(csp_neighbors(csp)[v])  # over-approximation
            # Direct check: every vertex dominated.
            assert all(
                config[v] == 1
                or any(config[u] == 1 for u in (v - 1, v + 1) if 0 <= u < 3)
                for v in range(3)
            )

    def test_dominating_set_weighting(self):
        csp = dominating_set_csp(path_graph(2), weight=3.0)
        dist = exact_csp_gibbs_distribution(csp)
        # Dominating sets of P2: {0}, {1}, {0,1} with weights 3, 3, 9.
        assert dist.prob((1, 1)) == pytest.approx(9 / 15)
        assert dist.prob((1, 0)) == pytest.approx(3 / 15)

    def test_mis_support_is_maximal_independent_sets(self):
        csp = maximal_independent_set_csp(path_graph(4))
        support = {tuple(s) for s in exact_csp_gibbs_distribution(csp).support()}
        # MIS of P4: {0,2},{0,3},{1,3} -> (1,0,1,0),(1,0,0,1),(0,1,0,1)
        assert support == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)}

    def test_nae_constraints(self):
        csp = not_all_equal_csp([(0, 1, 2)], n=3, q=2)
        support = {tuple(s) for s in exact_csp_gibbs_distribution(csp).support()}
        assert (0, 0, 0) not in support
        assert (1, 1, 1) not in support
        assert len(support) == 6

    @pytest.mark.parametrize(
        "csp",
        [
            dominating_set_csp(star_graph(3)),
            dominating_set_csp(cycle_graph(5), weight=2.0),
            maximal_independent_set_csp(cycle_graph(5)),
            coloring_csp(cycle_graph(5), 3),
            not_all_equal_csp([(0, 1, 2), (1, 2), (2, 3, 4), (3, 4)], n=5, q=3),
        ],
        ids=["domset", "domset-weighted", "mis", "coloring", "nae"],
    )
    def test_builders_share_one_frozen_table_per_arity(self, csp):
        by_arity: dict[int, set[int]] = {}
        for constraint in csp.constraints:
            assert not constraint.table.flags.writeable
            by_arity.setdefault(constraint.arity, set()).add(id(constraint.table))
        assert all(len(ids) == 1 for ids in by_arity.values()), by_arity


class TestHypergraph:
    def test_csp_neighbors_includes_coscoped(self):
        csp = dominating_set_csp(path_graph(3))
        neighborhoods = csp_neighbors(csp)
        # The cover constraint on vertex 1's inclusive neighbourhood scopes
        # {0, 1, 2}, so 0 and 2 become CSP neighbours despite no graph edge.
        assert 2 in neighborhoods[0]

    def test_conflict_graph_matches_neighborhoods(self):
        csp = maximal_independent_set_csp(star_graph(3))
        graph = conflict_graph(csp)
        neighborhoods = csp_neighbors(csp)
        for v in range(csp.n):
            assert set(graph.neighbors(v)) == neighborhoods[v]

    def test_strongly_independent(self):
        csp = dominating_set_csp(path_graph(4))
        # 0 and 3 share no cover constraint on P4 (covers are {0,1},{0,1,2},{1,2,3},{2,3}).
        assert is_strongly_independent(csp, [0, 3])
        assert not is_strongly_independent(csp, [0, 2])
