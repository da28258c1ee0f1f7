"""Tests for weighted local CSPs: model, builders, hypergraph structure."""

import numpy as np
import pytest

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
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.mrf import exact_gibbs_distribution, ising_mrf, proper_coloring_mrf


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


class TestBuilders:
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
