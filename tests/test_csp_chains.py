"""Tests for the CSP extensions of both chains (experiment E9)."""

import numpy as np
import pytest
from statutils import assert_stationary

from repro.chains.csp_chains import (
    LocalMetropolisCSP,
    LubyGlauberCSP,
    constraint_pass_probability,
    local_metropolis_csp_transition_matrix,
)
from repro.errors import ModelError
from repro.chains.transition import is_reversible, stationary_distribution
from repro.csp import (
    coloring_csp,
    dominating_set_csp,
    exact_csp_gibbs_distribution,
    is_strongly_independent,
    maximal_independent_set_csp,
    mrf_as_csp,
    not_all_equal_csp,
)
from repro.graphs import cycle_graph, path_graph
from repro.mrf import ising_mrf


class TestPassProbability:
    def test_binary_constraint_matches_algorithm2(self):
        """For a binary 0/1 constraint the 2^2-1 mixings are exactly the
        three factors of Algorithm 2's edge filter."""
        table = np.ones((3, 3)) - np.eye(3)
        # proposals (1, 2), currents (0, 0): factors
        # f(s_u, s_v) = 1, f(X_u, s_v) = f(0,2) = 1, f(s_u, X_v) = f(1,0) = 1.
        assert constraint_pass_probability(table, (0, 1), [1, 2], [0, 0]) == 1.0
        # proposal collides with neighbour current: f(s_u, X_v) = f(0, 0) = 0.
        assert constraint_pass_probability(table, (0, 1), [0, 2], [1, 0]) == 0.0

    def test_unary_constraint_single_factor(self):
        table = np.array([0.5, 1.0])
        assert constraint_pass_probability(table, (0,), [0], [1]) == 0.5
        assert constraint_pass_probability(table, (0,), [1], [0]) == 1.0

    def test_ternary_constraint_has_seven_factors(self):
        table = np.full((2, 2, 2), 0.5)
        p = constraint_pass_probability(table, (0, 1, 2), [1, 1, 1], [0, 0, 0])
        assert p == pytest.approx(0.5**7)

    def test_all_zero_factors_raise_model_error(self):
        """Regression: a non-normalisable (all-zero) factor table must raise
        instead of silently producing 0/NaN pass probabilities."""
        with pytest.raises(ModelError, match="non-normalisable"):
            constraint_pass_probability(np.zeros((2, 2)), (0, 1), [0, 1], [1, 0])

    def test_non_finite_factors_raise_model_error(self):
        table = np.array([[1.0, np.nan], [0.5, 1.0]])
        with pytest.raises(ModelError, match="finite"):
            constraint_pass_probability(table, (0, 1), [0, 1], [1, 0])
        with pytest.raises(ModelError, match="finite"):
            constraint_pass_probability(
                np.array([np.inf, 1.0]), (0,), [0], [1]
            )


class TestExactStationarity:
    """The CSP remark of Section 4: LocalMetropolis generalises and keeps mu."""

    @pytest.mark.parametrize(
        "make_csp",
        [
            lambda: dominating_set_csp(path_graph(3)),
            lambda: dominating_set_csp(path_graph(4), weight=2.0),
            lambda: coloring_csp(path_graph(3), 3),
            lambda: not_all_equal_csp([(0, 1, 2), (1, 2, 3)], n=4, q=3),
            lambda: mrf_as_csp(ising_mrf(path_graph(3), beta=1.4, field=0.8)),
        ],
    )
    def test_local_metropolis_csp_stationary_and_reversible(self, make_csp):
        csp = make_csp()
        matrix = local_metropolis_csp_transition_matrix(csp)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        gibbs = exact_csp_gibbs_distribution(csp)
        assert np.allclose(gibbs.probs @ matrix, gibbs.probs, atol=1e-11)
        assert is_reversible(matrix, gibbs.probs, atol=1e-11)
        pi = stationary_distribution(matrix)
        assert gibbs.tv_distance(pi) < 1e-8

    def test_mis_csp_stationary_but_frozen(self):
        """Gibbs is stationary for the MIS chain, but the chain is *not*
        irreducible: moving between two MISs needs simultaneous flips that
        the 2^k-1-factor filter always blocks (e.g. P3: (0,1,0) <-> (1,0,1)
        requires accepting a proposal colliding with a current spin).  This
        mirrors the paper's caveat that irreducibility of the single-site
        chain is an *assumption* — it genuinely fails for MIS."""
        csp = maximal_independent_set_csp(path_graph(3))
        matrix = local_metropolis_csp_transition_matrix(csp)
        gibbs = exact_csp_gibbs_distribution(csp)
        assert np.allclose(gibbs.probs @ matrix, gibbs.probs, atol=1e-11)
        # Every feasible configuration is absorbing: the chain is frozen.
        from repro.mrf.distribution import config_index

        for config in gibbs.support():
            index = config_index(config, csp.q)
            assert matrix[index, index] == pytest.approx(1.0)


class TestChainBehaviour:
    def test_luby_glauber_csp_updates_strongly_independent(self):
        csp = dominating_set_csp(cycle_graph(6))
        chain = LubyGlauberCSP(csp, seed=0)
        for _ in range(40):
            before = chain.config.copy()
            chain.step()
            changed = np.nonzero(before != chain.config)[0]
            assert is_strongly_independent(csp, changed)

    def test_luby_glauber_csp_long_run_matches_gibbs(self):
        # Consecutive chain states are dependent, hence the
        # effective-sample-size form of the shared stationarity assertion.
        csp = dominating_set_csp(path_graph(3))
        gibbs = exact_csp_gibbs_distribution(csp)
        chain = LubyGlauberCSP(csp, seed=1)
        chain.run(50)
        samples = []
        for _ in range(5000):
            chain.step()
            samples.append(tuple(int(s) for s in chain.config))
        assert_stationary(samples, gibbs, effective_samples=800)

    def test_local_metropolis_csp_long_run_matches_gibbs(self):
        csp = dominating_set_csp(path_graph(3))
        gibbs = exact_csp_gibbs_distribution(csp)
        chain = LocalMetropolisCSP(csp, seed=2)
        chain.run(50)
        samples = []
        for _ in range(8000):
            chain.step()
            samples.append(tuple(int(s) for s in chain.config))
        assert_stationary(samples, gibbs, effective_samples=1200)

    def test_feasibility_preserved_once_reached(self):
        csp = dominating_set_csp(cycle_graph(5))
        chain = LocalMetropolisCSP(csp, seed=3)
        chain.run(100)
        if chain.is_feasible():
            for _ in range(30):
                chain.step()
                assert chain.is_feasible()

    def test_greedy_initial_dominating_set(self):
        csp = dominating_set_csp(path_graph(5))
        chain = LubyGlauberCSP(csp, seed=4)
        # Greedy start may or may not be feasible; the chain must get there.
        chain.run(200)
        assert chain.is_feasible()

    def test_greedy_start_shared_and_deterministic(self):
        """Both chains (and the ensembles) start from the compiled greedy start."""
        csp = dominating_set_csp(path_graph(5))
        base = csp.compiled().greedy_start
        assert np.array_equal(base, dominating_set_csp(path_graph(5)).compiled().greedy_start)
        assert np.array_equal(LubyGlauberCSP(csp, seed=0).config, base)
        assert np.array_equal(LocalMetropolisCSP(csp, seed=0).config, base)
