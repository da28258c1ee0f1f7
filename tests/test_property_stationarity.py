"""Property-based stationarity: the paper's theorems on *random* models.

E1 verifies Proposition 3.1 and Theorem 4.1 on a fixed model zoo; these
tests let hypothesis draw random graphs and random (soft or hard) activity
tables and re-verify, every time, that

* LubyGlauber's exact transition matrix is reversible w.r.t. the exact
  Gibbs distribution, and
* LocalMetropolis' exact transition matrix is reversible w.r.t. the exact
  Gibbs distribution (including random edge coins), and
* the CSP LocalMetropolis keeps the CSP Gibbs measure stationary for random
  constraint tables of mixed arity.

This is as close to a mechanical re-proof of the detailed-balance
calculations (Sections 3 and 4.1) as testing gets.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.csp_chains import local_metropolis_csp_transition_matrix
from repro.chains.transition import (
    is_reversible,
    local_metropolis_transition_matrix,
    luby_glauber_transition_matrix,
)
from repro.csp import Constraint, LocalCSP, exact_csp_gibbs_distribution
from repro.graphs import cycle_graph, path_graph
from repro.mrf import MRF, exact_gibbs_distribution


def random_soft_mrf(n: int, q: int, seed: int, graph=None) -> MRF:
    """Random strictly positive activities: every state reachable."""
    rng = np.random.default_rng(seed)
    if graph is None:
        graph = path_graph(n) if seed % 2 == 0 else cycle_graph(max(n, 3))
        n = graph.number_of_nodes()
    edge_activities = {}
    for u, v in graph.edges():
        matrix = rng.uniform(0.1, 2.0, size=(q, q))
        edge_activities[(min(u, v), max(u, v))] = (matrix + matrix.T) / 2.0
    vertex = rng.uniform(0.1, 2.0, size=(n, q))
    return MRF(graph, q, edge_activities, vertex)


def random_hard_mrf(n: int, q: int, seed: int) -> MRF:
    """Random 0/1 symmetric activities, rejecting infeasible-only models."""
    rng = np.random.default_rng(seed)
    graph = path_graph(n)
    while True:
        edge_activities = {}
        for u, v in graph.edges():
            matrix = (rng.random((q, q)) < 0.7).astype(float)
            matrix = np.maximum(matrix, matrix.T)
            if np.all(matrix == 0):
                matrix[0, 1] = matrix[1, 0] = 1.0
            edge_activities[(u, v)] = matrix
        mrf = MRF(graph, q, edge_activities, np.ones(q))
        feasible = any(
            mrf.is_feasible(config)
            for config in itertools.product(range(q), repeat=n)
        )
        if feasible:
            return mrf
        seed += 1
        rng = np.random.default_rng(seed)


class TestRandomSoftModels:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4), q=st.integers(2, 3))
    @settings(max_examples=15, deadline=None)
    def test_luby_glauber_reversible(self, seed, n, q):
        mrf = random_soft_mrf(n, q, seed)
        matrix = luby_glauber_transition_matrix(mrf)
        gibbs = exact_gibbs_distribution(mrf)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert is_reversible(matrix, gibbs.probs, atol=1e-10)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 3), q=st.integers(2, 3))
    @settings(max_examples=12, deadline=None)
    def test_local_metropolis_reversible(self, seed, n, q):
        """Random soft activities exercise the probabilistic edge coins of
        Algorithm 2's filter — the fully general Theorem 4.1 case."""
        mrf = random_soft_mrf(n, q, seed, graph=path_graph(n))
        matrix = local_metropolis_transition_matrix(mrf)
        gibbs = exact_gibbs_distribution(mrf)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert is_reversible(matrix, gibbs.probs, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_full_filter_reversible_on_random_hard_models(self, seed):
        """The complete three-factor filter stays reversible on random
        hard-constraint models too."""
        mrf = random_hard_mrf(3, 3, seed)
        gibbs = exact_gibbs_distribution(mrf)
        full = local_metropolis_transition_matrix(mrf)
        assert is_reversible(full, gibbs.probs, atol=1e-10)


class TestRandomHardModels:
    @given(seed=st.integers(0, 10_000), q=st.integers(2, 3))
    @settings(max_examples=12, deadline=None)
    def test_both_chains_reversible(self, seed, q):
        mrf = random_hard_mrf(3, q, seed)
        gibbs = exact_gibbs_distribution(mrf)
        for builder in (luby_glauber_transition_matrix, local_metropolis_transition_matrix):
            try:
                matrix = builder(mrf)
            except Exception:
                # Hard random models may violate the well-definedness
                # assumptions (paper footnote 1 / condition (6)); those
                # instances are outside the theorems' scope.
                continue
            assert is_reversible(matrix, gibbs.probs, atol=1e-10)


class TestRandomCSPs:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_csp_local_metropolis_stationary(self, seed):
        """Random mixed-arity soft constraints: Gibbs stays stationary."""
        rng = np.random.default_rng(seed)
        n, q = 3, 2
        constraints = [
            Constraint((0, 1), self._soft_table(rng, (q, q))),
            Constraint((1, 2), self._soft_table(rng, (q, q))),
            Constraint((0, 1, 2), self._soft_table(rng, (q, q, q))),
            Constraint((2,), rng.uniform(0.2, 1.5, size=q)),
        ]
        csp = LocalCSP(n, q, constraints)
        matrix = local_metropolis_csp_transition_matrix(csp)
        gibbs = exact_csp_gibbs_distribution(csp)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.allclose(gibbs.probs @ matrix, gibbs.probs, atol=1e-10)
        assert is_reversible(matrix, gibbs.probs, atol=1e-10)

    @staticmethod
    def _soft_table(rng, shape):
        table = rng.uniform(0.2, 1.5, size=shape)
        # Binary constraints of an MRF must be symmetric; higher-arity CSP
        # tables need no symmetry — use them as drawn.
        if len(shape) == 2:
            table = (table + table.T) / 2.0
        return table
