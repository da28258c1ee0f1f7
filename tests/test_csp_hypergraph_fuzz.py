"""Property-style fuzz tests for :mod:`repro.csp.hypergraph` invariants.

Seeded random weighted CSPs of arity 1-3 exercise the three structural
primitives the CSP chains are built on:

* ``csp_neighbors`` is symmetric and contains exactly the co-scoped pairs;
* ``conflict_graph`` is the graph whose adjacency *is* ``csp_neighbors``
  (and in particular arity-1 constraints create no edges);
* ``is_strongly_independent`` agrees with pairwise non-adjacency in the
  conflict graph — the property that makes the Luby step on the conflict
  graph a valid strongly-independent-set schedule;
* the compiled form the batched engines read (``csp.compiled()``) derives
  the same conflict edges, vertex incidence, flat table indices and greedy
  start as the Python structures it replaces.
"""

import itertools

import numpy as np
import pytest

from repro.chains.fastpaths import sorted_edge_arrays
from repro.csp import (
    LocalCSP,
    Constraint,
    conflict_graph,
    csp_neighbors,
    is_strongly_independent,
)
from repro.errors import InfeasibleStateError

FUZZ_SEEDS = range(30)


def random_csp(rng: np.random.Generator) -> LocalCSP:
    """A random weighted local CSP with arities in 1..3."""
    n = int(rng.integers(2, 9))
    q = int(rng.integers(2, 5))
    constraints = []
    for index in range(int(rng.integers(1, 9))):
        arity = int(rng.integers(1, min(3, n) + 1))
        scope = rng.choice(n, size=arity, replace=False)
        table = rng.uniform(0.1, 1.0, size=(q,) * arity)
        # Sprinkle hard zeros without ever zeroing the whole table.
        zeros = rng.random(table.shape) < 0.3
        zeros.flat[int(rng.integers(table.size))] = False
        table[zeros] = 0.0
        constraints.append(Constraint(scope, table, name=f"fuzz{index}"))
    return LocalCSP(n, q, constraints)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_csp_neighbors_symmetric_and_coscoped(seed):
    csp = random_csp(np.random.default_rng(seed))
    neighborhoods = csp_neighbors(csp)
    coscoped = {
        (u, v)
        for c in csp.constraints
        for u in c.scope
        for v in c.scope
        if u != v
    }
    for v, neighbours in enumerate(neighborhoods):
        assert v not in neighbours
        for u in neighbours:
            assert v in neighborhoods[u], "csp_neighbors must be symmetric"
            assert (u, v) in coscoped
    for u, v in coscoped:
        assert v in neighborhoods[u]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_conflict_graph_adjacency_is_csp_neighbors(seed):
    csp = random_csp(np.random.default_rng(seed))
    graph = conflict_graph(csp)
    neighborhoods = csp_neighbors(csp)
    assert graph.number_of_nodes() == csp.n
    for v in range(csp.n):
        assert set(graph.neighbors(v)) == neighborhoods[v]
    # Symmetry of the adjacency relation itself.
    for u, v in graph.edges():
        assert graph.has_edge(v, u)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_strongly_independent_matches_conflict_graph(seed):
    rng = np.random.default_rng(seed)
    csp = random_csp(rng)
    graph = conflict_graph(csp)
    subsets = [
        [int(u) for u in rng.choice(csp.n, size=size, replace=False)]
        for size in range(0, csp.n + 1)
        for _ in range(3)
    ]
    for vertices in subsets:
        pairwise_independent = all(
            not graph.has_edge(u, v) for u, v in itertools.combinations(vertices, 2)
        )
        assert is_strongly_independent(csp, vertices) == pairwise_independent


def test_arity_one_constraints_create_no_neighbours():
    table = np.array([0.5, 1.0])
    csp = LocalCSP(4, 2, [Constraint((v,), table) for v in range(4)])
    assert conflict_graph(csp).number_of_edges() == 0
    assert all(len(s) == 0 for s in csp_neighbors(csp))
    assert is_strongly_independent(csp, range(4))


def reference_greedy_start(csp: LocalCSP) -> np.ndarray:
    """The per-vertex, per-spin, per-constraint loop the compiled start replaces.

    Raises :class:`InfeasibleStateError` at the first vertex with no spin
    that keeps the constraints it completes alive.
    """
    config = np.zeros(csp.n, dtype=np.int64)
    for v in range(csp.n):
        candidates = []
        for spin in range(csp.q):
            config[v] = spin
            if all(
                csp.constraints[index].evaluate(config) != 0.0
                for index in csp.incident[v]
                if max(csp.constraints[index].scope) <= v
            ):
                candidates.append(spin)
        if not candidates:
            raise InfeasibleStateError(f"vertex {v}")
        config[v] = candidates[0]
    return config


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_compiled_conflict_edges_and_incidence(seed):
    csp = random_csp(np.random.default_rng(seed))
    compiled = csp.compiled()
    edge_u, edge_v = sorted_edge_arrays(conflict_graph(csp))
    np.testing.assert_array_equal(compiled.conflict_u, edge_u)
    np.testing.assert_array_equal(compiled.conflict_v, edge_v)
    for v in range(csp.n):
        slots = slice(compiled.incidence_indptr[v], compiled.incidence_indptr[v + 1])
        assert compiled.incidence_constraint[slots].tolist() == csp.incident[v]
        strides = [
            csp.q ** (len(csp.constraints[c].scope) - 1 - csp.constraints[c].scope.index(v))
            for c in csp.incident[v]
        ]
        assert compiled.incidence_stride[slots].tolist() == strides


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_compiled_flat_indices_evaluate_every_constraint(seed):
    rng = np.random.default_rng(seed)
    csp = random_csp(rng)
    compiled = csp.compiled()
    seen = []
    for bucket in compiled.buckets:
        seen.extend(bucket.constraints.tolist())
        for c, scope in zip(bucket.constraints.tolist(), bucket.scopes.tolist()):
            assert tuple(scope) == csp.constraints[c].scope
    assert sorted(seen) == list(range(len(csp.constraints)))
    assert [b.arity for b in compiled.buckets] == sorted({c.arity for c in csp.constraints})
    for config in rng.integers(0, csp.q, size=(5, csp.n)):
        for bucket in compiled.buckets:
            flat = bucket.table_starts + config[bucket.scopes] @ bucket.strides
            for c, index in zip(bucket.constraints.tolist(), flat.tolist()):
                constraint = csp.constraints[c]
                assert compiled.flat_raw[index] == constraint.evaluate(config)
                local = tuple(int(config[u]) for u in constraint.scope)
                assert compiled.flat_norm[index] == constraint.normalized_table()[local]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_compiled_greedy_start_matches_the_loop(seed):
    csp = random_csp(np.random.default_rng(seed))
    try:
        expected = reference_greedy_start(csp)
    except InfeasibleStateError as refusal:
        # Both refuse, at the same vertex.
        with pytest.raises(InfeasibleStateError, match=rf"\b{refusal} satisfies"):
            csp.compiled().greedy_start
        return
    np.testing.assert_array_equal(csp.compiled().greedy_start, expected)
