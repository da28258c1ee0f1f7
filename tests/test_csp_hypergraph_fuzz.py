"""Property-style fuzz tests for :mod:`repro.csp.hypergraph` invariants.

Seeded random weighted CSPs of arity 1-3 exercise the structures the CSP
chains are built on.  A CSP stores only its scope and palette arrays, and
``csp_neighbors``, ``conflict_graph``, ``constraints``, ``incident`` and
the compiled tables are all derived from them, so every test compares
against a walk over the constraints the test built the model from:

* ``csp_neighbors`` and ``conflict_graph`` hold exactly the co-scoped
  pairs (arity-1 constraints create no edges);
* ``is_strongly_independent`` holds iff no scope contains two of the
  vertices (a vertex outside ``0..n-1`` is in none) — the property that
  makes the Luby step on the conflict graph a valid
  strongly-independent-set schedule;
* ``model_degree`` is the largest co-scope count;
* the compiled form the batched engines read (``csp.compiled()``) has the
  conflict edges, vertex incidence, flat table indices and greedy start
  of the walk, and the ``constraints`` / ``incident`` views return the
  inputs.
"""

import itertools

import numpy as np
import pytest

import repro
from repro.csp import (
    LocalCSP,
    Constraint,
    conflict_graph,
    csp_neighbors,
    is_strongly_independent,
)
from repro.errors import InfeasibleStateError

FUZZ_SEEDS = range(30)


def random_csp(rng: np.random.Generator) -> tuple[LocalCSP, list[Constraint]]:
    """A random weighted local CSP with arities in 1..3, and its input constraints."""
    n = int(rng.integers(2, 9))
    q = int(rng.integers(2, 5))
    constraints = []
    for _ in range(int(rng.integers(1, 9))):
        arity = int(rng.integers(1, min(3, n) + 1))
        scope = rng.choice(n, size=arity, replace=False)
        table = rng.uniform(0.1, 1.0, size=(q,) * arity)
        # Sprinkle hard zeros without ever zeroing the whole table.
        zeros = rng.random(table.shape) < 0.3
        zeros.flat[int(rng.integers(table.size))] = False
        table[zeros] = 0.0
        constraints.append(Constraint(scope, table))
    return LocalCSP(n, q, constraints), constraints


def coscoped(n: int, constraints: list[Constraint]) -> list[set[int]]:
    """``Gamma(v)`` by walking the scopes."""
    neighbourhoods = [set() for _ in range(n)]
    for constraint in constraints:
        for u, v in itertools.permutations(constraint.scope, 2):
            neighbourhoods[u].add(v)
    return neighbourhoods


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_csp_neighbors_are_the_coscoped_vertices(seed):
    csp, constraints = random_csp(np.random.default_rng(seed))
    assert csp_neighbors(csp) == coscoped(csp.n, constraints)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_conflict_graph_joins_the_coscoped_pairs(seed):
    csp, constraints = random_csp(np.random.default_rng(seed))
    graph = conflict_graph(csp)
    assert sorted(graph.nodes()) == list(range(csp.n))
    for v, neighbours in enumerate(coscoped(csp.n, constraints)):
        assert set(graph.neighbors(v)) == neighbours


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_strongly_independent_iff_no_scope_holds_two(seed):
    rng = np.random.default_rng(seed)
    csp, constraints = random_csp(rng)
    subsets = [
        [int(u) for u in rng.choice(csp.n, size=size, replace=False)]
        for size in range(0, csp.n + 1)
        for _ in range(3)
    ]
    for vertices in subsets:
        expected = all(len(set(vertices) & set(c.scope)) < 2 for c in constraints)
        assert is_strongly_independent(csp, vertices) == expected
        # A vertex outside 0..n-1 is in no scope: it changes nothing.
        outside = [-1, -csp.n, csp.n, csp.n + 3]
        assert is_strongly_independent(csp, vertices + outside) == expected


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_model_degree_is_the_largest_coscope_count(seed):
    csp, constraints = random_csp(np.random.default_rng(seed))
    assert repro.model_degree(csp) == max(map(len, coscoped(csp.n, constraints)))


def test_model_degree_without_constraints_is_zero():
    assert repro.model_degree(LocalCSP(4, 3, [])) == 0
    assert csp_neighbors(LocalCSP(4, 3, [])) == [set()] * 4


def test_arity_one_constraints_create_no_neighbours():
    table = np.array([0.5, 1.0])
    csp = LocalCSP(4, 2, [Constraint((v,), table) for v in range(4)])
    assert conflict_graph(csp).number_of_edges() == 0
    assert all(len(s) == 0 for s in csp_neighbors(csp))
    assert is_strongly_independent(csp, range(4))
    assert repro.model_degree(csp) == 0


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_views_return_the_input_constraints(seed):
    csp, constraints = random_csp(np.random.default_rng(seed))
    assert len(csp.constraints) == len(constraints)
    for view, given in zip(csp.constraints, constraints):
        assert view.scope == given.scope
        assert view.table.tobytes() == given.table.tobytes()
        assert not view.table.flags.writeable
    assert csp.incident == [
        [c for c, constraint in enumerate(constraints) if v in constraint.scope]
        for v in range(csp.n)
    ]


def reference_greedy_start(n: int, q: int, constraints: list[Constraint]) -> np.ndarray:
    """The per-vertex, per-spin, per-constraint loop the compiled start replaces.

    Raises :class:`InfeasibleStateError` at the first vertex with no spin
    that keeps the constraints it completes alive.
    """
    config = np.zeros(n, dtype=np.int64)
    for v in range(n):
        candidates = []
        for spin in range(q):
            config[v] = spin
            if all(
                constraint.evaluate(config) != 0.0
                for constraint in constraints
                if v in constraint.scope and max(constraint.scope) <= v
            ):
                candidates.append(spin)
        if not candidates:
            raise InfeasibleStateError(f"vertex {v}")
        config[v] = candidates[0]
    return config


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_compiled_conflict_edges_and_incidence(seed):
    csp, constraints = random_csp(np.random.default_rng(seed))
    compiled = csp.compiled()
    pairs = sorted(
        {(min(u, v), max(u, v)) for c in constraints for u, v in itertools.combinations(c.scope, 2)}
    )
    assert list(zip(compiled.conflict_u.tolist(), compiled.conflict_v.tolist())) == pairs
    for v in range(csp.n):
        slots = slice(compiled.incidence_indptr[v], compiled.incidence_indptr[v + 1])
        incident = [c for c, constraint in enumerate(constraints) if v in constraint.scope]
        assert compiled.incidence_constraint[slots].tolist() == incident
        # Each incident constraint's heat-bath slot reads the other scope
        # vertices in order at row-major strides, then stride 0.
        for (_, terms), c in zip(compiled.heatbath_slots, incident):
            scope = constraints[c].scope
            others = [u for u in scope if u != v]
            read = [(vertices[v], stride[v] if np.ndim(stride) else stride)
                    for vertices, stride in terms]
            assert read[: len(others)] == [
                (u, csp.q ** (len(others) - 1 - i)) for i, u in enumerate(others)
            ]
            assert all(stride == 0 for _, stride in read[len(others) :])


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_compiled_flat_indices_evaluate_every_constraint(seed):
    rng = np.random.default_rng(seed)
    csp, constraints = random_csp(rng)
    compiled = csp.compiled()
    seen = []
    for bucket in compiled.buckets:
        seen.extend(bucket.constraints.tolist())
        for c, scope in zip(bucket.constraints.tolist(), bucket.scopes.tolist()):
            assert tuple(scope) == constraints[c].scope
    assert sorted(seen) == list(range(len(constraints)))
    assert [b.arity for b in compiled.buckets] == sorted({c.arity for c in constraints})
    for config in rng.integers(0, csp.q, size=(5, csp.n)):
        for bucket in compiled.buckets:
            flat = bucket.table_starts + config[bucket.scopes] @ bucket.strides
            for c, index in zip(bucket.constraints.tolist(), flat.tolist()):
                constraint = constraints[c]
                assert compiled.flat_raw[index] == constraint.evaluate(config)
                local = tuple(int(config[u]) for u in constraint.scope)
                assert compiled.flat_norm[index] == constraint.normalized_table()[local]
        weight = 1.0
        for constraint in constraints:
            weight *= constraint.evaluate(config)
        assert csp.weight(config) == weight


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_compiled_greedy_start_matches_the_loop(seed):
    csp, constraints = random_csp(np.random.default_rng(seed))
    try:
        expected = reference_greedy_start(csp.n, csp.q, constraints)
    except InfeasibleStateError as refusal:
        # Both refuse, at the same vertex.
        with pytest.raises(InfeasibleStateError, match=rf"\b{refusal} satisfies"):
            csp.compiled().greedy_start
        return
    np.testing.assert_array_equal(csp.compiled().greedy_start, expected)
