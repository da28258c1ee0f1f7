"""Constructors for local CSPs named in the paper.

Paper Section 2.2 calls out dominating sets ("a cover constraint on each
inclusive neighbourhood") and maximal independent sets ("a dominating
independent set") as examples of local CSPs beyond MRFs.
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.csp.model import Constraint, LocalCSP
from repro.errors import ModelError
from repro.graphs.structure import check_vertex_labels
from repro.mrf.model import MRF
from repro.serialize import frozen_table

__all__ = [
    "dominating_set_csp",
    "maximal_independent_set_csp",
    "mrf_as_csp",
    "coloring_csp",
    "not_all_equal_csp",
]


def _cover_table(arity: int, weight_per_pick: float = 1.0) -> np.ndarray:
    """Table of the "at least one chosen" constraint with per-pick weight.

    Entry for local spins ``(s_1..s_k)`` is ``0`` if no ``s_i = 1``, else
    ``weight_per_pick ** (#ones)``.  With weight 1 this is the plain cover
    constraint; other weights tilt towards smaller/larger dominating sets.
    Returned frozen, so the constraints built on it share it.
    """
    table = np.zeros((2,) * arity)
    for index in np.ndindex(*table.shape):
        ones = sum(index)
        if ones >= 1:
            table[index] = weight_per_pick**ones
    return frozen_table(table)


def _cover_constraints(graph: nx.Graph) -> list[Constraint]:
    """One cover constraint per inclusive neighbourhood, one shared table per arity."""
    tables: dict[int, np.ndarray] = {}
    constraints = []
    for v in range(graph.number_of_nodes()):
        scope = tuple(sorted(set(graph.neighbors(v)) | {v}))
        if len(scope) not in tables:
            tables[len(scope)] = _cover_table(len(scope))
        constraints.append(Constraint(scope, tables[len(scope)], _checked=True))
    return constraints


def dominating_set_csp(graph: nx.Graph, weight: float = 1.0) -> LocalCSP:
    """Distribution over dominating sets of ``graph``.

    One cover constraint per inclusive neighbourhood ``Gamma+(v)``: at least
    one vertex of ``Gamma+(v)`` carries spin 1.  Vertices appear in many
    scopes, so the per-pick ``weight`` is applied once per vertex via a
    dedicated unary constraint rather than inside each cover table.
    """
    check_vertex_labels(graph)
    if weight <= 0:
        raise ModelError(f"dominating set weight must be > 0, got {weight}")
    n = graph.number_of_nodes()
    constraints = _cover_constraints(graph)
    if weight != 1.0:
        unary = frozen_table([1.0, weight])
        for v in range(n):
            constraints.append(Constraint((v,), unary, _checked=True))
    return LocalCSP(n, 2, constraints, name=f"dominating-set(w={weight})")


def maximal_independent_set_csp(graph: nx.Graph) -> LocalCSP:
    """Uniform distribution over maximal independent sets (MIS).

    An MIS is a dominating independent set (paper Section 2.2): combine the
    per-edge independence constraint with the per-inclusive-neighbourhood
    cover constraint.
    """
    check_vertex_labels(graph)
    independence = frozen_table([[1.0, 1.0], [1.0, 0.0]])
    constraints = [
        Constraint((u, v), independence, _checked=True)
        for u, v in sorted((min(e), max(e)) for e in graph.edges())
    ]
    constraints.extend(_cover_constraints(graph))
    return LocalCSP(
        graph.number_of_nodes(), 2, constraints, name="maximal-independent-set"
    )


def mrf_as_csp(mrf: MRF) -> LocalCSP:
    """Express an MRF as the equivalent weighted local CSP.

    One binary constraint per edge (the activity matrix) and one unary
    constraint per vertex (the activity vector) — the embedding that makes
    MRFs "a special class of weighted local CSPs" (Section 2.2).  Used to
    cross-validate the CSP chains against the MRF chains.

    Built from the MRF's arrays: the scopes are the sorted edges, then each
    vertex; the tables are the ``P`` edge tables (``edge_table``), then the
    vertex rows (``P + vertex_index``).
    """
    arrays = mrf.compiled()
    m, n = arrays.m, mrf.n
    return LocalCSP._from_arrays(
        n, mrf.q, f"csp[{mrf.name}]",
        scope_indptr=np.concatenate([np.arange(0, 2 * m, 2), np.arange(2 * m, 2 * m + n + 1)]),
        scope_vertex=np.concatenate(
            [np.stack([arrays.edge_u, arrays.edge_v], axis=1).ravel(), np.arange(n)]
        ),
        constraint_table=np.concatenate(
            [arrays.edge_table, len(arrays.palette) + arrays.vertex_index]
        ),
        palette=[*arrays.palette, *arrays.vertex_palette],
    )


def coloring_csp(graph: nx.Graph, q: int) -> LocalCSP:
    """Proper q-colouring expressed directly as a binary CSP."""
    check_vertex_labels(graph)
    if q < 2:
        raise ModelError(f"coloring_csp needs q >= 2, got {q}")
    table = frozen_table(np.ones((q, q)) - np.eye(q))
    constraints = [
        Constraint((min(u, v), max(u, v)), table, _checked=True) for u, v in graph.edges()
    ]
    return LocalCSP(graph.number_of_nodes(), q, constraints, name=f"coloring-csp(q={q})")


def not_all_equal_csp(scopes: list[tuple[int, ...]], n: int, q: int) -> LocalCSP:
    """Hypergraph colouring: each scope must not be monochromatic.

    A genuinely multivariate CSP (arity > 2) exercising the ``2^k - 1``-factor
    LocalMetropolis filter of the paper's CSP remark.
    """
    if q < 2:
        raise ModelError(f"not_all_equal_csp needs q >= 2, got {q}")
    tables: dict[int, np.ndarray] = {}
    constraints = []
    for scope in scopes:
        arity = len(scope)
        if arity < 2:
            raise ModelError("NAE constraints need arity >= 2")
        if arity not in tables:
            table = np.ones((q,) * arity)
            for spin in range(q):
                table[(spin,) * arity] = 0.0
            tables[arity] = frozen_table(table)
        constraints.append(Constraint(scope, tables[arity]))
    return LocalCSP(n, q, constraints, name="not-all-equal")
