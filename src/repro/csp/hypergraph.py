"""Hypergraph structure of a weighted local CSP.

The paper's CSP extension of LubyGlauber (remark after Algorithm 1)
"overrides the definition of neighbourhood as
``Gamma(v) = {u != v : exists c, {u, v} subseteq S_c}``, thus ``Gamma(v)`` is
the neighbourhood of ``v`` in the hypergraph where the ``S_c`` are the
hyperedges, and ``I`` is the *strongly independent set* of this hypergraph"
— i.e. no two selected vertices share any constraint.
"""

from __future__ import annotations

from collections.abc import Iterable

import networkx as nx
import numpy as np

from repro.csp.model import LocalCSP

__all__ = ["csp_neighbors", "conflict_graph", "is_strongly_independent"]


def csp_neighbors(csp: LocalCSP) -> list[set[int]]:
    """Return ``Gamma(v)`` for each vertex: co-scoped vertices."""
    neighborhoods: list[set[int]] = [set() for _ in range(csp.n)]
    compiled = csp.compiled()
    for u, v in zip(compiled.conflict_u.tolist(), compiled.conflict_v.tolist()):
        neighborhoods[u].add(v)
        neighborhoods[v].add(u)
    return neighborhoods


def conflict_graph(csp: LocalCSP) -> nx.Graph:
    """Return the primal/conflict graph: ``u ~ v`` iff they share a constraint.

    Independent sets of this graph are exactly the strongly independent sets
    of the CSP hypergraph, so the Luby step on the conflict graph yields a
    valid LubyGlauber schedule for the CSP.
    """
    compiled = csp.compiled()
    graph = nx.Graph()
    graph.add_nodes_from(range(csp.n))
    graph.add_edges_from(zip(compiled.conflict_u.tolist(), compiled.conflict_v.tolist()))
    return graph


def is_strongly_independent(csp: LocalCSP, vertices: Iterable[int]) -> bool:
    """Return True iff no constraint scope contains two of ``vertices``.

    That is, no conflict edge joins two of them; a vertex outside
    ``0..n-1`` is in no scope.
    """
    picked = np.fromiter(vertices, dtype=np.int64)
    chosen = np.zeros(csp.n, dtype=bool)
    chosen[picked[(picked >= 0) & (picked < csp.n)]] = True
    compiled = csp.compiled()
    return not np.any(chosen[compiled.conflict_u] & chosen[compiled.conflict_v])
