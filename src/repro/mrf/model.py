"""The :class:`MRF` container — paper Section 2.2, equation (1).

An MRF instance couples a simple graph ``G(V, E)`` (vertices ``0..n-1``) with

* a spin domain ``[q] = {0, ..., q-1}`` (the paper writes ``{1..q}``; we use
  0-based spins throughout),
* one non-negative *symmetric* ``q x q`` edge activity matrix ``A_e`` per edge,
* one non-negative ``q``-vector vertex activity ``b_v`` per vertex.

The weight of a configuration ``sigma in [q]^V`` is

    w(sigma) = prod_{e=uv in E} A_e(sigma_u, sigma_v) * prod_{v in V} b_v(sigma_v)

and the Gibbs distribution is ``mu(sigma) = w(sigma) / Z``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import networkx as nx
import numpy as np

from repro.errors import ModelError
from repro.graphs.structure import check_vertex_labels
from repro.serialize import (
    frozen_table,
    palette_index,
    payload_fingerprint,
    table_palette,
)

if TYPE_CHECKING:
    from repro.compiled import CompiledMRF

__all__ = ["MRF", "Config", "as_config"]

#: A configuration is an assignment of a spin to every vertex, stored as an
#: immutable tuple so it can key dictionaries and appear in enumerations.
Config = tuple[int, ...]


def as_config(values: Iterable[int]) -> Config:
    """Coerce an iterable of spins (e.g. a numpy array) into a :data:`Config`."""
    return tuple(int(x) for x in values)


class MRF:
    """A Markov random field on a graph with vertices ``0..n-1``.

    Parameters
    ----------
    graph:
        Simple undirected graph with integer vertices ``0..n-1``.
    q:
        Number of spin states; spins are ``0..q-1``.
    edge_activities:
        Either a single ``(q, q)`` symmetric non-negative matrix applied to
        every edge, or a mapping from edges (any orientation) to per-edge
        matrices.
    vertex_activities:
        Either a single length-``q`` non-negative vector applied to every
        vertex, a mapping ``vertex -> vector``, or an ``(n, q)`` array.
    name:
        Optional human-readable model name used in reprs and reports.
    """

    def __init__(
        self,
        graph: nx.Graph,
        q: int,
        edge_activities: np.ndarray | Mapping[tuple[int, int], np.ndarray],
        vertex_activities: np.ndarray | Mapping[int, np.ndarray],
        name: str = "mrf",
    ) -> None:
        check_vertex_labels(graph)
        if q < 2:
            raise ModelError(f"MRF needs q >= 2 spin states, got {q}")
        self.graph = graph
        self.q = int(q)
        self.n = graph.number_of_nodes()
        self.name = name
        self.edges: list[tuple[int, int]] = [
            (min(u, v), max(u, v)) for u, v in graph.edges()
        ]
        self.edges.sort()
        self._neighbors: list[tuple[int, ...]] = [
            tuple(sorted(graph.neighbors(v))) for v in range(self.n)
        ]
        self._edge_activity = self._build_edge_activities(edge_activities)
        self.vertex_activity = self._build_vertex_activities(vertex_activities)
        self._fingerprint: str | None = None
        self._compiled: CompiledMRF | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_edge_activities(
        self, spec: np.ndarray | Mapping[tuple[int, int], np.ndarray]
    ) -> dict[tuple[int, int], np.ndarray]:
        activities: dict[tuple[int, int], np.ndarray] = {}
        if isinstance(spec, Mapping):
            # Frozen matrices are shared by identity across edges (the
            # copy-on-write mutation path maps every edge to one frozen
            # table), so each distinct object is validated exactly once.
            checked: dict[int, np.ndarray] = {}
            for edge in self.edges:
                u, v = edge
                if edge in spec:
                    matrix = spec[edge]
                elif (v, u) in spec:
                    matrix = spec[(v, u)]
                else:
                    raise ModelError(f"no edge activity supplied for edge {edge}")
                matrix = np.asarray(matrix, dtype=float)
                if not matrix.flags.writeable and id(matrix) in checked:
                    activities[edge] = checked[id(matrix)]
                    continue
                frozen = self._check_edge_matrix(matrix, edge)
                if not matrix.flags.writeable:
                    checked[id(matrix)] = frozen
                activities[edge] = frozen
        else:
            matrix = self._check_edge_matrix(np.asarray(spec, dtype=float), None)
            for edge in self.edges:
                activities[edge] = matrix
        return activities

    def _check_edge_matrix(
        self, matrix: np.ndarray, edge: tuple[int, int] | None
    ) -> np.ndarray:
        label = f"edge {edge}" if edge is not None else "shared edge activity"
        if matrix.shape != (self.q, self.q):
            raise ModelError(
                f"{label}: activity must be {self.q}x{self.q}, got {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ModelError(f"{label}: activities must be finite")
        if np.any(matrix < 0):
            raise ModelError(f"{label}: activities must be non-negative")
        if not np.allclose(matrix, matrix.T):
            raise ModelError(f"{label}: activity matrix must be symmetric")
        if np.all(matrix == 0):
            raise ModelError(f"{label}: activity matrix must not be identically zero")
        if matrix.flags.writeable:  # already-frozen tables are shared, not copied
            matrix = matrix.copy()
            matrix.setflags(write=False)
        return matrix

    def _build_vertex_activities(
        self, spec: np.ndarray | Mapping[int, np.ndarray]
    ) -> np.ndarray:
        if (
            isinstance(spec, np.ndarray)
            and spec.dtype == np.float64
            and spec.shape == (self.n, self.q)
            and not spec.flags.writeable
        ):
            # Copy-on-write fast path: share a frozen (n, q) table instead
            # of copying it; the validity checks below still run.
            table = spec
        else:
            table = np.empty((self.n, self.q), dtype=float)
            if isinstance(spec, Mapping):
                for v in range(self.n):
                    if v not in spec:
                        raise ModelError(f"no vertex activity supplied for vertex {v}")
                    table[v] = np.asarray(spec[v], dtype=float)
            else:
                arr = np.asarray(spec, dtype=float)
                if arr.shape == (self.q,):
                    table[:] = arr
                elif arr.shape == (self.n, self.q):
                    table[:] = arr
                else:
                    raise ModelError(
                        f"vertex activities must have shape ({self.q},) or "
                        f"({self.n}, {self.q}), got {arr.shape}"
                    )
        if not np.all(np.isfinite(table)):
            raise ModelError("vertex activities must be finite")
        if np.any(table < 0):
            raise ModelError("vertex activities must be non-negative")
        if np.any(np.all(table == 0, axis=1)):
            raise ModelError("every vertex needs at least one positive activity")
        table.setflags(write=False)
        return table

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> tuple[int, ...]:
        """Return the sorted neighbourhood Γ(v)."""
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        """Return deg(v)."""
        return len(self._neighbors[v])

    @property
    def max_degree(self) -> int:
        """Return the maximum degree Δ of the underlying graph."""
        if self.n == 0:
            return 0
        return max(len(nbrs) for nbrs in self._neighbors)

    def edge_activity(self, u: int, v: int) -> np.ndarray:
        """Return ``A_{uv}`` (symmetric, so orientation is irrelevant)."""
        key = (min(u, v), max(u, v))
        try:
            return self._edge_activity[key]
        except KeyError:
            raise ModelError(f"({u}, {v}) is not an edge of the MRF graph") from None

    def edge_tables(self) -> list[np.ndarray]:
        """The edge activity tables, one per edge in canonical ``edges`` order."""
        return [self._edge_activity[edge] for edge in self.edges]

    def normalized_edge_activity(self, u: int, v: int) -> np.ndarray:
        """Return ``Ã_e = A_e / max_{i,j} A_e(i, j)`` — the LocalMetropolis filter matrix."""
        matrix = self.edge_activity(u, v)
        return matrix / matrix.max()

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def weight(self, config: Sequence[int]) -> float:
        """Return the unnormalised weight ``w(config)`` of equation (1)."""
        if len(config) != self.n:
            raise ModelError(
                f"configuration length {len(config)} != number of vertices {self.n}"
            )
        weight = 1.0
        for v in range(self.n):
            weight *= self.vertex_activity[v, config[v]]
            if weight == 0.0:
                return 0.0
        for u, v in self.edges:
            weight *= self._edge_activity[(u, v)][config[u], config[v]]
            if weight == 0.0:
                return 0.0
        return weight

    def log_weight(self, config: Sequence[int]) -> float:
        """Return ``log w(config)``; ``-inf`` for infeasible configurations."""
        weight = self.weight(config)
        if weight == 0.0:
            return float("-inf")
        return float(np.log(weight))

    def is_feasible(self, config: Sequence[int]) -> bool:
        """Return True iff ``config`` has positive weight (paper: ``mu(sigma) > 0``)."""
        return self.weight(config) > 0.0

    # ------------------------------------------------------------------
    # structure probes
    # ------------------------------------------------------------------
    def is_hard_constraint_model(self) -> bool:
        """Return True iff every activity value is 0 or 1.

        For such models (colourings, independent sets, ...) the Gibbs
        distribution is the uniform distribution over CSP solutions, and the
        LocalMetropolis edge checks are deterministic given the proposals.
        """
        if np.any((self.vertex_activity != 0.0) & (self.vertex_activity != 1.0)):
            return False
        return all(
            bool(np.all((matrix == 0.0) | (matrix == 1.0)))
            for matrix in self._edge_activity.values()
        )

    # ------------------------------------------------------------------
    # copy-on-write mutation
    # ------------------------------------------------------------------
    def _replace(
        self,
        edge_activities: Mapping[tuple[int, int], np.ndarray],
        vertex_activities: np.ndarray,
    ) -> MRF:
        """Build a sibling MRF sharing the (read-only) activity arrays."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(edge_activities.keys())
        return MRF(graph, self.q, edge_activities, vertex_activities, name=self.name)

    def with_edge(self, u: int, v: int, activity: np.ndarray) -> MRF:
        """Return a copy with edge ``{u, v}`` added (or its activity replaced).

        Copy-on-write: the untouched per-edge and per-vertex activity
        tables are shared with ``self`` (they are read-only), so the cost
        is O(n + m) bookkeeping, not a model rebuild.  The derived model is
        a new instance, and :meth:`model_fingerprint` is memoized per
        immutable instance, so the derived model's fingerprint reflects the
        mutation while ``self`` keeps its own.
        """
        u, v = int(u), int(v)
        if u == v:
            raise ModelError(f"cannot add a self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ModelError(f"edge ({u}, {v}) outside vertices 0..{self.n - 1}")
        key = (min(u, v), max(u, v))
        activities = dict(self._edge_activity)
        activities[key] = self._check_edge_matrix(
            np.asarray(activity, dtype=float), key
        )
        return self._replace(activities, self.vertex_activity)

    def without_edge(self, u: int, v: int) -> MRF:
        """Return a copy with edge ``{u, v}`` removed (copy-on-write)."""
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key not in self._edge_activity:
            raise ModelError(f"({u}, {v}) is not an edge of the MRF graph")
        activities = dict(self._edge_activity)
        del activities[key]
        return self._replace(activities, self.vertex_activity)

    def with_edge_activity(self, u: int, v: int, activity: np.ndarray) -> MRF:
        """Return a copy with the factor on existing edge ``{u, v}`` replaced."""
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key not in self._edge_activity:
            raise ModelError(f"({u}, {v}) is not an edge of the MRF graph")
        return self.with_edge(u, v, activity)

    def with_vertex_activity(self, v: int, activity: np.ndarray) -> MRF:
        """Return a copy with the external field ``b_v`` replaced."""
        v = int(v)
        if not (0 <= v < self.n):
            raise ModelError(f"vertex {v} outside 0..{self.n - 1}")
        table = np.array(self.vertex_activity, dtype=float)
        table[v] = np.asarray(activity, dtype=float)
        return self._replace(self._edge_activity, table)

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical plain-JSON palette form; inverse of :meth:`from_dict`.

        ``edges`` lists the edges in canonical sorted order.
        ``edge_palette`` holds each distinct edge activity table once, in
        first-use order along ``edges``, and ``edge_index[i]`` is the
        palette position of edge ``i``'s table; ``vertex_palette`` and
        ``vertex_index`` do the same for the rows of the vertex activity
        table.  Tables are deduplicated by value (their float64 bytes), so
        the payload depends only on the model's mathematical content,
        never on how the instance was built or which tables it shares —
        two equal models serialise to equal payloads.
        """
        tables, edge_index = table_palette(self.edge_tables())
        rows, vertex_index = table_palette(list(self.vertex_activity))
        return {
            "type": "mrf",
            "name": self.name,
            "n": self.n,
            "q": self.q,
            "edges": [[u, v] for u, v in self.edges],
            "edge_palette": [table.tolist() for table in tables],
            "edge_index": edge_index,
            "vertex_palette": [row.tolist() for row in rows],
            "vertex_index": vertex_index,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> MRF:
        """Rebuild an :class:`MRF` from a :meth:`to_dict` payload.

        The edges naming one palette entry share one frozen table, so the
        rebuilt model validates (and pickles) each distinct table once.
        """
        try:
            n = int(payload["n"])
            q = int(payload["q"])
            edges = [(int(u), int(v)) for u, v in payload["edges"]]
            tables = [frozen_table(table) for table in payload["edge_palette"]]
            edge_index = palette_index(
                payload["edge_index"], len(tables), len(edges), "edge"
            )
            rows = np.asarray(payload["vertex_palette"], dtype=float)
            vertex_index = palette_index(payload["vertex_index"], len(rows), n, "vertex")
            name = str(payload.get("name", "mrf"))
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ModelError(f"malformed MRF payload: {error}") from None
        if rows.ndim != 2 or rows.shape[1] != q:
            raise ModelError(
                f"vertex palette rows must have length {q}, got shape {rows.shape}"
            )
        vertex_table = rows[vertex_index]
        vertex_table.setflags(write=False)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        activities = {edge: tables[i] for edge, i in zip(edges, edge_index)}
        return cls(graph, q, activities, vertex_table, name=name)

    def model_fingerprint(self) -> str:
        """Stable content hash of the distribution-defining payload.

        The ``name`` field is cosmetic and excluded: two independently
        built copies of the same model hash identically, so result caches
        keyed on this fingerprint deduplicate across processes.  Equal
        fingerprints imply bit-identical sampling results for equal
        requests (every value that can influence a sampled bit is hashed).
        Computed on the first call and memoized: an instance never changes
        (mutations return new instances), and a model that is only sampled
        never pays for it.
        """
        if self._fingerprint is None:
            payload = self.to_dict()
            del payload["name"]
            self._fingerprint = payload_fingerprint(payload)
        return self._fingerprint

    def compiled(self) -> CompiledMRF:
        """The :class:`~repro.compiled.CompiledMRF` index-array form.

        Built on the first call (the first engine build) and memoized per
        immutable instance, like :meth:`model_fingerprint`; left out of
        pickles, so a worker that unpickles a job compiles its own copy.
        """
        if self._compiled is None:
            from repro.compiled import compile_mrf

            self._compiled = compile_mrf(self)
        return self._compiled

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_compiled"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compiled = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MRF(name={self.name!r}, n={self.n}, q={self.q}, "
            f"edges={len(self.edges)})"
        )
