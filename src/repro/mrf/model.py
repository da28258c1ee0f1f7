"""The :class:`MRF` container — paper Section 2.2, equation (1).

An MRF instance couples a simple graph ``G(V, E)`` (vertices ``0..n-1``) with

* a spin domain ``[q] = {0, ..., q-1}`` (the paper writes ``{1..q}``; we use
  0-based spins throughout),
* one non-negative *symmetric* ``q x q`` edge activity matrix ``A_e`` per edge,
* one non-negative ``q``-vector vertex activity ``b_v`` per vertex.

The weight of a configuration ``sigma in [q]^V`` is

    w(sigma) = prod_{e=uv in E} A_e(sigma_u, sigma_v) * prod_{v in V} b_v(sigma_v)

and the Gibbs distribution is ``mu(sigma) = w(sigma) / Z``.

An MRF is its name and its arrays: a :class:`~repro.compiled.CompiledMRF`
of sorted edges and palette indices.  The constructor, :meth:`MRF.from_dict`
and every ``with_*``/``without_*`` mutation go through one private
constructor, the one validator: it refuses ``n >= 2**31``, a graph that is
not simple, a palette index out of range or of the wrong length and an
invalid table, and canonicalises the arrays.  The engines read them
(:meth:`MRF.compiled`), :meth:`MRF.to_dict` encodes them with the array
codec of :mod:`repro.serialize` and the fingerprint hashes their bytes.
The networkx ``graph`` (kept as given to the constructor), ``edges``,
neighbourhoods, degrees, per-edge tables and the ``(n, q)``
``vertex_activity`` table are derived on first use and never pickled.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

import networkx as nx
import numpy as np

from repro.compiled import CompiledMRF, _check_index, _first_use, _frozen, _StoredModel
from repro.errors import ModelError
from repro.graphs.structure import check_vertex_labels
from repro.serialize import MAX_COUNT, table_palette

__all__ = ["MRF", "Config", "as_config"]

_SIMPLE = "an MRF's edges must form a simple graph"

#: A configuration is an assignment of a spin to every vertex, stored as an
#: immutable tuple so it can key dictionaries and appear in enumerations.
Config = tuple[int, ...]


def as_config(values: Iterable[int]) -> Config:
    """Coerce an iterable of spins (e.g. a numpy array) into a :data:`Config`."""
    return tuple(int(x) for x in values)


def _stack_edge_tables(tables: list[np.ndarray], q: int) -> tuple[np.ndarray, tuple | None]:
    """The ``(P, q, q)`` stack of ``tables`` and ``(k, problem)`` for the
    first that is not a valid edge activity, or None."""
    for k, table in enumerate(tables):
        if table.shape != (q, q):
            return np.zeros((0, q, q)), (k, f"activity must be {q}x{q}, got {table.shape}")
    stack = np.array(tables, dtype=float).reshape(-1, q, q)
    for bad, problem in (
        (~np.isfinite(stack).all(axis=(1, 2)), "activities must be finite"),
        ((stack < 0).any(axis=(1, 2)), "activities must be non-negative"),
        (~np.isclose(stack, stack.transpose(0, 2, 1)).all(axis=(1, 2)),
         "activity matrix must be symmetric"),
        ((stack == 0).all(axis=(1, 2)), "activity matrix must not be identically zero"),
    ):
        if bad.any():
            return stack, (int(np.argmax(bad)), problem)
    return stack, None


class MRF(_StoredModel):
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

    RECORD = CompiledMRF
    _arrays: CompiledMRF

    def __init__(
        self,
        graph: nx.Graph,
        q: int,
        edge_activities: np.ndarray | Mapping[tuple[int, int], np.ndarray],
        vertex_activities: np.ndarray | Mapping[int, np.ndarray],
        name: str = "mrf",
    ) -> None:
        check_vertex_labels(graph)
        n = graph.number_of_nodes()
        edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        if isinstance(edge_activities, Mapping):
            matrices = []
            for u, v in edges.tolist():
                key = (u, v) if (u, v) in edge_activities else (v, u)
                if key not in edge_activities:
                    raise ModelError(f"no edge activity supplied for edge {(min(u, v), max(u, v))}")
                matrices.append(np.asarray(edge_activities[key], dtype=float))
            tables, edge_index = table_palette(matrices)
        else:
            tables, edge_index = [np.asarray(edge_activities, dtype=float)], [0] * len(edges)
        if isinstance(vertex_activities, Mapping):
            missing = [v for v in range(n) if v not in vertex_activities]
            if missing:
                raise ModelError(f"no vertex activity supplied for vertex {missing[0]}")
            rows = np.array([vertex_activities[v] for v in range(n)], dtype=float)
        else:
            rows = np.asarray(vertex_activities, dtype=float)
        if rows.shape not in ((q,), (n, q)):
            raise ModelError(
                f"vertex activities must have shape ({q},) or ({n}, {q}), got {rows.shape}"
            )
        vertex_index = np.zeros(n, dtype=np.int64) if rows.ndim == 1 else np.arange(n)
        self._build(
            n, q, name=name, edge_u=edges[:, 0], edge_v=edges[:, 1],
            edge_table=np.asarray(edge_index, dtype=np.int64), palette=tables,
            vertex_index=vertex_index, vertex_palette=rows.reshape(-1, q),
        )
        self.__dict__["graph"] = graph

    def _build(
        self, n: int, q: int, *, name: str, edge_u: np.ndarray, edge_v: np.ndarray,
        edge_table: np.ndarray, palette: Sequence[np.ndarray], vertex_index: np.ndarray,
        vertex_palette: np.ndarray,
    ) -> None:
        """The one constructor and validator: check, canonicalise and store the arrays.

        Edge ``i`` joins ``edge_u[i]`` and ``edge_v[i]`` (either
        orientation, any order) with table ``palette[edge_table[i]]``, and
        vertex ``v`` has activity ``vertex_palette[vertex_index[v]]``.  The
        index counts and ranges, every supplied table and every row are
        checked, and each palette keeps the distinct used entries (by
        float64 bytes) in first-use order along the sorted edges or the
        vertices.
        """
        # table_palette keys tables by id: a list keeps every row view of a
        # 3-D palette alive, so no two of them can share one.
        tables = list(palette)
        if not 0 <= n < MAX_COUNT:
            raise ModelError(f"an MRF needs 0 <= n < 2**31 vertices, got n = {n}")
        if not 2 <= q < MAX_COUNT:
            raise ModelError(f"an MRF needs 2 <= q < 2**31 spin states, got q = {q}")
        if edge_v.shape != edge_u.shape:
            raise ModelError(f"{edge_u.size} edge_u entries but {edge_v.size} edge_v entries")
        _check_index(edge_table, len(tables), edge_u.size, "edge")
        if vertex_palette.ndim != 2 or vertex_palette.shape[1] != q:
            raise ModelError(
                f"vertex palette rows must have length {q}, got shape {vertex_palette.shape}"
            )
        _check_index(vertex_index, len(vertex_palette), n, "vertex")
        lo, hi = np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)
        bad = np.flatnonzero((lo < 0) | (hi >= n) | (lo == hi))
        if bad.size:
            u, v = lo[bad[0]], hi[bad[0]]
            if u == v:
                raise ModelError(f"edge ({u}, {v}) is a self-loop; {_SIMPLE}")
            raise ModelError(f"edge ({u}, {v}) outside vertices 0..{n - 1}")
        keys = lo * n + hi
        if np.any(keys[1:] <= keys[:-1]):
            order = np.argsort(keys, kind="stable")
            lo, hi, keys, edge_table = lo[order], hi[order], keys[order], edge_table[order]
            repeated = np.flatnonzero(keys[1:] == keys[:-1])
            if repeated.size:
                i = repeated[0]
                raise ModelError(f"edge ({lo[i]}, {hi[i]}) is repeated; {_SIMPLE}")
        distinct, value = table_palette(tables)
        value = np.asarray(value, dtype=np.int64)[edge_table]
        stack, problem = _stack_edge_tables(distinct, q)
        if problem:
            uses = np.flatnonzero(value == problem[0])
            where = f"edge ({lo[uses[0]]}, {hi[uses[0]]})" if uses.size else "edge activity"
            raise ModelError(f"{where}: {problem[1]}")
        if not np.all(np.isfinite(vertex_palette)):
            raise ModelError("vertex activities must be finite")
        if np.any(vertex_palette < 0):
            raise ModelError("vertex activities must be non-negative")
        if np.any(np.all(vertex_palette == 0, axis=1)):
            raise ModelError("every vertex needs at least one positive activity")
        distinct_rows, row_value = table_palette(list(vertex_palette))
        edge_table, used = _first_use(value)
        vertex_index, used_rows = _first_use(np.asarray(row_value, dtype=np.int64)[vertex_index])
        arrays = CompiledMRF(
            n=int(n),
            q=int(q),
            edge_u=_frozen(lo),
            edge_v=_frozen(hi),
            edge_table=_frozen(edge_table),
            palette=_frozen(stack[used]),
            vertex_index=_frozen(vertex_index),
            vertex_palette=_frozen(np.array(distinct_rows, dtype=float).reshape(-1, q)[used_rows]),
        )
        self.__setstate__({"name": name, "arrays": arrays})

    # ------------------------------------------------------------------
    # derived views and accessors (built on first use, never pickled)
    # ------------------------------------------------------------------
    @cached_property
    def graph(self) -> nx.Graph:
        """The model graph as a networkx graph: vertices ``0..n-1``, sorted edges."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(self.edges)
        return graph

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """The edges ``(u, v)``, ``u < v``, in sorted order."""
        return list(zip(self._arrays.edge_u.tolist(), self._arrays.edge_v.tolist()))

    @cached_property
    def _neighbors(self) -> list[tuple[int, ...]]:
        arrays = self._arrays
        ends = np.concatenate([arrays.edge_u, arrays.edge_v])
        others = np.concatenate([arrays.edge_v, arrays.edge_u])
        order = np.lexsort((others, ends))
        bounds = np.searchsorted(ends[order], np.arange(self.n + 1)).tolist()
        flat = others[order].tolist()
        return [tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self.n)]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """The palette entries, one shared read-only view each."""
        return tuple(self._arrays.palette)

    @cached_property
    def _edge_lookup(self) -> dict[tuple[int, int], np.ndarray]:
        return dict(zip(self.edges, self.edge_tables()))

    @property
    def vertex_activity(self) -> np.ndarray:
        """The read-only ``(n, q)`` vertex activity table: row ``v`` is ``b_v``."""
        return self._arrays.vertex_activity

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Return the sorted neighbourhood Γ(v)."""
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        """Return deg(v)."""
        return len(self._neighbors[v])

    def edge_activity(self, u: int, v: int) -> np.ndarray:
        """Return ``A_{uv}`` (symmetric, so orientation is irrelevant)."""
        try:
            return self._edge_lookup[(min(u, v), max(u, v))]
        except KeyError:
            raise ModelError(f"({u}, {v}) is not an edge of the MRF graph") from None

    def edge_tables(self) -> list[np.ndarray]:
        """The edge activity tables, one per edge in canonical ``edges`` order.

        Edges with one palette entry share one read-only array.
        """
        return [self._tables[t] for t in self._arrays.edge_table.tolist()]

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
        weight, activity = 1.0, self.vertex_activity
        for v in range(self.n):
            weight *= activity[v, config[v]]
            if weight == 0.0:
                return 0.0
        for (u, v), table in self._edge_lookup.items():
            weight *= table[config[u], config[v]]
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
        arrays = self._arrays
        return all(
            bool(np.all((values == 0.0) | (values == 1.0)))
            for values in (arrays.vertex_palette, arrays.palette)
        )

    # ------------------------------------------------------------------
    # copy-on-write mutation
    # ------------------------------------------------------------------
    def _find_edge(self, u: int, v: int, required: bool = True) -> tuple[int, bool]:
        """The sorted position of edge ``{u, v}``, and whether it is an edge.

        Raises when it is not and ``required``.
        """
        lo, hi = min(int(u), int(v)), max(int(u), int(v))
        arrays = self._arrays
        start, stop = np.searchsorted(arrays.edge_u, [lo, lo + 1])
        i = int(start + np.searchsorted(arrays.edge_v[start:stop], hi))
        present = bool(i < stop and arrays.edge_v[i] == hi)
        if required and not present:
            raise ModelError(f"({u}, {v}) is not an edge of the MRF graph")
        return i, present

    def with_edge(self, u: int, v: int, activity: np.ndarray) -> MRF:
        """Return a copy with edge ``{u, v}`` added (or its activity replaced).

        Copy-on-write, like every mutation: an O(m) edit of the stored
        arrays (the new table joins the palette), canonicalised by the one
        constructor into a new instance with its own fingerprint.
        """
        u, v = int(u), int(v)
        arrays = self._arrays
        tables = [*self._tables, np.asarray(activity, dtype=float)]
        i, present = self._find_edge(u, v, required=False)
        # An existing edge is deleted and re-inserted at its sorted position.
        edges = {
            field: np.insert(np.delete(getattr(arrays, field), [i] if present else []), i, value)
            for field, value in (("edge_u", min(u, v)), ("edge_v", max(u, v)),
                                 ("edge_table", len(tables) - 1))
        }
        return self._derive(palette=tables, **edges)

    def without_edge(self, u: int, v: int) -> MRF:
        """Return a copy with edge ``{u, v}`` removed (copy-on-write)."""
        i, _ = self._find_edge(u, v)
        edges = ("edge_u", "edge_v", "edge_table")
        return self._derive(**{edge: np.delete(getattr(self._arrays, edge), i) for edge in edges})

    def with_edge_activity(self, u: int, v: int, activity: np.ndarray) -> MRF:
        """Return a copy with the factor on existing edge ``{u, v}`` replaced."""
        self._find_edge(u, v)
        return self.with_edge(u, v, activity)

    def with_vertex_activity(self, v: int, activity: np.ndarray) -> MRF:
        """Return a copy with the external field ``b_v`` replaced."""
        v = int(v)
        if not (0 <= v < self.n):
            raise ModelError(f"vertex {v} outside 0..{self.n - 1}")
        row = np.asarray(activity, dtype=float)
        if row.shape != (self.q,):
            raise ModelError(f"vertex {v}: activity must have shape ({self.q},), got {row.shape}")
        arrays = self._arrays
        rows = np.concatenate([arrays.vertex_palette, row[None]])
        vertex_index = arrays.vertex_index.copy()
        vertex_index[v] = len(rows) - 1
        return self._derive(vertex_index=vertex_index, vertex_palette=rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MRF(name={self.name!r}, n={self.n}, q={self.q}, edges={self._arrays.m})"
