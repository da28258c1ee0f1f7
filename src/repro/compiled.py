"""Compiled array forms of the models: what the general engines build from.

The batched general engines of :mod:`repro.chains.ensemble` never walk a
model's Python structures (the networkx graph, the per-edge table dict,
the :class:`~repro.csp.model.Constraint` objects).  They read the
:class:`CompiledMRF` returned by :meth:`repro.mrf.model.MRF.compiled` or
the :class:`CompiledCSP` returned by
:meth:`repro.csp.model.LocalCSP.compiled`: index arrays (edges, CSR
neighbours, arity-bucketed scopes, incidences) plus each distinct factor
table once (deduplicated by value with
:func:`repro.serialize.table_palette`), all built with array operations
rather than per-slot Python loops.

A model computes its form on the first call (the first engine build) and
memoizes it.  Models are immutable (mutations return new instances), so
the form never goes stale.  It is never built at construction, decode or
fingerprint time, and the models leave it out of their pickles, so it
adds nothing to a served job's wire or pickle size.  Every array is a
read-only numpy array; engines hand them to their array backend as they
are.  Equal models compile to equal arrays, so an engine's bits do not
depend on whether the form was memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.chains.fastpaths import build_csr_neighbours
from repro.serialize import table_palette

__all__ = ["ArityBucket", "CompiledCSP", "CompiledMRF", "compile_csp", "compile_mrf"]

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _csr_indptr(owners: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class CompiledMRF:
    """Index-array form of a pairwise :class:`~repro.mrf.model.MRF`.

    ``edge_u[i] < edge_v[i]`` in sorted order.  The neighbours of vertex
    ``v`` are ``neighbours[indptr[v]:indptr[v + 1]]`` (the
    :func:`~repro.chains.fastpaths.build_csr_neighbours` order: larger
    neighbours first), and ``palette[slot_table[s]]`` is the activity
    table of CSR slot ``s``.  ``padded_neighbours[v]`` lists the same
    neighbours ascending, ``-1`` padded to ``max(max_degree, 1)`` columns,
    with ``padded_tables`` the matching palette indices (``0`` padded).
    With no edges the palette holds one all-ones table.
    """

    n: int
    q: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    degrees: np.ndarray
    indptr: np.ndarray
    neighbours: np.ndarray
    slot_table: np.ndarray
    padded_neighbours: np.ndarray
    padded_tables: np.ndarray
    palette: np.ndarray
    vertex_activity: np.ndarray

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.edge_u.size)


def compile_mrf(mrf) -> CompiledMRF:
    """Build the :class:`CompiledMRF` of ``mrf`` (use ``mrf.compiled()``)."""
    n, q = mrf.n, mrf.q
    edges = np.asarray(mrf.edges, dtype=np.int64).reshape(-1, 2)
    edge_u = np.ascontiguousarray(edges[:, 0])
    edge_v = np.ascontiguousarray(edges[:, 1])
    m = edge_u.size
    tables, edge_table = table_palette(mrf.edge_tables())
    palette = np.stack(tables) if tables else np.ones((1, q, q))
    degrees, indptr, neighbours = build_csr_neighbours(edge_u, edge_v, n)
    # Slot s of the CSR came from position order[s] of concat(edge_u, edge_v).
    order = np.argsort(np.concatenate([edge_u, edge_v]), kind="stable")
    slot_table = np.asarray(edge_table, dtype=np.int64)[order % m]
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    ascending = np.lexsort((neighbours, owner))
    column = np.arange(owner.size, dtype=np.int64) - indptr[owner]
    width = max(int(degrees.max()) if n else 0, 1)
    padded_neighbours = np.full((n, width), -1, dtype=np.int64)
    padded_tables = np.zeros((n, width), dtype=np.int64)
    padded_neighbours[owner, column] = neighbours[ascending]
    padded_tables[owner, column] = slot_table[ascending]
    return CompiledMRF(
        n=n,
        q=q,
        edge_u=_frozen(edge_u),
        edge_v=_frozen(edge_v),
        degrees=_frozen(degrees),
        indptr=_frozen(indptr),
        neighbours=_frozen(neighbours),
        slot_table=_frozen(slot_table),
        padded_neighbours=_frozen(padded_neighbours),
        padded_tables=_frozen(padded_tables),
        palette=_frozen(palette),
        vertex_activity=mrf.vertex_activity,
    )


@dataclass(frozen=True, eq=False)
class ArityBucket:
    """The constraints of one arity ``k``, in constraint order.

    ``constraints`` holds their indices, ``scopes`` their ``(C_k, k)``
    scope vertices, ``table_starts`` the offset of each table in the flat
    palettes, and ``strides`` the ``(k,)`` row-major strides
    ``q**(k-1-p)`` shared by every arity-``k`` table: the flat index of
    ``f_c(sigma|_{S_c})`` is ``table_starts[c] + sum_p strides[p] *
    sigma[scopes[c, p]]``.
    """

    arity: int
    constraints: np.ndarray
    scopes: np.ndarray
    strides: np.ndarray
    table_starts: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledCSP:
    """Index-array form of a :class:`~repro.csp.model.LocalCSP`.

    ``buckets`` are in ascending arity.  ``flat_raw`` concatenates the
    distinct constraint tables (row-major) and ``flat_norm`` the same
    tables divided by their maxima (the LocalMetropolis filter factors);
    ``table_starts[c]`` is constraint ``c``'s offset in both.  The slots
    ``incidence_indptr[v]:incidence_indptr[v + 1]`` of ``incidence_constraint``
    / ``incidence_stride`` list the constraints containing ``v`` in
    constraint order, with the stride of ``v``'s axis in each table.
    ``conflict_u < conflict_v`` are the sorted edges of the conflict graph
    (vertices sharing a scope).
    """

    n: int
    q: int
    num_constraints: int
    buckets: tuple[ArityBucket, ...]
    table_starts: np.ndarray
    flat_raw: np.ndarray
    flat_norm: np.ndarray
    incidence_indptr: np.ndarray
    incidence_constraint: np.ndarray
    incidence_stride: np.ndarray
    conflict_u: np.ndarray
    conflict_v: np.ndarray

    @property
    def mixing_rows(self) -> int:
        """``sum_c (2**|S_c| - 1)``: the factors of one LocalMetropolis filter."""
        return sum(
            int(bucket.constraints.size) * (2**bucket.arity - 1)
            for bucket in self.buckets
        )

    @cached_property
    def greedy_start(self) -> np.ndarray:
        """The deterministic greedy configuration of every CSP chain.

        Vertices are assigned in order.  A constraint is checked at its
        largest scope vertex, the first moment all of its spins are
        assigned; each vertex takes the smallest spin under which every
        constraint it completes has a non-zero value, or spin 0 if none
        does.  Computed on first use: an engine given an initial
        configuration never pays for it.
        """
        n, q = self.n, self.q
        config = [0] * n
        if not self.num_constraints:
            return _frozen(np.zeros(n, dtype=np.int64))
        # Per constraint: its closing (largest) vertex, that vertex's
        # stride, and a scope whose closing position has stride 0, so its
        # flat index reads 0 for the still-unassigned closing vertex.
        width = max(bucket.arity for bucket in self.buckets)
        scopes = np.zeros((self.num_constraints, width), dtype=np.int64)
        strides = np.zeros((self.num_constraints, width), dtype=np.int64)
        for bucket in self.buckets:
            scopes[bucket.constraints, : bucket.arity] = bucket.scopes
            strides[bucket.constraints, : bucket.arity] = bucket.strides
        rows = np.arange(self.num_constraints)
        position = np.argmax(scopes, axis=1)
        closing = scopes[rows, position]
        closing_stride = strides[rows, position].tolist()
        strides[rows, position] = 0
        order = np.argsort(closing, kind="stable")
        indptr = _csr_indptr(closing, n).tolist()
        order, scopes, strides = order.tolist(), scopes.tolist(), strides.tolist()
        starts, values = self.table_starts.tolist(), self.flat_raw.tolist()
        # Inherently sequential (each choice reads the earlier ones), so the
        # loop runs on Python lists: a handful of C-level calls per vertex.
        for v in range(n):
            checks = []  # (flat index at spin 0, stride of v) per completed constraint
            for c in order[indptr[v] : indptr[v + 1]]:
                assigned = map(config.__getitem__, scopes[c])
                base = starts[c] + sum(map(int.__mul__, assigned, strides[c]))
                checks.append((base, closing_stride[c]))
            for spin in range(q):
                if all(values[base + stride * spin] != 0.0 for base, stride in checks):
                    config[v] = spin
                    break
        return _frozen(np.asarray(config, dtype=np.int64))


def compile_csp(csp) -> CompiledCSP:
    """Build the :class:`CompiledCSP` of ``csp`` (use ``csp.compiled()``)."""
    n, q = csp.n, csp.q
    constraints = csp.constraints
    tables, table_index = table_palette([constraint.table for constraint in constraints])
    sizes = np.asarray([table.size for table in tables], dtype=np.int64)
    palette_starts = np.cumsum(sizes) - sizes
    table_starts = palette_starts[np.asarray(table_index, dtype=np.int64)]
    if tables:
        flat_raw = np.concatenate([table.ravel() for table in tables])
        flat_norm = np.concatenate([table.ravel() / table.max() for table in tables])
    else:
        flat_raw = flat_norm = np.zeros(0, dtype=float)

    arities = np.asarray([constraint.arity for constraint in constraints], dtype=np.int64)
    buckets = []
    slot_vertex, slot_constraint, slot_stride = [_EMPTY], [_EMPTY], [_EMPTY]
    conflict_lo, conflict_hi = [_EMPTY], [_EMPTY]
    for arity in np.unique(arities).tolist():
        ids = np.flatnonzero(arities == arity)
        scopes = np.asarray(
            [constraints[i].scope for i in ids.tolist()], dtype=np.int64
        ).reshape(ids.size, arity)
        strides = q ** np.arange(arity - 1, -1, -1, dtype=np.int64)
        buckets.append(
            ArityBucket(
                arity=arity,
                constraints=_frozen(ids),
                scopes=_frozen(scopes),
                strides=_frozen(strides),
                table_starts=_frozen(table_starts[ids]),
            )
        )
        slot_vertex.append(scopes.ravel())
        slot_constraint.append(np.repeat(ids, arity))
        slot_stride.append(np.tile(strides, ids.size))
        first, second = np.triu_indices(arity, k=1)
        conflict_lo.append(np.minimum(scopes[:, first], scopes[:, second]).ravel())
        conflict_hi.append(np.maximum(scopes[:, first], scopes[:, second]).ravel())

    vertex = np.concatenate(slot_vertex)
    constraint = np.concatenate(slot_constraint)
    incidence = np.lexsort((constraint, vertex))
    keys = np.unique(np.concatenate(conflict_lo) * n + np.concatenate(conflict_hi))
    return CompiledCSP(
        n=n,
        q=q,
        num_constraints=len(constraints),
        buckets=tuple(buckets),
        table_starts=_frozen(table_starts),
        flat_raw=_frozen(flat_raw),
        flat_norm=_frozen(flat_norm),
        incidence_indptr=_frozen(_csr_indptr(vertex, n)),
        incidence_constraint=_frozen(constraint[incidence]),
        incidence_stride=_frozen(np.concatenate(slot_stride)[incidence]),
        conflict_u=_frozen(keys // n),
        conflict_v=_frozen(keys % n),
    )
