"""Array forms of the models: what every batched engine builds from.

The batched engines of :mod:`repro.chains.ensemble` never walk a model's
Python structures.  They read the :class:`CompiledMRF` of
:meth:`repro.mrf.model.MRF.compiled` or the :class:`CompiledCSP` of
:meth:`repro.csp.model.LocalCSP.compiled`: index arrays (edges or scopes,
padded neighbour tables, arity-bucketed scopes, incidences) plus each
distinct factor table once, deduplicated by value.  Every array is
read-only and engines read it as it is, with no copy; equal models have
equal arrays, so an engine's bits do not depend on how its model was
built.

Each record is its model's storage: every way of making an
:class:`~repro.mrf.model.MRF` or a :class:`~repro.csp.model.LocalCSP`
builds it in canonical form and ``compiled()`` returns it.  A model is
its name and its record (:class:`_StoredModel`), and the record's stored
fields are what it pickles, what the wire form encodes and what the
fingerprint hashes (:func:`repro.serialize.model_fingerprint`).
Everything else (the fingerprint itself and the greedy start of both;
padded tables, the ``(n, q)`` vertex table and the colouring test of an
MRF; arity buckets, flat tables, incidences and conflict edges of a CSP)
is derived on first use, memoized on the record and left out of pickles.
The greedy start is the start of every run given no ``initial``
(:func:`repro.chains.base.start_config`).

The padded tables the heat-bath engines walk (``padded_neighbours`` /
``padded_tables``, ``padded_constraints`` / ``padded_strides``) hold
``n x width`` slots, ``width`` being the largest degree, so a few
high-degree vertices among many low-degree ones make them mostly padding.
A model whose padding would exceed :data:`MAX_PADDING` slots raises
:class:`~repro.errors.StateSpaceTooLargeError` before anything is
allocated.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.errors import InfeasibleStateError, ModelError, StateSpaceTooLargeError
from repro.serialize import decode_fields, encode_array, model_fingerprint

__all__ = ["MAX_PADDING", "ArityBucket", "CompiledCSP", "CompiledMRF"]

#: Cap on the pad slots of one padded table (``n * width`` minus the real
#: slots): 4M slots, 32 MB per int64 table.
MAX_PADDING = 1 << 22

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_index(index: np.ndarray, size: int, count: int, what: str) -> None:
    """Refuse a palette index that is not ``count`` entries in ``0..size-1``."""
    if index.shape != (count,):
        raise ModelError(f"{what} palette index has {index.size} entries; expected {count}")
    if index.size and (index.min() < 0 or index.max() >= size):
        raise ModelError(f"{what} palette index outside 0..{size - 1}")


def _csr_indptr(owners: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr


def _first_use(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``values`` ``0, 1, ...`` in order of first appearance.

    Returns ``(index, order)``: ``index[i]`` is the new number of
    ``values[i]`` and ``order[k]`` the value numbered ``k``.
    """
    used, first = np.unique(values, return_index=True)
    order = used[np.argsort(first)]
    rank = np.zeros(int(used[-1]) + 1 if used.size else 0, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[values], order


def _bitmasks(flags: np.ndarray) -> list:
    """Python-int bitmask of each row of a boolean ``(rows, q)`` array.

    Bit ``s`` of mask ``i`` is ``flags[i, s]``.
    """
    rows, q = flags.shape
    words = max(-(-q // 64), 1)
    padded = np.zeros((rows, 64 * words), dtype=bool)
    padded[:, :q] = flags
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8").tolist()
    if words == 1:
        return [row[0] for row in packed]
    return [sum(word << (64 * k) for k, word in enumerate(row)) for row in packed]


def _padded_rows(owner: np.ndarray, columns, pads, n: int, what: str) -> list[np.ndarray]:
    """``(n, width)`` tables listing each vertex's slots left-aligned.

    ``owner`` is sorted and names the vertex of each slot; ``columns`` holds
    one value array per table and ``pads`` the fill of its unused entries
    (a scalar, or an ``(n, 1)`` column).  ``width`` is the largest slot
    count, at least 1.  Raises before allocating when the padding would
    exceed :data:`MAX_PADDING`.
    """
    indptr = _csr_indptr(owner, n)
    width = max(int(np.diff(indptr).max()) if n else 0, 1)
    padding = n * width - owner.size
    if padding > MAX_PADDING:
        raise StateSpaceTooLargeError(
            f"the padded {what} table needs {padding} pad slots ({n} vertices "
            f"x {width} columns, {owner.size} in use), over the {MAX_PADDING} "
            "cap: the degrees are too uneven for the batched heat-bath "
            "engines; use a sequential chain"
        )
    column = np.arange(owner.size, dtype=np.int64) - indptr[owner]
    tables = []
    for values, pad in zip(columns, pads):
        table = np.full((n, width), pad, dtype=np.int64)
        table[owner, column] = values
        tables.append(_frozen(table))
    return tables


class _Stored:
    """What both records share: their stored fields, pickles, wire form and fingerprint.

    The stored fields are ``n``, ``q`` and then the arrays of ``ARRAYS``,
    which maps each to the ``(kind, ndim)`` it decodes with
    (:func:`repro.serialize.decode_array`); ``ndim`` None marks a tuple of
    tables of any rank (a CSP's palette), one array per entry.
    """

    kind: str
    ARRAYS: dict[str, tuple[str, int | None]]

    def __getstate__(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def stored_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """``(field, array)`` for every stored array, in field order."""
        for field, (_, ndim) in self.ARRAYS.items():
            value = getattr(self, field)
            for array in value if ndim is None else (value,):
                yield field, array

    def encoded(self) -> dict:
        """Every stored array in the codec of :mod:`repro.serialize`; a tuple as a list."""
        encoded = {}
        for field, (_, ndim) in self.ARRAYS.items():
            value = getattr(self, field)
            encoded[field] = (
                [encode_array(array) for array in value] if ndim is None else encode_array(value)
            )
        return encoded

    @cached_property
    def fingerprint(self) -> str:
        """The model's content hash over its stored fields, computed once."""
        return model_fingerprint(self.kind, self.n, self.q, self.stored_arrays())


class _StoredModel:
    """The shell of :class:`~repro.mrf.model.MRF` and :class:`~repro.csp.model.LocalCSP`.

    A model is its ``name`` and one stored record of type ``RECORD``: that
    pair is all it pickles, its wire form is the name, ``n``, ``q`` and the
    record's arrays, and its fingerprint is the record's.  Every entry path
    ends in the subclass's ``_build(n, q, name=..., **arrays)``, the one
    constructor and validator, whose array parameters are the record's
    ``ARRAYS`` fields.
    """

    RECORD: type[_Stored]

    @classmethod
    def _from_arrays(cls, n: int, q: int, name: str, **arrays):
        """A model of this class built by its ``_build`` from stored-field arrays."""
        model = cls.__new__(cls)
        model._build(n, q, name=name, **arrays)
        return model

    def __getstate__(self) -> dict:
        return {"name": self.name, "arrays": self._arrays}

    def __setstate__(self, state: dict) -> None:
        self.name: str = state["name"]
        self._arrays = state["arrays"]
        self.n, self.q = self._arrays.n, self._arrays.q

    def _derive(self, **changes):
        """A copy-on-write edit: this model with the stored arrays in ``changes`` replaced."""
        arrays = {field: getattr(self._arrays, field) for field in self.RECORD.ARRAYS}
        return self._from_arrays(self.n, self.q, self.name, **{**arrays, **changes})

    def to_dict(self) -> dict:
        """Plain-JSON wire form: the name, ``n``, ``q`` and the record's canonical arrays."""
        return {
            "type": self.RECORD.kind, "name": self.name, "n": self.n, "q": self.q,
            "arrays": self._arrays.encoded(),
        }

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild a model from a :meth:`to_dict` payload, checked like every entry path."""
        n, q, name, arrays = decode_fields(payload, cls.RECORD.kind.upper(), cls.RECORD.ARRAYS)
        return cls._from_arrays(n, q, name, **arrays)

    def model_fingerprint(self) -> str:
        """Content hash of the stored arrays (:func:`repro.serialize.model_fingerprint`).

        The name is excluded, so copies built apart hash alike.  Memoized
        on the record: a model that is only sampled is never hashed.
        """
        return self._arrays.fingerprint

    def compiled(self):
        """The stored record (``RECORD``); builds nothing."""
        return self._arrays


@dataclass(frozen=True, eq=False)
class CompiledMRF(_Stored):
    """The stored form of a pairwise :class:`~repro.mrf.model.MRF`.

    ``edge_u[i] < edge_v[i]`` in sorted order, and ``palette[edge_table[i]]``
    is the activity table of edge ``i``.  The palette holds each distinct
    table once (by its float64 bytes), in first-use order along the
    edges.  ``vertex_palette[vertex_index[v]]`` is the activity vector
    ``b_v``, the distinct rows again in first-use order.  Every palette
    entry is used.

    ``padded_neighbours[v]`` lists the neighbours of ``v`` ascending,
    padded with ``v`` itself to ``max(max_degree, 1)`` columns, and
    ``padded_tables`` holds the matching palette indices and, at the pads,
    ``P``, one past the palette: the heat-bath engines read an all-ones
    table there, so a pad slot reads a spin and multiplies by one.
    They, the ``(n, q)`` :attr:`vertex_activity` table,
    :attr:`is_uniform_coloring` and :attr:`greedy_start` are derived on
    first use (see :data:`MAX_PADDING`) and left out of pickles.
    """

    kind = "mrf"
    ARRAYS = {
        "edge_u": ("int", 1), "edge_v": ("int", 1), "edge_table": ("int", 1),
        "palette": ("float", 3), "vertex_index": ("int", 1), "vertex_palette": ("float", 2),
    }
    n: int
    q: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_table: np.ndarray
    palette: np.ndarray
    vertex_index: np.ndarray
    vertex_palette: np.ndarray

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.edge_u.size)

    @cached_property
    def vertex_activity(self) -> np.ndarray:
        """The ``(n, q)`` vertex activity table: row ``v`` is ``b_v``."""
        return _frozen(self.vertex_palette[self.vertex_index])

    @cached_property
    def _padded(self) -> list[np.ndarray]:
        ends = np.concatenate([self.edge_u, self.edge_v])
        others = np.concatenate([self.edge_v, self.edge_u])
        order = np.lexsort((others, ends))
        tables = np.concatenate([self.edge_table, self.edge_table])
        pads = [np.arange(self.n, dtype=np.int64)[:, None], self.palette.shape[0]]
        return _padded_rows(
            ends[order], [others[order], tables[order]], pads, self.n, "neighbour"
        )

    @cached_property
    def is_uniform_coloring(self) -> bool:
        """True iff the Gibbs distribution is uniform over proper q-colourings.

        That is: every edge table is a positive constant times ``J - I``
        (zero diagonal, one positive off-diagonal value) and every
        vertex-activity row is a positive constant.  Rescalings do not
        change the distribution, so the checks are relative only
        (``rtol=1e-9``, ``atol=0``): an absolute tolerance would take a
        small-magnitude non-uniform model for a colouring.  Reads each
        distinct edge table and vertex row once.
        """
        activity = self.vertex_palette
        if np.any(activity <= 0.0) or not np.allclose(
            activity, activity[:, :1], rtol=1e-9, atol=0.0
        ):
            return False
        off = self.palette[:, ~np.eye(self.q, dtype=bool)]
        return bool(
            np.all(np.diagonal(self.palette, axis1=1, axis2=2) == 0.0)
            and np.all(off > 0.0)
            and np.allclose(off, off[:, :1], rtol=1e-9, atol=0.0)
        )

    @cached_property
    def greedy_start(self) -> np.ndarray:
        """The first-fit configuration: the default start of every MRF path.

        Vertices are assigned in order; each takes the smallest spin with
        positive vertex activity that is compatible (positive edge
        activity) with every already-assigned neighbour.  A vertex with no
        such spin takes its highest-activity spin: the chains of this
        paper tolerate infeasible starts, so a best-effort start is fine.
        For proper colourings with ``q >= Delta + 1`` and for occupancy
        models (hardcore: the empty set) the result is feasible.
        """
        q = self.q
        allowed = _bitmasks(self.vertex_activity > 0)
        # compatible[t * q + c] holds the spins s with palette[t, s, c] > 0.
        compatible = _bitmasks((self.palette > 0).transpose(0, 2, 1).reshape(-1, q))
        fallback = np.argmax(self.vertex_activity, axis=1).tolist()
        # Edges are sorted with edge_u < edge_v, so grouped by edge_v they list
        # the already-assigned (smaller) neighbours of each vertex.
        order = np.argsort(self.edge_v, kind="stable")
        lower = self.edge_u[order].tolist()
        rows = (self.edge_table[order] * q).tolist()
        bounds = np.searchsorted(self.edge_v[order], np.arange(self.n + 1)).tolist()
        config = [0] * self.n
        # Inherently sequential (each choice reads the earlier ones), so the
        # loop runs on Python ints: one AND per already-assigned neighbour.
        for v in range(self.n):
            spins = allowed[v]
            for k in range(bounds[v], bounds[v + 1]):
                spins &= compatible[rows[k] + config[lower[k]]]
            config[v] = (spins & -spins).bit_length() - 1 if spins else fallback[v]
        return _frozen(np.asarray(config, dtype=np.int64))

    @property
    def padded_neighbours(self) -> np.ndarray:
        """``(n, width)`` ascending neighbours, padded with the vertex itself."""
        return self._padded[0]

    @property
    def padded_tables(self) -> np.ndarray:
        """``(n, width)`` palette index of each padded neighbour slot; ``P`` at the pads."""
        return self._padded[1]


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
class CompiledCSP(_Stored):
    """The stored form of a :class:`~repro.csp.model.LocalCSP`.

    Constraint ``c`` has the scope ``scope_vertex[scope_indptr[c]:
    scope_indptr[c + 1]]``, in the order given, and the table
    ``palette[constraint_table[c]]`` of shape ``(q,) * arity``.  The palette
    holds each distinct table once (by its float64 bytes), read-only, in
    first-use order along the constraints.  These stored fields are all a
    pickle holds; every other field is derived on first use.  The slots
    ``incidence_indptr[v]:incidence_indptr[v + 1]`` of
    ``incidence_constraint`` / ``incidence_stride`` list the constraints
    containing ``v`` in constraint order, with the stride of ``v``'s axis
    in each table; ``padded_constraints`` / ``padded_strides`` hold the
    same lists as ``(n, width)`` rows.
    """

    kind = "csp"
    ARRAYS = {
        "scope_indptr": ("int", 1), "scope_vertex": ("int", 1), "constraint_table": ("int", 1),
        "palette": ("float", None),
    }
    n: int
    q: int
    scope_indptr: np.ndarray
    scope_vertex: np.ndarray
    constraint_table: np.ndarray
    palette: tuple[np.ndarray, ...]

    @property
    def num_constraints(self) -> int:
        """Number of constraints."""
        return int(self.constraint_table.size)

    @cached_property
    def buckets(self) -> tuple[ArityBucket, ...]:
        """The constraints grouped by arity, ascending."""
        arity = np.diff(self.scope_indptr)
        buckets = []
        for k in np.unique(arity).tolist():
            ids = np.flatnonzero(arity == k)
            scopes = self.scope_vertex[self.scope_indptr[ids, None] + np.arange(k)]
            strides = self.q ** np.arange(k - 1, -1, -1, dtype=np.int64)
            arrays = map(_frozen, (ids, scopes, strides, self.table_starts[ids]))
            buckets.append(ArityBucket(k, *arrays))
        return tuple(buckets)

    @cached_property
    def table_starts(self) -> np.ndarray:
        """``(C,)`` offset of each constraint's table in ``flat_raw`` and ``flat_norm``."""
        sizes = np.array([table.size for table in self.palette], dtype=np.int64)
        return _frozen((np.cumsum(sizes) - sizes)[self.constraint_table])

    @cached_property
    def flat_raw(self) -> np.ndarray:
        """The palette tables concatenated row-major."""
        return _frozen(np.concatenate([np.zeros(0), *(t.ravel() for t in self.palette)]))

    @cached_property
    def flat_norm(self) -> np.ndarray:
        """``flat_raw`` with each table divided by its maximum."""
        return _frozen(np.concatenate([np.zeros(0), *(t.ravel() / t.max() for t in self.palette)]))

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        arity = np.diff(self.scope_indptr)
        owner = np.repeat(np.arange(arity.size, dtype=np.int64), arity)
        stride = self.q ** (arity[owner] - 1 - np.arange(owner.size) + self.scope_indptr[owner])
        # A stable sort keeps each vertex's slots in constraint order.
        order = np.argsort(self.scope_vertex, kind="stable")
        indptr = _csr_indptr(self.scope_vertex, self.n)
        return _frozen(indptr), _frozen(owner[order]), _frozen(stride[order])

    @property
    def incidence_indptr(self) -> np.ndarray:
        """``(n + 1,)`` CSR offsets of each vertex's incidence slots."""
        return self._incidence[0]

    @property
    def incidence_constraint(self) -> np.ndarray:
        """The constraint of each incidence slot (vertex-major, constraint order)."""
        return self._incidence[1]

    @property
    def incidence_stride(self) -> np.ndarray:
        """The stride of the slot vertex's axis in its constraint's table."""
        return self._incidence[2]

    @cached_property
    def _conflict(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = [_EMPTY], [_EMPTY]
        for bucket in self.buckets:
            first, second = np.triu_indices(bucket.arity, k=1)
            lo.append(np.minimum(bucket.scopes[:, first], bucket.scopes[:, second]).ravel())
            hi.append(np.maximum(bucket.scopes[:, first], bucket.scopes[:, second]).ravel())
        # Sorted, then deduplicated by a mask: np.unique is 50x slower here.
        keys = np.sort(np.concatenate(lo) * self.n + np.concatenate(hi))
        keys = keys[np.append(True, keys[1:] != keys[:-1])] if keys.size else keys
        return _frozen(keys // self.n), _frozen(keys % self.n)

    @property
    def conflict_u(self) -> np.ndarray:
        """Lower ends of the sorted conflict edges (vertices sharing a scope)."""
        return self._conflict[0]

    @property
    def conflict_v(self) -> np.ndarray:
        """Upper ends of the sorted conflict edges."""
        return self._conflict[1]

    @property
    def mixing_rows(self) -> int:
        """``sum_c (2**|S_c| - 1)``: the factors of one LocalMetropolis filter."""
        return int(np.sum(2 ** np.diff(self.scope_indptr) - 1))

    @cached_property
    def _padded_incidence(self) -> list[np.ndarray]:
        owner = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.incidence_indptr))
        return _padded_rows(
            owner,
            [self.incidence_constraint, self.incidence_stride],
            [self.num_constraints, 0],
            self.n,
            "constraint-incidence",
        )

    @property
    def padded_constraints(self) -> np.ndarray:
        """``(n, width)`` constraints containing each vertex, in constraint order.

        Pad slots hold ``num_constraints``, an index past every real
        constraint: engines read it as an empty-scope constraint whose
        factor is one.  Built on first use (see :data:`MAX_PADDING`).
        """
        return self._padded_incidence[0]

    @property
    def padded_strides(self) -> np.ndarray:
        """``(n, width)`` stride of the vertex's axis in each padded constraint (0 at pads)."""
        return self._padded_incidence[1]

    @cached_property
    def greedy_start(self) -> np.ndarray:
        """The greedy configuration: the default start of every CSP path.

        Vertices are assigned in order.  A constraint is checked at its
        largest scope vertex, the first moment all of its spins are
        assigned; each vertex takes the smallest spin under which every
        constraint it completes has a non-zero value; if none does,
        :class:`~repro.errors.InfeasibleStateError` names the vertex.
        Computed on first use: an engine given an initial configuration
        never pays for it.
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
            else:
                raise InfeasibleStateError(
                    f"the greedy start is infeasible: no spin of vertex {v} satisfies "
                    "every constraint it completes; pass a feasible start as initial="
                )
        return _frozen(np.asarray(config, dtype=np.int64))

