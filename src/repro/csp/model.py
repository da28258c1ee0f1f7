"""Weighted local CSPs: constraints ``(f_c, S_c)`` and their Gibbs measures.

The weight of a configuration is ``w(sigma) = prod_c f_c(sigma|_{S_c})`` and
the Gibbs distribution is proportional to it (paper Section 2.2).  Boolean
constraint functions make mu the uniform distribution over CSP solutions —
the "local sampling" counterpart of LCL problems.

A CSP's arrays are its storage (:class:`~repro.compiled.CompiledCSP`),
built in canonical form by one private constructor for every entry path.
That constructor is the one validator: it refuses ``n >= 2**31``, a scope
CSR that does not start at 0, decreases or does not end at its vertex
count, a bad scope, a palette index out of range or of the wrong length
and an invalid table.  The engines read the arrays, :meth:`LocalCSP.to_dict`
encodes them with the array codec of :mod:`repro.serialize` and the
fingerprint hashes their bytes.
:class:`Constraint` is the input value type and the view the sequential
chains and LOCAL protocols read (``constraints``, derived on first use).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.compiled import CompiledCSP, _check_index, _first_use, _frozen
from repro.errors import ModelError, StateSpaceTooLargeError
from repro.mrf.distribution import GibbsDistribution, spin_blocks
from repro.serialize import MAX_COUNT, decode_fields, frozen_table, table_palette

__all__ = ["Constraint", "LocalCSP", "exact_csp_gibbs_distribution"]


def _table_problem(table: np.ndarray, arity: int, q: int | None = None) -> str | None:
    """Why ``table`` is no valid constraint function of ``arity`` (over ``q`` spins), or None.

    The one table validator: :class:`Constraint` runs it on its table, the
    CSP constructor once per distinct palette entry.
    """
    if table.ndim != arity:
        return f"table must have one axis per scope vertex ({arity}), got shape {table.shape}"
    if len(set(table.shape)) != 1:
        return "all table axes must share the domain size"
    if q is not None and table.shape[0] != q:
        return f"table domain {table.shape[0]} != CSP domain {q}"
    if not np.all(np.isfinite(table)):
        return (
            "constraint function must be finite (no NaN/inf entries — a non-finite "
            "factor makes the max-normalisation emit NaN)"
        )
    if np.any(table < 0):
        return "constraint function must be non-negative"
    if np.all(table == 0):
        return "constraint function must not be identically zero"
    return None


def _scope_arrays(scopes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(indptr, vertex)`` arrays of a sequence of scopes."""
    sizes = np.fromiter(map(len, scopes), dtype=np.int64, count=len(scopes))
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
    flat = itertools.chain.from_iterable(scopes)
    return indptr, np.fromiter(flat, dtype=np.int64, count=int(indptr[-1]))


class Constraint:
    """One weighted constraint ``(f_c, S_c)``.

    Parameters
    ----------
    scope:
        The ordered tuple of distinct vertices ``S_c``.
    table:
        A non-negative array of shape ``(q,) * len(scope)``;
        ``table[sigma_{s1}, ..., sigma_{sk}]`` is ``f_c`` evaluated on the
        restriction of the configuration to the scope.
    name:
        Optional label for error messages and reports.
    """

    def __init__(self, scope: Sequence[int], table: np.ndarray, name: str = "constraint") -> None:
        self.scope = tuple(int(v) for v in scope)
        if len(set(self.scope)) != len(self.scope):
            raise ModelError(f"{name}: scope vertices must be distinct, got {self.scope}")
        if not self.scope:
            raise ModelError(f"{name}: scope must be non-empty")
        table = np.asarray(table, dtype=float)
        problem = _table_problem(table, len(self.scope))
        if problem:
            raise ModelError(f"{name}: {problem}")
        if table.flags.writeable:  # already-frozen tables are shared, not copied
            table = frozen_table(table)
        self.table = table
        self.name = name

    @property
    def arity(self) -> int:
        """Return ``|S_c|``."""
        return len(self.scope)

    @property
    def q(self) -> int:
        """Return the spin-domain size the table was built for."""
        return self.table.shape[0]

    def evaluate(self, config: Sequence[int]) -> float:
        """Return ``f_c(sigma|_{S_c})`` for a full configuration ``sigma``."""
        return float(self.table[tuple(config[v] for v in self.scope)])

    def normalized_table(self) -> np.ndarray:
        """Return ``f̃_c = f_c / max f_c`` — the LocalMetropolis filter factor.

        Raises :class:`repro.errors.ModelError` if the table is
        non-normalisable (maximum not strictly positive and finite), which
        would otherwise silently produce NaN filter probabilities.
        """
        maximum = float(self.table.max())
        if not np.isfinite(maximum) or maximum <= 0.0:
            raise ModelError(
                f"{self.name}: non-normalisable constraint (max factor "
                f"{maximum}); cannot form the LocalMetropolis filter"
            )
        return self.table / maximum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constraint(name={self.name!r}, scope={self.scope})"


class LocalCSP:
    """A weighted CSP over vertices ``0..n-1`` with spin domain ``[q]``.

    Immutable: the mutation methods return new instances.
    """

    def __init__(self, n: int, q: int, constraints: Sequence[Constraint], name: str = "csp") -> None:
        constraints = tuple(constraints)
        indptr, vertex = _scope_arrays([c.scope for c in constraints])
        self._build(n, q, indptr, vertex, np.arange(len(constraints)),
                    [c.table for c in constraints], [c.name for c in constraints], name)

    def _build(
        self, n: int, q: int, scope_indptr: np.ndarray, scope_vertex: np.ndarray,
        table_index: np.ndarray, tables: Sequence[np.ndarray], names: Sequence[str], name: str,
    ) -> None:
        """The one constructor and validator: check, canonicalise and store the arrays.

        Constraint ``c`` (named ``names[c]``) has the scope
        ``scope_vertex[scope_indptr[c]:scope_indptr[c + 1]]`` and the table
        ``tables[table_index[c]]``.  The CSR offsets, the index counts and
        ranges and every distinct supplied table, used or not, are checked;
        the palette keeps the used tables in first-use order.
        """
        if not 1 <= n < MAX_COUNT:
            raise ModelError(f"a LocalCSP needs 1 <= n < 2**31 vertices, got n = {n}")
        if not 2 <= q < MAX_COUNT:
            raise ModelError(f"a LocalCSP needs 2 <= q < 2**31 spin states, got q = {q}")
        count = len(names)
        if scope_indptr.shape != (count + 1,):
            raise ModelError(
                f"scope_indptr has {scope_indptr.size} offsets; expected {count + 1} "
                f"for {count} constraint names"
            )
        arity = np.diff(scope_indptr)
        if scope_indptr[0] != 0 or scope_indptr[-1] != scope_vertex.size or np.any(arity < 0):
            raise ModelError(
                "scope_indptr must start at 0, never decrease and end at the "
                f"{scope_vertex.size} scope vertices"
            )
        _check_index(table_index, len(tables), count, "constraint")
        owner = np.repeat(np.arange(arity.size, dtype=np.int64), arity)
        outside = (scope_vertex < 0) | (scope_vertex >= n)
        # A repeated scope vertex sits next to its repeat in (owner, vertex)
        # order, which one sort of the int64 key owner * n + vertex gives.
        # With n < 2**31 and fewer than 2**31 slots the key stays below 2**62
        # once every vertex is in range; if one is not, that check raises.
        keys = np.sort(owner * n + scope_vertex) if not outside.any() else owner[:0]
        repeated = keys[1:][keys[1:] == keys[:-1]] // n
        for bad, problem in (
            (np.flatnonzero(arity == 0), "scope must be non-empty"),
            (owner[outside], f"scope {{}} outside 0..{n - 1}"),
            (repeated, "scope vertices must be distinct, got {}"),
        ):
            if bad.size:
                c = int(bad[0])
                scope = tuple(scope_vertex[scope_indptr[c] : scope_indptr[c + 1]].tolist())
                raise ModelError(f"{names[c]}: {problem.format(scope)}")
        distinct, position = table_palette(tables)
        value = np.asarray(position, dtype=np.int64)[table_index]
        for k, table in enumerate(distinct):
            problem = _table_problem(table, table.ndim, q)
            if problem:
                uses = np.flatnonzero(value == k)
                where = names[uses[0]] if uses.size else f"palette entry {position.index(k)}"
                raise ModelError(f"{where}: {problem}")
        ndim = np.array([table.ndim for table in distinct], dtype=np.int64)
        mismatch = np.flatnonzero(ndim[value] != arity)
        if mismatch.size:
            c = int(mismatch[0])
            raise ModelError(f"{names[c]}: {_table_problem(distinct[value[c]], arity[c])}")
        constraint_table, used = _first_use(value)
        palette = [distinct[k] for k in used.tolist()]
        arrays = CompiledCSP(
            n=int(n), q=int(q), scope_indptr=_frozen(scope_indptr),
            scope_vertex=_frozen(scope_vertex), constraint_table=_frozen(constraint_table),
            palette=tuple(frozen_table(t) if t.flags.writeable else t for t in palette),
        )
        self.__setstate__({"name": name, "constraint_names": tuple(names), "arrays": arrays})

    def __getstate__(self) -> dict:
        return {"name": self.name, "constraint_names": self.constraint_names,
                "arrays": self._arrays}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.constraint_names: tuple[str, ...] = state["constraint_names"]
        self._arrays: CompiledCSP = state["arrays"]
        self.n, self.q = self._arrays.n, self._arrays.q

    # ------------------------------------------------------------------
    # derived views (built on first use, never pickled)
    # ------------------------------------------------------------------
    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints as :class:`Constraint` views sharing the palette tables."""
        arrays = self._arrays
        tables = [arrays.palette[t] for t in arrays.constraint_table.tolist()]
        return tuple(map(Constraint, self._scopes(), tables, self.constraint_names))

    def _scopes(self) -> list[list[int]]:
        bounds, vertices = self._arrays.scope_indptr.tolist(), self._arrays.scope_vertex.tolist()
        return [vertices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def incident(self) -> list[list[int]]:
        """The constraints containing each vertex, in constraint order."""
        arrays = self._arrays
        bounds = arrays.incidence_indptr.tolist()
        flat = arrays.incidence_constraint.tolist()
        return [flat[bounds[v] : bounds[v + 1]] for v in range(self.n)]

    @cached_property
    def max_degree(self) -> int:
        """The largest ``|Gamma(v)|``: the maximum degree of the conflict graph."""
        arrays = self._arrays
        ends = np.concatenate([arrays.conflict_u, arrays.conflict_v])
        return int(np.bincount(ends, minlength=1).max())

    def scope(self, index: int) -> tuple[int, ...]:
        """The scope of constraint ``index``, in the order given."""
        index, count = int(index), len(self.constraint_names)
        if not 0 <= index < count:
            raise ModelError(f"constraint index {index} outside 0..{count - 1}")
        start, stop = self._arrays.scope_indptr[index : index + 2].tolist()
        return tuple(self._arrays.scope_vertex[start:stop].tolist())

    def weight(self, config: Sequence[int]) -> float:
        """Return ``w(sigma) = prod_c f_c(sigma|_{S_c})``."""
        if len(config) != self.n:
            raise ModelError(f"configuration length {len(config)} != {self.n}")
        weight = 1.0
        for constraint in self.constraints:
            weight *= constraint.evaluate(config)
            if weight == 0.0:
                return 0.0
        return weight

    def is_feasible(self, config: Sequence[int]) -> bool:
        """Return True iff ``config`` has positive weight."""
        return self.weight(config) > 0.0

    def conditional_marginal(self, config: Sequence[int], v: int) -> np.ndarray:
        """Return ``mu_v(. | X_{V \\ v})`` — proportional to the incident factors.

        Raises :class:`repro.errors.ModelError` if the normaliser vanishes.
        """
        weights = np.ones(self.q)
        for index in self.incident[v]:
            constraint = self.constraints[index]
            base = [int(config[u]) for u in constraint.scope]
            position = constraint.scope.index(v)
            for spin in range(self.q):
                base[position] = spin
                weights[spin] *= float(constraint.table[tuple(base)])
        total = weights.sum()
        if total <= 0.0:
            raise ModelError(
                f"CSP conditional marginal at vertex {v} is undefined (zero mass)"
            )
        return weights / total

    # ------------------------------------------------------------------
    # copy-on-write mutation
    # ------------------------------------------------------------------
    def _derive(self, scope_indptr, scope_vertex, table_index, tables, names) -> LocalCSP:
        model = LocalCSP.__new__(LocalCSP)
        model._build(self.n, self.q, scope_indptr, scope_vertex, table_index, tables, names,
                     self.name)
        return model

    def with_constraint(self, constraint: Constraint) -> LocalCSP:
        """Return a copy with ``constraint`` appended.

        Copy-on-write, like both mutations: an O(C) edit of the stored
        arrays (the new table joins the palette), canonicalised by the one
        constructor into a new instance with its own fingerprint.
        """
        arrays = self._arrays
        return self._derive(
            np.append(arrays.scope_indptr, arrays.scope_indptr[-1] + len(constraint.scope)),
            np.concatenate([arrays.scope_vertex, np.asarray(constraint.scope, dtype=np.int64)]),
            np.append(arrays.constraint_table, len(arrays.palette)),
            (*arrays.palette, constraint.table),
            (*self.constraint_names, constraint.name),
        )

    def without_constraint(self, index: int) -> LocalCSP:
        """Return a copy with constraint ``index`` removed (copy-on-write)."""
        arity, index, arrays = len(self.scope(index)), int(index), self._arrays
        start = int(arrays.scope_indptr[index])
        scope_indptr = np.delete(arrays.scope_indptr, index + 1)
        scope_indptr[index + 1 :] -= arity
        return self._derive(
            scope_indptr, np.delete(arrays.scope_vertex, np.s_[start : start + arity]),
            np.delete(arrays.constraint_table, index), arrays.palette,
            self.constraint_names[:index] + self.constraint_names[index + 1 :],
        )

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON wire form; inverse of :meth:`from_dict`.

        The name, the constraint names, ``n``, ``q`` and, under ``arrays``,
        every stored field of :meth:`compiled` in the array codec of
        :mod:`repro.serialize` (the palette as a list, one array per
        table).  Constraint *order* is kept: it does not change the Gibbs
        distribution, but it fixes the factor-evaluation order of the
        chains, which is part of the bit-level determinism contract the
        serving cache relies on.
        """
        return {
            "type": "csp", "name": self.name, "n": self.n, "q": self.q,
            "constraint_names": list(self.constraint_names), "arrays": self._arrays.encoded(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> LocalCSP:
        """Rebuild a :class:`LocalCSP` from a :meth:`to_dict` payload.

        Decodes the arrays and hands them to the one constructor, which
        checks the scope offsets, the indices and every palette entry,
        used or not, like any other entry path; no :class:`Constraint` is
        built.
        """
        n, q, name, arrays = decode_fields(payload, "CSP", CompiledCSP.ARRAYS)
        names = payload.get("constraint_names")
        if not isinstance(names, list):
            raise ModelError("malformed CSP payload: constraint_names must be a list")
        model = cls.__new__(cls)
        model._build(n, q, arrays["scope_indptr"], arrays["scope_vertex"],
                     arrays["constraint_table"], arrays["palette"], list(map(str, names)), name)
        return model

    def model_fingerprint(self) -> str:
        """Content hash of the stored arrays (:func:`repro.serialize.model_fingerprint`).

        Model and constraint names are excluded; scope order, constraint
        order and every table value are hashed.  Memoized on the stored
        record.
        """
        return self._arrays.fingerprint

    def compiled(self) -> CompiledCSP:
        """The stored :class:`~repro.compiled.CompiledCSP` record; builds nothing."""
        return self._arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        count = len(self.constraint_names)
        return f"LocalCSP(name={self.name!r}, n={self.n}, q={self.q}, constraints={count})"


def exact_csp_gibbs_distribution(csp: LocalCSP, max_states: int = 2_000_000) -> GibbsDistribution:
    """Materialise the exact Gibbs distribution of a small CSP.

    Enumerates all ``q**n`` configurations in blocks
    (:func:`~repro.mrf.distribution.spin_blocks`).
    """
    size = csp.q ** csp.n
    if size > max_states:
        raise StateSpaceTooLargeError(
            f"state space {csp.q}**{csp.n} = {size} exceeds max_states={max_states}"
        )
    tables = [csp.compiled().palette[t] for t in csp.compiled().constraint_table.tolist()]
    factors = list(zip(tables, csp._scopes()))
    weights = np.empty(size)
    for start, spins in spin_blocks(csp.n, csp.q):
        # The factors of LocalCSP.weight, in its order: equal bit for bit.
        block = np.ones(spins.shape[1])
        for table, scope in factors:
            block *= table[tuple(spins[scope])]
        weights[start : start + block.size] = block
    if weights.sum() <= 0.0:
        raise ModelError("CSP has no feasible configuration (Z = 0)")
    return GibbsDistribution(csp.n, csp.q, weights)
