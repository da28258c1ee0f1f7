"""Weighted local CSPs: constraints ``(f_c, S_c)`` and their Gibbs measures.

The weight of a configuration is ``w(sigma) = prod_c f_c(sigma|_{S_c})`` and
the Gibbs distribution is proportional to it (paper Section 2.2).  Boolean
constraint functions make mu the uniform distribution over CSP solutions —
the "local sampling" counterpart of LCL problems.

A CSP is its name and its arrays (:class:`~repro.compiled.CompiledCSP`),
built in canonical form by one private constructor for every entry path;
a constraint has no name, and errors name it by its index.  That
constructor is the one validator: it refuses ``n >= 2**31``, a scope CSR
that does not start at 0, decreases or does not end at its vertex count,
a bad scope, a palette index out of range or of the wrong length and an
invalid table.  It keeps the constraint order, which fixes the chains'
factor-evaluation order and so their bits.  The engines read the arrays,
:meth:`LocalCSP.to_dict` encodes them with the array codec of
:mod:`repro.serialize` and the fingerprint hashes their bytes.
:class:`Constraint` is the input value type and the view the sequential
chains and LOCAL protocols read (``constraints``, derived on first use).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.compiled import CompiledCSP, _check_index, _first_use, _frozen, _StoredModel
from repro.errors import ModelError, StateSpaceTooLargeError
from repro.mrf.distribution import GibbsDistribution, spin_blocks
from repro.serialize import MAX_COUNT, frozen_table, table_palette

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

    ``_checked=True`` stores a scope tuple and a frozen table as given,
    with no check and no copy.  :attr:`LocalCSP.constraints` passes it for
    the views of tables and scopes its CSP's constructor already checked;
    the graph builders of :mod:`repro.csp.builders` pass it for
    constraints about to go through that constructor, whose one check of
    every scope and of each distinct table replaces the per-constraint
    one.
    """

    def __init__(self, scope: Sequence[int], table: np.ndarray, *, _checked: bool = False) -> None:
        if _checked:
            self.scope, self.table = scope, table
            return
        self.scope = tuple(int(v) for v in scope)
        if len(set(self.scope)) != len(self.scope):
            raise ModelError(f"scope vertices must be distinct, got {self.scope}")
        if not self.scope:
            raise ModelError("scope must be non-empty")
        table = np.asarray(table, dtype=float)
        problem = _table_problem(table, len(self.scope))
        if problem:
            raise ModelError(f"constraint on {self.scope}: {problem}")
        if table.flags.writeable:  # already-frozen tables are shared, not copied
            table = frozen_table(table)
        self.table = table

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
                f"constraint on {self.scope}: non-normalisable (max factor "
                f"{maximum}); cannot form the LocalMetropolis filter"
            )
        return self.table / maximum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constraint(scope={self.scope})"


class LocalCSP(_StoredModel):
    """A weighted CSP over vertices ``0..n-1`` with spin domain ``[q]``.

    Immutable: the mutation methods return new instances.
    """

    RECORD = CompiledCSP
    _arrays: CompiledCSP

    def __init__(self, n: int, q: int, constraints: Sequence[Constraint], name: str = "csp") -> None:
        constraints = tuple(constraints)
        indptr, vertex = _scope_arrays([c.scope for c in constraints])
        self._build(n, q, name=name, scope_indptr=indptr, scope_vertex=vertex,
                    constraint_table=np.arange(len(constraints)),
                    palette=[c.table for c in constraints])

    def _build(
        self, n: int, q: int, *, name: str, scope_indptr: np.ndarray, scope_vertex: np.ndarray,
        constraint_table: np.ndarray, palette: Sequence[np.ndarray],
    ) -> None:
        """The one constructor and validator: check, canonicalise and store the arrays.

        Constraint ``c`` has the scope
        ``scope_vertex[scope_indptr[c]:scope_indptr[c + 1]]`` and the table
        ``palette[constraint_table[c]]``.  The CSR offsets, the index counts
        and ranges and every distinct supplied table, used or not, are
        checked, and a refused constraint is named by its index; the
        palette keeps the used tables in first-use order.
        """
        if not 1 <= n < MAX_COUNT:
            raise ModelError(f"a LocalCSP needs 1 <= n < 2**31 vertices, got n = {n}")
        if not 2 <= q < MAX_COUNT:
            raise ModelError(f"a LocalCSP needs 2 <= q < 2**31 spin states, got q = {q}")
        arity = np.diff(scope_indptr)
        ends = scope_indptr[[0, -1]].tolist() if scope_indptr.size else None
        if ends != [0, scope_vertex.size] or np.any(arity < 0):
            raise ModelError(
                "scope_indptr must start at 0, never decrease and end at the "
                f"{scope_vertex.size} scope vertices"
            )
        _check_index(constraint_table, len(palette), arity.size, "constraint")
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
                raise ModelError(f"constraint {c}: {problem.format(scope)}")
        distinct, position = table_palette(palette)
        value = np.asarray(position, dtype=np.int64)[constraint_table]
        for k, table in enumerate(distinct):
            problem = _table_problem(table, table.ndim, q)
            if problem:
                use = np.flatnonzero(value == k)
                where = f"constraint {use[0]}" if use.size else f"palette entry {position.index(k)}"
                raise ModelError(f"{where}: {problem}")
        ndim = np.array([table.ndim for table in distinct], dtype=np.int64)
        mismatch = np.flatnonzero(ndim[value] != arity)
        if mismatch.size:
            c = int(mismatch[0])
            raise ModelError(f"constraint {c}: {_table_problem(distinct[value[c]], arity[c])}")
        constraint_table, used = _first_use(value)
        tables = [distinct[k] for k in used.tolist()]
        arrays = CompiledCSP(
            n=int(n), q=int(q), scope_indptr=_frozen(scope_indptr),
            scope_vertex=_frozen(scope_vertex), constraint_table=_frozen(constraint_table),
            palette=tuple(frozen_table(t) if t.flags.writeable else t for t in tables),
        )
        self.__setstate__({"name": name, "arrays": arrays})

    # ------------------------------------------------------------------
    # derived views (built on first use, never pickled)
    # ------------------------------------------------------------------
    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints as :class:`Constraint` views sharing the palette tables.

        The constructor checked every scope and table, so the views are not
        checked again.
        """
        arrays = self._arrays
        tables = [arrays.palette[t] for t in arrays.constraint_table.tolist()]
        return tuple(
            Constraint(tuple(scope), table, _checked=True)
            for scope, table in zip(self._scopes(), tables)
        )

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

    def scope(self, index: int) -> tuple[int, ...]:
        """The scope of constraint ``index``, in the order given."""
        index, count = int(index), self._arrays.num_constraints
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
            raise self.compiled().undefined_marginal(v)
        return weights / total

    # ------------------------------------------------------------------
    # copy-on-write mutation
    # ------------------------------------------------------------------
    def with_constraint(self, constraint: Constraint) -> LocalCSP:
        """Return a copy with ``constraint`` appended.

        Copy-on-write, like both mutations: an O(C) edit of the stored
        arrays (the new table joins the palette), canonicalised by the one
        constructor into a new instance with its own fingerprint.
        """
        arrays, scope = self._arrays, np.asarray(constraint.scope, dtype=np.int64)
        return self._derive(
            scope_indptr=np.append(arrays.scope_indptr, arrays.scope_indptr[-1] + scope.size),
            scope_vertex=np.concatenate([arrays.scope_vertex, scope]),
            constraint_table=np.append(arrays.constraint_table, len(arrays.palette)),
            palette=(*arrays.palette, constraint.table),
        )

    def without_constraint(self, index: int) -> LocalCSP:
        """Return a copy with constraint ``index`` removed (copy-on-write)."""
        arity, index, arrays = len(self.scope(index)), int(index), self._arrays
        start = int(arrays.scope_indptr[index])
        scope_indptr = np.delete(arrays.scope_indptr, index + 1)
        scope_indptr[index + 1 :] -= arity
        return self._derive(
            scope_indptr=scope_indptr,
            scope_vertex=np.delete(arrays.scope_vertex, np.s_[start : start + arity]),
            constraint_table=np.delete(arrays.constraint_table, index),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        count = self._arrays.num_constraints
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
