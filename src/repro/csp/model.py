"""Weighted local CSPs: constraints ``(f_c, S_c)`` and their Gibbs measures.

The weight of a configuration is ``w(sigma) = prod_c f_c(sigma|_{S_c})`` and
the Gibbs distribution is proportional to it (paper Section 2.2).  Boolean
constraint functions make mu the uniform distribution over CSP solutions —
the "local sampling" counterpart of LCL problems.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError, StateSpaceTooLargeError
from repro.mrf.distribution import GibbsDistribution, spin_blocks
from repro.serialize import (
    frozen_table,
    palette_index,
    payload_fingerprint,
    table_palette,
)

if TYPE_CHECKING:
    from repro.compiled import CompiledCSP

__all__ = ["Constraint", "LocalCSP", "exact_csp_gibbs_distribution"]


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
        if table.ndim != len(self.scope):
            raise ModelError(
                f"{name}: table must have one axis per scope vertex "
                f"({len(self.scope)}), got shape {table.shape}"
            )
        sizes = set(table.shape)
        if len(sizes) != 1:
            raise ModelError(f"{name}: all table axes must share the domain size")
        if not np.all(np.isfinite(table)):
            raise ModelError(
                f"{name}: constraint function must be finite (no NaN/inf entries "
                "— a non-finite factor makes the max-normalisation emit NaN)"
            )
        if np.any(table < 0):
            raise ModelError(f"{name}: constraint function must be non-negative")
        if np.all(table == 0):
            raise ModelError(f"{name}: constraint function must not be identically zero")
        if table.flags.writeable:  # already-frozen tables are shared, not copied
            table = table.copy()
            table.setflags(write=False)
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

    def evaluate_scope(self, local: Sequence[int]) -> float:
        """Return ``f_c`` on spins given in scope order."""
        return float(self.table[tuple(int(s) for s in local)])

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

    Immutable: ``constraints`` is a tuple of :class:`Constraint` objects
    (themselves frozen), and the mutation methods return new instances.
    """

    def __init__(self, n: int, q: int, constraints: Sequence[Constraint], name: str = "csp") -> None:
        if n < 1:
            raise ModelError(f"LocalCSP needs n >= 1, got {n}")
        if q < 2:
            raise ModelError(f"LocalCSP needs q >= 2, got {q}")
        self.n = int(n)
        self.q = int(q)
        self.name = name
        self.constraints = tuple(constraints)
        self._fingerprint: str | None = None
        self._compiled: CompiledCSP | None = None
        for constraint in self.constraints:
            if constraint.q != q:
                raise ModelError(
                    f"{constraint.name}: table domain {constraint.q} != CSP domain {q}"
                )
            if any(v < 0 or v >= n for v in constraint.scope):
                raise ModelError(
                    f"{constraint.name}: scope {constraint.scope} outside 0..{n - 1}"
                )
        # Constraints incident to each vertex, used by conditional marginals.
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for index, constraint in enumerate(self.constraints):
            for v in constraint.scope:
                self.incident[v].append(index)

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
                weights[spin] *= constraint.evaluate_scope(base)
        total = weights.sum()
        if total <= 0.0:
            raise ModelError(
                f"CSP conditional marginal at vertex {v} is undefined (zero mass)"
            )
        return weights / total

    # ------------------------------------------------------------------
    # copy-on-write mutation
    # ------------------------------------------------------------------
    def with_constraint(self, constraint: Constraint) -> LocalCSP:
        """Return a copy with ``constraint`` appended (copy-on-write).

        :class:`Constraint` objects are immutable (frozen tables), so the
        derived model shares them with ``self``; only the index lists are
        rebuilt.  The derived model is a new instance, and
        :meth:`model_fingerprint` is memoized per immutable instance, so
        the derived model's fingerprint reflects the mutation while
        ``self`` keeps its own.
        """
        return LocalCSP(
            self.n, self.q, [*self.constraints, constraint], name=self.name
        )

    def without_constraint(self, index: int) -> LocalCSP:
        """Return a copy with constraint ``index`` removed (copy-on-write)."""
        index = int(index)
        if not (0 <= index < len(self.constraints)):
            raise ModelError(
                f"constraint index {index} outside 0..{len(self.constraints) - 1}"
            )
        remaining = [
            constraint
            for position, constraint in enumerate(self.constraints)
            if position != index
        ]
        return LocalCSP(self.n, self.q, remaining, name=self.name)

    def to_dict(self) -> dict:
        """Canonical plain-JSON palette form; inverse of :meth:`from_dict`.

        ``palette`` holds each distinct constraint table once, in
        first-use order along the constraints (deduplicated by shape and
        float64 bytes); each ``constraints`` entry carries its name, its
        scope and the palette position of its table.  Constraint *order*
        is preserved: it does not change the Gibbs distribution, but it
        does fix the factor-evaluation order of the chains, which is part
        of the bit-level determinism contract the serving cache relies on.
        """
        tables, index = table_palette(
            [constraint.table for constraint in self.constraints]
        )
        return {
            "type": "csp",
            "name": self.name,
            "n": self.n,
            "q": self.q,
            "palette": [table.tolist() for table in tables],
            "constraints": [
                {"name": constraint.name, "scope": list(constraint.scope), "table": i}
                for constraint, i in zip(self.constraints, index)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> LocalCSP:
        """Rebuild a :class:`LocalCSP` from a :meth:`to_dict` payload.

        Constraints naming one palette entry share one frozen table.
        """
        try:
            n = int(payload["n"])
            q = int(payload["q"])
            tables = [frozen_table(table) for table in payload["palette"]]
            entries = list(payload["constraints"])
            index = palette_index(
                [entry["table"] for entry in entries],
                len(tables),
                len(entries),
                "constraint",
            )
            constraints = [
                Constraint(
                    entry["scope"],
                    tables[i],
                    name=str(entry.get("name", "constraint")),
                )
                for entry, i in zip(entries, index)
            ]
            name = str(payload.get("name", "csp"))
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ModelError(f"malformed CSP payload: {error}") from None
        return cls(n, q, constraints, name=name)

    def model_fingerprint(self) -> str:
        """Stable content hash of the distribution-defining payload.

        Model and constraint names are cosmetic and excluded (see
        :meth:`repro.mrf.model.MRF.model_fingerprint` for the contract);
        scope order, constraint order and every table value are hashed.
        Computed on the first call and memoized per immutable instance.
        """
        if self._fingerprint is None:
            payload = self.to_dict()
            del payload["name"]
            for entry in payload["constraints"]:
                del entry["name"]
            self._fingerprint = payload_fingerprint(payload)
        return self._fingerprint

    def compiled(self) -> CompiledCSP:
        """The :class:`~repro.compiled.CompiledCSP` index-array form.

        Built on the first call (the first engine build) and memoized per
        immutable instance, like :meth:`model_fingerprint`; left out of
        pickles, so a worker that unpickles a job compiles its own copy.
        """
        if self._compiled is None:
            from repro.compiled import compile_csp

            self._compiled = compile_csp(self)
        return self._compiled

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_compiled"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compiled = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalCSP(name={self.name!r}, n={self.n}, q={self.q}, constraints={len(self.constraints)})"


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
    weights = np.empty(size)
    for start, spins in spin_blocks(csp.n, csp.q):
        # The factors of LocalCSP.weight, in its order: equal bit for bit.
        block = np.ones(spins.shape[1])
        for constraint in csp.constraints:
            block *= constraint.table[tuple(spins[v] for v in constraint.scope)]
        weights[start : start + block.size] = block
    if weights.sum() <= 0.0:
        raise ModelError("CSP has no feasible configuration (Z = 0)")
    return GibbsDistribution(csp.n, csp.q, weights)
