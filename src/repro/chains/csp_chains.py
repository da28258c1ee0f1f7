"""CSP extensions of the two distributed chains (paper remarks, Sections 3-4).

* :class:`LubyGlauberCSP` — the Luby step runs on the CSP's *conflict graph*
  so the selected set is strongly independent in the constraint hypergraph;
  selected vertices resample from their conditional marginals.
* :class:`LocalMetropolisCSP` — every vertex proposes a uniform spin; every
  constraint ``c = (f_c, S_c)`` of arity ``k`` passes its check with
  probability equal to the product of the ``2^k - 1`` normalised factors
  ``f̃_c(tau)`` over the mixings ``tau`` of the proposal vector with the
  current vector on ``S_c`` — every subset of scope positions reads the
  proposal, except the all-current mixing ``X_{S_c}`` itself.  A vertex
  accepts iff all incident constraints pass.

:func:`local_metropolis_csp_transition_matrix` materialises the exact
transition matrix so tests can verify the stationary distribution is the CSP
Gibbs measure (experiment E9).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from repro.chains.base import as_generator, start_config
from repro.chains.glauber import sample_spin
from repro.chains.schedulers import LubyScheduler
from repro.csp.hypergraph import conflict_graph
from repro.csp.model import LocalCSP
from repro.errors import ModelError, StateSpaceTooLargeError
from repro.mrf.distribution import config_index

__all__ = [
    "LubyGlauberCSP",
    "LocalMetropolisCSP",
    "constraint_pass_probability",
    "local_metropolis_csp_transition_matrix",
]


def constraint_pass_probability(
    table_normalized: np.ndarray,
    scope: tuple[int, ...],
    proposals: Sequence[int],
    current: Sequence[int],
) -> float:
    """Check probability of one constraint: product of ``2^k - 1`` factors.

    Iterates over all mixings of (proposal, current) on the scope except the
    all-current one, multiplying the normalised factor values.

    Raises :class:`repro.errors.ModelError` if the factor table is
    non-normalisable — all-zero or containing non-finite entries — since no
    pass probability is defined for such a constraint (a naive ``0/0``
    normalisation would silently emit NaN probabilities downstream).  The
    guard is a single ``max`` pass (NaN propagates through ``max``), cheap
    enough for the per-constraint-per-step hot path.
    """
    table_normalized = np.asarray(table_normalized, dtype=float)
    maximum = float(table_normalized.max(initial=0.0))
    if not math.isfinite(maximum):
        raise ModelError(
            "constraint factors must be finite; got non-finite entries in the "
            "normalised table"
        )
    if maximum <= 0.0:
        raise ModelError(
            "non-normalisable constraint: all factors are zero, so the "
            "LocalMetropolis pass probability is undefined"
        )
    arity = len(scope)
    probability = 1.0
    for mask in range(1, 2**arity):
        local = tuple(
            int(proposals[scope[i]]) if (mask >> i) & 1 else int(current[scope[i]])
            for i in range(arity)
        )
        probability *= float(table_normalized[local])
        if probability == 0.0:
            return 0.0
    return probability


class _CSPChainBase:
    """Shared state for CSP chains: configuration, RNG, feasibility helpers."""

    def __init__(
        self,
        csp: LocalCSP,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.csp = csp
        self.rng = as_generator(seed)
        self.config = start_config(csp, initial)
        self.steps_taken = 0

    def run(self, steps: int) -> np.ndarray:
        """Advance ``steps`` transitions; return the configuration."""
        for _ in range(steps):
            self.step()
        return self.config

    def is_feasible(self) -> bool:
        """Return True iff the current configuration satisfies all constraints."""
        return self.csp.is_feasible(self.config)

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class LubyGlauberCSP(_CSPChainBase):
    """LubyGlauber on a weighted local CSP (remark after Algorithm 1)."""

    def __init__(
        self,
        csp: LocalCSP,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(csp, initial=initial, seed=seed)
        self.scheduler = LubyScheduler(conflict_graph(csp))

    def step(self) -> None:
        """Select a strongly independent set; heat-bath-update it in parallel."""
        selected = self.scheduler.sample(self.rng)
        updates: list[tuple[int, int]] = []
        for v in np.nonzero(selected)[0]:
            distribution = self.csp.conditional_marginal(self.config, int(v))
            updates.append((int(v), sample_spin(distribution, self.rng)))
        for v, spin in updates:
            self.config[v] = spin
        self.steps_taken += 1


class LocalMetropolisCSP(_CSPChainBase):
    """LocalMetropolis on a weighted local CSP (remark after Algorithm 2)."""

    def __init__(
        self,
        csp: LocalCSP,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(csp, initial=initial, seed=seed)
        self._normalized = [c.normalized_table() for c in csp.constraints]

    def step(self) -> None:
        """Uniform proposals; per-constraint 2^k - 1-factor filter; accept if clean."""
        proposals = self.rng.integers(0, self.csp.q, size=self.csp.n)
        blocked = np.zeros(self.csp.n, dtype=bool)
        for index, constraint in enumerate(self.csp.constraints):
            probability = constraint_pass_probability(
                self._normalized[index], constraint.scope, proposals, self.config
            )
            if probability >= 1.0:
                passed = True
            elif probability <= 0.0:
                passed = False
            else:
                passed = self.rng.random() < probability
            if not passed:
                for v in constraint.scope:
                    blocked[v] = True
        accept = ~blocked
        self.config[accept] = proposals[accept]
        self.steps_taken += 1


def local_metropolis_csp_transition_matrix(
    csp: LocalCSP, max_states: int = 4096
) -> np.ndarray:
    """Exact transition matrix of :class:`LocalMetropolisCSP`.

    Enumerates ``q^n`` proposal vectors per state and coin outcomes for
    constraints whose pass probability is strictly between 0 and 1.
    """
    size = csp.q ** csp.n
    if size > max_states:
        raise StateSpaceTooLargeError(
            f"state space {csp.q}**{csp.n} = {size} exceeds max_states={max_states}"
        )
    normalized = [c.normalized_table() for c in csp.constraints]
    configs = list(itertools.product(range(csp.q), repeat=csp.n))
    proposal_probability = (1.0 / csp.q) ** csp.n
    matrix = np.zeros((size, size))
    for row, config in enumerate(configs):
        for sigma in configs:
            pass_probs = [
                constraint_pass_probability(
                    normalized[i], csp.constraints[i].scope, sigma, config
                )
                for i in range(len(csp.constraints))
            ]
            random_indices = [i for i, p in enumerate(pass_probs) if 0.0 < p < 1.0]
            if len(random_indices) > 16:
                raise StateSpaceTooLargeError(
                    "too many probabilistic constraint checks to enumerate"
                )
            for outcome in itertools.product((True, False), repeat=len(random_indices)):
                coin_probability = 1.0
                passed = [p >= 1.0 for p in pass_probs]
                for flag, i in zip(outcome, random_indices):
                    passed[i] = flag
                    coin_probability *= pass_probs[i] if flag else 1.0 - pass_probs[i]
                if coin_probability == 0.0:
                    continue
                blocked = [False] * csp.n
                for i, constraint in enumerate(csp.constraints):
                    if not passed[i]:
                        for v in constraint.scope:
                            blocked[v] = True
                result = tuple(
                    config[v] if blocked[v] else sigma[v] for v in range(csp.n)
                )
                column = config_index(result, csp.q)
                matrix[row, column] += proposal_probability * coin_probability
    return matrix
