"""Couplings of the paper's chains.

Three tools, mirroring the paper's proof machinery:

* :func:`maximal_coupling` — the maximal one-step coupling of two discrete
  distributions, achieving ``Pr[x != y] = dTV(p, q)``; this is the coupling
  the Theorem 3.2 proof iterates.
* :class:`CoupledLubyGlauber` / :class:`CoupledLocalMetropolis` — two copies
  of a chain advanced with shared randomness:  LubyGlauber shares the Luby
  ranks and maximally couples each selected vertex's heat-bath draw;
  LocalMetropolis uses the *identical-proposal* coupling of Lemma 4.4 (every
  vertex proposes the same colour in both chains, edge coins are shared
  monotonely).
* :func:`coalescence_time` and :func:`path_coupling_contraction` — the
  empirical quantities: time until the two copies agree everywhere (an upper
  proxy for mixing), and the one-step contraction of the degree-weighted
  disagreement metric Φ of Definition 4.1, whose sign around the
  ``(2 + sqrt 2) Delta`` threshold experiment E5 probes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.chains.cftp import _inverse_cdf_spin
from repro.chains.schedulers import IndependentSetScheduler, LubyScheduler
from repro.errors import ConvergenceError, ModelError
from repro.mrf.marginals import conditional_marginal
from repro.mrf.model import MRF

__all__ = [
    "maximal_coupling",
    "CoupledChain",
    "CoupledLubyGlauber",
    "CoupledLocalMetropolis",
    "coalescence_time",
    "path_coupling_contraction",
    "weighted_disagreement",
]


def maximal_coupling(
    p: np.ndarray, q: np.ndarray, rng: np.random.Generator
) -> tuple[int, int]:
    """Sample ``(x, y)`` with marginals ``p``, ``q`` and ``Pr[x!=y] = dTV(p,q)``.

    Standard construction: with probability ``sum_i min(p_i, q_i)`` draw a
    common value from the normalised overlap; otherwise draw ``x`` and ``y``
    independently from the normalised residuals ``(p - min)+`` and
    ``(q - min)+``, which have disjoint supports.
    """
    overlap = np.minimum(p, q)
    mass = float(overlap.sum())
    if rng.random() < mass:
        common = rng.choice(len(p), p=overlap / mass)
        return int(common), int(common)
    residual_p = np.clip(p - overlap, 0.0, None)
    residual_q = np.clip(q - overlap, 0.0, None)
    x = rng.choice(len(p), p=residual_p / residual_p.sum())
    y = rng.choice(len(q), p=residual_q / residual_q.sum())
    return int(x), int(y)


def weighted_disagreement(mrf: MRF, x: np.ndarray, y: np.ndarray) -> float:
    """Return ``Phi(x, y) = sum_{v: x_v != y_v} deg(v)`` (Definition 4.1).

    Isolated disagreeing vertices contribute 1 instead of 0 so that the
    metric still separates configurations on edgeless graphs.
    """
    total = 0.0
    for v in np.nonzero(x != y)[0]:
        degree = mrf.degree(int(v))
        total += degree if degree > 0 else 1.0
    return total


class CoupledChain(ABC):
    """Two chain copies advanced jointly; each copy is marginally faithful."""

    def __init__(
        self,
        mrf: MRF,
        initial_x: Sequence[int] | np.ndarray,
        initial_y: Sequence[int] | np.ndarray,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.mrf = mrf
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        self.x = np.asarray(initial_x, dtype=np.int64).copy()
        self.y = np.asarray(initial_y, dtype=np.int64).copy()
        if self.x.shape != (mrf.n,) or self.y.shape != (mrf.n,):
            raise ModelError("coupled chain initial configurations must have length n")
        self.steps_taken = 0

    @abstractmethod
    def step(self) -> None:
        """Advance both copies one coupled transition."""

    def agree(self) -> bool:
        """Return True iff the two copies coincide everywhere."""
        return bool(np.array_equal(self.x, self.y))

    def hamming(self) -> int:
        """Return the number of disagreeing vertices."""
        return int((self.x != self.y).sum())


class CoupledLubyGlauber(CoupledChain):
    """LubyGlauber coupling: shared ranks + per-vertex maximal coupling.

    Both copies use the *same* independent set each round (the Luby ranks
    are shared randomness), and every selected vertex draws its two new
    spins from the maximal coupling of its two conditional marginals — the
    coupling analysed in the proof of Theorem 3.2.
    """

    def __init__(
        self,
        mrf: MRF,
        initial_x: Sequence[int] | np.ndarray,
        initial_y: Sequence[int] | np.ndarray,
        seed: int | np.random.Generator | None = None,
        scheduler: IndependentSetScheduler | None = None,
    ) -> None:
        super().__init__(mrf, initial_x, initial_y, seed=seed)
        self.scheduler = scheduler if scheduler is not None else LubyScheduler(mrf.graph)

    def step(self) -> None:
        selected = self.scheduler.sample(self.rng)
        updates: list[tuple[int, int, int]] = []
        for v in np.nonzero(selected)[0]:
            v = int(v)
            p = conditional_marginal(self.mrf, self.x, v)
            q = conditional_marginal(self.mrf, self.y, v)
            new_x, new_y = maximal_coupling(p, q, self.rng)
            updates.append((v, new_x, new_y))
        for v, new_x, new_y in updates:
            self.x[v] = new_x
            self.y[v] = new_y
        self.steps_taken += 1


class CoupledLocalMetropolis(CoupledChain):
    """LocalMetropolis identical-proposal coupling (Lemma 4.4).

    Every vertex proposes the *same* spin in both copies; every edge check
    uses one shared uniform draw, passing in a copy iff the draw is below
    that copy's check probability (monotone coin coupling).  For
    hard-constraint models the checks are deterministic and the coupling is
    exactly the paper's local coupling, under which a disagreement at ``v0``
    can only spread to ``Gamma+(v0)`` in one round.
    """

    def __init__(
        self,
        mrf: MRF,
        initial_x: Sequence[int] | np.ndarray,
        initial_y: Sequence[int] | np.ndarray,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(mrf, initial_x, initial_y, seed=seed)
        totals = mrf.vertex_activity.sum(axis=1)
        self._proposal_distribution = mrf.vertex_activity / totals[:, None]
        self._edges = np.asarray(mrf.edges, dtype=np.int64).reshape(-1, 2)
        self._normalized = [mrf.normalized_edge_activity(u, v) for u, v in mrf.edges]

    def _shared_proposals(self) -> np.ndarray:
        draws = self.rng.random(self.mrf.n)
        return np.array(
            [_inverse_cdf_spin(row, u) for row, u in zip(self._proposal_distribution, draws)],
            dtype=np.int64,
        )

    def step(self) -> None:
        proposals = self._shared_proposals()
        blocked_x = np.zeros(self.mrf.n, dtype=bool)
        blocked_y = np.zeros(self.mrf.n, dtype=bool)
        coin_draws = self.rng.random(len(self._edges))
        for index, (u, v) in enumerate(self._edges):
            table = self._normalized[index]
            base = table[proposals[u], proposals[v]]
            prob_x = base * table[self.x[u], proposals[v]] * table[proposals[u], self.x[v]]
            prob_y = base * table[self.y[u], proposals[v]] * table[proposals[u], self.y[v]]
            draw = coin_draws[index]
            if draw >= prob_x:
                blocked_x[u] = True
                blocked_x[v] = True
            if draw >= prob_y:
                blocked_y[u] = True
                blocked_y[v] = True
        accept_x = ~blocked_x
        accept_y = ~blocked_y
        self.x[accept_x] = proposals[accept_x]
        self.y[accept_y] = proposals[accept_y]
        self.steps_taken += 1


def coalescence_time(coupled: CoupledChain, max_steps: int = 100_000) -> int:
    """Run the coupled chain until both copies agree; return the step count.

    Raises :class:`ConvergenceError` if coalescence does not occur within
    ``max_steps`` — by the coupling lemma, the coalescence time stochastically
    dominates the mixing behaviour the experiments report.
    """
    if coupled.agree():
        return 0
    for step in range(1, max_steps + 1):
        coupled.step()
        if coupled.agree():
            return step
    raise ConvergenceError(f"no coalescence within {max_steps} coupled steps")


def path_coupling_contraction(
    mrf: MRF,
    make_coupled,
    trials: int,
    seed: int | np.random.Generator | None = None,
    burn_in: int = 50,
) -> float:
    """Estimate the one-step path-coupling contraction factor.

    Protocol (matching Section 4.2's setup): draw a configuration ``X`` by
    running a LocalMetropolis burn-in from a greedy start, pick a uniformly
    random vertex ``v0`` and a uniformly random different spin to build ``Y``
    (adjacent in the pre-metric, ``Phi(X, Y) = deg(v0)``), run *one* coupled
    step, and record ``Phi(X', Y') / Phi(X, Y)``.  Returns the mean ratio
    over ``trials``; a value < 1 certifies contraction, the condition of the
    Bubley-Dyer Lemma 4.3.

    ``make_coupled(mrf, x, y, rng)`` must build a fresh coupled chain.
    """
    from repro.chains.local_metropolis import LocalMetropolisChain

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if trials < 1:
        raise ModelError("path_coupling_contraction needs trials >= 1")
    warm = LocalMetropolisChain(mrf, seed=rng)
    warm.run(burn_in)
    ratios = np.empty(trials)
    for trial in range(trials):
        # Refresh the base configuration a little between trials so the
        # estimate averages over the pre-metric's edges, not one point.
        warm.run(2)
        x = warm.config.copy()
        v0 = int(rng.integers(mrf.n))
        other_spins = [spin for spin in range(mrf.q) if spin != x[v0]]
        y = x.copy()
        y[v0] = int(rng.choice(other_spins))
        coupled = make_coupled(mrf, x, y, rng)
        before = weighted_disagreement(mrf, coupled.x, coupled.y)
        coupled.step()
        after = weighted_disagreement(mrf, coupled.x, coupled.y)
        ratios[trial] = after / before
    return float(ratios.mean())
