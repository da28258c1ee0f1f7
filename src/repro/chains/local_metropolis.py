"""The LocalMetropolis chain — paper Algorithm 2.

Each iteration, *every* vertex moves simultaneously:

* **Propose**: each ``v`` independently proposes ``sigma_v`` with probability
  proportional to ``b_v(sigma_v)``;
* **Local filter**: each edge ``e = uv`` independently passes its check with
  probability ``Ã_e(sigma_u, sigma_v) * Ã_e(X_u, sigma_v) * Ã_e(sigma_u, X_v)``
  where ``Ã_e = A_e / max A_e``;
* ``v`` accepts its proposal (``X_v <- sigma_v``) iff *all* incident edges
  passed.

Both endpoints of an edge consult the *same* coin — in a distributed
implementation they derive it from shared randomness exchanged over the edge
(see :mod:`repro.distributed.protocols`).  The chain is reversible with
stationary distribution mu (Theorem 4.1).  For proper q-colourings the three
factors specialise to the three filtering rules of Section 4.2:

1. ``sigma_v != X_u``   (don't propose a neighbour's current colour),
2. ``sigma_v != sigma_u`` (don't collide with the neighbour's proposal),
3. ``X_v != sigma_u``   (the neighbour must not propose *my* current colour
   — needed for reversibility, ablated in experiment E10),

and mixing takes ``O(log(n/eps))`` rounds once ``q >= alpha * Delta`` with
``alpha > 2 + sqrt(2)`` and ``Delta >= 9`` (Theorem 1.2 / 4.2).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.chains.base import Chain
from repro.chains.cftp import _inverse_cdf_spin
from repro.mrf.model import MRF

__all__ = ["LocalMetropolisChain"]


class LocalMetropolisChain(Chain):
    """Algorithm 2: fully parallel propose-and-filter dynamics.

    Parameters
    ----------
    mrf, initial, seed:
        See :class:`repro.chains.base.Chain`.
    use_third_rule:
        When False, the ``Ã_e(sigma_u, X_v)`` factor (filtering rule 3 for
        colourings) is dropped from every edge check.  The paper remarks the
        rule "looks redundant [but] is necessary to guarantee the
        reversibility of the chain"; experiment E10 demonstrates that
        without it the stationary distribution is *not* the Gibbs
        distribution.  Only for ablation — leave True for correct sampling.
    """

    def __init__(
        self,
        mrf: MRF,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
        use_third_rule: bool = True,
    ) -> None:
        super().__init__(mrf, initial=initial, seed=seed)
        self.use_third_rule = use_third_rule
        totals = mrf.vertex_activity.sum(axis=1)
        self._proposal_distribution = mrf.vertex_activity / totals[:, None]
        self._edge_index = np.asarray(mrf.edges, dtype=np.int64).reshape(-1, 2)
        self._normalized = [
            mrf.normalized_edge_activity(u, v) for u, v in mrf.edges
        ]
        self._hard = mrf.is_hard_constraint_model()

    # ------------------------------------------------------------------
    def _propose(self) -> np.ndarray:
        """Draw all vertex proposals: one uniform each, per-row inverse CDF.

        :func:`~repro.chains.cftp._inverse_cdf_spin` never proposes a
        zero-mass spin, even when rounding leaves the CDF below a uniform.
        """
        u = self.rng.random(self.mrf.n)
        return np.array(
            [_inverse_cdf_spin(row, draw) for row, draw in zip(self._proposal_distribution, u)],
            dtype=np.int64,
        )

    def _edge_pass_probability(self, index: int, proposals: np.ndarray) -> float:
        """Return the check probability of edge ``index`` given ``proposals``."""
        u, v = self._edge_index[index]
        matrix = self._normalized[index]
        probability = (
            matrix[proposals[u], proposals[v]]
            * matrix[self.config[u], proposals[v]]
        )
        if self.use_third_rule:
            probability *= matrix[proposals[u], self.config[v]]
        return float(probability)

    def step(self) -> None:
        """One fully parallel propose-filter-accept round."""
        proposals = self._propose()
        blocked = np.zeros(self.mrf.n, dtype=bool)
        for index in range(len(self._edge_index)):
            probability = self._edge_pass_probability(index, proposals)
            if probability >= 1.0:
                passed = True
            elif probability <= 0.0:
                passed = False
            else:
                passed = self.rng.random() < probability
            if not passed:
                u, v = self._edge_index[index]
                blocked[u] = True
                blocked[v] = True
        accept = ~blocked
        self.config[accept] = proposals[accept]
        self.steps_taken += 1

    def rounds_bound(self, eps: float, constant: float = 4.0) -> int:
        """Theorem 1.2-style round budget ``constant * log(n / eps)``.

        The theorem's constant depends only on ``alpha = q / Delta``; the
        default 4 is a practical choice validated by the convergence
        experiments (E3).
        """
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        n = max(self.mrf.n, 2)
        return max(1, int(np.ceil(constant * np.log(n / eps))))
