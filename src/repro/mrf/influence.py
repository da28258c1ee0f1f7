"""Influence matrices and Dobrushin's condition (paper Definitions 3.1, 3.2).

The influence of vertex ``j`` on vertex ``i`` is

    rho_{i,j} = max over feasible (sigma, tau) agreeing off j of
                dTV( mu_i(. | sigma_Gamma(i)),  mu_i(. | tau_Gamma(i)) )

and Dobrushin's condition asks that the total influence
``alpha = max_i sum_j rho_{i,j}`` be strictly below 1, which by Theorem 3.2
gives the LubyGlauber chain mixing rate O(Delta / (1 - alpha) * log(n / eps)).

For (list) colourings the paper's Section 3.2 gives the closed form
``alpha = max_v  d_v / (q_v - d_v)``; :func:`coloring_total_influence`
computes it and the exact :func:`influence_matrix` lets tests confirm the
closed form is an upper bound realised on cliques.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import InfeasibleStateError, StateSpaceTooLargeError
from repro.mrf.marginals import conditional_marginal
from repro.mrf.model import MRF

__all__ = ["influence_matrix", "dobrushin_alpha", "coloring_total_influence"]


def influence_matrix(mrf: MRF, max_states: int = 500_000) -> np.ndarray:
    """Return the exact ``n x n`` influence matrix ``R = (rho_{i,j})``.

    ``rho_{i,j}`` maximises the TV distance between the conditional marginals
    of ``i`` over pairs of *feasible* configurations differing only at ``j``.
    Since the marginal of ``i`` depends only on ``Gamma(i)``, we restrict the
    maximisation to feasible patterns on ``Gamma(i) ∪ {j}``; the pattern
    feasibility scan enumerates the full space once.

    Complexity is dominated by the feasibility scan (``q**n``) so the usual
    ``max_states`` guard applies.
    """
    if mrf.q ** mrf.n > max_states:
        raise StateSpaceTooLargeError(
            f"influence_matrix enumerates {mrf.q}**{mrf.n} configurations"
        )
    # Precompute feasible full configurations once.
    feasible_configs = [
        config
        for config in itertools.product(range(mrf.q), repeat=mrf.n)
        if mrf.is_feasible(config)
    ]
    feasible_set = {tuple(config) for config in feasible_configs}
    # The conditional marginal of i depends only on the spins of Gamma(i);
    # cache it per neighbourhood pattern to avoid recomputation across the
    # (many) full configurations sharing a pattern.
    marginal_cache: dict[tuple[int, tuple[int, ...]], np.ndarray | None] = {}

    def cached_marginal(i: int, config) -> np.ndarray | None:
        key = (i, tuple(config[u] for u in mrf.neighbors(i)))
        if key not in marginal_cache:
            try:
                marginal_cache[key] = conditional_marginal(mrf, config, i)
            except InfeasibleStateError:
                marginal_cache[key] = None
        return marginal_cache[key]

    rho = np.zeros((mrf.n, mrf.n))
    for i in range(mrf.n):
        neighbors = mrf.neighbors(i)
        for j in range(mrf.n):
            if j == i or j not in neighbors:
                # Non-neighbours (and i itself) have zero influence on i.
                continue
            best = 0.0
            for sigma in feasible_configs:
                mu_sigma = cached_marginal(i, sigma)
                if mu_sigma is None:
                    continue
                tau = list(sigma)
                for new_spin in range(mrf.q):
                    if new_spin == sigma[j]:
                        continue
                    tau[j] = new_spin
                    if tuple(tau) not in feasible_set:
                        continue
                    mu_tau = cached_marginal(i, tau)
                    if mu_tau is None:
                        continue
                    tv = 0.5 * float(np.abs(mu_sigma - mu_tau).sum())
                    if tv > best:
                        best = tv
                tau[j] = sigma[j]
            rho[i, j] = best
    return rho


def dobrushin_alpha(mrf: MRF, max_states: int = 500_000) -> float:
    """Return the total influence ``alpha = max_i sum_j rho_{i,j}``.

    Dobrushin's condition holds iff the returned value is < 1.
    """
    rho = influence_matrix(mrf, max_states=max_states)
    if mrf.n == 0:
        return 0.0
    return float(rho.sum(axis=1).max())


def coloring_total_influence(degrees: np.ndarray | list[int], list_sizes: np.ndarray | list[int]) -> float:
    """Closed-form total influence for list colourings (paper Section 3.2).

    ``alpha = max_v  d_v / (q_v - d_v)`` where ``d_v`` is the degree and
    ``q_v = |L_v|`` the list size of vertex ``v``.  Requires ``q_v > d_v``
    for every vertex (the uniqueness condition making marginals well defined).
    """
    degrees = np.asarray(degrees, dtype=float)
    list_sizes = np.asarray(list_sizes, dtype=float)
    if degrees.shape != list_sizes.shape:
        raise ValueError("degrees and list_sizes must have matching shapes")
    gaps = list_sizes - degrees
    if np.any(gaps <= 0):
        raise InfeasibleStateError(
            "coloring_total_influence needs q_v > d_v for every vertex"
        )
    if degrees.size == 0:
        return 0.0
    return float((degrees / gaps).max())
