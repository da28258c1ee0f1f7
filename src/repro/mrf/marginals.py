"""Conditional marginals (paper eq. (2)) and well-definedness conditions.

The single-site heat-bath update resamples vertex ``v`` from

    mu_v(c | X_Gamma(v))  proportional to  b_v(c) * prod_{u in Gamma(v)} A_uv(c, X_u)

which depends only on the current spins of ``v``'s neighbours — the locality
that makes distributed Glauber updates possible.  The paper's two chains need
two successively stronger well-definedness assumptions when started from
infeasible configurations:

* *Glauber condition*: the normaliser of eq. (2) is positive for every
  configuration and vertex (paper Section 3 footnote);
* *LocalMetropolis condition*: paper eq. (6), which additionally requires a
  jointly acceptable (spin, neighbour-proposal) combination to exist.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import StateSpaceTooLargeError
from repro.mrf.model import MRF

__all__ = [
    "conditional_marginal",
    "conditional_marginal_unnormalized",
    "satisfies_glauber_condition",
    "satisfies_local_metropolis_condition",
]


def conditional_marginal_unnormalized(
    mrf: MRF, config: Sequence[int], v: int
) -> np.ndarray:
    """Return the unnormalised vector ``b_v(c) * prod_u A_uv(c, X_u)`` over ``c``.

    This is the numerator of paper eq. (2); callers that only need ratios
    (e.g. the exact transition-matrix builder) can skip normalisation.
    """
    weights = mrf.vertex_activity[v].copy()
    for u in mrf.neighbors(v):
        weights *= mrf.edge_activity(u, v)[:, config[u]]
    return weights


def conditional_marginal(mrf: MRF, config: Sequence[int], v: int) -> np.ndarray:
    """Return ``mu_v(. | X_Gamma(v))`` — the heat-bath update distribution.

    Raises
    ------
    InfeasibleStateError
        If every spin has zero conditional weight, i.e. the Glauber
        well-definedness assumption fails at ``(config, v)``.
    """
    weights = conditional_marginal_unnormalized(mrf, config, v)
    total = weights.sum()
    if total <= 0.0:
        raise mrf.compiled().undefined_marginal(v)
    return weights / total


def satisfies_glauber_condition(mrf: MRF, max_states: int = 2_000_000) -> bool:
    """Check the Glauber well-definedness assumption exhaustively.

    Returns True iff for *every* configuration ``X in [q]^V`` and every vertex
    ``v`` the normaliser of eq. (2) is positive.  The check enumerates the
    neighbourhood spin patterns of each vertex (``q**deg(v)`` cases), not the
    full configuration space, so it is exact yet cheap on bounded-degree
    graphs.
    """
    for v in range(mrf.n):
        neighbors = mrf.neighbors(v)
        if mrf.q ** len(neighbors) > max_states:
            raise StateSpaceTooLargeError(
                f"vertex {v} has degree {len(neighbors)}: "
                f"{mrf.q}**{len(neighbors)} neighbourhood patterns exceed {max_states}"
            )
        matrices = [mrf.edge_activity(u, v) for u in neighbors]
        for pattern in np.ndindex(*([mrf.q] * len(neighbors))):
            weights = mrf.vertex_activity[v].copy()
            for matrix, spin in zip(matrices, pattern):
                weights *= matrix[:, spin]
            if weights.sum() <= 0.0:
                return False
    return True


def satisfies_local_metropolis_condition(mrf: MRF, max_states: int = 2_000_000) -> bool:
    """Check paper condition (6) exhaustively over neighbourhood patterns.

    Condition (6) asks that for all ``X in [q]^V`` and ``v in V``:

        sum_i b_v(i) * prod_{u in Gamma(v)} [ A_uv(i, X_u) *
            sum_j b_u(j) * A_uv(X_v, j) * A_uv(i, j) ]  >  0.

    Equivalently, from any (possibly infeasible) configuration there is a
    positive-probability way for ``v`` to accept some proposal ``i`` while
    each neighbour ``u`` proposes some ``j`` compatible with both ``i`` and
    the current spins.  The quantity only depends on ``X_v`` and
    ``(X_u)_{u in Gamma(v)}``, so we enumerate those patterns.
    """
    for v in range(mrf.n):
        neighbors = mrf.neighbors(v)
        if mrf.q ** (len(neighbors) + 1) > max_states:
            raise StateSpaceTooLargeError(
                f"vertex {v} has degree {len(neighbors)}: enumerating "
                f"{mrf.q}**{len(neighbors) + 1} patterns exceeds {max_states}"
            )
        matrices = [mrf.edge_activity(u, v) for u in neighbors]
        for xv in range(mrf.q):
            for pattern in np.ndindex(*([mrf.q] * len(neighbors))):
                total = 0.0
                for i in range(mrf.q):
                    term = mrf.vertex_activity[v, i]
                    for u, matrix, xu in zip(neighbors, matrices, pattern):
                        inner = float(
                            np.sum(
                                mrf.vertex_activity[u]
                                * matrix[xv, :]
                                * matrix[i, :]
                            )
                        )
                        term *= matrix[i, xu] * inner
                        if term == 0.0:
                            break
                    total += term
                if total <= 0.0:
                    return False
    return True
