"""The paper's closed-form quantities and threshold constants.

Everything here is a direct transcription of a formula in the paper:

* Theorem 3.2's mixing bound for LubyGlauber (and the classic Dobrushin
  bound for sequential Glauber);
* the Section 4.2.1 ideal-coupling expected-disagreement bound, whose
  ``Delta -> infinity`` limit produces the ``2 + sqrt(2)`` threshold of
  Theorem 1.2;
* the Lemma 4.4 local-coupling contraction LHS (eq. (13)) with its
  ``alpha* ≈ 3.634`` threshold (the positive root of
  ``alpha = 2 e^{1/alpha} + 1``);
* the Lemma 4.5 global-coupling contraction LHS (eq. (26)).

Experiment E5 evaluates these functions across ``q / Delta`` and verifies the
sign changes at the claimed constants.
"""

from __future__ import annotations

import math

__all__ = [
    "dobrushin_mixing_bound",
    "luby_glauber_mixing_bound",
    "two_plus_sqrt2",
    "alpha_star",
    "ideal_coupling_expected_disagreement",
    "ideal_coupling_limit",
    "local_coupling_contraction",
    "local_coupling_limit",
    "global_coupling_contraction",
    "global_coupling_limit",
    "critical_ratio",
    "theorem_ratio_table",
]


def dobrushin_mixing_bound(n: int, alpha: float, eps: float) -> float:
    """Sequential Glauber bound ``(n / (1 - alpha)) * ln(n / eps)``.

    Paper Section 3.1: Dobrushin's condition ``alpha < 1`` gives mixing rate
    ``O(n/(1-alpha) * log(n/eps))`` for the single-site dynamics.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"Dobrushin bound needs alpha in [0, 1), got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return (n / (1.0 - alpha)) * math.log(n / eps)


def luby_glauber_mixing_bound(gamma: float, alpha: float, n: int, eps: float) -> float:
    """Theorem 3.2 bound ``T1 + T2`` with explicit constants.

    ``T1 = (1/gamma) ln(4n/eps)`` (absorption to feasibility) and
    ``T2 = (1/((1-alpha) gamma)) ln(2n/eps)`` (contraction), where ``gamma``
    lower-bounds the selection probability (``1/(Delta+1)`` for the Luby
    step).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    t1 = math.log(4.0 * n / eps) / gamma
    t2 = math.log(2.0 * n / eps) / ((1.0 - alpha) * gamma)
    return t1 + t2


def two_plus_sqrt2() -> float:
    """The Theorem 1.2 / 4.2 threshold constant ``2 + sqrt(2) ≈ 3.414``."""
    return 2.0 + math.sqrt(2.0)


def alpha_star() -> float:
    """The Lemma 4.4 threshold: positive root of ``alpha = 2 e^{1/alpha} + 1``.

    The paper reports ``alpha* ≈ 3.634``.
    """
    from scipy.optimize import brentq

    return float(brentq(lambda a: a - 2.0 * math.exp(1.0 / a) - 1.0, 3.0, 5.0, xtol=1e-12))


# ----------------------------------------------------------------------
# Section 4.2.1 — the ideal coupling on the Delta-regular tree
# ----------------------------------------------------------------------
def ideal_coupling_expected_disagreement(q: float, delta: float) -> float:
    """Expected number of disagreeing vertices for the ideal tree coupling.

    Paper Section 4.2.1:

        1 - (1 - Delta/q)(1 - 2/q)^Delta
          + Delta/(q - 2 Delta) * (1 - 2/q)^(Delta - 1)

    Path coupling needs this to be < 1; requires ``q > 2 Delta`` for the
    geometric series to converge.
    """
    if q <= 2.0 * delta:
        return math.inf
    root_term = (1.0 - delta / q) * (1.0 - 2.0 / q) ** delta
    tail_term = (delta / (q - 2.0 * delta)) * (1.0 - 2.0 / q) ** (delta - 1.0)
    return 1.0 - root_term + tail_term


def ideal_coupling_limit(ratio: float) -> float:
    """``Delta -> infinity`` limit of the ideal-coupling bound at ``q = ratio * Delta``.

    Paper: ``1 - e^{-2/alpha} (1 - 1/alpha - 1/(alpha - 2))``, which is < 1
    iff ``alpha > 2 + sqrt(2)``.
    """
    if ratio <= 2.0:
        return math.inf
    return 1.0 - math.exp(-2.0 / ratio) * (1.0 - 1.0 / ratio - 1.0 / (ratio - 2.0))


# ----------------------------------------------------------------------
# Lemma 4.4 — the local coupling (eq. (13))
# ----------------------------------------------------------------------
def local_coupling_contraction(q: float, delta: float) -> float:
    """LHS of inequality (13): positive value = contraction with rate >= value.

        (1 - Delta/q)(1 - 3/q)^Delta - (2 Delta / q)(1 - 2/q)^Delta
    """
    if q <= 3.0:
        return -math.inf
    return (1.0 - delta / q) * (1.0 - 3.0 / q) ** delta - (
        2.0 * delta / q
    ) * (1.0 - 2.0 / q) ** delta


def local_coupling_limit(ratio: float) -> float:
    """``Delta -> infinity`` limit of eq. (13) at ``q = ratio * Delta``.

    Paper: ``(1 - 1/alpha) e^{-3/alpha} - (2/alpha) e^{-2/alpha}``, zero at
    the positive root ``alpha*`` of ``alpha = 2 e^{1/alpha} + 1``.
    """
    return (1.0 - 1.0 / ratio) * math.exp(-3.0 / ratio) - (
        2.0 / ratio
    ) * math.exp(-2.0 / ratio)


# ----------------------------------------------------------------------
# Lemma 4.5 — the global coupling (eq. (26))
# ----------------------------------------------------------------------
def global_coupling_contraction(q: float, delta: float) -> float:
    """LHS of inequality (26): positive value = path-coupling contraction.

        (1 - Delta/q)(1 - 2/q)^Delta - Delta/(q - 2 Delta + 2) * (1 - 2/q)^(Delta-1)
    """
    if q <= 2.0 * delta - 2.0:
        return -math.inf
    return (1.0 - delta / q) * (1.0 - 2.0 / q) ** delta - (
        delta / (q - 2.0 * delta + 2.0)
    ) * (1.0 - 2.0 / q) ** (delta - 1.0)


def global_coupling_limit(ratio: float) -> float:
    """``Delta -> infinity`` limit of eq. (26) at ``q = ratio * Delta``.

    Paper: ``e^{-2/alpha} (1 - 1/alpha - 1/(alpha - 2))``, zero exactly at
    ``alpha = 2 + sqrt(2)``.
    """
    if ratio <= 2.0:
        return -math.inf
    return math.exp(-2.0 / ratio) * (1.0 - 1.0 / ratio - 1.0 / (ratio - 2.0))


def critical_ratio(limit_function, low: float, high: float) -> float:
    """Root of a ``Delta -> infinity`` limit function in ``(low, high)``.

    ``critical_ratio(global_coupling_limit, 2.5, 5)`` returns ``2 + sqrt 2``;
    ``critical_ratio(local_coupling_limit, 2.5, 5)`` returns ``alpha*``.
    """
    from scipy.optimize import brentq

    return float(brentq(limit_function, low, high, xtol=1e-12))


def theorem_ratio_table(ratios: list[float], delta: int) -> list[dict[str, float]]:
    """Evaluate all three contraction quantities across ``q = ratio * Delta``.

    Returns one row per ratio with the ideal / local / global quantities —
    the table experiment E5 prints.
    """
    rows = []
    for ratio in ratios:
        q = ratio * delta
        rows.append(
            {
                "ratio": ratio,
                "q": q,
                "ideal_expected_disagreement": ideal_coupling_expected_disagreement(q, delta),
                "local_contraction": local_coupling_contraction(q, delta),
                "global_contraction": global_coupling_contraction(q, delta),
            }
        )
    return rows
