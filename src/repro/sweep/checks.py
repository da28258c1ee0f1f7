"""Per-cell statistical checks for sweep results.

The library-side, *non-asserting* counterparts of the test-suite's
``tests/statutils.py`` verifiers: the same pooled-cell chi-square
goodness-of-fit (Cochran's rule) and two-sample homogeneity statistics,
but returning machine-readable verdict dicts instead of raising — a sweep
table records which cells look stationary / equivalent, it does not abort
on the first miss.

Checks only apply where an exact reference is computable: the model's
state space ``q**n`` must stay below :data:`MAX_CHECK_STATES`.  Cells
beyond it report ``{"applicable": False}`` rather than silently passing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.empirical import batch_config_counts

__all__ = [
    "DEFAULT_ALPHA",
    "MAX_CHECK_STATES",
    "empirical_tv_bound",
    "stationarity_check",
    "equivalence_check",
]

#: Significance level: the probability a *correct* cell fails a check.
DEFAULT_ALPHA = 1e-3

#: Exact references enumerate ``q**n`` states; beyond this cap the check
#: is reported as not applicable instead of attempted.
MAX_CHECK_STATES = 1 << 16


def empirical_tv_bound(support_size: int, samples: int, alpha: float = DEFAULT_ALPHA) -> float:
    """High-probability bound on ``TV(empirical, true)`` for iid samples.

    ``E[TV] <= sqrt(support_size / (4 samples))`` plus a McDiarmid
    deviation term ``sqrt(log(1/alpha) / (2 samples))`` (TV is a
    ``1/samples``-bounded-difference function of the sample vector).
    """
    mean_term = math.sqrt(support_size / (4.0 * samples))
    deviation_term = math.sqrt(math.log(1.0 / alpha) / (2.0 * samples))
    return mean_term + deviation_term


def _pooled_cells(counts, expected, min_expected):
    """Merge cells with tiny expectations (Cochran's rule) into one cell."""
    large = expected >= min_expected
    observed_cells = list(counts[large])
    expected_cells = list(expected[large])
    if np.any(~large):
        observed_cells.append(counts[~large].sum())
        expected_cells.append(expected[~large].sum())
    return np.asarray(observed_cells), np.asarray(expected_cells)


def _chi2_threshold(df: int, alpha: float) -> float:
    from scipy import stats

    return float(stats.chi2.ppf(1.0 - alpha, df=df))


def stationarity_check(
    batch,
    exact,
    alpha: float = DEFAULT_ALPHA,
    min_expected: float = 5.0,
) -> dict:
    """Goodness-of-fit verdict of an ``(R, n)`` batch vs an exact Gibbs law.

    Returns ``{"applicable": True, "passed": bool, "tv": float,
    "tv_bound": float, "chi2": float | None, "chi2_threshold": ...,
    "escaped": int}``.  A cell passes when no sample escapes the exact
    support, the pooled chi-square statistic stays under its ``1 - alpha``
    quantile, and the empirical TV stays under the concentration bound.
    A spin outside ``0..q-1`` raises :class:`~repro.errors.ModelError`.
    """
    counts = batch_config_counts(batch, exact.q, exact.n)
    replicas = len(batch)
    support = exact.probs > 0.0
    support_size = int(support.sum())
    escaped = int(counts[~support].sum())

    statistic = threshold = None
    chi2_ok = True
    expected = exact.probs[support] * replicas
    observed, expected = _pooled_cells(counts[support], expected, min_expected)
    if observed.size > 1:
        statistic = float(((observed - expected) ** 2 / expected).sum())
        threshold = _chi2_threshold(observed.size - 1, alpha)
        chi2_ok = statistic < threshold

    tv = exact.tv_distance(counts / replicas)
    tv_bound = empirical_tv_bound(support_size, replicas, alpha)
    return {
        "applicable": True,
        "passed": bool(escaped == 0 and chi2_ok and tv <= tv_bound),
        "escaped": escaped,
        "chi2": statistic,
        "chi2_threshold": threshold,
        "tv": tv,
        "tv_bound": tv_bound,
        "alpha": alpha,
    }


def equivalence_check(
    batch_a,
    batch_b,
    q: int,
    alpha: float = DEFAULT_ALPHA,
    min_expected: float = 5.0,
) -> dict:
    """Two-sample homogeneity verdict: do two batches share a distribution?

    The sweep runner applies this between cells that differ only in
    placement: an unsharded cell and a sharded one run different shard
    plans (different RNG streams), so bit-identity is off the table and
    distributional equality is the contract.
    """
    counts_a = batch_config_counts(batch_a, q)
    counts_b = batch_config_counts(batch_b, q)
    r_a, r_b = len(batch_a), len(batch_b)
    pooled = (counts_a + counts_b) / (r_a + r_b)
    seen = pooled > 0.0
    large = pooled[seen] * min(r_a, r_b) >= min_expected

    def cells(counts, replicas):
        kept = counts[seen]
        expected = pooled[seen] * replicas
        observed_cells = list(kept[large])
        expected_cells = list(expected[large])
        if np.any(~large):
            observed_cells.append(kept[~large].sum())
            expected_cells.append(expected[~large].sum())
        return np.asarray(observed_cells), np.asarray(expected_cells)

    observed_a, expected_a = cells(counts_a, r_a)
    observed_b, expected_b = cells(counts_b, r_b)
    if observed_a.size < 2:
        # Everything pooled into one cell: nothing to distinguish.
        return {"applicable": True, "passed": True, "chi2": 0.0,
                "chi2_threshold": None, "alpha": alpha}
    statistic = float(
        ((observed_a - expected_a) ** 2 / expected_a).sum()
        + ((observed_b - expected_b) ** 2 / expected_b).sum()
    )
    threshold = _chi2_threshold(observed_a.size - 1, alpha)
    return {
        "applicable": True,
        "passed": bool(statistic < threshold),
        "chi2": statistic,
        "chi2_threshold": threshold,
        "alpha": alpha,
    }
