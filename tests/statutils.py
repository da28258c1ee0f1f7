"""Shared statistical-verification helpers for the test-suite.

Every engine-equivalence claim in this suite — "the batched ensemble is
distributionally identical to the sequential chain", "after burn-in the
cross-replica empirical distribution is the exact Gibbs measure" — is a
statistical statement, and each test file used to check it with its own
hand-tuned TV tolerance.  This module makes them real hypothesis tests
with explicit significance levels:

* :func:`assert_stationary` — goodness-of-fit of an ``(R, n)`` sample
  batch against an exact :class:`~repro.mrf.distribution.GibbsDistribution`
  (e.g. from :func:`repro.mrf.distribution.exact_gibbs_distribution` or
  :func:`repro.csp.model.exact_csp_gibbs_distribution`): a pooled-cell
  chi-square test plus an exact-TV check against a concentration bound.
* :func:`assert_same_distribution` — two-sample chi-square homogeneity
  test between two independent sample batches (the engine-equivalence
  primitive).
* :func:`empirical_tv_bound` — the TV concentration bound itself, also
  useful to derive tolerances for derived quantities (two empirical TV
  curves agree within the sum of their bounds).
* :func:`clamped` — an exact distribution conditioned on a configuration
  outside a region: the law a region-restricted advance must sample.

All tests are calibrated for *independent* rows (replica ensembles).  For
dependent rows — consecutive states of one sequential chain — pass
``effective_samples``: the chi-square test is skipped (the counts are not
multinomial) and the TV bound is computed at the effective sample size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np
from scipy import stats

from repro.mrf.distribution import GibbsDistribution

__all__ = [
    "DEFAULT_ALPHA",
    "as_batch",
    "config_counts",
    "empirical_tv_bound",
    "assert_stationary",
    "assert_same_distribution",
    "clamped",
]

#: Default significance level: the probability of a *correct* engine
#: failing any single assertion.  Kept small so the suite stays
#: deterministic-in-practice across seeds.
DEFAULT_ALPHA = 1e-3


def as_batch(samples: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Coerce a sample collection into an ``(R, n)`` int64 batch.

    Accepts the ``(R, n)`` arrays produced by the ensemble engines as well
    as the lists of configuration tuples the sequential-chain tests
    collect.
    """
    if isinstance(samples, np.ndarray):
        batch = samples
    else:
        batch = np.asarray(list(samples))
    batch = np.asarray(batch, dtype=np.int64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError(f"need a non-empty (R, n) batch, got shape {batch.shape}")
    return batch


def config_counts(samples, q: int) -> np.ndarray:
    """Raw configuration counts over ``[q]^n``, one bincount."""
    batch = as_batch(samples)
    n = batch.shape[1]
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.bincount(batch @ powers, minlength=q**n).astype(float)


def empirical_tv_bound(support_size: int, samples: int, alpha: float = DEFAULT_ALPHA) -> float:
    """High-probability bound on ``TV(empirical, true)`` for iid samples.

    ``E[TV] <= sqrt(support_size / (4 * samples))`` (Cauchy-Schwarz over the
    per-state binomial deviations), and TV is a ``1/samples``-bounded-
    difference function of the sample vector, so McDiarmid adds at most
    ``sqrt(log(1/alpha) / (2 * samples))`` with probability ``1 - alpha``.
    """
    if support_size < 1 or samples < 1:
        raise ValueError("support_size and samples must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    mean_term = math.sqrt(support_size / (4.0 * samples))
    deviation_term = math.sqrt(math.log(1.0 / alpha) / (2.0 * samples))
    return mean_term + deviation_term


def _pooled_cells(
    counts: np.ndarray, expected: np.ndarray, min_expected: float
) -> tuple[np.ndarray, np.ndarray]:
    """Merge cells with tiny expectations (Cochran's rule) into one cell.

    Returns ``(observed, expected)`` cell arrays whose expected entries are
    all ``>= min_expected`` wherever pooling can achieve it; the chi-square
    approximation is unreliable below that.
    """
    large = expected >= min_expected
    observed_cells = list(counts[large])
    expected_cells = list(expected[large])
    if np.any(~large):
        observed_cells.append(counts[~large].sum())
        expected_cells.append(expected[~large].sum())
    return np.asarray(observed_cells), np.asarray(expected_cells)


def assert_stationary(
    samples,
    exact: GibbsDistribution,
    *,
    alpha: float = DEFAULT_ALPHA,
    effective_samples: int | None = None,
    min_expected: float = 5.0,
) -> None:
    """Assert a sample batch is consistent with an exact distribution.

    For independent rows (the default) this runs two checks, each at level
    ``alpha``:

    1. no sample falls outside the exact support, and the pooled-cell
       chi-square statistic over the support is below its
       ``1 - alpha`` quantile;
    2. the empirical TV distance to ``exact`` is below
       :func:`empirical_tv_bound`.

    With ``effective_samples`` (dependent rows from one chain trajectory)
    only the support and TV checks run, with the bound evaluated at the
    effective sample size.
    """
    batch = as_batch(samples)
    replicas = batch.shape[0]
    counts = config_counts(batch, exact.q)
    support = exact.probs > 0.0
    support_size = int(support.sum())

    escaped = float(counts[~support].sum())
    assert escaped == 0.0, (
        f"{int(escaped)} of {replicas} samples lie outside the exact support "
        "— the chain left the feasible region or needs more burn-in"
    )

    if effective_samples is None:
        expected = exact.probs[support] * replicas
        observed, expected = _pooled_cells(counts[support], expected, min_expected)
        if observed.size > 1:
            statistic = float(((observed - expected) ** 2 / expected).sum())
            threshold = float(stats.chi2.ppf(1.0 - alpha, df=observed.size - 1))
            assert statistic < threshold, (
                f"chi-square statistic {statistic:.2f} >= {threshold:.2f} "
                f"(df={observed.size - 1}, alpha={alpha}): the batch is not "
                "consistent with the exact distribution"
            )

    empirical = GibbsDistribution(exact.n, exact.q, counts)
    tv = exact.tv_distance(empirical)
    bound = empirical_tv_bound(
        support_size, effective_samples or replicas, alpha
    )
    assert tv <= bound, (
        f"empirical TV {tv:.4f} exceeds the {1 - alpha:.4%}-confidence bound "
        f"{bound:.4f} at {effective_samples or replicas} samples over "
        f"{support_size} states"
    )


def assert_same_distribution(
    samples_a,
    samples_b,
    q: int,
    *,
    alpha: float = DEFAULT_ALPHA,
    min_expected: float = 5.0,
) -> None:
    """Two-sample chi-square test that two independent batches share a law.

    The engine-equivalence assertion: both batches are tallied over
    ``[q]^n``, cells are pooled so every expected count under the pooled
    (homogeneous) estimate is ``>= min_expected``, and the homogeneity
    statistic is compared against its ``1 - alpha`` chi-square quantile.
    """
    batch_a = as_batch(samples_a)
    batch_b = as_batch(samples_b)
    if batch_a.shape[1] != batch_b.shape[1]:
        raise ValueError(
            f"batches have different widths: {batch_a.shape} vs {batch_b.shape}"
        )
    counts_a = config_counts(batch_a, q)
    counts_b = config_counts(batch_b, q)
    r_a, r_b = batch_a.shape[0], batch_b.shape[0]
    pooled = (counts_a + counts_b) / (r_a + r_b)
    seen = pooled > 0.0
    # One pooling mask for both sides (cells must stay aligned): a cell is
    # kept when its expected count is large enough under the *smaller*
    # sample, pooled into a remainder cell otherwise.
    large = pooled[seen] * min(r_a, r_b) >= min_expected

    def cells(counts: np.ndarray, replicas: int) -> tuple[np.ndarray, np.ndarray]:
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
        return  # everything pooled into one cell: nothing to distinguish
    statistic = float(
        ((observed_a - expected_a) ** 2 / expected_a).sum()
        + ((observed_b - expected_b) ** 2 / expected_b).sum()
    )
    threshold = float(stats.chi2.ppf(1.0 - alpha, df=observed_a.size - 1))
    assert statistic < threshold, (
        f"two-sample chi-square statistic {statistic:.2f} >= {threshold:.2f} "
        f"(df={observed_a.size - 1}, alpha={alpha}): the batches do not share "
        "a distribution"
    )


def clamped(exact: GibbsDistribution, config, region) -> GibbsDistribution:
    """``exact`` conditioned on ``config`` outside ``region``."""
    n, q = exact.n, exact.q
    digits = np.arange(q**n)[:, None] // q ** np.arange(n - 1, -1, -1) % q
    outside = [v for v in range(n) if v not in region]
    keep = np.all(digits[:, outside] == np.asarray(config)[outside], axis=1)
    return GibbsDistribution(n, q, exact.probs * keep)
