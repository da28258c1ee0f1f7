"""Empirical distributions built from chain samples.

Two families of estimators live here:

* the original per-sample estimators (``empirical_distribution`` and
  ``marginal_from_samples``) that iterate over Python sequences of
  configurations, and
* their *ensemble-native* counterparts (``batch_*``) that consume the
  ``(R, n)`` batches produced by :mod:`repro.chains.ensemble` and
  :func:`repro.api.sample_many` with whole-array numpy operations — no
  Python-level per-replica loop, so estimating over thousands of replicas
  costs microseconds, not milliseconds.

Every joint estimator counts through :func:`batch_config_counts`: one
range check, one product with the row-major powers of ``q`` and one
``bincount``.  :func:`batch_tv_to_exact`, the per-round probe of every
mixing-time job, compares those counts with the exact probabilities
directly, ``0.5 * |exact.probs - counts / R|.sum()``.  It builds no
:class:`~repro.mrf.distribution.GibbsDistribution`, whose validation and
renormalisation cost as much as the count, and returns the same float as
the distance to the empirical distribution.  The sweep's checks
(:mod:`repro.sweep.checks`) count through the same helper.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ModelError
from repro.mrf.distribution import GibbsDistribution, config_index

__all__ = [
    "empirical_distribution",
    "marginal_from_samples",
    "batch_config_counts",
    "batch_empirical_distribution",
    "batch_marginals",
    "batch_tv_to_exact",
    "batch_max_marginal_error",
    "batch_agreement",
]


def empirical_distribution(
    samples: Iterable[Sequence[int]], n: int, q: int
) -> GibbsDistribution:
    """Build the empirical distribution over ``[q]^n`` from samples.

    Only sensible when ``q**n`` is small enough to materialise; intended for
    the exact-versus-empirical TV convergence experiments.
    """
    probs = np.zeros(q**n)
    count = 0
    for sample in samples:
        probs[config_index(sample, q)] += 1.0
        count += 1
    if count == 0:
        raise ModelError("empirical_distribution needs at least one sample")
    return GibbsDistribution(n, q, probs)


def marginal_from_samples(
    samples: Iterable[Sequence[int]], v: int, q: int
) -> np.ndarray:
    """Return the empirical marginal of vertex ``v`` as a length-q vector."""
    counts = np.zeros(q)
    total = 0
    for sample in samples:
        counts[int(sample[v])] += 1.0
        total += 1
    if total == 0:
        raise ModelError("marginal_from_samples needs at least one sample")
    return counts / total


# ----------------------------------------------------------------------
# ensemble-native estimators over (R, n) batches
# ----------------------------------------------------------------------
def _check_batch(batch: np.ndarray, q: int, n: int | None = None) -> np.ndarray:
    """Validate an ``(R, n)`` batch of spins in ``0..q-1``; return it as int64.

    ``n``, when given, is the vertex count the batch must have.  An integer
    batch is range-checked by one comparison on its unsigned view, where a
    negative spin reads as a huge one.
    """
    batch = np.asarray(batch)
    if batch.ndim != 2:
        raise ModelError(f"batch must be a 2-D (R, n) array, got shape {batch.shape}")
    if batch.shape[0] == 0:
        raise ModelError("batch estimators need at least one replica")
    if n is not None and batch.shape[1] != n:
        raise ModelError(
            f"batch has {batch.shape[1]} vertices but the distribution has {n}"
        )
    if batch.dtype.kind in "iu":
        unsigned = batch.view(np.dtype(f"u{batch.dtype.itemsize}"))
        out_of_range = unsigned.max(initial=0) >= q
    else:
        out_of_range = np.any(batch < 0) or np.any(batch >= q)
    if out_of_range:
        raise ModelError(f"batch spins must lie in 0..{q - 1}")
    return batch.astype(np.int64, copy=False)


def batch_config_counts(batch: np.ndarray, q: int, n: int | None = None) -> np.ndarray:
    """Count the replicas of an ``(R, n)`` batch in each configuration of ``[q]^n``.

    Returns a length-``q**n`` int64 vector indexed as
    :func:`~repro.mrf.distribution.config_index`: one product with the
    row-major powers of ``q`` ranks all replicas, one bincount tallies
    them.  Raises :class:`~repro.errors.ModelError` for a spin outside
    ``0..q-1`` (or, with ``n`` given, a batch of another width).  Only
    sensible when ``q**n`` is small enough to materialise.
    """
    batch = _check_batch(batch, q, n)
    width = batch.shape[1]
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.bincount(powers @ batch.T, minlength=q**width)


def batch_empirical_distribution(batch: np.ndarray, q: int) -> GibbsDistribution:
    """Build the empirical distribution over ``[q]^n`` from an ``(R, n)`` batch.

    Vectorised counterpart of :func:`empirical_distribution`, normalising
    :func:`batch_config_counts`.  Only sensible when ``q**n`` is small
    enough to materialise.
    """
    counts = batch_config_counts(batch, q)
    return GibbsDistribution(np.shape(batch)[1], q, counts.astype(float))


def batch_marginals(batch: np.ndarray, q: int) -> np.ndarray:
    """Return all per-vertex empirical marginals of a batch as an ``(n, q)`` array.

    ``result[v]`` is the length-q marginal of vertex ``v`` across replicas
    (each row sums to 1); computed with a single flat bincount.
    """
    batch = _check_batch(batch, q)
    replicas, n = batch.shape
    offsets = np.arange(n, dtype=np.int64) * q
    counts = np.bincount((batch + offsets).ravel(), minlength=n * q)
    return counts.reshape(n, q) / replicas


def batch_tv_to_exact(batch: np.ndarray, exact: GibbsDistribution) -> float:
    """Total-variation distance between a batch's empirical distribution and
    an exact one (paper Section 2.3) — the workhorse of the E2-style
    convergence experiments, one call per recorded round.

    Compares the counts with ``exact.probs`` directly; the result equals
    ``exact.tv_distance(batch_empirical_distribution(batch, exact.q))``
    under ``==``.
    """
    counts = batch_config_counts(batch, exact.q, exact.n)
    return exact.tv_distance(counts / len(batch))


def batch_max_marginal_error(batch: np.ndarray, exact: GibbsDistribution) -> float:
    """Worst per-vertex marginal TV error of a batch against ``exact``.

    Unlike :func:`batch_tv_to_exact` this stays meaningful when ``q**n`` is
    too large to enumerate a joint empirical distribution reliably.
    """
    batch = _check_batch(batch, exact.q, exact.n)
    empirical = batch_marginals(batch, exact.q)
    exact_marginals = np.stack([exact.marginal(v) for v in range(exact.n)])
    return float(0.5 * np.abs(empirical - exact_marginals).sum(axis=1).max())


def batch_agreement(batch_x: np.ndarray, batch_y: np.ndarray) -> np.ndarray:
    """Per-vertex agreement frequencies between two aligned batches.

    ``result[v]`` is the fraction of replicas whose two copies assign the
    same spin to vertex ``v``.  Recording ``batch_agreement(...).mean()``
    round-by-round for two coupled ensembles gives the paper's coalescence
    / agreement curves without any per-replica loop.
    """
    x = np.asarray(batch_x)
    y = np.asarray(batch_y)
    if x.ndim != 2 or x.shape != y.shape:
        raise ModelError(
            f"batch_agreement needs two equal-shape (R, n) batches, "
            f"got {x.shape} and {y.shape}"
        )
    if x.shape[0] == 0:
        raise ModelError("batch estimators need at least one replica")
    return (x == y).mean(axis=0)
