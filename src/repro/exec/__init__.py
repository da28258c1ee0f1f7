"""Sharded multiprocess execution subsystem.

Three layers, each usable on its own:

* :mod:`repro.exec.shards` — deterministic shard plans: an ``(R, n)``
  replica batch is split into contiguous shards, each with its own
  ``numpy.random.SeedSequence.spawn`` stream, so a sharded run is
  bit-identical regardless of worker count;
* :mod:`repro.exec.pool` — :class:`ShardedEnsemble`: the shard plan
  executed in-process or on a persistent pool of worker processes, each
  replying with its shard rows over its own pipe, behind the standard
  ensemble protocol (``advance``/``run``/``config``/``iter_checkpoints``);
* :mod:`repro.exec.jobs` — :class:`JobRunner`: a scheduler that sends
  many heterogeneous sampling requests to the workers of a persistent
  pool, one running and at most one queued per worker, over one pipe per
  worker, and streams per-checkpoint results back on it.  A job is a
  :class:`~repro.spec.JobSpec`, the one request description.

The facade (:mod:`repro.api`) exposes the pool layer through the
``parallel=`` argument of ``make_ensemble`` / ``sample_many`` /
``tv_curve`` / ``mixing_time``, and the CLI through ``--jobs``.
"""

from repro.exec.jobs import JobRunner, JobUpdate
from repro.spec import JobSpec
from repro.exec.pool import ShardedEnsemble, default_start_method
from repro.exec.shards import (
    DEFAULT_NUM_SHARDS,
    ShardSpec,
    as_seed_sequence,
    make_shard_plan,
)

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "JobRunner",
    "JobSpec",
    "JobUpdate",
    "ShardSpec",
    "ShardedEnsemble",
    "as_seed_sequence",
    "default_start_method",
    "make_shard_plan",
]
