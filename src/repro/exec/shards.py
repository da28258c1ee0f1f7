"""Deterministic sharding of replica batches.

A *shard plan* partitions an ``(R, n)`` replica batch into contiguous
shards and derives one independent RNG stream per shard with
``numpy.random.SeedSequence.spawn``.  The plan is the determinism anchor
of the whole execution subsystem: a sharded run is a pure function of

* the model, method and initial configuration,
* the shard partition (``replicas`` and ``shard_size``), and
* the root :class:`~numpy.random.SeedSequence`,

and is therefore bit-identical no matter how many worker processes
execute the shards, or whether they run in-process at all.  Worker count
only changes *placement*; it never changes the partition or the streams.

The default partition targets :data:`DEFAULT_NUM_SHARDS` equal shards —
enough slack for pools of 1/2/4/8 workers to balance — and depends only on
``replicas``, never on the worker count, precisely so that the contract
above holds for the default configuration too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chains.base import SeedLike
from repro.chains.base import as_seed_sequence as _as_seed_sequence
from repro.errors import ModelError

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ShardSpec",
    "as_seed_sequence",
    "make_shard_plan",
]

#: Default number of shards a replica batch is split into (fewer when there
#: are fewer replicas than this).  A function of ``replicas`` alone — see
#: the module docstring for why it must not depend on the worker count.
DEFAULT_NUM_SHARDS = 8


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a replica batch: a replica slice plus its RNG stream.

    ``start``/``stop`` delimit the shard's rows of the full ``(R, n)``
    batch; ``seed`` is the shard's private :class:`numpy.random.SeedSequence`
    (child ``index`` of the plan's root).  Specs are picklable and
    cheap, so the pool ships them to workers as-is.
    """

    index: int
    start: int
    stop: int
    seed: np.random.SeedSequence

    @property
    def size(self) -> int:
        """Number of replicas in this shard."""
        return self.stop - self.start


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce a seed into the root :class:`numpy.random.SeedSequence`.

    ``None`` draws fresh OS entropy (the run is still internally
    deterministic: the plan is built once and its spawned children are
    shipped to the workers).  Generators are rejected: a live Generator is
    a stateful stream that cannot be split deterministically, so sharded
    execution requires the spawnable form.  The sharding-strict variant of
    the shared coercion helper :func:`repro.chains.base.as_seed_sequence`.
    """
    return _as_seed_sequence(seed, allow_generator=False)


def make_shard_plan(
    replicas: int,
    seed: int | np.random.SeedSequence | None = None,
    shard_size: int | None = None,
) -> list[ShardSpec]:
    """Partition ``replicas`` rows into shards with spawned seed streams.

    ``shard_size`` fixes the rows per shard (the last shard may be
    smaller); by default the batch is split into
    :data:`DEFAULT_NUM_SHARDS` near-equal shards.  Shard ``i`` receives
    child ``i`` of ``root.spawn(num_shards)`` — the per-shard stream
    contract documented in :mod:`repro.chains.ensemble`.
    """
    if replicas < 1:
        raise ModelError(f"shard plan needs replicas >= 1, got {replicas}")
    if shard_size is None:
        shard_size = math.ceil(replicas / min(replicas, DEFAULT_NUM_SHARDS))
    elif shard_size < 1:
        raise ModelError(f"shard_size must be >= 1, got {shard_size}")
    root = as_seed_sequence(seed)
    starts = list(range(0, replicas, int(shard_size)))
    children = root.spawn(len(starts))
    return [
        ShardSpec(
            index=i,
            start=start,
            stop=min(start + int(shard_size), replicas),
            seed=children[i],
        )
        for i, start in enumerate(starts)
    ]
