"""Persistent multiprocess worker pool for sharded replica ensembles.

One :class:`ShardedEnsemble` owns a shard plan (:mod:`repro.exec.shards`)
and executes it either in-process (``workers=0``, the bit-identical
reference) or on a pool of persistent OS processes.  The pool is built for
the access pattern of the convergence pipeline — few large ``advance``
commands, a state read at each checkpoint — and keeps the per-round cost
on the workers:

* **construct once** — each worker receives its shards (model, method,
  :class:`~repro.exec.shards.ShardSpec` list, initial block) a single time
  at startup and builds the shard engines there, so model tables and CSR
  structures are pickled once per worker, never per command;
* **shared-memory state** — the public ``(R, n)`` int64 batch lives in one
  ``multiprocessing.shared_memory`` block; after every ``advance`` command
  a worker publishes its shard rows with the engines'
  ``write_batch_into`` hook, and the parent reads checkpoints without any
  pickling of state;
* **barrier per command** — ``advance`` returns only when every worker has
  acknowledged, so ``config`` always observes a consistent round and
  ``run`` / ``iter_checkpoints`` / the whole convergence pipeline work on
  a :class:`ShardedEnsemble` unchanged via
  :class:`~repro.chains.ensemble.EnsembleTrajectoryMixin`.

Because the shard plan (partition + spawned ``SeedSequence`` streams) is
fixed before any worker exists, the trajectory is bit-identical for any
worker count, including ``workers=0``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from repro.chains.base import start_config
from repro.chains.ensemble import EnsembleTrajectoryMixin
from repro.errors import ExecError, ModelError
from repro.exec.shards import ShardSpec, make_shard_plan

__all__ = ["ShardedEnsemble", "default_start_method"]

#: Seconds to wait for a worker to exit after a stop command.
_JOIN_TIMEOUT = 10.0


def default_start_method() -> str:
    """The multiprocessing start method of the shard pool and the job runner.

    ``REPRO_EXEC_START_METHOD`` overrides; otherwise ``fork`` where the
    platform offers it (cheap startup, no re-import) and ``spawn``
    elsewhere.  Workers rebuild all state from their pickled arguments
    either way, so the two methods produce identical trajectories.
    """
    override = os.environ.get("REPRO_EXEC_START_METHOD")
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _shard_initial_blocks(shards, start):
    """Per-shard start blocks aligned with ``shards``.

    A per-replica ``(R, n)`` batch is sliced to each shard's rows (so a
    worker is only ever shipped its own shards' rows, not the full batch);
    a shared length-n start is repeated as-is.
    """
    if start.ndim == 2:
        return [start[spec.start : spec.stop] for spec in shards]
    return [start] * len(shards)


def _build_shard_engines(model, method, shards, initial_blocks):
    """Construct one ensemble engine per shard, seeded by the shard's stream.

    Shared verbatim between in-process execution and the worker processes —
    the construction path *is* the determinism contract, so there must be
    exactly one of it.
    """
    from repro.api import make_ensemble

    return [
        (spec, make_ensemble(model, spec.size, method=method, seed=spec.seed, initial=block))
        for spec, block in zip(shards, initial_blocks)
    ]


def _parent_tracker_pid() -> int | None:
    """PID of this (parent) process's resource tracker, if one is running."""
    try:
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._pid
    except Exception:  # pragma: no cover - stdlib internals moved
        return None


def _untrack(  # pragma: no cover - worker-side
    shm: shared_memory.SharedMemory, parent_tracker_pid: int | None
) -> None:
    """Unregister an *attached* segment from a worker-private resource tracker.

    On POSIX Pythons before 3.13 merely attaching registers the segment
    with the resource tracker.  When the worker shares the parent's
    tracker — fork inherits the whole tracker state, spawn passes the
    tracker fd in the preparation data — that registration is an
    idempotent set-add and the parent's ``unlink`` is the single
    deregistration; unregistering here too would make the shared
    tracker's cleanup raise.  Only a worker that genuinely started its
    *own* tracker (no inherited fd, so ``_pid`` is a fresh pid different
    from the parent's tracker) must unregister, lest its private tracker
    "clean up" the parent's still-live block at worker exit.
    """
    try:
        from multiprocessing import resource_tracker

        pid = resource_tracker._resource_tracker._pid
        if pid is None or pid == parent_tracker_pid:
            return  # shared with the parent; its unlink is the one deregistration
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _worker_main(  # pragma: no cover - runs in worker processes, invisible to coverage
    worker_id: int,
    model,
    method: str,
    shards: list[ShardSpec],
    initial_blocks,
    shm_name: str,
    shape: tuple[int, int],
    parent_tracker_pid: int | None,
    commands,
    replies,
) -> None:
    """Worker loop: build shard engines once, then advance by each step count until None."""
    shm = None
    batch = None
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
        _untrack(shm, parent_tracker_pid)
        batch = np.ndarray(shape, dtype=np.int64, buffer=shm.buf)
        engines = _build_shard_engines(model, method, shards, initial_blocks)
        for spec, engine in engines:
            engine.write_batch_into(batch[spec.start : spec.stop])
        replies.put((worker_id, "ready", None))
        while (steps := commands.get()) is not None:
            for spec, engine in engines:
                engine.advance(steps)
                engine.write_batch_into(batch[spec.start : spec.stop])
            replies.put((worker_id, "done", None))
    except BaseException:
        try:
            replies.put((worker_id, "error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        batch = None  # noqa: F841 — release the buffer view before closing the mmap
        if shm is not None:
            shm.close()


class ShardedEnsemble(EnsembleTrajectoryMixin):
    """An ``(R, n)`` replica ensemble executed shard-by-shard, optionally pooled.

    Implements the full ensemble protocol (``advance`` / ``run`` /
    ``config`` / ``iter_checkpoints`` / ``write_batch_into``), so the
    convergence pipeline (``tv_curve`` / ``mixing_time`` / agreement
    curves) consumes it exactly like a single-process engine.

    Parameters
    ----------
    model:
        A pairwise MRF or weighted local CSP (anything
        :func:`repro.api.make_ensemble` dispatches on).
    replicas:
        Total replica count R across all shards.
    method:
        ``"local-metropolis"``, ``"luby-glauber"`` or ``"glauber"``.
    seed:
        Int or :class:`numpy.random.SeedSequence` root of the shard
        streams (``None`` draws OS entropy).  Live Generators are rejected
        — see :func:`repro.exec.shards.as_seed_sequence`.
    initial:
        ``None``, a shared length-n start, or an ``(R, n)`` per-replica
        batch (shard ``s`` starts from its row slice).  ``None`` is the
        model's greedy start (:func:`repro.chains.base.start_config`),
        computed once here, so every shard starts where an unsharded run
        does.
    workers:
        ``0`` / ``None`` executes the shards serially in-process — the
        reference every pooled run is bit-identical to; ``k >= 1`` runs a
        persistent pool of ``min(k, num_shards)`` worker processes,
        started by :func:`default_start_method`.
    shard_size:
        Replicas per shard (default: split into
        :data:`repro.exec.shards.DEFAULT_NUM_SHARDS` near-equal shards).
        Part of the determinism contract — two runs shard-compatible only
        if their partitions match.

    Use as a context manager (or call :meth:`close`) to release worker
    processes and the shared-memory block deterministically.
    """

    def __init__(
        self,
        model,
        replicas: int,
        method: str = "local-metropolis",
        seed: int | np.random.SeedSequence | None = None,
        initial=None,
        workers: int | None = None,
        shard_size: int | None = None,
    ) -> None:
        self.model = model
        self.method = method
        self.n = int(model.n)
        self.replicas = int(replicas)
        self.shards = make_shard_plan(replicas, seed=seed, shard_size=shard_size)
        start = start_config(model, initial, self.replicas)
        if workers is None:
            workers = 0
        if workers < 0:
            raise ModelError(f"workers must be >= 0, got {workers}")
        self.workers = min(int(workers), len(self.shards))
        self.steps_taken = 0
        self._closed = False
        self._engines = None
        self._pool = None
        initial_blocks = _shard_initial_blocks(self.shards, start)
        if self.workers == 0:
            self._engines = _build_shard_engines(model, method, self.shards, initial_blocks)
        else:
            self._pool = _ShardWorkerPool(
                model,
                method,
                self.shards,
                initial_blocks,
                self.replicas,
                self.n,
                self.workers,
            )

    # ------------------------------------------------------------------
    # ensemble protocol
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards in the plan (independent of worker count)."""
        return len(self.shards)

    def advance(self, steps: int):
        """Advance every shard ``steps`` rounds (one barrier); return ``self``."""
        if int(steps) != steps or steps < 0:
            raise ModelError(f"advance needs steps >= 0, got {steps}")
        self._ensure_open()
        steps = int(steps)
        if self._pool is not None:
            self._pool.advance(steps)
        else:
            for _, engine in self._engines:
                engine.advance(steps)
        self.steps_taken += steps
        return self

    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 copy — safe to mutate)."""
        self._ensure_open()
        if self._pool is not None:
            return self._pool.read_batch()
        out = np.empty((self.replicas, self.n), dtype=np.int64)
        for spec, engine in self._engines:
            engine.write_batch_into(out[spec.start : spec.stop])
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release the shared-memory block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        self._engines = None

    def _ensure_open(self) -> None:
        # A pool force-closed by a worker failure counts as closed too, so
        # post-failure operations surface as ExecError rather than stray
        # ValueErrors from the torn-down queues.
        if self._closed or (self._pool is not None and self._pool.closed):
            raise ExecError("this ShardedEnsemble has been closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        mode = f"workers={self.workers}" if self.workers else "in-process"
        return (
            f"ShardedEnsemble(replicas={self.replicas}, n={self.n}, "
            f"method={self.method!r}, shards={self.num_shards}, {mode})"
        )


class _ShardWorkerPool:
    """Parent-side handle: processes, command queues, the shared state block."""

    def __init__(
        self,
        model,
        method: str,
        shards: list[ShardSpec],
        initial_blocks,
        replicas: int,
        n: int,
        workers: int,
    ) -> None:
        self._ctx = mp.get_context(default_start_method())
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(replicas * n * 8, 8)
        )
        self._batch = np.ndarray((replicas, n), dtype=np.int64, buffer=self._shm.buf)
        self._replies = self._ctx.Queue()
        self._workers: list[tuple[mp.Process, object]] = []
        self._closed = False
        tracker_pid = _parent_tracker_pid()
        try:
            for worker_id in range(workers):
                commands = self._ctx.Queue()
                process = self._ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        model,
                        method,
                        shards[worker_id::workers],
                        initial_blocks[worker_id::workers],
                        self._shm.name,
                        (replicas, n),
                        tracker_pid,
                        commands,
                        self._replies,
                    ),
                    daemon=True,
                )
                process.start()
                self._workers.append((process, commands))
            self._await_all("ready")
        except BaseException:
            self.close(force=True)
            raise

    def advance(self, steps: int) -> None:
        for _, commands in self._workers:
            commands.put(steps)
        self._await_all("done")

    def read_batch(self) -> np.ndarray:
        return np.array(self._batch)

    def _await_all(self, expected: str) -> None:
        """Barrier: one reply per worker; a pending worker's death fails it at once.

        Waits on the reply queue and the pending workers' process sentinels,
        reading replies first: a worker that sent its traceback fails with it.
        """
        pending = set(range(len(self._workers)))
        reader = self._replies._reader
        while pending:
            sentinels = {self._workers[i][0].sentinel: i for i in pending}
            ready = mp_connection.wait([reader, *sentinels])
            if reader not in ready and not reader.poll():
                worker_id = sentinels[ready[0]]
                process = self._workers[worker_id][0]
                process.join()
                self._fail(
                    f"worker {worker_id} died without replying "
                    f"(exit code {process.exitcode})"
                )
            worker_id, status, payload = self._replies.get()
            if status == "error":
                self._fail(f"worker {worker_id} failed:\n{payload}")
            if status != expected:
                self._fail(
                    f"worker {worker_id} replied {status!r} while waiting "
                    f"for {expected!r}"
                )
            pending.discard(worker_id)

    def _fail(self, message: str) -> None:
        self.close(force=True)
        raise ExecError(message)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, force: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        for process, commands in self._workers:
            if force:
                process.terminate()
            else:
                try:
                    commands.put(None)
                except Exception:
                    pass
        for process, _ in self._workers:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck-worker safety net
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        for _, commands in self._workers:
            commands.close()
        self._replies.close()
        # Release the ndarray view before closing the mmap, else BufferError.
        self._batch = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
