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
* **one pipe per worker** — each worker talks to the parent over its own
  duplex pipe, whose worker end no other process holds.  Its reply to the
  build and to each ``advance`` carries its shard rows in the engines'
  spin dtype, written by their ``write_batch_into`` hook, and ``config``
  assembles the ``(R, n)`` int64 batch from the latest rows.  A worker's
  exit closes its end, so its death is end-of-file on the parent's end,
  read after any reply it sent;
* **barrier per command** — ``advance`` returns only when every worker has
  replied, so ``config`` always observes a consistent round and
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
from multiprocessing import util as mp_util

import numpy as np

from repro.chains.base import start_config
from repro.chains.ensemble import EnsembleTrajectoryMixin, _spin_dtype
from repro.errors import ExecError, ModelError
from repro.exec.shards import ShardSpec, make_shard_plan

__all__ = ["ShardedEnsemble", "default_start_method"]

#: Seconds to wait for a worker to exit once its pipe is closed.
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


def _start_worker(ctx, target, args):
    """Start a daemonic worker on its one duplex pipe; return ``(process, parent_end)``.

    The worker gets the pipe's second end as its last argument.  The
    parent closes its own copy of that end as soon as the process has
    started, before any later worker forks, so the worker holds the only
    copy: its exit, however it comes, is end-of-file on ``parent_end``.
    Every forked child closes its inherited copy of ``parent_end``, so
    under fork, as under spawn, only the parent holds it: a parent that
    closes it, or dies, is end-of-file to the worker.
    """
    parent_end, worker_end = ctx.Pipe()
    mp_util.register_after_fork(parent_end, mp_connection.Connection.close)
    with worker_end:
        process = ctx.Process(target=target, args=(*args, worker_end), daemon=True)
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
    return process, parent_end


def _stop_workers(workers, force: bool) -> None:
    """Stop ``(process, parent_end)`` workers by closing every pipe, then join them.

    A worker blocked writing to a closed pipe fails that write and exits.
    """
    for process, conn in workers:
        if force:
            process.terminate()
        conn.close()
    for process, _ in workers:
        process.join(timeout=_JOIN_TIMEOUT)
        if process.is_alive():  # pragma: no cover - stuck-worker safety net
            process.terminate()
            process.join(timeout=_JOIN_TIMEOUT)


def _worker_main(  # pragma: no cover - runs in worker processes, invisible to coverage
    model, method: str, shards: list[ShardSpec], initial_blocks, conn
) -> None:
    """Worker loop: build shard engines once, then advance by each step count received.

    Each reply is this worker's shard rows, one block per shard, or the
    traceback string of a failure.  End-of-file on ``conn`` (the parent
    closed its end, or is gone) stops the worker quietly.
    """
    try:
        engines = _build_shard_engines(model, method, shards, initial_blocks)
        dtype = _spin_dtype(model.q)

        def rows():
            return [
                engine.write_batch_into(np.empty((spec.size, model.n), dtype))
                for spec, engine in engines
            ]

        conn.send(rows())
        while True:
            steps = conn.recv()
            for _, engine in engines:
                engine.advance(steps)
            conn.send(rows())
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send(traceback.format_exc())
        except OSError:
            pass


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

    Use as a context manager (or call :meth:`close`) to release the worker
    processes and their pipes deterministically.
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
            self._pool = _ShardWorkerPool(model, method, self.shards, initial_blocks, self.workers)

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
        out = np.empty((self.replicas, self.n), dtype=np.int64)
        if self._pool is not None:
            for spec, rows in zip(self.shards, self._pool.rows):
                out[spec.start : spec.stop] = rows
        else:
            for spec, engine in self._engines:
                engine.write_batch_into(out[spec.start : spec.stop])
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and close their pipes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        self._engines = None

    def _ensure_open(self) -> None:
        # A pool force-closed by a worker failure counts as closed too, so
        # post-failure operations surface as ExecError rather than stray
        # OSErrors from the closed pipes.
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
    """Parent-side handle: the worker processes, their pipes and their latest shard rows."""

    def __init__(self, model, method: str, shards: list[ShardSpec], initial_blocks, workers: int):
        ctx = mp.get_context(default_start_method())
        self._shards = [shards[worker_id::workers] for worker_id in range(workers)]
        #: Each shard's rows, in plan order, from its worker's latest reply.
        self.rows: list[np.ndarray | None] = [None] * len(shards)
        self._workers: list[tuple[mp.Process, mp_connection.Connection]] = []
        self.closed = False
        try:
            for worker_id in range(workers):
                args = (model, method, self._shards[worker_id], initial_blocks[worker_id::workers])
                self._workers.append(_start_worker(ctx, _worker_main, args))
            self._await_all()
        except BaseException:
            self.close(force=True)
            raise

    def advance(self, steps: int) -> None:
        for _, conn in self._workers:
            try:
                conn.send(steps)
            except BrokenPipeError:  # a dead worker: the barrier names it
                pass
        self._await_all()

    def _await_all(self) -> None:
        """Barrier: one reply per worker; a pending worker's death fails it at once.

        A worker's replies and its end-of-file arrive on one pipe, in
        order, so a worker that sent its traceback fails with it.
        """
        pending = {conn: worker_id for worker_id, (_, conn) in enumerate(self._workers)}
        while pending:
            for conn in mp_connection.wait(list(pending)):
                worker_id = pending.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):  # its exit closed the pipe
                    reply = None
                if reply is None:
                    process = self._workers[worker_id][0]
                    process.join()
                    self._fail(
                        f"worker {worker_id} died without replying "
                        f"(exit code {process.exitcode})"
                    )
                if isinstance(reply, str):
                    self._fail(f"worker {worker_id} failed:\n{reply}")
                for spec, rows in zip(self._shards[worker_id], reply):
                    self.rows[spec.index] = rows

    def _fail(self, message: str) -> None:
        self.close(force=True)
        raise ExecError(message)

    def close(self, force: bool = False) -> None:
        """Stop the workers (idempotent); ``force`` terminates them first."""
        if self.closed:
            return
        self.closed = True
        _stop_workers(self._workers, force)
