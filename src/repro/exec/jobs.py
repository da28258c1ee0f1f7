"""Job-level scheduling: many heterogeneous sampling requests, one pool.

The third layer of the execution subsystem.  Where
:class:`~repro.exec.pool.ShardedEnsemble` parallelises *one* ensemble
across processes, :class:`JobRunner` parallelises *many independent
requests* — sample batches, TV curves, mixing-time estimates, over
different models and methods — onto a persistent pool of generic workers,
streaming progress back as it happens:

>>> from repro.exec import JobRunner, JobSpec
>>> outcomes = {}
>>> with JobRunner(workers=4) as runner:
...     a = runner.submit(JobSpec.sample_many(coloring, 256, seed=1))
...     b = runner.submit(JobSpec.tv_curve(csp, (1, 2, 4, 8), seed=2))
...     for event in runner.stream():      # checkpoints arrive live
...         print(event.label, event.kind, event.round, event.value)
...         if event.kind == "result":
...             outcomes[event.job_id] = event.payload

The parent is the scheduler, and each worker has one pipe to it, for its
tasks, drop requests and events (see :class:`JobRunner`).  The runner
holds a job only while it is in flight: each outcome is handed to
whoever reads its event, and nothing of a settled job stays behind.

Determinism contract: a worker executes a job with :meth:`JobSpec.run` —
the :func:`repro.api.run_spec` body every direct call uses — and the job's
own seed, adding only a callback that streams each TV probe.  Its result
is bit-identical to the direct call by construction: which worker ran it,
and what else ran beside it, never matters.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing as mp
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.errors import ExecError, ModelError, ReproError
from repro.exec.pool import _start_worker, _stop_workers, default_start_method
from repro.obs import trace as _obs_trace
from repro.spec import JOB_KINDS, JobSpec

__all__ = ["JOB_KINDS", "JobUpdate", "JobRunner"]


class _JobCancelled(BaseException):
    """Worker-internal control-flow signal; never escapes the worker loop.

    Derives from BaseException so job code catching ``Exception`` (or
    :class:`~repro.errors.ReproError`) cannot swallow a cancellation.
    """


@dataclass(frozen=True)
class JobUpdate:
    """One streamed event: a pickup, a checkpoint, a final result, or an error.

    ``kind`` is ``"started"`` (a worker picked the job up; ``payload``
    carries the worker pid), ``"checkpoint"`` (``round``/``value`` carry a
    TV probe), ``"result"`` (``payload`` carries the job's return value)
    or ``"error"`` (``payload`` carries the message/traceback string).
    ``elapsed`` rides on result events: the worker-side wall-clock seconds
    the job took, which is otherwise unattributable from the parent.
    """

    job_id: int
    kind: str
    label: str
    round: int | None = None
    value: float | None = None
    payload: object = field(default=None, repr=False)
    elapsed: float | None = None


def _execute_job(job_id, job, emit) -> None:
    """Run one job through :meth:`JobSpec.run`, emitting each TV probe as an event.

    An ``emit`` that raises (the worker's cancel check) stops the job at
    that probe.  A sharded spec executes with ``parallel=0`` — the
    in-process sharded reference.  Pool workers are daemonic and may not
    spawn grandchildren, and the determinism contract makes the worker
    count irrelevant to the bits: the result equals the same spec run on
    any number of processes.
    """
    started = time.perf_counter()
    if job.parallel is not None:
        job = job.with_placement(parallel=0, shard_size=job.shard_size)

    def checkpoint(rounds: int, tv: float) -> None:
        emit(JobUpdate(job_id, "checkpoint", job.label, round=rounds, value=tv))

    result = job.run(on_checkpoint=checkpoint)
    elapsed = time.perf_counter() - started
    emit(JobUpdate(job_id, "result", job.label, payload=result, elapsed=elapsed))


def _job_worker_main(conn) -> None:  # pragma: no cover - worker-side
    """Worker loop: run the ``(job_id, job, trace)`` tasks sent down ``conn`` in order.

    A bare job id on ``conn`` asks the worker to drop that job (cancelled,
    or moved to an idle worker): it is read before a job starts and at
    every event emission (a running streamed job stops at its next
    checkpoint).  A reader thread takes each message as it arrives, so the
    parent never blocks sending to a busy worker, which could deadlock
    against this worker's send of a large result; end-of-file ends the
    process, and so does a message it cannot read, a death the parent sees.
    ``trace`` is ``None`` or an exported trace context (``repro.obs.trace``)
    that stitches worker-side spans into the submitter's trace.
    """
    tasks, ready, dropped = deque(), threading.Semaphore(0), set()

    def read():
        try:
            while True:
                message = conn.recv()
                if isinstance(message, int):
                    dropped.add(message)
                else:
                    tasks.append(message)
                    ready.release()
        except (EOFError, OSError):
            os._exit(0)
        except BaseException:
            traceback.print_exc()
            os._exit(1)

    threading.Thread(target=read, daemon=True).start()
    try:
        while True:
            ready.acquire()
            job_id, job, trace = tasks.popleft()

            def emit(event, job_id=job_id):
                if job_id in dropped:
                    raise _JobCancelled()
                conn.send(event)

            message = None
            try:
                if job_id in dropped:
                    message = "CancelledError: job cancelled before it started"
                else:
                    conn.send(JobUpdate(job_id, "started", job.label, payload=os.getpid()))
                    if trace is not None and trace.get("file"):
                        _obs_trace.ensure_tracing(trace["file"])
                    with _obs_trace.span(
                        "runner.job", parent=trace, label=job.label, kind=job.kind, job_id=job_id
                    ):
                        _execute_job(job_id, job, emit)
            except _JobCancelled:
                message = "CancelledError: job cancelled"
            except ReproError as error:
                message = f"{type(error).__name__}: {error}"
            except Exception:
                message = traceback.format_exc()
            if message is not None:
                conn.send(JobUpdate(job_id, "error", job.label, payload=message))
            dropped.discard(job_id)
    except OSError:  # a send failed: the parent closed its end, or is gone
        pass


class JobRunner:
    """A persistent pool of generic sampling workers plus a job scheduler.

    Jobs submitted with :meth:`submit` wait in submission order; the
    runner sends the oldest one to an idle worker, or queues it behind a
    busy worker's running job so that worker starts it without waiting on
    the parent.  A worker that goes idle with nothing waiting takes over a
    job still queued behind a busy one, so heterogeneous batches
    load-balance, and the runner always knows which worker holds which
    job.  :meth:`stream` yields :class:`JobUpdate` events (live
    checkpoints, then each job's result or error) until every outstanding
    job settles, and :meth:`run_all` drains it for a list of jobs.  The
    runner holds only the jobs in flight: a job's result or error event
    settles it, and the caller who reads that event keeps what it needs.

    A failed job never poisons the pool: its error event settles it and
    the worker moves on to the next job.  One pipe per worker carries its
    tasks, drop requests and events, so a worker that *dies*
    (OOM kill, segfault), even mid-event, is end-of-file there once the
    runner has read every event it sent: the runner fails the job it was
    running, and the survivors take the job queued behind it.  Closing the
    runner, or its process dying, stops every worker at once.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ModelError(f"JobRunner needs workers >= 1, got {workers}")
        ctx = mp.get_context(default_start_method())
        self.workers = int(workers)
        self._processes: list[mp.Process] = []
        self._pipes: list[mp_connection.Connection] = []
        self._ids = itertools.count()
        # Job id -> (spec, trace), oldest first.
        self._waiting: dict[int, tuple[JobSpec, dict | None]] = {}
        # Worker index -> the (job id, spec, trace) tasks sent to it, in
        # order: the first runs, at most one waits behind it.  A task
        # leaves when that worker settles it or dies.
        self._held: dict[int, list[tuple]] = {worker: [] for worker in range(self.workers)}
        # Job id -> the worker whose events settle it.  A job moved to an
        # idle worker or cancelled here stays held by its old worker; that
        # worker's events for it are echoes, dropped unseen.
        self._owner: dict[int, int] = {}
        self._live = list(range(self.workers))
        # Events already recorded in the parent (a cancelled waiting job,
        # a dead worker's lost job): next_event returns them before it
        # reads any worker.
        self._backlog: deque[JobUpdate] = deque()
        # Guards the scheduling state above so one thread may submit while
        # another drains next_event — the repro.serve daemon does exactly
        # that.  The event *wait* is never under the lock; only the
        # bookkeeping is.
        self._lock = threading.Lock()
        self._closed = False
        try:
            for _ in range(self.workers):
                process, pipe = _start_worker(ctx, _job_worker_main, ())
                self._processes.append(process)
                self._pipes.append(pipe)
        except BaseException:
            self.close(force=True)
            raise

    def submit(self, job: JobSpec, trace: dict | None = None) -> int:
        """Queue a job; returns its id, which every event of the job carries.

        ``trace`` optionally carries an exported trace context
        (:func:`repro.obs.trace.export_context` shape) to parent the
        worker-side spans on; when omitted and tracing is enabled in this
        process, the ambient context is captured automatically.
        """
        if not isinstance(job, JobSpec):
            raise ModelError(f"submit needs a JobSpec, got {type(job).__name__}")
        self._ensure_open()
        with _obs_trace.span("runner.submit", label=job.label, kind=job.kind):
            if trace is None:
                trace = _obs_trace.export_context()
            with self._lock:
                job_id = next(self._ids)
                self._waiting[job_id] = (job, trace)
                self._dispatch()
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Request cancellation of a submitted job; returns True if still open.

        A waiting job, or one queued behind a busy worker's running job,
        settles at once, in the parent; a running job stops at its next
        checkpoint boundary (a running ``sample_many`` has none and runs
        to completion).  Either way a ``CancelledError: ...`` error event
        settles it, and cancel() never blocks.  A thread blocked in
        ``next_event(timeout=None)`` gets a parent-settled cancel from its
        next call: poll with a timeout, as the :mod:`repro.serve`
        dispatcher does.  A settled or unknown job id returns False.
        """
        self._ensure_open()
        with self._lock:
            worker = self._owner.get(job_id)
            if worker is not None:
                self._send(worker, job_id)
                running, *behind = self._held[worker]
                if running[0] == job_id:  # it stops itself
                    return True
                task = next(task for task in behind if task[0] == job_id)
            elif job_id in self._waiting:
                task = (job_id, *self._waiting.pop(job_id))
            else:
                return False
            self._fail_here(task, "CancelledError: job cancelled before it started")
            return True

    def stream(self):
        """Yield :class:`JobUpdate` events until every submitted job settles."""
        self._ensure_open()
        while self._waiting or self._owner or self._backlog:
            yield self.next_event()

    def run_all(self, jobs) -> list[tuple[object, str | None, float | None]]:
        """Submit ``jobs``, drain the stream, return aligned outcome triples.

        Triple ``i`` is ``(result, None, elapsed)`` for ``jobs[i]``, with
        the worker-side seconds, or ``(None, message, None)`` if it
        failed; one failure never discards the others.  It drains the
        runner itself, so the events of jobs submitted before the call
        are read and dropped.  The sweep runner uses this to keep one
        broken cell from discarding the table.
        """
        positions = {self.submit(job): position for position, job in enumerate(jobs)}
        outcomes = [(None, None, None)] * len(positions)
        for event in self.stream():
            position = positions.get(event.job_id)
            if position is None:
                continue
            if event.kind == "result":
                outcomes[position] = (event.payload, None, event.elapsed)
            elif event.kind == "error":
                outcomes[position] = (None, event.payload, None)
        return outcomes

    def next_event(self, timeout: float | None = None) -> JobUpdate | None:
        """Return the next :class:`JobUpdate`, or None if ``timeout`` expires.

        The resumable core of :meth:`stream`, usable directly by callers
        that multiplex a runner with other work (the :mod:`repro.serve`
        dispatcher polls this with a short timeout while jobs are
        submitted concurrently from another thread).  It waits on the live
        workers' pipes, where a worker's death reads as end-of-file;
        the bookkeeping — settling a job, handing waiting jobs to freed
        workers, failing a dead worker's job — happens here.  With
        ``timeout=None`` and nothing pending this blocks until a job is
        submitted *and* produces an event; pass a timeout when submissions
        or cancels happen concurrently.
        """
        self._ensure_open()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._backlog:
                    return self._backlog.popleft()
                live = list(self._live)
            if not live:
                self.close(force=True)
                raise ExecError("all JobRunner workers died")
            readers = {self._pipes[worker]: worker for worker in live}
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = mp_connection.wait(list(readers), timeout=remaining)
            if not ready:
                return None
            worker = readers[ready[0]]
            try:
                event = self._pipes[worker].recv()
            except (EOFError, OSError):  # the worker is gone, maybe mid-event
                self._bury(worker)
                continue
            with self._lock:
                if self._record(worker, event):
                    return event

    def _record(self, worker: int | None, event: JobUpdate) -> bool:
        """Fold one event into the bookkeeping; False for an echo.  The caller holds the lock.

        An event from a worker that does not own its job (moved, cancelled
        here or already settled) is an echo: it settles nothing.  A result
        or error from ``worker`` frees that task's place on that worker.
        """
        job_id = event.job_id
        news = worker is None or self._owner.get(job_id) == worker
        if event.kind in ("result", "error"):
            if worker is not None:
                self._held[worker] = [task for task in self._held[worker] if task[0] != job_id]
            if news:
                self._owner.pop(job_id, None)
            self._dispatch()
        return news

    def _fail_here(self, task: tuple, message: str) -> None:
        """Fail a task's job in the parent, queued for next_event; the caller holds the lock."""
        event = JobUpdate(task[0], "error", task[1].label, payload=message)
        self._record(None, event)
        self._backlog.append(event)

    def _send(self, worker: int, message) -> None:
        """Send ``worker`` a task or a job id to drop; the caller holds the lock."""
        with contextlib.suppress(OSError):  # dead: its end-of-file settles what it holds
            self._pipes[worker].send(message)

    def _dispatch(self) -> None:
        """Keep live workers supplied, oldest job first; the caller holds the lock.

        Idle workers are served before a job is queued behind a busy one,
        which spares that worker a round trip to the parent between jobs.
        An idle worker with nothing waiting takes over a job queued behind
        a busy worker; the busy worker is asked to drop its copy.
        """
        for depth in (1, 2):
            for worker in self._live:
                if len(self._held[worker]) >= depth or not self._processes[worker].is_alive():
                    continue
                if self._waiting:
                    job_id = next(iter(self._waiting))
                    task = (job_id, *self._waiting.pop(job_id))
                elif depth == 1 and (task := self._queued_behind_busy()) is not None:
                    self._send(self._owner[task[0]], task[0])
                else:
                    break
                self._owner[task[0]] = worker
                self._held[worker].append(task)
                self._send(worker, task)

    def _queued_behind_busy(self) -> tuple | None:
        """A task its worker owns but has not started, or None."""
        queued = (t for w in self._live for t in self._held[w][1:] if self._owner.get(t[0]) == w)
        return next(queued, None)

    def _bury(self, worker: int) -> None:
        """Retire a worker whose pipe ended: fail the job it ran, requeue the rest.

        Every event the worker sent before it died has been read already,
        in order, ahead of the end-of-file.
        """
        process = self._processes[worker]
        with self._lock:  # _dispatch polls the same process for liveness
            process.join()
            self._live.remove(worker)
            running, *behind = self._held.pop(worker) or [(None,)]
            # A task behind the running one never started: back to the front of the line.
            queued = {task[0]: task[1:] for task in behind if self._owner.get(task[0]) == worker}
            for job_id in queued:
                del self._owner[job_id]
            self._waiting = {**queued, **self._waiting}
            self._dispatch()
            job_id = running[0]
            if self._owner.get(job_id) != worker:
                return
            exitcode = process.exitcode
            self._fail_here(
                running, f"worker {process.pid} died executing this job (exit code {exitcode})"
            )
            _obs_trace.event(
                "runner.job_lost",
                job_id=job_id,
                label=running[1].label,
                worker_pid=process.pid,
                exitcode=exitcode,
                reason="died_executing",
            )

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecError("this JobRunner has been closed")

    def close(self, force: bool = False) -> None:
        """Stop the workers (idempotent).  Outstanding jobs are abandoned."""
        if self._closed:
            return
        self._closed = True
        _stop_workers(list(zip(self._processes, self._pipes)), force)

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
        return f"JobRunner(workers={self.workers}, pending={len(self._waiting) + len(self._owner)})"
