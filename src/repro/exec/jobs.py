"""Job-level scheduling: many heterogeneous sampling requests, one pool.

The third layer of the execution subsystem.  Where
:class:`~repro.exec.pool.ShardedEnsemble` parallelises *one* ensemble
across processes, :class:`JobRunner` parallelises *many independent
requests* — sample batches, TV curves, mixing-time estimates, over
different models and methods — onto a persistent pool of generic workers,
streaming progress back as it happens:

>>> from repro.exec import JobRunner, JobSpec
>>> with JobRunner(workers=4) as runner:
...     a = runner.submit(JobSpec.sample_many(coloring, 256, seed=1))
...     b = runner.submit(JobSpec.tv_curve(csp, (1, 2, 4, 8), seed=2))
...     for event in runner.stream():      # checkpoints arrive live
...         print(event.label, event.kind, event.round, event.value)
...     results = runner.results

Determinism contract: a worker executes a job with :meth:`JobSpec.run` —
the :func:`repro.api.run_spec` body every direct call uses — and the job's
own seed, adding only a callback that streams each TV probe.  Its result
is bit-identical to the direct call by construction: which worker ran it,
and what else ran beside it, never matters.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.errors import ExecError, ModelError, ReproError
from repro.obs import trace as _obs_trace
from repro.spec import JOB_KINDS, JobSpec

__all__ = ["JOB_KINDS", "JobUpdate", "JobRunner"]

#: Seconds between liveness checks while waiting for job events.
_POLL_INTERVAL = 1.0
#: Seconds to wait for a worker to exit after its stop sentinel.
_JOIN_TIMEOUT = 10.0


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
    emit(
        JobUpdate(
            job_id,
            "result",
            job.label,
            payload=result,
            elapsed=time.perf_counter() - started,
        )
    )


def _job_worker_main(tasks, events, control) -> None:  # pragma: no cover - worker-side
    """Worker loop: pull jobs off the shared queue until the stop sentinel.

    ``control`` is this worker's read end of the cancellation channel: the
    parent broadcasts cancelled job ids to every worker.  The set is
    checked when a job is pulled off the queue (a queued job cancels
    before any work happens) and at every event emission (a running
    streamed job cancels at its next checkpoint boundary).

    Task items are ``(job_id, job, trace)`` triples; ``trace`` is either
    ``None`` or an exported trace context (``repro.obs.trace``) carrying
    the submitter's trace-file path and span ids, so worker-side spans
    stitch into the same trace across the pipe boundary.
    """
    cancelled: set[int] = set()

    def drain_control() -> None:
        try:
            while control.poll():
                cancelled.add(control.recv())
        except (EOFError, OSError):
            pass

    while True:
        item = tasks.get()
        if item is None:
            return
        job_id, job, trace = item
        drain_control()
        if job_id in cancelled:
            events.put(
                JobUpdate(
                    job_id,
                    "error",
                    job.label,
                    payload="CancelledError: job cancelled before it started",
                )
            )
            continue

        def emit(event, job_id=job_id):
            drain_control()
            if job_id in cancelled:
                raise _JobCancelled()
            events.put(event)

        try:
            # Announce the pickup with this worker's pid so the parent can
            # attribute the job if this process dies mid-execution.
            events.put(JobUpdate(job_id, "started", job.label, payload=os.getpid()))
            if trace is not None and trace.get("file"):
                _obs_trace.ensure_tracing(trace["file"])
            with _obs_trace.span(
                "runner.job", parent=trace, label=job.label, kind=job.kind, job_id=job_id
            ):
                _execute_job(job_id, job, emit)
        except _JobCancelled:
            events.put(
                JobUpdate(
                    job_id,
                    "error",
                    job.label,
                    payload="CancelledError: job cancelled",
                )
            )
        except ReproError as error:
            events.put(
                JobUpdate(
                    job_id,
                    "error",
                    job.label,
                    payload=f"{type(error).__name__}: {error}",
                )
            )
        except BaseException:
            try:
                events.put(
                    JobUpdate(job_id, "error", job.label, payload=traceback.format_exc())
                )
            except Exception:  # pragma: no cover - queue already torn down
                return


class JobRunner:
    """A persistent pool of generic sampling workers plus a job scheduler.

    Jobs submitted with :meth:`submit` land on one shared task queue;
    whichever worker frees up first pulls the next job, so heterogeneous
    batches load-balance naturally.  :meth:`stream` yields
    :class:`JobUpdate` events (live checkpoints, results, errors) until
    every outstanding job settles; :meth:`run` drains the stream and
    returns ``{job_id: result}``, raising :class:`~repro.errors.ExecError`
    if any job failed.

    A failed job never poisons the pool: its error is recorded (``errors``
    mapping) and the worker moves on to the next job.  A worker that *dies*
    mid-job (OOM kill, segfault) fails the job it had announced — or, if it
    died before the announcement could land, the orphaned job is failed as
    soon as the remaining workers are provably idle — and the survivors
    keep draining the queue.  Each worker owns a private event queue (a
    dying worker can wedge only its own channel, never a sibling's), which
    is what makes those guarantees hold under arbitrary kill timing.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ModelError(f"JobRunner needs workers >= 1, got {workers}")
        from repro.exec.pool import default_start_method

        self._ctx = mp.get_context(default_start_method())
        self._tasks = self._ctx.Queue()
        self.workers = int(workers)
        # SimpleQueues: a worker's put is a synchronous pipe write (no
        # feeder thread), so a job's "started" announcement is durably in
        # the pipe before execution begins — the window in which a dying
        # worker can take a job down with it unannounced is a few
        # instructions, and the loss inference in _next_event covers even
        # that.
        self._events = [self._ctx.SimpleQueue() for _ in range(self.workers)]
        # One cancellation channel per worker; cancel() broadcasts the job
        # id to all of them (only the worker holding the job acts on it).
        control_pairs = [self._ctx.Pipe(duplex=False) for _ in range(self.workers)]
        self._controls = [sender for _, sender in control_pairs]
        self._processes = [
            self._ctx.Process(
                target=_job_worker_main,
                args=(self._tasks, events, receiver),
                daemon=True,
            )
            for events, (receiver, _) in zip(self._events, control_pairs)
        ]
        for process in self._processes:
            process.start()
        self._ids = itertools.count()
        self._jobs: dict[int, JobSpec] = {}
        self._pending: set[int] = set()
        self._active: dict[int, int] = {}  # worker pid -> job it is executing
        self._quiet_seconds = 0.0
        # Guards the scheduling state (_jobs/_pending/_active/results/
        # errors) so one thread may submit while another drains
        # next_event — the repro.serve daemon does exactly that.  The
        # event *wait* is never under the lock; only the bookkeeping is.
        self._lock = threading.Lock()
        self.results: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        #: Worker-side wall-clock seconds per completed job (from the
        #: result event's ``elapsed`` field).
        self.elapsed: dict[int, float] = {}
        self._closed = False

    def submit(self, job: JobSpec, trace: dict | None = None) -> int:
        """Queue a job; returns its id (the key into ``results``/``errors``).

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
                self._jobs[job_id] = job
                self._pending.add(job_id)
            self._tasks.put((job_id, job, trace))
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Request cancellation of a submitted job; returns True if still open.

        Cancellation is cooperative: a job still sitting in the queue is
        discarded the moment a worker pulls it; a running streamed job
        stops at its next checkpoint boundary (a running ``sample_many``
        has no boundaries and runs to completion).  Either way the job
        settles through the normal event stream with a
        ``CancelledError: ...`` error event — cancel() never blocks.
        Cancelling an already-settled or unknown job id returns False.
        """
        self._ensure_open()
        if job_id not in self._pending:
            return False
        for sender in self._controls:
            try:
                sender.send(job_id)
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
        return True

    def stream(self):
        """Yield :class:`JobUpdate` events until every submitted job settles."""
        self._ensure_open()
        while self._pending:
            event = self.next_event()
            if event is not None:
                yield event

    def _settle(self, job_id: int) -> None:
        self._pending.discard(job_id)
        self._active = {
            pid: active for pid, active in self._active.items() if active != job_id
        }

    def run(self) -> dict[int, object]:
        """Drain the stream; return ``{job_id: result}`` or raise on failure."""
        for _ in self.stream():
            pass
        if self.errors:
            job_id, message = next(iter(self.errors.items()))
            raise ExecError(
                f"{len(self.errors)} job(s) failed; first: "
                f"[{self._jobs[job_id].label}] {message}"
            )
        return dict(self.results)

    def run_all(self, jobs) -> list[tuple[object, str | None, float | None]]:
        """Submit ``jobs``, drain the stream, return aligned outcome triples.

        The failure-isolating sibling of :meth:`run`: triple ``i`` is
        ``(result, None, elapsed)`` for ``jobs[i]``, with the worker-side
        seconds, or ``(None, message, None)`` if it failed.  The sweep
        runner uses this to keep one broken cell from discarding the table.
        """
        job_ids = [self.submit(job) for job in jobs]
        for _ in self.stream():
            pass
        return [
            (self.results.get(job_id), self.errors.get(job_id), self.elapsed.get(job_id))
            for job_id in job_ids
        ]

    def next_event(self, timeout: float | None = None) -> JobUpdate | None:
        """Return the next :class:`JobUpdate`, or None if ``timeout`` expires.

        The resumable core of :meth:`stream`, usable directly by callers
        that multiplex a runner with other work (the :mod:`repro.serve`
        dispatcher polls this with a short timeout while jobs are
        submitted concurrently from another thread).  All bookkeeping —
        ``results``/``errors``, worker-pid attribution, dead-worker
        inference — happens here, so interleaving ``next_event`` calls
        with :meth:`stream` is safe.  With ``timeout=None`` and nothing
        pending this blocks until a job is submitted *and* produces an
        event; pass a timeout when submissions happen concurrently.
        """
        self._ensure_open()
        deadline = None if timeout is None else time.monotonic() + timeout
        readers = {events._reader: events for events in self._events}
        while True:
            wait_for = _POLL_INTERVAL
            if deadline is not None:
                wait_for = min(wait_for, max(0.0, deadline - time.monotonic()))
            started_wait = time.monotonic()
            ready = mp_connection.wait(list(readers), timeout=wait_for)
            if ready:
                self._quiet_seconds = 0.0
                event = readers[ready[0]].get()
                self._record(event)
                return event
            # Quiet time accumulates *across* calls: repeated short-timeout
            # polling (the serve dispatcher) converges on the same liveness
            # inference as one long blocking call, after the same grace
            # period a just-dead worker gets for in-flight events.
            self._quiet_seconds += time.monotonic() - started_wait
            if self._pending and self._quiet_seconds >= 2 * _POLL_INTERVAL:
                inferred = self._infer_lost_job()
                if inferred is not None:
                    self._record(inferred)
                    return inferred
            if deadline is not None and time.monotonic() >= deadline:
                return None

    def _record(self, event: JobUpdate) -> None:
        """Fold one event into the runner's bookkeeping (idempotent per job)."""
        with self._lock:
            if event.kind == "started":
                self._active[event.payload] = event.job_id
            elif event.kind == "result":
                self.results[event.job_id] = event.payload
                if event.elapsed is not None:
                    self.elapsed[event.job_id] = event.elapsed
                self._settle(event.job_id)
            elif event.kind == "error":
                self.errors[event.job_id] = event.payload
                self._settle(event.job_id)

    def _infer_lost_job(self) -> JobUpdate | None:
        """Liveness inference after two quiet polls: fail provably lost jobs."""
        # A dead worker that had announced a job loses exactly that
        # job; surviving workers keep draining the queue.  Snapshot the
        # scheduling state under the lock so a concurrent submit cannot
        # mutate the sets mid-inference.
        with self._lock:
            active = dict(self._active)
            pending = set(self._pending)
        for process in self._processes:
            if not process.is_alive() and process.pid in active:
                with self._lock:
                    job_id = self._active.pop(process.pid)
                _obs_trace.event(
                    "runner.job_lost",
                    job_id=job_id,
                    label=self._jobs[job_id].label,
                    worker_pid=process.pid,
                    exitcode=process.exitcode,
                    reason="died_executing",
                )
                return JobUpdate(
                    job_id,
                    "error",
                    self._jobs[job_id].label,
                    payload=(
                        f"worker {process.pid} died executing this job "
                        f"(exit code {process.exitcode})"
                    ),
                )
        if all(not process.is_alive() for process in self._processes):
            self.close(force=True)
            raise ExecError(
                "all JobRunner workers died with jobs outstanding"
            ) from None
        # A worker that died in the instant between pulling a job off
        # the task queue and announcing it leaves the job unaccounted:
        # pending, claimed by no one, queues silent.  Once every live
        # worker is provably idle, "still queued" is impossible — an
        # idle worker would have picked it up — so fail it rather than
        # poll forever.
        dead_unaccounted = [
            process
            for process in self._processes
            if not process.is_alive() and process.pid not in active
        ]
        live_busy = any(
            process.is_alive() and process.pid in active
            for process in self._processes
        )
        unannounced = pending - set(active.values())
        if dead_unaccounted and unannounced and not live_busy:
            job_id = min(unannounced)
            victim = dead_unaccounted[0]
            _obs_trace.event(
                "runner.job_lost",
                job_id=job_id,
                label=self._jobs[job_id].label,
                worker_pid=victim.pid,
                exitcode=victim.exitcode,
                reason="died_unannounced",
            )
            return JobUpdate(
                job_id,
                "error",
                self._jobs[job_id].label,
                payload=(
                    f"worker {victim.pid} (exit code {victim.exitcode}) "
                    "died before announcing a job; this pending job was "
                    "likely consumed and lost"
                ),
            )
        return None

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecError("this JobRunner has been closed")

    def close(self, force: bool = False) -> None:
        """Stop the workers (idempotent).  Outstanding jobs are abandoned."""
        if self._closed:
            return
        self._closed = True
        for process in self._processes:
            if force:
                process.terminate()
            else:
                try:
                    self._tasks.put(None)
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck-worker safety net
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        self._tasks.close()
        for events in self._events:
            events.close()
        for sender in self._controls:
            try:
                sender.close()
            except OSError:  # pragma: no cover - already closed
                pass

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
        return (
            f"JobRunner(workers={self.workers}, pending={len(self._pending)}, "
            f"done={len(self.results)}, failed={len(self.errors)})"
        )
