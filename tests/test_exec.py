"""Tests for the sharded multiprocess execution subsystem (repro.exec).

The two load-bearing contracts:

* **sharded determinism** — a sharded run is a pure function of the shard
  plan (partition + root SeedSequence); worker count (including the
  in-process ``workers=0`` reference) never changes a single bit;
* **job equivalence** — a :class:`~repro.exec.JobRunner` result is
  bit-identical to calling the :mod:`repro.api` facade directly with the
  same arguments, for every job kind and method.

Distributional correctness of the sharded engines (different shard
streams than a monolithic single-stream ensemble, same Markov kernel) is
checked with the shared statistical harness in ``tests/statutils.py``.
"""

import numpy as np
import pytest

import repro
from repro.analysis.empirical import batch_tv_to_exact
from repro.csp import dominating_set_csp, not_all_equal_csp
from repro.errors import ExecError, ModelError
from repro.exec import (
    DEFAULT_NUM_SHARDS,
    JobRunner,
    JobSpec,
    ShardedEnsemble,
    as_seed_sequence,
    make_shard_plan,
)
from repro.exec.jobs import JOB_KINDS, _execute_job, _JobCancelled
from repro.exec.pool import default_start_method
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.mrf import exact_gibbs_distribution, ising_mrf, proper_coloring_mrf

from statutils import assert_same_distribution

SEED = 20170625


def _endless_job():
    """A streamed job that runs until cancelled: a TV probe every 100 rounds."""
    model = proper_coloring_mrf(path_graph(3), 3)
    return JobSpec.mixing_time(model, eps=1e-9, replicas=256, stride=100,
                               max_rounds=10**7, seed=1, name="endless")


def _coloring():
    return proper_coloring_mrf(grid_graph(3, 3), 5)


def _outcomes(events):
    """The jobs ``events`` settle: ``({job_id: result}, {job_id: error message})``."""
    events = list(events)
    return ({e.job_id: e.payload for e in events if e.kind == "result"},
            {e.job_id: e.payload for e in events if e.kind == "error"})


def _csp():
    return not_all_equal_csp([(0, 1, 2), (1, 2, 3), (2, 3, 4)], n=5, q=3)


# ----------------------------------------------------------------------
# shard plans
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_partition_covers_batch_without_overlap(self):
        plan = make_shard_plan(13, seed=SEED, shard_size=4)
        assert [(s.start, s.stop) for s in plan] == [(0, 4), (4, 8), (8, 12), (12, 13)]
        assert [s.index for s in plan] == [0, 1, 2, 3]
        assert sum(s.size for s in plan) == 13

    def test_default_partition_depends_only_on_replicas(self):
        assert len(make_shard_plan(512, seed=SEED)) == DEFAULT_NUM_SHARDS
        assert len(make_shard_plan(3, seed=SEED)) == 3  # never more shards than rows

    def test_seed_streams_are_spawned_children_of_the_root(self):
        root = np.random.SeedSequence(SEED)
        plan = make_shard_plan(8, seed=root, shard_size=3)
        children = np.random.SeedSequence(SEED).spawn(3)
        for spec, child in zip(plan, children):
            assert spec.seed.spawn_key == child.spawn_key
            assert spec.seed.entropy == child.entropy

    def test_rejects_generators_and_bad_sizes(self):
        with pytest.raises(ModelError, match="Generator"):
            as_seed_sequence(np.random.default_rng(0))
        with pytest.raises(ModelError, match="replicas"):
            make_shard_plan(0, seed=SEED)
        with pytest.raises(ModelError, match="shard_size"):
            make_shard_plan(4, seed=SEED, shard_size=0)


# ----------------------------------------------------------------------
# sharded determinism and equivalence
# ----------------------------------------------------------------------
SHARDED_CASES = {
    "coloring-lm": (_coloring, "local-metropolis"),
    "coloring-lg": (_coloring, "luby-glauber"),
    "glauber": (lambda: ising_mrf(path_graph(5), beta=0.8, field=0.3), "glauber"),
    "csp-lm": (_csp, "local-metropolis"),
    "csp-lg": (lambda: dominating_set_csp(cycle_graph(6)), "luby-glauber"),
}


@pytest.mark.parametrize("name", sorted(SHARDED_CASES))
def test_sharded_run_is_bit_identical_across_worker_counts(name):
    make_model, method = SHARDED_CASES[name]
    model = make_model()

    def run(workers):
        with ShardedEnsemble(
            model,
            10,
            method=method,
            seed=np.random.SeedSequence(SEED),
            shard_size=4,
            workers=workers,
        ) as ensemble:
            return ensemble.run(8)

    reference = run(0)  # the single-process (in-process) execution
    for workers in (1, 2, 4):
        assert np.array_equal(reference, run(workers)), f"workers={workers} diverged"


def test_sharded_run_equals_per_shard_ensembles_concatenated():
    """The stream contract: shard i is make_ensemble seeded with child i."""
    model = _coloring()
    plan = make_shard_plan(10, seed=np.random.SeedSequence(SEED), shard_size=4)
    expected = np.concatenate(
        [
            repro.make_ensemble(model, spec.size, seed=spec.seed).run(6)
            for spec in plan
        ]
    )
    with ShardedEnsemble(
        model, 10, seed=np.random.SeedSequence(SEED), shard_size=4, workers=2
    ) as ensemble:
        assert np.array_equal(ensemble.run(6), expected)


def test_sharded_checkpoint_trajectory_equals_one_shot_run():
    model = _csp()
    with ShardedEnsemble(
        model, 9, method="luby-glauber", seed=SEED, shard_size=3, workers=2
    ) as ensemble:
        trajectory = dict(ensemble.iter_checkpoints([2, 5, 9]))
        assert ensemble.steps_taken == 9
    one_shot = ShardedEnsemble(
        model, 9, method="luby-glauber", seed=SEED, shard_size=3, workers=0
    ).run(9)
    assert sorted(trajectory) == [2, 5, 9]
    assert np.array_equal(trajectory[9], one_shot)


def test_sharded_initial_batches_are_sliced_per_shard():
    model = _coloring()
    rng = np.random.default_rng(3)
    starts = rng.integers(0, model.q, size=(6, model.n))
    with ShardedEnsemble(
        model, 6, seed=SEED, shard_size=2, workers=2, initial=starts
    ) as ensemble:
        assert np.array_equal(ensemble.config, starts)  # round 0: untouched
    shared = starts[0]
    with ShardedEnsemble(
        model, 6, seed=SEED, shard_size=2, workers=1, initial=shared
    ) as ensemble:
        assert np.array_equal(ensemble.config, np.tile(shared, (6, 1)))
    with pytest.raises(ModelError, match="initial configuration"):
        ShardedEnsemble(model, 6, seed=SEED, initial=np.zeros((4, model.n)))


def test_facade_parallel_matches_inprocess_and_closes():
    model = _coloring()
    kwargs = dict(rounds=5, seed=7, shard_size=4)
    pooled = repro.sample_many(model, 10, parallel=2, **kwargs)
    serial = repro.sample_many(model, 10, parallel=0, **kwargs)
    assert np.array_equal(pooled, serial)

    target = exact_gibbs_distribution(proper_coloring_mrf(path_graph(3), 3))
    small = proper_coloring_mrf(path_graph(3), 3)
    curve_pooled = repro.tv_curve(
        small, (1, 3, 6), replicas=32, seed=11, parallel=2, shard_size=8, target=target
    )
    curve_serial = repro.tv_curve(
        small, (1, 3, 6), replicas=32, seed=11, parallel=0, shard_size=8, target=target
    )
    assert curve_pooled == curve_serial


def test_sharded_ensemble_is_stationary_like_the_monolithic_engine():
    """Different shard streams, same kernel: distributions must agree."""
    model = proper_coloring_mrf(cycle_graph(4), 3)
    with ShardedEnsemble(
        model, 600, seed=np.random.SeedSequence(SEED), shard_size=150, workers=2
    ) as ensemble:
        sharded = ensemble.run(40)
    monolithic = repro.make_ensemble(model, 600, seed=SEED + 1).run(40)
    assert_same_distribution(sharded, monolithic, model.q)


def test_closed_ensemble_rejects_operations():
    ensemble = ShardedEnsemble(_coloring(), 4, seed=SEED, shard_size=2, workers=1)
    ensemble.close()
    ensemble.close()  # idempotent
    # Closing its pipe stops a worker: it reads end-of-file and exits cleanly.
    assert [process.exitcode for process, _ in ensemble._pool._workers] == [0]
    with pytest.raises(ExecError, match="closed"):
        ensemble.advance(1)
    with pytest.raises(ExecError, match="closed"):
        _ = ensemble.config


def test_dead_worker_surfaces_as_exec_error():
    ensemble = ShardedEnsemble(_coloring(), 4, seed=SEED, shard_size=2, workers=1)
    ensemble._pool._workers[0][0].terminate()
    ensemble._pool._workers[0][0].join()
    with pytest.raises(ExecError, match="died|failed"):
        ensemble.advance(1)
    # The failed pool counts as closed: later operations stay ExecError,
    # never stray ValueErrors from the torn-down queues.
    with pytest.raises(ExecError, match="closed"):
        ensemble.advance(1)
    with pytest.raises(ExecError, match="closed"):
        _ = ensemble.config


def test_worker_killed_during_advance_surfaces_as_exec_error():
    """A worker SIGKILLed while an ``advance`` is running fails the barrier
    at once, naming that worker."""
    import os
    import signal
    import threading

    model = proper_coloring_mrf(grid_graph(8, 8), 5)
    ensemble = ShardedEnsemble(model, 64, seed=SEED, shard_size=32, workers=2)
    victim = ensemble._pool._workers[1][0]
    killer = threading.Timer(0.2, os.kill, (victim.pid, signal.SIGKILL))
    killer.start()
    try:
        with pytest.raises(ExecError, match="worker 1 died"):
            ensemble.advance(10**7)
    finally:
        killer.join(timeout=10)
        ensemble.close()
    assert not killer.is_alive()
    with pytest.raises(ExecError, match="closed"):
        ensemble.advance(1)


def test_sharded_rejects_generator_seeds_and_bad_workers():
    with pytest.raises(ModelError, match="Generator"):
        ShardedEnsemble(_coloring(), 4, seed=np.random.default_rng(0))
    with pytest.raises(ModelError, match="workers"):
        ShardedEnsemble(_coloring(), 4, seed=SEED, workers=-1)


# ----------------------------------------------------------------------
# the worker-side job body, in-process
# ----------------------------------------------------------------------
def _spec_of_kind(kind, **placement):
    model = proper_coloring_mrf(path_graph(4), 3)
    if kind == "sample_many":
        return JobSpec.sample_many(model, 12, rounds=5, seed=1, **placement)
    if kind == "tv_curve":
        return JobSpec.tv_curve(model, (1, 2, 4), replicas=64, seed=2, **placement)
    return JobSpec.mixing_time(
        model, eps=0.35, replicas=256, max_rounds=200, stride=4, seed=3, **placement
    )


class TestExecuteJob:
    """``_execute_job`` is ``run_spec`` plus one event per TV probe."""

    @pytest.mark.parametrize("kind", JOB_KINDS)
    def test_events_and_result_equal_run_spec(self, kind):
        spec = _spec_of_kind(kind)
        events = []
        _execute_job(5, spec, events.append)
        probes = []
        repro.run_spec(spec, on_checkpoint=lambda rounds, tv: probes.append((rounds, tv)))
        streamed = [(e.round, e.value) for e in events if e.kind == "checkpoint"]
        assert streamed == probes
        assert bool(probes) == (kind != "sample_many")
        result = events[-1]
        assert result.kind == "result" and result.job_id == 5 and result.elapsed > 0.0
        assert np.array_equal(result.payload, repro.run_spec(spec))

    def test_checkpoint_exception_stops_a_sharded_run(self, monkeypatch):
        """A raising callback (the worker's cancel check) ends the run at
        that probe, and the sharded ensemble is still closed."""
        built = []
        make_ensemble = repro.api.make_ensemble

        def recording_make_ensemble(*args, **kwargs):
            built.append(make_ensemble(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.api, "make_ensemble", recording_make_ensemble)
        spec = _spec_of_kind("tv_curve", parallel=0, shard_size=16)
        seen = []

        def cancel(rounds, tv):
            seen.append(rounds)
            raise _JobCancelled()

        with pytest.raises(_JobCancelled):
            repro.run_spec(spec, on_checkpoint=cancel)
        assert seen == [1]
        # The shard engines are built (and recorded) inside the outer call.
        assert isinstance(built[-1], ShardedEnsemble) and built[-1]._closed


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
class TestJobs:
    def test_job_validation(self):
        with pytest.raises(ModelError, match="kind"):
            JobSpec(kind="nope", model=_coloring())
        with pytest.raises(ModelError, match="checkpoints"):
            JobSpec(kind="tv_curve", model=_coloring(), replicas=4)
        with pytest.raises(ModelError, match="eps"):
            JobSpec(kind="mixing_time", model=_coloring(), replicas=4)
        # stride=0 would spin the worker loop forever; max_rounds likewise.
        with pytest.raises(ModelError, match="stride"):
            JobSpec.mixing_time(_coloring(), eps=0.1, stride=0)
        with pytest.raises(ModelError, match="max_rounds"):
            JobSpec.mixing_time(_coloring(), eps=0.1, max_rounds=0)
        with pytest.raises(ModelError, match="workers"):
            JobRunner(workers=0)

    def test_results_match_direct_api_calls_for_every_method(self):
        coloring = proper_coloring_mrf(path_graph(4), 3)
        ising = ising_mrf(path_graph(4), beta=0.7, field=0.2)
        csp = _csp()
        jobs = [
            JobSpec.sample_many(coloring, 12, method="local-metropolis",
                                    rounds=5, seed=1),
            JobSpec.sample_many(coloring, 12, method="luby-glauber",
                                    rounds=5, seed=2),
            JobSpec.sample_many(ising, 6, method="glauber", rounds=5, seed=3),
            JobSpec.sample_many(csp, 8, method="luby-glauber", rounds=4, seed=4),
            JobSpec.tv_curve(coloring, (1, 2, 4), replicas=64, seed=5),
            JobSpec.mixing_time(coloring, eps=0.35, replicas=256,
                                    max_rounds=200, stride=4, seed=6),
        ]
        with JobRunner(workers=2) as runner:
            ids = [runner.submit(job) for job in jobs]
            results, errors = _outcomes(runner.stream())
        assert not errors
        assert np.array_equal(
            results[ids[0]],
            repro.sample_many(coloring, 12, method="local-metropolis",
                              rounds=5, seed=1),
        )
        assert np.array_equal(
            results[ids[1]],
            repro.sample_many(coloring, 12, method="luby-glauber", rounds=5, seed=2),
        )
        assert np.array_equal(
            results[ids[2]],
            repro.sample_many(ising, 6, method="glauber", rounds=5, seed=3),
        )
        assert np.array_equal(
            results[ids[3]],
            repro.sample_many(csp, 8, method="luby-glauber", rounds=4, seed=4),
        )
        assert results[ids[4]] == repro.tv_curve(coloring, (1, 2, 4),
                                                 replicas=64, seed=5)
        assert results[ids[5]] == repro.mixing_time(coloring, eps=0.35, replicas=256,
                                                    max_rounds=200, stride=4, seed=6)

    def test_stream_emits_increasing_checkpoints_with_exact_tv_values(self):
        model = proper_coloring_mrf(path_graph(3), 3)
        target = exact_gibbs_distribution(model)
        checkpoints = (1, 2, 4, 8)
        with JobRunner(workers=1) as runner:
            job_id = runner.submit(
                JobSpec.tv_curve(model, checkpoints, replicas=64, seed=9,
                                     name="curve")
            )
            events = list(runner.stream())
        probes = [e for e in events if e.kind == "checkpoint"]
        assert [e.round for e in probes] == list(checkpoints)
        assert all(e.label == "curve" for e in probes)
        ensemble = repro.make_ensemble(model, 64, seed=9)
        for event, (rounds, batch) in zip(
            probes, ensemble.iter_checkpoints(list(checkpoints))
        ):
            assert event.value == batch_tv_to_exact(batch, target)

    def test_failed_job_does_not_poison_the_pool(self):
        model = proper_coloring_mrf(path_graph(3), 3)
        doomed = JobSpec.mixing_time(model, eps=1e-9, replicas=8,
                                         max_rounds=3, seed=1, name="doomed")
        fine = JobSpec.sample_many(model, 4, rounds=2, seed=2, name="fine")
        with JobRunner(workers=1) as runner:
            doomed_id = runner.submit(doomed)
            fine_id = runner.submit(fine)
            events = list(runner.stream())
        results, errors = _outcomes(events)
        assert "ConvergenceError" in errors[doomed_id]
        assert fine_id in results
        assert [(e.job_id, e.label) for e in events if e.kind == "error"] == [(doomed_id, "doomed")]

    def test_run_all_aligns_results_and_isolates_failures(self):
        """run_all never raises: each job yields (result, error, elapsed) in order."""
        model = proper_coloring_mrf(path_graph(3), 3)
        jobs = [
            JobSpec.sample_many(model, 4, rounds=2, seed=1, name="first"),
            JobSpec.mixing_time(model, eps=1e-9, replicas=8,
                                    max_rounds=3, seed=2, name="doomed"),
            JobSpec.sample_many(model, 4, rounds=2, seed=3, name="last"),
        ]
        with JobRunner(workers=2) as runner:
            outcomes = runner.run_all(jobs)
        assert len(outcomes) == 3
        for position in (0, 2):
            batch, error, elapsed = outcomes[position]
            assert error is None
            assert np.asarray(batch).shape == (4, 3)
            assert elapsed > 0.0
        doomed_result, doomed_error, doomed_elapsed = outcomes[1]
        assert doomed_result is None
        assert "ConvergenceError" in doomed_error
        assert doomed_elapsed is None

    def test_dead_worker_fails_only_its_job(self):
        """A worker killed mid-job loses that job; the pool keeps serving."""
        model = proper_coloring_mrf(path_graph(3), 3)
        # A stride far beyond the kill point keeps the victim in pure
        # compute when terminated, so the job it holds is the one lost.
        slow = JobSpec.mixing_time(model, eps=1e-9, replicas=4096,
                                       stride=1_000_000, max_rounds=1_000_000,
                                       seed=1, name="slow")
        with JobRunner(workers=2) as runner:
            slow_id = runner.submit(slow)
            stream = runner.stream()
            started = next(e for e in stream if e.kind == "started")
            assert started.job_id == slow_id
            victim = next(p for p in runner._processes if p.pid == started.payload)
            victim.terminate()
            victim.join()
            fine_id = runner.submit(
                JobSpec.sample_many(model, 4, rounds=2, seed=2, name="fine")
            )
            results, errors = _outcomes(stream)
        assert "died" in errors[slow_id]
        assert fine_id in results

    def test_dead_worker_inference_traced_and_pool_survives(self, tmp_path):
        """A dead worker seen as end-of-file on its pipe: the job it held fails
        with an error JobUpdate, surviving jobs complete, and the loss
        leaves a ``runner.job_lost`` event in the trace file."""
        import json

        from repro.obs import trace as obs_trace

        trace_file = tmp_path / "exec.jsonl"
        model = proper_coloring_mrf(path_graph(3), 3)
        slow = JobSpec.mixing_time(model, eps=1e-9, replicas=4096,
                                       stride=1_000_000, max_rounds=1_000_000,
                                       seed=1, name="slow")
        obs_trace.enable_tracing(trace_file)
        try:
            with JobRunner(workers=2) as runner:
                slow_id = runner.submit(slow)
                stream = runner.stream()
                started = next(e for e in stream if e.kind == "started")
                assert started.job_id == slow_id
                victim = next(
                    p for p in runner._processes if p.pid == started.payload
                )
                victim.terminate()
                victim.join()
                fine_id = runner.submit(
                    JobSpec.sample_many(model, 4, rounds=2, seed=2,
                                            name="fine")
                )
                events = list(stream)
                assert any(
                    e.kind == "error" and e.job_id == slow_id for e in events
                )
                results, errors = _outcomes(events)
                assert "died" in errors[slow_id]
                assert fine_id in results
        finally:
            obs_trace.disable_tracing()
        with open(trace_file, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        lost = [r for r in records if r["name"] == "runner.job_lost"]
        assert len(lost) == 1
        assert lost[0]["kind"] == "event"
        assert lost[0]["attrs"]["job_id"] == slow_id
        assert lost[0]["attrs"]["worker_pid"] == started.payload

    def test_worker_killed_mid_event_fails_its_job_without_hanging(self):
        """A worker SIGKILLed while blocked writing a result larger than a
        pipe buffer fails its job at once: the cut-off message is its death,
        and next_event returns within its timeout."""
        import os
        import signal
        import threading
        import time
        from pathlib import Path

        from repro.graphs import torus_graph

        model = proper_coloring_mrf(torus_graph(32, 32), 8)
        spec = JobSpec.sample_many(model, 256, rounds=1, seed=1)  # a 2 MB result
        with JobRunner(workers=1) as runner:
            job_id = runner.submit(spec)
            started = next(e for e in runner.stream() if e.kind == "started")
            pid = started.payload
            # Nothing reads the worker's events now, so it blocks writing
            # its result; Linux shows that in the worker's wait channel.
            wchan, deadline = Path(f"/proc/{pid}/wchan"), time.monotonic() + 5
            while time.monotonic() < deadline and not (
                wchan.exists() and "pipe_write" in wchan.read_text()
            ):
                time.sleep(0.05)
            os.kill(pid, signal.SIGKILL)
            events = []
            reader = threading.Thread(
                target=lambda: events.append(runner.next_event(timeout=1.0)), daemon=True
            )
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive(), "next_event hung on a worker killed mid-write"
        [event] = events
        assert (event.job_id, event.kind) == (job_id, "error")
        assert event.payload == f"worker {pid} died executing this job (exit code -9)"

    def test_workers_exit_when_their_runner_process_is_killed(self):
        """A process SIGKILLed while it owns a JobRunner takes the workers
        with it: each reads end-of-file on its pipe and exits within 2 s."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        if not Path("/proc/self/stat").exists():
            pytest.skip("reads process states from /proc")

        script = "\n".join([
            "import time",
            "from repro.exec import JobRunner, JobSpec",
            "from repro.graphs import path_graph",
            "from repro.mrf import proper_coloring_mrf",
            "model = proper_coloring_mrf(path_graph(3), 3)",
            "runner = JobRunner(workers=2)",  # each worker runs one job before the kill
            "runner.run_all([JobSpec.sample_many(model, 4, rounds=2, seed=s) for s in (1, 2)])",
            "print(*(process.pid for process in runner._processes), flush=True)",
            "time.sleep(600)",
        ])
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              text=True, env=env) as owner:
            try:
                pids = [int(pid) for pid in owner.stdout.readline().split()]
            finally:
                owner.kill()
        assert len(pids) == 2

        def exited(pid):  # gone, or a zombie nobody has reaped
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return True
            return stat.rsplit(")", 1)[1].split()[0] == "Z"

        deadline = time.monotonic() + 2.0
        while not all(map(exited, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = [pid for pid in pids if not exited(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"workers {survivors} outlived their runner's process"

    def test_close_stops_a_worker_blocked_writing_an_unread_result(self):
        """close() closes every worker's pipe before it joins: a worker
        blocked writing a 2 MB result nobody reads exits at once, by itself."""
        import time

        from repro.graphs import torus_graph

        model = proper_coloring_mrf(torus_graph(32, 32), 8)
        runner = JobRunner(workers=1)
        try:
            runner.submit(JobSpec.sample_many(model, 256, rounds=1, seed=1))
            next(e for e in runner.stream() if e.kind == "started")
            time.sleep(0.5)
        finally:
            began = time.monotonic()
            runner.close()
            took = time.monotonic() - began
        assert took < 1.0
        assert runner._processes[0].exitcode == 0

    def test_specs_and_results_larger_than_the_pipe_buffer_never_deadlock(self):
        """A spec queued behind a running job, and that job's result, each
        larger than the pipe's buffer: the worker reads its pipe while it
        works, so the parent's send and the worker's never wait on each
        other, and run_all returns the direct runs' bits."""
        import pickle
        import socket
        import threading

        from repro.graphs import torus_graph

        model = proper_coloring_mrf(torus_graph(64, 64), 16)
        specs = [JobSpec.sample_many(model, 64, rounds=1, seed=s) for s in range(3)]
        left, right = socket.socketpair()  # what a duplex multiprocessing pipe is made of
        with left, right:
            buffer = left.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        assert all(len(pickle.dumps(spec)) > buffer for spec in specs)
        outcomes = []
        with JobRunner(workers=1) as runner:
            drain = threading.Thread(target=lambda: outcomes.extend(runner.run_all(specs)),
                                     daemon=True)
            drain.start()
            drain.join(timeout=30)
            assert not drain.is_alive(), "run_all deadlocked"
        for spec, (batch, error, _) in zip(specs, outcomes, strict=True):
            assert error is None
            assert batch.nbytes > buffer
            assert np.array_equal(batch, repro.run_spec(spec))

    def test_idle_worker_death_never_hangs_the_runner(self):
        """A job submitted after an idle worker died runs on the survivor.

        The runner hands a job only to a live worker, so the dead one never
        holds it, and close() has no dead worker's queue to wait on.
        """
        import time

        model = proper_coloring_mrf(path_graph(3), 3)
        spec = JobSpec.sample_many(model, 4, rounds=2, seed=3, name="orphanable")
        runner = JobRunner(workers=2)
        try:
            victim = runner._processes[0]
            victim.terminate()
            victim.join()
            job_id = runner.submit(spec)
            results, errors = _outcomes(runner.stream())
            assert not errors
            assert np.array_equal(results[job_id], repro.run_spec(spec))
        finally:
            started = time.monotonic()
            runner.close()
            assert time.monotonic() - started < 5.0

    def test_cancelled_waiting_job_settles_before_the_busy_job(self):
        """A job cancelled while it waits behind a busy worker settles at
        once, in the parent: before the busy job's result, never started."""
        model = proper_coloring_mrf(path_graph(3), 3)
        busy = JobSpec.sample_many(model, 64, rounds=50, seed=1, name="busy")
        waiting = JobSpec.sample_many(model, 4, rounds=2, seed=2, name="waiting")
        with JobRunner(workers=1) as runner:
            busy_id = runner.submit(busy)
            waiting_id = runner.submit(waiting)
            assert runner.cancel(waiting_id)
            assert not runner.cancel(waiting_id)  # already settled
            events = list(runner.stream())
        settled = [e.job_id for e in events if e.kind in ("result", "error")]
        assert settled == [waiting_id, busy_id]
        assert not any(e.kind == "started" and e.job_id == waiting_id for e in events)
        results, errors = _outcomes(events)
        assert errors[waiting_id] == "CancelledError: job cancelled before it started"
        assert np.array_equal(results[busy_id], repro.run_spec(busy))

    def test_cancelling_a_running_job_stops_it_at_its_next_checkpoint(self):
        """A running streamed job is cancelled by a drop request on its
        worker's pipe: its next event is the cancellation, within seconds."""
        import time

        with JobRunner(workers=1) as runner:
            job_id = runner.submit(_endless_job())
            stream = runner.stream()
            assert next(e for e in stream if e.kind == "started").job_id == job_id
            assert runner.cancel(job_id)
            cancelled_at = time.monotonic()
            settled = next(e for e in stream if e.kind in ("result", "error"))
            assert time.monotonic() - cancelled_at < 5.0
        assert settled.job_id == job_id
        assert settled.payload == "CancelledError: job cancelled"

    def test_idle_worker_takes_over_a_job_queued_behind_a_busy_one(self):
        """A job queued behind a long one moves to the worker that goes
        idle first, and its old worker's copy never shows."""
        model = proper_coloring_mrf(path_graph(3), 3)
        short = JobSpec.sample_many(model, 64, rounds=50, seed=2, name="short")
        queued = JobSpec.sample_many(model, 4, rounds=2, seed=3, name="queued")
        with JobRunner(workers=2) as runner:
            endless_id = runner.submit(_endless_job())
            short_id = runner.submit(short)
            queued_id = runner.submit(queued)
            assert runner._owner[queued_id] == runner._owner[endless_id]
            # A spawned worker may still be importing when the queued job is
            # done: wait for the endless job to start too, so the cancel
            # below stops a running job rather than a queued one.
            events = []
            for event in runner.stream():
                events.append(event)
                seen = {(e.job_id, e.kind) for e in events}
                if {(queued_id, "result"), (endless_id, "started")} <= seen:
                    break
            assert not seen & {(endless_id, "result"), (endless_id, "error")}
            assert runner.cancel(endless_id)
            events.extend(runner.stream())
        started = {e.job_id: e.payload for e in events if e.kind == "started"}
        assert started[queued_id] == started[short_id] != started[endless_id]
        assert len([e for e in events if e.kind == "started"]) == 3
        settled = [e.job_id for e in events if e.kind in ("result", "error")]
        assert settled == [short_id, queued_id, endless_id]
        results, errors = _outcomes(events)
        assert np.array_equal(results[queued_id], repro.run_spec(queued))
        assert errors == {endless_id: "CancelledError: job cancelled"}

    def test_dead_workers_queued_job_runs_on_a_survivor(self):
        """A dead worker fails only the job it was running; the job queued
        behind it goes to a survivor and returns the direct run's bits."""
        import os
        import signal

        model = proper_coloring_mrf(path_graph(3), 3)
        doomed = JobSpec.mixing_time(model, eps=1e-9, replicas=4096,
                                     stride=1_000_000, max_rounds=1_000_000,
                                     seed=1, name="doomed")
        queued = JobSpec.sample_many(model, 4, rounds=2, seed=3, name="queued")
        with JobRunner(workers=2) as runner:
            doomed_id = runner.submit(doomed)
            endless_id = runner.submit(_endless_job())
            queued_id = runner.submit(queued)
            assert runner._owner[queued_id] == runner._owner[doomed_id]
            stream = runner.stream()
            # A spawned worker may still be importing when the doomed job
            # starts: wait for the endless job to start too, so the cancel
            # below stops a running job rather than a queued one.
            early = []
            while not {doomed_id, endless_id} <= {e.job_id for e in early if e.kind == "started"}:
                early.append(next(stream))
            started = next(e for e in early if e.kind == "started" and e.job_id == doomed_id)
            os.kill(started.payload, signal.SIGKILL)
            events = []
            for event in stream:
                events.append(event)
                if event.job_id == doomed_id:
                    runner.cancel(endless_id)
        results, errors = _outcomes(early + events)
        assert "died executing this job" in errors[doomed_id]
        assert errors[endless_id] == "CancelledError: job cancelled"
        assert np.array_equal(results[queued_id], repro.run_spec(queued))
        started_on = {e.job_id: e.payload for e in events if e.kind == "started"}
        assert started_on[queued_id] != started.payload

    @pytest.mark.skipif(default_start_method() != "fork",
                        reason="the patched trace writer reaches workers by fork")
    def test_an_event_for_a_settled_job_is_dropped(self, tmp_path, monkeypatch):
        """A worker whose trace write fails after a job's result sends a
        second, error event for that job: the runner drops it, and the jobs
        queued on that worker still settle once each, with their results."""
        import os

        from repro.obs import trace as obs_trace

        parent, write = os.getpid(), obs_trace._write

        def full_disk(record):  # a worker's job span closes after the result is sent
            if os.getpid() != parent and record["name"] == "runner.job":
                raise OSError(28, "No space left on device")
            write(record)

        monkeypatch.setattr(obs_trace, "_write", full_disk)
        model = proper_coloring_mrf(path_graph(3), 3)
        specs = [JobSpec.sample_many(model, 4, rounds=2, seed=s) for s in range(3)]
        obs_trace.enable_tracing(tmp_path / "full.jsonl")
        try:
            with JobRunner(workers=1) as runner:
                job_ids = [runner.submit(spec) for spec in specs]
                events = list(runner.stream())
                assert runner.next_event(timeout=0.2) is None
        finally:
            obs_trace.disable_tracing()
        assert [e.job_id for e in events if e.kind in ("result", "error")] == job_ids
        results, errors = _outcomes(events)
        assert not errors
        for job_id, spec in zip(job_ids, specs):
            assert np.array_equal(results[job_id], repro.run_spec(spec))

    def test_concurrent_submit_cancel_and_kill_settle_every_job_once(self):
        """Stress: one thread submits and cancels at random while another
        drains next_event and SIGKILLs a worker mid-run.  Every job settles
        exactly once, and every result equals the direct run."""
        import os
        import random
        import signal
        import sys
        import threading
        import time

        model = proper_coloring_mrf(path_graph(4), 3)
        specs = [JobSpec.sample_many(model, 4, rounds=3, seed=s) for s in range(4)] + [
            JobSpec.tv_curve(model, (1, 2, 4), replicas=16, seed=s) for s in range(4)
        ]
        expected = [repro.run_spec(spec) for spec in specs]
        total = 240
        rng = random.Random(SEED)
        settled: dict[int, list] = {}  # job id -> its result and error events
        submitted: list[tuple[int, int]] = []  # (job id, spec index)
        runner = JobRunner(workers=3)  # more workers than a two-core host has cores
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:

            def submit_and_cancel():
                for index in range(total):
                    submitted.append((runner.submit(specs[index % len(specs)]),
                                      index % len(specs)))
                    if rng.random() < 0.2:
                        runner.cancel(rng.choice(submitted)[0])

            submitter = threading.Thread(target=submit_and_cancel)
            submitter.start()
            killed = False
            deadline = time.monotonic() + 60
            while sum(map(len, settled.values())) < total:
                assert time.monotonic() < deadline, "a job never settled"
                event = runner.next_event(timeout=0.05)
                if event is None:
                    continue
                if event.kind in ("result", "error"):
                    settled.setdefault(event.job_id, []).append(event)
                if event.kind == "started" and not killed and len(settled) > 60:
                    os.kill(event.payload, signal.SIGKILL)
                    killed = True
            submitter.join(timeout=30)
            assert not submitter.is_alive() and killed
            assert runner.next_event(timeout=0.05) is None
        finally:
            sys.setswitchinterval(switch_interval)
            runner.close()
        assert sorted(settled) == sorted(job_id for job_id, _ in submitted)
        assert all(len(events) == 1 for events in settled.values())
        results, errors = _outcomes(event for [event] in settled.values())
        assert set(results).isdisjoint(errors)
        for job_id, index in submitted:
            if job_id in results:
                result = results[job_id]
                if isinstance(result, np.ndarray):
                    assert np.array_equal(result, expected[index])
                else:
                    assert result == expected[index]
        died = [m for m in errors.values() if "died" in m]
        assert len(died) <= 1
        assert all(m.startswith("CancelledError") for m in errors.values()
                   if "died" not in m)

    def test_a_settled_job_leaves_nothing_in_the_runner(self):
        """The runner holds a job only while it is in flight: once three
        jobs settle and the caller drops its references, their specs and
        results are freed."""
        import gc
        import weakref

        model = proper_coloring_mrf(path_graph(3), 3)
        specs = [JobSpec.sample_many(model, 4, rounds=2, seed=s) for s in range(3)]
        spec_refs = [weakref.ref(spec) for spec in specs]
        result_refs = {}
        with JobRunner(workers=1) as runner:
            job_ids = [runner.submit(spec) for spec in specs]
            del specs
            while len(result_refs) < 3:
                event = runner.next_event(timeout=30)
                assert event is not None and event.kind != "error", event
                if event.kind == "result":
                    result_refs[event.job_id] = weakref.ref(event.payload)
            del event
            gc.collect()
            assert sorted(result_refs) == job_ids
            assert [ref() for ref in spec_refs] == [None] * 3
            assert [ref() for ref in result_refs.values()] == [None] * 3

    def test_submit_after_close_raises(self):
        runner = JobRunner(workers=1)
        runner.close()
        with pytest.raises(ExecError, match="closed"):
            runner.submit(JobSpec.sample_many(_coloring(), 2, seed=1))
        with JobRunner(workers=1) as open_runner:
            with pytest.raises(ModelError, match="JobSpec"):
                open_runner.submit("not a job")
