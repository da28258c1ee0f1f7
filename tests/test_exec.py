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
    SamplingJob,
    ShardedEnsemble,
    as_seed_sequence,
    make_shard_plan,
    slice_initial,
)
from repro.exec.jobs import JOB_KINDS, _execute_job, _JobCancelled
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.mrf import exact_gibbs_distribution, ising_mrf, proper_coloring_mrf

from statutils import assert_same_distribution

SEED = 20170625


def _coloring():
    return proper_coloring_mrf(grid_graph(3, 3), 5)


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

    def test_slice_initial_validates_shapes(self):
        shared, per_replica = slice_initial([0, 1, 2], n=3, replicas=5)
        assert not per_replica and shared.shape == (3,)
        batch, per_replica = slice_initial(np.zeros((5, 3)), n=3, replicas=5)
        assert per_replica and batch.shape == (5, 3)
        assert slice_initial(None, n=3, replicas=5) == (None, False)
        with pytest.raises(ModelError, match="initial configuration"):
            slice_initial(np.zeros((4, 3)), n=3, replicas=5)


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
        return SamplingJob.sample_many(model, 12, rounds=5, seed=1, **placement)
    if kind == "tv_curve":
        return SamplingJob.tv_curve(model, (1, 2, 4), replicas=64, seed=2, **placement)
    return SamplingJob.mixing_time(
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
            SamplingJob(kind="nope", model=_coloring())
        with pytest.raises(ModelError, match="checkpoints"):
            SamplingJob(kind="tv_curve", model=_coloring(), replicas=4)
        with pytest.raises(ModelError, match="eps"):
            SamplingJob(kind="mixing_time", model=_coloring(), replicas=4)
        # stride=0 would spin the worker loop forever; max_rounds likewise.
        with pytest.raises(ModelError, match="stride"):
            SamplingJob.mixing_time(_coloring(), eps=0.1, stride=0)
        with pytest.raises(ModelError, match="max_rounds"):
            SamplingJob.mixing_time(_coloring(), eps=0.1, max_rounds=0)
        with pytest.raises(ModelError, match="workers"):
            JobRunner(workers=0)

    def test_results_match_direct_api_calls_for_every_method(self):
        coloring = proper_coloring_mrf(path_graph(4), 3)
        ising = ising_mrf(path_graph(4), beta=0.7, field=0.2)
        csp = _csp()
        jobs = [
            SamplingJob.sample_many(coloring, 12, method="local-metropolis",
                                    rounds=5, seed=1),
            SamplingJob.sample_many(coloring, 12, method="luby-glauber",
                                    rounds=5, seed=2),
            SamplingJob.sample_many(ising, 6, method="glauber", rounds=5, seed=3),
            SamplingJob.sample_many(csp, 8, method="luby-glauber", rounds=4, seed=4),
            SamplingJob.tv_curve(coloring, (1, 2, 4), replicas=64, seed=5),
            SamplingJob.mixing_time(coloring, eps=0.35, replicas=256,
                                    max_rounds=200, stride=4, seed=6),
        ]
        with JobRunner(workers=2) as runner:
            ids = [runner.submit(job) for job in jobs]
            results = runner.run()
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
                SamplingJob.tv_curve(model, checkpoints, replicas=64, seed=9,
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
        doomed = SamplingJob.mixing_time(model, eps=1e-9, replicas=8,
                                         max_rounds=3, seed=1, name="doomed")
        fine = SamplingJob.sample_many(model, 4, rounds=2, seed=2, name="fine")
        with JobRunner(workers=1) as runner:
            doomed_id = runner.submit(doomed)
            fine_id = runner.submit(fine)
            events = list(runner.stream())
            assert "ConvergenceError" in runner.errors[doomed_id]
            assert fine_id in runner.results
            assert any(e.kind == "error" and e.job_id == doomed_id for e in events)
            with pytest.raises(ExecError, match="doomed"):
                runner.run()

    def test_run_all_aligns_results_and_isolates_failures(self):
        """run_all never raises: each job yields (result, error, elapsed) in order."""
        model = proper_coloring_mrf(path_graph(3), 3)
        jobs = [
            SamplingJob.sample_many(model, 4, rounds=2, seed=1, name="first"),
            SamplingJob.mixing_time(model, eps=1e-9, replicas=8,
                                    max_rounds=3, seed=2, name="doomed"),
            SamplingJob.sample_many(model, 4, rounds=2, seed=3, name="last"),
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
        # compute when terminated — away from the shared tasks queue's
        # lock, the one structure a dying worker could still wedge.
        slow = SamplingJob.mixing_time(model, eps=1e-9, replicas=4096,
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
                SamplingJob.sample_many(model, 4, rounds=2, seed=2, name="fine")
            )
            for _ in stream:
                pass
            assert "died" in runner.errors[slow_id]
            assert fine_id in runner.results

    def test_dead_worker_inference_traced_and_pool_survives(self, tmp_path):
        """Quiet-time dead-worker inference: the killed worker's job fails
        with an error JobUpdate, surviving jobs complete, and the
        inference leaves a ``runner.job_lost`` event in the trace file."""
        import json

        from repro.obs import trace as obs_trace

        trace_file = tmp_path / "exec.jsonl"
        model = proper_coloring_mrf(path_graph(3), 3)
        slow = SamplingJob.mixing_time(model, eps=1e-9, replicas=4096,
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
                    SamplingJob.sample_many(model, 4, rounds=2, seed=2,
                                            name="fine")
                )
                events = list(stream)
                assert any(
                    e.kind == "error" and e.job_id == slow_id for e in events
                )
                assert "died" in runner.errors[slow_id]
                assert fine_id in runner.results
        finally:
            obs_trace.disable_tracing()
        with open(trace_file, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        lost = [r for r in records if r["name"] == "runner.job_lost"]
        assert len(lost) == 1
        assert lost[0]["kind"] == "event"
        assert lost[0]["attrs"]["job_id"] == slow_id
        assert lost[0]["attrs"]["worker_pid"] == started.payload

    def test_idle_worker_death_never_hangs_the_runner(self):
        """Killing an idle worker must leave every job settled, never hung.

        Depending on which worker held the shared task queue's lock when
        killed, the submitted job either runs on the survivor or is failed
        by the lost-job inference — both are settled outcomes; the hang is
        the regression.
        """
        model = proper_coloring_mrf(path_graph(3), 3)
        with JobRunner(workers=2) as runner:
            victim = runner._processes[0]
            victim.terminate()
            victim.join()
            job_id = runner.submit(
                SamplingJob.sample_many(model, 4, rounds=2, seed=3, name="orphanable")
            )
            for _ in runner.stream():
                pass
            assert job_id in runner.results or job_id in runner.errors

    def test_submit_after_close_raises(self):
        runner = JobRunner(workers=1)
        runner.close()
        with pytest.raises(ExecError, match="closed"):
            runner.submit(SamplingJob.sample_many(_coloring(), 2, seed=1))
        with JobRunner(workers=1) as open_runner:
            with pytest.raises(ModelError, match="SamplingJob"):
                open_runner.submit("not a job")
