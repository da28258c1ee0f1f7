"""Tests for the ensemble-native convergence pipeline.

Covers the tentpole contract: the batched-engine curves agree
distributionally with the per-chain SequentialChainEnsemble, the
trajectory-recording API behaves, the new agreement/diagnostics plumbing
works, and the stride / checkpoint validation bugs stay fixed.
"""

import numpy as np
import pytest
from statutils import assert_same_distribution, empirical_tv_bound

import repro
from repro.analysis.convergence import (
    SequentialChainEnsemble,
    empirical_mixing_time,
    ensemble_agreement_curve,
    ensemble_scalar_trajectory,
    ensemble_tv_curve,
)
from repro.analysis.diagnostics import batch_effective_sample_size, gelman_rubin
from repro.api import make_ensemble
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisMRF,
)
from repro.chains.local_metropolis import LocalMetropolisChain
from repro.errors import ConvergenceError, ModelError
from repro.graphs import cycle_graph, path_graph
from repro.mrf import exact_gibbs_distribution, proper_coloring_mrf


class _CountingEnsemble:
    """Minimal duck-typed ensemble that records how far it was advanced."""

    def __init__(self, batch: np.ndarray) -> None:
        self._batch = batch
        self.steps_taken = 0

    @property
    def config(self) -> np.ndarray:
        return self._batch.copy()

    def advance(self, steps: int):
        self.steps_taken += steps
        return self


class TestEnsembleProtocol:
    def test_advance_and_iter_checkpoints(self, cycle4_coloring):
        ensemble = make_ensemble(cycle4_coloring, 16, seed=0)
        assert isinstance(ensemble, EnsembleLocalMetropolisColoring)
        assert ensemble.advance(3) is ensemble
        assert ensemble.steps_taken == 3
        rounds = [r for r, _ in ensemble.iter_checkpoints([2, 5])]
        assert rounds == [2, 5]
        assert ensemble.steps_taken == 8  # 3 + 5 relative rounds
        batch = ensemble.config
        assert batch.shape == (16, 4)

    @pytest.mark.parametrize("checkpoints", [[2, 5, 3], [1, 2.5], []])
    def test_refused_checkpoints_take_no_round(self, cycle4_coloring, checkpoints):
        ensemble = make_ensemble(cycle4_coloring, 4, seed=0)
        with pytest.raises(ModelError, match="checkpoints"):
            list(ensemble.iter_checkpoints(checkpoints))
        assert ensemble.steps_taken == 0

    def test_sequential_chain_ensemble_protocol(self, path3_ising):
        ensemble = make_ensemble(path3_ising, 5, method="local-metropolis", seed=1)
        assert isinstance(ensemble, EnsembleLocalMetropolisMRF)

        def factory(rng):
            return LocalMetropolisChain(path3_ising, seed=rng)

        ensemble = SequentialChainEnsemble(factory, 5, seed=1)
        batch = ensemble.run(4)
        assert batch.shape == (5, 3)
        assert ensemble.steps_taken == 4
        checkpoints = list(ensemble.iter_checkpoints([1, 3]))
        assert [r for r, _ in checkpoints] == [1, 3]
        assert checkpoints[1][1].shape == (5, 3)

    def test_glauber_dispatch(self, path3_ising):
        ensemble = make_ensemble(path3_ising, 4, method="glauber", seed=2)
        assert isinstance(ensemble, EnsembleGlauberDynamics)
        assert ensemble.run(6).shape == (4, 3)

    def test_general_mrf_initial_batch_per_replica(self, path3_ising):
        initial = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
        ensemble = make_ensemble(
            path3_ising, 3, method="local-metropolis", seed=4, initial=initial
        )
        assert np.array_equal(ensemble.config, initial)


class TestEquivalence:
    """The ensemble-native curves agree with the per-chain SequentialChainEnsemble."""

    def test_tv_curves_agree_distributionally(self):
        mrf = proper_coloring_mrf(path_graph(3), 4)
        target = exact_gibbs_distribution(mrf)
        initial = np.zeros(3, dtype=np.int64)
        checkpoints = [1, 4, 16]
        replicas = 800

        ensemble = make_ensemble(mrf, replicas, seed=11, initial=initial)
        fast = ensemble_tv_curve(ensemble, target, checkpoints=checkpoints)

        def factory(rng):
            return LocalMetropolisChain(mrf, initial=initial, seed=rng)

        fallback = SequentialChainEnsemble(factory, replicas, seed=11)
        slow = ensemble_tv_curve(fallback, target, checkpoints=checkpoints)
        assert [r for r, _ in fast] == [r for r, _ in slow] == checkpoints
        # Both empirical TVs estimate the same population TV at every
        # checkpoint, so their gap is at most the sum of the two
        # concentration bounds (statutils calibrates the tolerance).
        tolerance = 2.0 * empirical_tv_bound(4**3, replicas)
        for (_, tv_fast), (_, tv_slow) in zip(fast, slow):
            assert abs(tv_fast - tv_slow) < tolerance
        # Both implementations see the same decay.
        assert fast[0][1] > fast[-1][1]
        assert slow[0][1] > slow[-1][1]
        # And at the last checkpoint the two engines' batches pass the
        # two-sample chi-square engine-equivalence test.
        assert_same_distribution(ensemble.config, fallback.config, mrf.q)

    def test_mixing_times_agree(self):
        mrf = proper_coloring_mrf(path_graph(3), 4)
        target = exact_gibbs_distribution(mrf)
        initial = np.zeros(3, dtype=np.int64)

        ensemble = make_ensemble(mrf, 600, seed=5, initial=initial)
        fast = empirical_mixing_time(ensemble, target, eps=0.3, max_rounds=200)

        def factory(rng):
            return LocalMetropolisChain(mrf, initial=initial, seed=rng)

        slow = empirical_mixing_time(
            factory, target, eps=0.3, n_chains=600, max_rounds=200, seed=5
        )
        assert 1 <= fast <= 200
        assert 1 <= slow <= 200
        assert abs(fast - slow) <= 5


class TestAgreementCurve:
    def test_coupled_twins_coalesce(self):
        # Same seed => identical proposal stream => a grand coupling.  With
        # q > (2 + sqrt 2) Delta the coupling contracts, so twins started
        # apart must coalesce.
        mrf = proper_coloring_mrf(cycle_graph(4), 8)
        a = make_ensemble(mrf, 64, seed=7, initial=np.array([0, 1, 0, 1]))
        b = make_ensemble(mrf, 64, seed=7, initial=np.array([2, 3, 2, 3]))
        curve = ensemble_agreement_curve(a, b, [1, 2, 4, 8, 16, 32])
        values = [agreement for _, agreement in curve]
        assert all(0.0 <= value <= 1.0 for value in values)
        assert values[-1] > values[0]
        assert values[-1] > 0.9

    def test_identical_twins_stay_identical(self, cycle4_coloring):
        a = make_ensemble(cycle4_coloring, 8, seed=9)
        b = make_ensemble(cycle4_coloring, 8, seed=9)
        curve = ensemble_agreement_curve(a, b, [1, 3])
        assert all(agreement == 1.0 for _, agreement in curve)

    def test_rejects_non_ensembles(self):
        with pytest.raises(ConvergenceError):
            ensemble_agreement_curve(object(), object(), [1, 2])


class TestScalarTrajectoryDiagnostics:
    def test_trajectory_feeds_gelman_rubin_and_ess(self, cycle4_coloring):
        ensemble = make_ensemble(cycle4_coloring, 6, seed=13)
        series = ensemble_scalar_trajectory(
            ensemble, lambda batch: batch[:, 0].astype(float), rounds=20, thin=2
        )
        assert series.shape == (6, 10)
        assert ensemble.steps_taken == 20
        rhat = gelman_rubin(series)
        assert np.isfinite(rhat) and rhat > 0.0
        assert 0.0 < batch_effective_sample_size(series) <= 6 * 10

    def test_clamps_final_stride(self, cycle4_coloring):
        ensemble = make_ensemble(cycle4_coloring, 4, seed=14)
        series = ensemble_scalar_trajectory(
            ensemble, lambda batch: batch[:, 0].astype(float), rounds=5, thin=3
        )
        assert series.shape == (4, 2)  # records at rounds 3 and 5
        assert ensemble.steps_taken == 5

    def test_validation(self, cycle4_coloring):
        ensemble = make_ensemble(cycle4_coloring, 2, seed=15)
        with pytest.raises(ConvergenceError):
            ensemble_scalar_trajectory(ensemble, lambda b: b[:, 0], rounds=0)
        with pytest.raises(ConvergenceError):
            ensemble_scalar_trajectory(ensemble, lambda b: b[:, 0], rounds=3, thin=0)
        with pytest.raises(ConvergenceError):
            ensemble_scalar_trajectory(ensemble, lambda b: b, rounds=2)


class TestMixingTimeBudget:
    """Regression: the round count must never exceed max_rounds."""

    def test_final_stride_clamped_to_max_rounds(self):
        target = repro.exact_gibbs_distribution(
            proper_coloring_mrf(path_graph(2), 2)
        )
        fake = _CountingEnsemble(np.zeros((4, 2), dtype=np.int64))
        # The point-mass batch sits at TV 1.0 from the two-colouring target,
        # so eps=0.4 is unreachable and the estimator must exhaust exactly
        # max_rounds (old code overshot to 6 with stride=3).
        with pytest.raises(ConvergenceError, match="did not reach"):
            empirical_mixing_time(fake, target, eps=0.4, max_rounds=5, stride=3)
        assert fake.steps_taken == 5

    def test_returned_rounds_capped(self):
        target = repro.exact_gibbs_distribution(
            proper_coloring_mrf(path_graph(2), 2)
        )
        fake = _CountingEnsemble(np.zeros((4, 2), dtype=np.int64))
        # eps=1.0 is satisfied immediately, at the first (stride-clamped)
        # checkpoint.
        assert empirical_mixing_time(fake, target, eps=1.0, max_rounds=5, stride=3) == 3

    def test_validates_stride_and_budget(self):
        target = repro.exact_gibbs_distribution(
            proper_coloring_mrf(path_graph(2), 2)
        )
        fake = _CountingEnsemble(np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ConvergenceError, match="stride"):
            empirical_mixing_time(fake, target, eps=0.5, stride=0)
        with pytest.raises(ConvergenceError, match="max_rounds"):
            empirical_mixing_time(fake, target, eps=0.5, max_rounds=0)


class TestCheckpointValidation:
    """Regression: non-positive checkpoints used to be silently skipped."""

    @pytest.mark.parametrize(
        "checkpoints", [[], [0, 1], [-1, 2], [4, 1], [2, 2], [1.5, 2]]
    )
    def test_bad_checkpoints_rejected(self, cycle4_coloring, checkpoints):
        target = exact_gibbs_distribution(cycle4_coloring)
        ensemble = make_ensemble(cycle4_coloring, 4, seed=0)
        with pytest.raises(ConvergenceError):
            ensemble_tv_curve(ensemble, target, checkpoints=checkpoints)

    def test_factory_requires_n_chains(self, cycle4_coloring):
        target = exact_gibbs_distribution(cycle4_coloring)
        with pytest.raises(ConvergenceError, match="n_chains"):
            ensemble_tv_curve(lambda rng: None, target, checkpoints=[1, 2])


class TestApiConvenience:
    def test_tv_curve_decays(self):
        mrf = proper_coloring_mrf(cycle_graph(4), 3)
        curve = repro.tv_curve(
            mrf,
            [1, 4, 16],
            replicas=400,
            seed=21,
            initial=np.zeros(4, dtype=np.int64),
        )
        assert [r for r, _ in curve] == [1, 4, 16]
        assert curve[0][1] > curve[-1][1]

    def test_mixing_time_within_budget(self):
        mrf = proper_coloring_mrf(cycle_graph(4), 3)
        tau = repro.mixing_time(mrf, eps=0.3, replicas=400, max_rounds=300, seed=22)
        assert 1 <= tau <= 300

    def test_mixing_time_dispatches_glauber(self, path3_ising):
        tau = repro.mixing_time(
            path3_ising,
            eps=0.25,
            method="glauber",
            replicas=500,
            max_rounds=400,
            seed=23,
        )
        assert 1 <= tau <= 400

    def test_general_mrf_local_metropolis_tv_curve(self, path3_ising):
        # Non-colouring model + local-metropolis => EnsembleLocalMetropolisMRF.
        curve = repro.tv_curve(
            path3_ising, [1, 8], method="local-metropolis", replicas=200, seed=24
        )
        assert len(curve) == 2
        assert all(0.0 <= tv <= 1.0 for _, tv in curve)

    def test_generic_luby_glauber_tv_curve_is_batched(self, path3_ising):
        # Non-colouring model + luby-glauber gets the batched MRF heat-bath
        # kernel, and its TV curve decays like the dynamics.
        curve = repro.tv_curve(
            path3_ising, [1, 16], method="luby-glauber", replicas=400, seed=24
        )
        assert len(curve) == 2
        assert all(0.0 <= tv <= 1.0 for _, tv in curve)
        assert curve[-1][1] < curve[0][1]
