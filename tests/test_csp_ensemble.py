"""Tests for the batched CSP replica-ensemble engines.

The tentpole contract of the CSP ensembles: each replica of
:class:`EnsembleLubyGlauber` / :class:`EnsembleLocalMetropolis`
evolves by the same Markov kernel as the corresponding sequential CSP
chain.  Verified with the shared statistical harness: exact stationarity
(chi-square + TV bound against ``exact_csp_gibbs_distribution``) and
two-sample engine equivalence against the per-chain
:class:`SequentialChainEnsemble` fallback, plus the structural per-round
invariants (strongly independent update sets, feasibility preservation)
in every replica.
"""

import numpy as np
import pytest
from statutils import assert_same_distribution, assert_stationary

import repro
import repro.compiled
from repro.analysis.convergence import SequentialChainEnsemble
from repro.chains.csp_chains import LocalMetropolisCSP, LubyGlauberCSP
from repro.chains.ensemble import (
    EnsembleLocalMetropolis,
    EnsembleLubyGlauber,
)
from repro.csp import (
    Constraint,
    LocalCSP,
    coloring_csp,
    dominating_set_csp,
    exact_csp_gibbs_distribution,
    is_strongly_independent,
    maximal_independent_set_csp,
    mrf_as_csp,
    not_all_equal_csp,
)
from repro.errors import InfeasibleStateError, ModelError, StateSpaceTooLargeError
from repro.graphs import cycle_graph, path_graph
from repro.mrf import hardcore_mrf, ising_mrf

ENSEMBLE_CSP_CLASSES = (EnsembleLubyGlauber, EnsembleLocalMetropolis)


def nae_ring_csp(n: int = 5, q: int = 3) -> LocalCSP:
    """3-uniform NAE hypergraph colouring on a ring of n vertices."""
    scopes = [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    return not_all_equal_csp(scopes, n=n, q=q)


class TestConstruction:
    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_shapes_and_greedy_start(self, cls):
        csp = dominating_set_csp(cycle_graph(6))
        ensemble = cls(csp, 9, seed=0)
        assert ensemble.config.shape == (9, 6)
        assert ensemble.config.dtype == np.int64
        assert np.array_equal(
            ensemble.config, np.tile(csp.compiled().greedy_start, (9, 1))
        )

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_shared_initial_is_tiled(self, cls):
        csp = nae_ring_csp()
        initial = np.array([0, 1, 2, 0, 1])
        ensemble = cls(csp, 4, initial=initial, seed=0)
        assert np.array_equal(ensemble.config, np.tile(initial, (4, 1)))

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_per_replica_initial(self, cls):
        csp = dominating_set_csp(path_graph(3))
        batch = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
        ensemble = cls(csp, 3, initial=batch, seed=0)
        assert np.array_equal(ensemble.config, batch)

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_validation(self, cls):
        csp = dominating_set_csp(path_graph(3))
        with pytest.raises(ModelError, match="replicas >= 1"):
            cls(csp, 0)
        with pytest.raises(ModelError, match="shape"):
            cls(csp, 2, initial=[0, 1])
        with pytest.raises(ModelError, match="spins must lie"):
            cls(csp, 2, initial=[0, 1, 9])
        with pytest.raises(ModelError, match="shape"):
            cls(csp, 2, initial=np.zeros((3, 3), dtype=int))

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_constraint_free_csp_samples_uniformly(self, cls):
        csp = LocalCSP(3, 2, [], name="free")
        ensemble = cls(csp, 3000, seed=1)
        batch = ensemble.run(4)
        assert ensemble.is_feasible().all()
        assert_stationary(batch, exact_csp_gibbs_distribution(csp))

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_run_returns_copy(self, cls):
        ensemble = cls(dominating_set_csp(cycle_graph(5)), 4, seed=0)
        batch = ensemble.run(3)
        batch[:] = 0
        assert not np.array_equal(ensemble.config, batch)

    def test_mixing_row_cap_guards_high_arity(self, monkeypatch):
        monkeypatch.setattr(EnsembleLocalMetropolis, "MAX_MIXING_ROWS", 10)
        # Four arity-3 covers (7 rows each) and four hardcore edges (3 rows
        # each), but pass tables of 64 and 16 entries.
        models = (
            lambda: dominating_set_csp(cycle_graph(4)), lambda: hardcore_mrf(cycle_graph(4), 1.0)
        )
        for make in models:
            EnsembleLocalMetropolis(make(), 2)
        # The cap guards the gather path of both kinds: no pass tables send
        # every bucket there.
        monkeypatch.setattr(repro.compiled, "MAX_PASS_TABLE", 0)
        for make in models:
            with pytest.raises(StateSpaceTooLargeError, match="mixing filter"):
                EnsembleLocalMetropolis(make(), 2)


class NearOneUniforms:
    """Delegating RNG whose float64 uniform draws sit just below 1."""

    def __init__(self, inner):
        self._inner = inner

    def random(self, size=None, dtype=np.float64):
        if dtype == np.float64:
            return np.full(size, np.nextafter(1.0, 0.0))
        return self._inner.random(size, dtype=dtype)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestInvariants:
    def test_lg_changed_sets_strongly_independent_per_replica(self):
        csp = dominating_set_csp(cycle_graph(6))
        ensemble = EnsembleLubyGlauber(csp, 8, seed=2)
        for _ in range(25):
            before = ensemble.config
            ensemble.step()
            after = ensemble.config
            for i in range(8):
                changed = np.nonzero(before[i] != after[i])[0]
                assert is_strongly_independent(csp, changed)

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_feasibility_preserved_once_reached(self, cls):
        csp = dominating_set_csp(cycle_graph(5))
        ensemble = cls(csp, 16, seed=3)
        ensemble.run(60)
        if ensemble.is_feasible().all():
            for _ in range(20):
                ensemble.step()
                assert ensemble.is_feasible().all()

    def test_lg_inverse_cdf_fallthrough_skips_zero_mass_spin(self):
        """Regression: when cumsum rounding leaves cdf[-1] < 1 and the top
        spins carry zero mass, the fallthrough must select the largest
        *positive-mass* spin, never a zero-probability one (the
        cftp._inverse_cdf_spin rule)."""
        # Ten equal-mass spins + one zero-mass spin: cumsum(0.1 * 10) rounds
        # to just below 1, so a near-one uniform falls past every cdf entry.
        table = np.array([1.0] * 10 + [0.0])
        csp = LocalCSP(1, 11, [Constraint((0,), table)])
        ensemble = EnsembleLubyGlauber(csp, 4, seed=0)
        ensemble.rng = NearOneUniforms(ensemble.rng)
        ensemble.step()
        assert np.all(ensemble.config == 9)  # largest positive-mass spin

    def test_lg_zero_mass_marginal_raises(self):
        # q = 2 on a triangle: whichever vertex is selected sees both
        # colours on its neighbours and has an all-zero marginal.
        csp = coloring_csp(cycle_graph(3), 2)
        ensemble = EnsembleLubyGlauber(
            csp, 4, initial=np.array([0, 1, 0]), seed=4
        )
        with pytest.raises(ModelError, match="zero mass"):
            ensemble.run(50)

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    def test_trajectory_protocol(self, cls):
        ensemble = cls(dominating_set_csp(path_graph(4)), 6, seed=5)
        assert ensemble.advance(2) is ensemble
        assert ensemble.steps_taken == 2
        rounds = [r for r, batch in ensemble.iter_checkpoints([1, 3])]
        assert rounds == [1, 3]
        assert ensemble.steps_taken == 5


class TestStationarity:
    """Cross-replica distribution == exact CSP Gibbs measure, on weighted
    CSPs (the law matrix's registry CSPs have 0/1 tables)."""

    @pytest.mark.parametrize("cls", ENSEMBLE_CSP_CLASSES)
    @pytest.mark.parametrize(
        "make_csp",
        [
            lambda: dominating_set_csp(path_graph(4), weight=2.0),
            lambda: mrf_as_csp(ising_mrf(path_graph(3), beta=1.4, field=0.8)),
        ],
        ids=["domset-weighted", "ising-as-csp"],
    )
    def test_ensemble_stationary(self, cls, make_csp):
        csp = make_csp()
        gibbs = exact_csp_gibbs_distribution(csp)
        ensemble = cls(csp, 4000, seed=11)
        assert_stationary(ensemble.run(100), gibbs)


class TestSequentialEquivalence:
    """The tentpole acceptance criterion: the batched CSP engines are
    distributionally equivalent to the per-chain sequential CSP chains
    under the two-sample chi-square assertion."""

    @pytest.mark.parametrize(
        "ensemble_cls,chain_cls",
        [
            (EnsembleLubyGlauber, LubyGlauberCSP),
            (EnsembleLocalMetropolis, LocalMetropolisCSP),
        ],
    )
    def test_matches_sequential_chain_distribution(self, ensemble_cls, chain_cls):
        csp = dominating_set_csp(path_graph(3))
        rounds, replicas = 40, 1500
        batched = ensemble_cls(csp, replicas, seed=21).run(rounds)
        fallback = SequentialChainEnsemble(
            lambda rng: chain_cls(csp, seed=rng), replicas, seed=22
        )
        sequential = fallback.run(rounds)
        assert_same_distribution(batched, sequential, csp.q)
        # Both are also exactly stationary by this point.
        gibbs = exact_csp_gibbs_distribution(csp)
        assert_stationary(batched, gibbs)
        assert_stationary(sequential, gibbs)


class TestConvergencePipeline:
    """The PR 3 convergence pipeline works on CSP ensembles unchanged."""

    def test_agreement_curve_of_coupled_csp_twins(self):
        from repro.analysis.convergence import ensemble_agreement_curve

        csp = dominating_set_csp(cycle_graph(6))
        # Same integer seed => shared proposal/coin stream => a grand
        # coupling; twins started apart should agree more over time.
        a = EnsembleLocalMetropolis(csp, 64, initial=np.zeros(6, int), seed=7)
        b = EnsembleLocalMetropolis(csp, 64, initial=np.ones(6, int), seed=7)
        curve = ensemble_agreement_curve(a, b, [1, 2, 4, 8, 16, 32])
        values = [agreement for _, agreement in curve]
        assert all(0.0 <= value <= 1.0 for value in values)
        assert values[-1] > values[0]

    def test_scalar_trajectory_on_csp_ensemble(self):
        from repro.analysis.convergence import ensemble_scalar_trajectory

        ensemble = EnsembleLubyGlauber(dominating_set_csp(path_graph(4)), 5, seed=8)
        series = ensemble_scalar_trajectory(
            ensemble, lambda batch: batch.sum(axis=1).astype(float), rounds=12, thin=3
        )
        assert series.shape == (5, 4)
        assert ensemble.steps_taken == 12


class TestApiDispatch:
    def test_make_ensemble_dispatches_csp_engines(self):
        csp = dominating_set_csp(cycle_graph(5))
        lm = repro.make_ensemble(csp, 4, method="local-metropolis", seed=0)
        assert isinstance(lm, EnsembleLocalMetropolis)
        lg = repro.make_ensemble(csp, 4, method="luby-glauber", seed=0)
        assert isinstance(lg, EnsembleLubyGlauber)
        with pytest.raises(ModelError, match="no CSP kernel"):
            repro.make_ensemble(csp, 4, method="glauber")

    def test_infeasible_greedy_start_is_refused(self):
        # On C7 the greedy MIS prefix leaves vertex 6 no spin; a feasible
        # initial= configuration runs.
        csp = maximal_independent_set_csp(cycle_graph(7))
        with pytest.raises(InfeasibleStateError, match="vertex 6 .*initial="):
            repro.sample_many(csp, 4, rounds=2, seed=0)
        batch = repro.sample_many(csp, 4, rounds=2, seed=0, initial=[1, 0, 1, 0, 1, 0, 0])
        assert all(csp.is_feasible(row) for row in batch)

    def test_sample_many_csp(self):
        csp = dominating_set_csp(cycle_graph(6))
        batch = repro.sample_many(csp, 12, seed=1)
        assert batch.shape == (12, 6)
        assert all(csp.is_feasible(row) for row in batch)

    def test_sample_csp_chain_and_reference_engines(self):
        csp = dominating_set_csp(path_graph(4))
        for method in ("local-metropolis", "luby-glauber"):
            config = repro.sample(csp, method=method, rounds=60, seed=2)
            assert config.shape == (4,)
            assert csp.is_feasible(config)
        config = repro.sample(
            csp, method="luby-glauber", rounds=40, seed=3, engine="reference"
        )
        assert config.shape == (4,)
        with pytest.raises(ModelError, match="no CSP kernel"):
            repro.sample(csp, method="glauber", rounds=4)

    def test_tv_curve_and_mixing_time_csp(self):
        csp = dominating_set_csp(path_graph(4))
        curve = repro.tv_curve(csp, [1, 4, 16], replicas=600, seed=4)
        assert [r for r, _ in curve] == [1, 4, 16]
        assert all(0.0 <= tv <= 1.0 for _, tv in curve)
        assert curve[0][1] > curve[-1][1]
        tau = repro.mixing_time(csp, eps=0.3, replicas=600, max_rounds=200, seed=5)
        assert 1 <= tau <= 200

    def test_default_round_budget_uses_conflict_degree(self):
        csp = dominating_set_csp(path_graph(4))
        # Conflict degree of P4's cover hypergraph is 3 > graph degree 2.
        assert repro.model_degree(csp) == 3
        budget_lg = repro.default_round_budget(csp, "luby-glauber", 0.05)
        budget_lm = repro.default_round_budget(csp, "local-metropolis", 0.05)
        assert budget_lg > budget_lm
