"""Tests for coupling machinery (maximal coupling, coalescence, path coupling)."""

import numpy as np
import pytest

from repro.analysis.theory import two_plus_sqrt2
from repro.chains.coupling import (
    CoupledLocalMetropolis,
    CoupledLubyGlauber,
    coalescence_time,
    maximal_coupling,
    path_coupling_contraction,
    weighted_disagreement,
)
from repro.errors import ConvergenceError, ModelError
from repro.graphs import cycle_graph, path_graph, random_regular_graph
from repro.mrf import proper_coloring_mrf


class TestMaximalCoupling:
    def test_marginals_preserved(self, rng):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.1, 0.6, 0.3])
        xs = np.zeros(3)
        ys = np.zeros(3)
        trials = 30_000
        for _ in range(trials):
            x, y = maximal_coupling(p, q, rng)
            xs[x] += 1
            ys[y] += 1
        assert np.allclose(xs / trials, p, atol=0.015)
        assert np.allclose(ys / trials, q, atol=0.015)

    def test_disagreement_probability_is_tv(self, rng):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.1, 0.6, 0.3])
        tv = 0.5 * np.abs(p - q).sum()
        trials = 30_000
        disagreements = 0
        for _ in range(trials):
            x, y = maximal_coupling(p, q, rng)
            if x != y:
                disagreements += 1
        assert disagreements / trials == pytest.approx(tv, abs=0.015)

    def test_identical_distributions_always_agree(self, rng):
        p = np.array([0.25, 0.25, 0.5])
        for _ in range(200):
            x, y = maximal_coupling(p, p, rng)
            assert x == y


class TestWeightedDisagreement:
    def test_definition(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        x = np.array([0, 1, 2])
        assert weighted_disagreement(mrf, x, x) == 0.0
        y = np.array([0, 2, 2])  # disagreement at the middle vertex (deg 2)
        assert weighted_disagreement(mrf, x, y) == 2.0
        z = np.array([1, 2, 2])  # also at an endpoint (deg 1)
        assert weighted_disagreement(mrf, x, z) == 3.0


@pytest.mark.parametrize("coupled", [CoupledLubyGlauber, CoupledLocalMetropolis])
class TestStarts:
    def test_bad_starts_are_refused(self, coupled):
        """A fractional or out-of-range spin, or a start of the wrong length,
        is refused: it used to be truncated, or to end in an IndexError at
        the first step."""
        mrf = proper_coloring_mrf(path_graph(4), 3)
        good = [0, 1, 0, 1]
        for bad in ([0.9, 1.7, 0, 1], [0, 1, 5, 1], [0, 1, -1, 1], [0, 1, 0]):
            with pytest.raises(ModelError):
                coupled(mrf, bad, good, seed=0)
            with pytest.raises(ModelError):
                coupled(mrf, good, bad, seed=0)

    def test_seed_sequence_is_the_int_seed(self, coupled):
        mrf = proper_coloring_mrf(cycle_graph(6), 7)
        x, y = np.zeros(6, dtype=int), np.ones(6, dtype=int)
        a = coupled(mrf, x, y, seed=5)
        b = coupled(mrf, x.astype(float), y, seed=np.random.SeedSequence(5))
        for _ in range(5):
            a.step()
            b.step()
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert x.tolist() == [0] * 6  # the chain copies its start


class TestCoalescence:
    def test_luby_glauber_coalesces(self):
        mrf = proper_coloring_mrf(cycle_graph(8), 9)  # q > 2*Delta: Dobrushin holds
        coupled = CoupledLubyGlauber(
            mrf,
            initial_x=np.arange(8) % 3,
            initial_y=(np.arange(8) + 1) % 3 + 3,
            seed=0,
        )
        steps = coalescence_time(coupled, max_steps=5000)
        assert steps >= 1
        assert coupled.agree()

    def test_local_metropolis_coalesces(self):
        mrf = proper_coloring_mrf(cycle_graph(8), 9)  # q/Delta = 4.5 > 2+sqrt(2)
        coupled = CoupledLocalMetropolis(
            mrf,
            initial_x=np.zeros(8, dtype=int),
            initial_y=np.ones(8, dtype=int),
            seed=1,
        )
        steps = coalescence_time(coupled, max_steps=5000)
        assert coupled.agree()
        assert steps >= 1

    def test_already_agreed_is_zero(self):
        mrf = proper_coloring_mrf(path_graph(4), 4)
        x = np.array([0, 1, 0, 1])
        coupled = CoupledLocalMetropolis(mrf, x, x, seed=2)
        assert coalescence_time(coupled) == 0

    def test_raises_when_budget_exhausted(self):
        mrf = proper_coloring_mrf(cycle_graph(8), 9)
        coupled = CoupledLubyGlauber(
            mrf, np.zeros(8, dtype=int), np.ones(8, dtype=int), seed=3
        )
        with pytest.raises(ConvergenceError):
            coalescence_time(coupled, max_steps=1)

    def test_each_copy_marginally_faithful(self):
        """A coupled LocalMetropolis copy must behave like a solo chain:
        feasibility is preserved once reached."""
        mrf = proper_coloring_mrf(cycle_graph(6), 7)
        coupled = CoupledLocalMetropolis(
            mrf, np.zeros(6, dtype=int), np.ones(6, dtype=int), seed=4
        )
        for _ in range(100):
            coupled.step()
        assert mrf.is_feasible(coupled.x)
        assert mrf.is_feasible(coupled.y)


class TestPathCouplingContraction:
    def test_contracts_above_threshold(self):
        """q/Delta = 6 is comfortably above 2 + sqrt(2): one coupled
        LocalMetropolis step shrinks the expected weighted disagreement."""
        graph = random_regular_graph(4, 20, seed=7)
        mrf = proper_coloring_mrf(graph, 24)
        ratio = path_coupling_contraction(
            mrf,
            lambda m, x, y, rng: CoupledLocalMetropolis(m, x, y, seed=rng),
            trials=400,
            seed=8,
        )
        assert ratio < 1.0

    def test_luby_glauber_contracts_under_dobrushin(self):
        graph = random_regular_graph(4, 20, seed=9)
        mrf = proper_coloring_mrf(graph, 12)  # q > 2*Delta
        ratio = path_coupling_contraction(
            mrf,
            lambda m, x, y, rng: CoupledLubyGlauber(m, x, y, seed=rng),
            trials=400,
            seed=10,
        )
        assert ratio < 1.0

    def test_threshold_constant_sane(self):
        assert two_plus_sqrt2() == pytest.approx(3.4142135623730951)
