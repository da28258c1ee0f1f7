"""Tests for the top-level sampling API."""

import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.dynamic import region_round_budget
from repro.csp import not_all_equal_csp
from repro.errors import ModelError
from repro.graphs import cycle_graph, grid_graph
from repro.mrf import proper_coloring_mrf

# n=5 models for the argument checks of sample(): an MRF with q=4 and a
# CSP with q=3, each with a valid start.
START_MODELS = {
    "mrf": (lambda: proper_coloring_mrf(cycle_graph(5), 4), [0, 1, 0, 1, 2]),
    "csp": (lambda: not_all_equal_csp([(0, 1, 2), (2, 3, 4)], n=5, q=3), [0, 1, 2, 1, 0]),
}


class TestSample:
    def test_default_method_returns_feasible_coloring(self):
        mrf = proper_coloring_mrf(grid_graph(4, 4), 16)
        config = repro.sample(mrf, seed=0)
        assert config.shape == (16,)
        assert mrf.is_feasible(config)

    @pytest.mark.parametrize("method", repro.METHODS)
    def test_all_methods_produce_feasible_output(self, method):
        mrf = proper_coloring_mrf(cycle_graph(8), 6)
        config = repro.sample(mrf, method=method, seed=1)
        assert mrf.is_feasible(config)

    def test_explicit_rounds_respected(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        config = repro.sample(mrf, rounds=5, seed=2)
        assert config.shape == (6,)

    def test_unknown_method_rejected(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError, match="unknown method"):
            repro.sample(mrf, method="simulated-annealing")

    def test_reproducible(self):
        mrf = proper_coloring_mrf(cycle_graph(8), 6)
        a = repro.sample(mrf, seed=3)
        b = repro.sample(mrf, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed", [1, np.random.default_rng(5)], ids=["int", "generator"]
    )
    def test_reference_engine(self, seed):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        config = repro.sample(
            mrf, method="luby-glauber", rounds=20, seed=seed, engine="reference"
        )
        assert mrf.is_feasible(config)

    def test_glauber_has_no_local_engine(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError, match="no LOCAL-model protocol"):
            repro.sample(mrf, method="glauber", engine="reference")

    @pytest.mark.parametrize("engine", ["warp-drive", "vectorized"])
    def test_unknown_engine_rejected(self, engine):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError, match=f"unknown engine '{engine}'"):
            repro.sample(mrf, engine=engine)

    def test_engines_constant(self):
        assert repro.ENGINES == ("chain", "reference")

    @pytest.mark.parametrize("engine", repro.ENGINES)
    @pytest.mark.parametrize("kind", sorted(START_MODELS))
    def test_negative_rounds_rejected(self, kind, engine):
        model = START_MODELS[kind][0]()
        with pytest.raises(ModelError, match="rounds must be >= 0, got -1"):
            repro.sample(model, rounds=-1, seed=1, engine=engine)

    @pytest.mark.parametrize("bad", ["short", "long", "negative", "too-large"])
    @pytest.mark.parametrize("method", ["local-metropolis", "luby-glauber"])
    @pytest.mark.parametrize("engine", repro.ENGINES)
    @pytest.mark.parametrize("kind", sorted(START_MODELS))
    def test_bad_initial_rejected(self, kind, engine, method, bad):
        make, valid = START_MODELS[kind]
        model = make()
        initial = {
            "short": valid[:-1],
            "long": valid + [0],
            "negative": valid[:-1] + [-1],
            "too-large": valid[:-1] + [model.q],
        }[bad]
        with pytest.raises(ModelError, match="initial"):
            repro.sample(
                model, method=method, rounds=5, seed=1, initial=initial, engine=engine
            )


class TestSampleMany:
    def test_matches_sample_contract(self):
        mrf = proper_coloring_mrf(grid_graph(4, 4), 16)
        batch = repro.sample_many(mrf, 8, seed=0)
        assert batch.shape == (8, 16)
        assert batch.dtype == np.int64
        assert all(mrf.is_feasible(row) for row in batch)

    def test_returns_copy_per_call(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        batch = repro.sample_many(mrf, 4, rounds=3, seed=1)
        mutated = batch.copy()
        mutated[:] = 0
        assert not np.array_equal(repro.sample_many(mrf, 4, rounds=3, seed=1), mutated)

    def test_replica_count_one_allowed(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        batch = repro.sample_many(mrf, 1, rounds=4, seed=2)
        assert batch.shape == (1, 6)

    def test_coloring_detection_is_scale_free(self):
        """The colouring-kernel dispatch must compare activities by ratio:
        a rescaled uniform colouring is still a colouring, while a
        tiny-magnitude *non*-uniform model is not (regression for the
        absolute-tolerance bug)."""
        from repro.graphs import path_graph
        from repro.mrf import MRF

        q = 3
        scaled = 1e-9 * (np.ones((q, q)) - np.eye(q))
        scaled_mrf = MRF(path_graph(3), q, scaled, np.full(q, 7.0))
        assert scaled_mrf.compiled().is_uniform_coloring is True
        lopsided = np.array(
            [[0.0, 1e-9, 5e-9], [1e-9, 0.0, 1e-9], [5e-9, 1e-9, 0.0]]
        )
        lopsided_mrf = MRF(path_graph(3), q, lopsided, np.ones(q))
        assert lopsided_mrf.compiled().is_uniform_coloring is False


class TestBudget:
    def test_shapes(self):
        small = proper_coloring_mrf(cycle_graph(8), 6)
        tall = proper_coloring_mrf(grid_graph(8, 8), 16)
        # LocalMetropolis budget is Delta-free.
        lm_small = repro.default_round_budget(small, "local-metropolis", 0.01)
        lm_tall = repro.default_round_budget(tall, "local-metropolis", 0.01)
        assert lm_tall < 3 * lm_small
        # LubyGlauber scales with Delta.
        lg_small = repro.default_round_budget(small, "luby-glauber", 0.01)
        lg_tall = repro.default_round_budget(tall, "luby-glauber", 0.01)
        assert lg_tall > lg_small
        # Glauber scales with n.
        g_tall = repro.default_round_budget(tall, "glauber", 0.01)
        assert g_tall > lg_tall

    def test_eps_validation(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError):
            repro.default_round_budget(mrf, "glauber", 0.0)

    def test_method_validation(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError):
            repro.default_round_budget(mrf, "nope", 0.1)

    def test_full_and_region_budgets_are_one_formula(self):
        """``ceil(8 * scale * log(size / eps))``, scale 1, Delta + 1 or size."""
        mrf = proper_coloring_mrf(cycle_graph(8), 6)
        full = [repro.default_round_budget(mrf, method, 0.05) for method in repro.METHODS]
        region = [region_round_budget(mrf, method, 4, 0.05) for method in repro.METHODS]
        assert full == [41, 122, 325]
        # A LocalMetropolis region re-mixes with the LubyGlauber kernel.
        assert region == [106, 106, 141]

    def test_repeated_region_vertices_count_once(self):
        """The default region budget sizes the deduplicated region the engine runs."""
        model = proper_coloring_mrf(cycle_graph(12), 5)
        batch = repro.sample_many(model, 4, rounds=20, seed=3)
        repeated = repro.resample_region(model, batch, [3] * 8, seed=7)
        once = repro.resample_region(model, batch, [3], seed=7)
        np.testing.assert_array_equal(repeated, once)


def test_import_leaves_the_local_protocols_unloaded():
    """The LOCAL runners of the dispatch table are imported on first use."""
    code = "import sys, repro; print(sorted(m for m in sys.modules if 'distributed' in m))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
