"""Tests for the declarative sweep harness (grid expansion + runner).

The contracts under test, in the order the harness applies them:

* expansion — cell count is ``models x axes-product x seeds`` and the
  emitted order / indices / seed assignment are stable across runs,
* seed discipline — every distinct coordinate gets its own SeedSequence
  child; the worker count is placement and deliberately shares a seed,
* dedup — cells with equal ``cache_key()`` execute once and later
  occurrences point at the executing cell,
* failure isolation — a broken cell is a row with ``status="error"``,
  never a raised exception, and the table stays complete,
* bit-identity — local mode, jobs mode and a direct ``spec.run()`` all
  produce identical arrays for the same cell, and
* config validation fails loudly on malformed documents.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError
from repro.sweep import (
    SCHEMA,
    expand_grid,
    load_grid,
    load_grid_config,
    run_sweep,
)


def _base_config(**sweep_overrides):
    sweep = {
        "name": "unit",
        "kind": "sample_many",
        "base_seed": 7,
        "seeds": 2,
        "rounds": 24,
        "models": [{"family": "coloring", "graph": "cycle", "q": 4}],
        "axes": {"size": [4, 5], "method": ["glauber"], "replicas": [48]},
    }
    sweep.update(sweep_overrides)
    return {"sweep": sweep}


class TestExpansion:
    def test_cell_count_is_models_times_axes_times_seeds(self):
        config = _base_config(
            models=[
                {"family": "coloring", "graph": "cycle", "q": 4},
                {"family": "ising", "graph": "path", "beta": 0.4},
            ],
            axes={
                "size": [4, 5],
                "method": ["glauber", "luby-glauber"],
                "replicas": [48],
            },
        )
        grid = expand_grid(config)
        assert len(grid) == 2 * (2 * 2 * 1) * 2
        assert [cell.index for cell in grid.cells] == list(range(len(grid)))

    def test_reexpansion_is_deterministic(self):
        first = expand_grid(_base_config())
        second = expand_grid(_base_config())
        assert len(first) == len(second)
        for a, b in zip(first.cells, second.cells):
            assert a.coords == b.coords
            assert a.spec.seed == b.spec.seed
            assert a.spec.cache_key() == b.spec.cache_key()

    def test_distinct_coordinates_get_distinct_seeds(self):
        grid = expand_grid(_base_config())
        seeds = [cell.spec.seed for cell in grid.cells]
        assert len(set(seeds)) == len(seeds)

    def test_worker_counts_share_seed_and_cache_key(self):
        # workers is pure placement: sweeping it must not change the
        # result bits, so both cells carry one seed and one cache key.
        config = _base_config(
            seeds=1, axes={"size": [4], "workers": [1, 2], "replicas": [48]}
        )
        grid = expand_grid(config)
        assert len(grid) == 2
        a, b = grid.cells
        assert a.spec.seed == b.spec.seed
        assert a.spec.cache_key() == b.spec.cache_key()
        assert a.coords["workers"] != b.coords["workers"]

    def test_sharded_and_unsharded_are_different_coordinates(self):
        config = _base_config(
            seeds=1, axes={"size": [4], "workers": [-1, 2], "replicas": [48]}
        )
        grid = expand_grid(config)
        a, b = grid.cells
        assert a.spec.cache_key() != b.spec.cache_key()

    def test_scalar_defaults_apply_when_axis_missing(self):
        config = _base_config(seeds=1, axes={"size": [4]}, method="glauber")
        grid = expand_grid(config)
        assert len(grid) == 1
        cell = grid.cells[0]
        assert cell.coords["method"] == "glauber"
        assert cell.coords["replicas"] == 64
        assert cell.spec.name == "unit[0]"


class TestRunner:
    def test_local_sweep_table_schema_and_checks(self):
        result = run_sweep(expand_grid(_base_config()), mode="local")
        table = result.table
        assert table["schema"] == SCHEMA
        assert table["name"] == "unit"
        assert table["counts"] == {"total": 4, "ok": 4, "error": 0, "dedup": 0}
        json.dumps(table)  # the table must be plain JSON
        for row in table["cells"]:
            assert row["status"] == "ok"
            assert row["summary"]["feasible_fraction"] == 1.0
            verdict = row["checks"]["stationarity"]
            assert verdict["applicable"] and verdict["passed"]

    def test_duplicate_cells_dedup_by_cache_key(self):
        config = _base_config(
            seeds=1,
            axes={"size": [4], "method": ["glauber", "glauber"], "replicas": [48]},
        )
        result = run_sweep(expand_grid(config), mode="local")
        assert result.counts == {"total": 2, "ok": 1, "error": 0, "dedup": 1}
        dedup_row = result.table["cells"][1]
        assert dedup_row["status"] == "dedup"
        assert dedup_row["dedup_of"] == 0
        assert 1 not in result.results

    def test_failing_cells_are_isolated(self):
        # A 2-colouring of an odd cycle is infeasible: those cells must
        # error without discarding the feasible model's results.
        config = _base_config(
            seeds=1,
            models=[
                {"family": "coloring", "graph": "cycle", "q": 4, "name": "good"},
                {"family": "coloring", "graph": "cycle", "q": 2, "name": "bad"},
            ],
            axes={"size": [5], "method": ["glauber"], "replicas": [48]},
        )
        result = run_sweep(expand_grid(config), mode="local")
        assert result.counts == {"total": 2, "ok": 1, "error": 1, "dedup": 0}
        by_model = {row["coords"]["model"]: row for row in result.rows}
        assert by_model["good"]["status"] == "ok"
        assert by_model["bad"]["status"] == "error"
        assert by_model["bad"]["error"]
        json.dumps(result.table)

    def test_jobs_mode_bit_identical_to_local_and_direct_run(self):
        grid_a = expand_grid(_base_config(seeds=1))
        grid_b = expand_grid(_base_config(seeds=1))
        local = run_sweep(grid_a, mode="local", checks=False)
        jobs = run_sweep(grid_b, mode="jobs", workers=2, checks=False)
        assert set(local.results) == set(jobs.results)
        for index, batch in local.results.items():
            assert np.array_equal(np.asarray(batch), np.asarray(jobs.results[index]))
            direct = grid_a.cells[index].spec.run()
            assert np.array_equal(np.asarray(batch), np.asarray(direct))

    def test_serve_mode_matches_local_bits(self):
        from repro.serve import ReproServer

        grid_a = expand_grid(_base_config(seeds=1, axes={"size": [4]}))
        grid_b = expand_grid(_base_config(seeds=1, axes={"size": [4]}))
        local = run_sweep(grid_a, mode="local", checks=False)
        with ReproServer(workers=1) as server:
            host, port = server.address
            served = run_sweep(
                grid_b, mode="serve", server=f"{host}:{port}", checks=False
            )
        assert served.counts["ok"] == 1
        assert np.array_equal(
            np.asarray(local.results[0]), np.asarray(served.results[0])
        )
        with pytest.raises(ModelError):
            run_sweep(grid_b, mode="serve", server="nonsense")

    def test_unknown_mode_and_missing_server_raise(self):
        grid = expand_grid(_base_config(seeds=1, axes={"size": [4]}))
        with pytest.raises(ModelError):
            run_sweep(grid, mode="warp")
        with pytest.raises(ModelError):
            run_sweep(grid, mode="serve")


class TestConfigValidation:
    def test_missing_sweep_table(self):
        with pytest.raises(ModelError):
            expand_grid({})

    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            expand_grid(_base_config(kind="teleport"))

    def test_no_models(self):
        with pytest.raises(ModelError):
            expand_grid(_base_config(models=[]))

    def test_bad_family_and_graph(self):
        with pytest.raises(ModelError):
            expand_grid(_base_config(models=[{"family": "spinglass"}]))
        with pytest.raises(ModelError):
            expand_grid(
                _base_config(models=[{"family": "ising", "graph": "moebius"}])
            )

    def test_unknown_axis(self):
        with pytest.raises(ModelError):
            expand_grid(_base_config(axes={"size": [4], "temperature": [1.0]}))

    def test_empty_axis_and_bad_seeds(self):
        with pytest.raises(ModelError):
            expand_grid(_base_config(axes={"size": []}))
        with pytest.raises(ModelError):
            expand_grid(_base_config(seeds=0))

    def test_tv_curve_needs_checkpoints(self):
        with pytest.raises(ModelError):
            expand_grid(_base_config(kind="tv_curve"))

    def test_config_file_loading(self, tmp_path):
        config = _base_config(seeds=1, axes={"size": [4]})
        json_path = tmp_path / "grid.json"
        json_path.write_text(json.dumps(config))
        assert len(load_grid(json_path)) == 1
        toml_path = tmp_path / "grid.toml"
        toml_path.write_text(
            "[sweep]\n"
            'name = "unit"\n'
            "seeds = 1\n"
            "rounds = 24\n"
            "[[sweep.models]]\n"
            'family = "coloring"\n'
            "q = 4\n"
            "[sweep.axes]\n"
            "size = [4]\n"
            'method = ["glauber"]\n'
            "replicas = [48]\n"
        )
        assert len(load_grid(toml_path)) == 1
        with pytest.raises(ModelError):
            load_grid_config(tmp_path / "missing.toml")
        bad = tmp_path / "grid.yaml"
        bad.write_text("sweep: {}")
        with pytest.raises(ModelError):
            load_grid_config(bad)


class TestFamilyCoverage:
    """List colouring and the csp/builders families through the grid."""

    def _family_config(self, *models):
        return _base_config(
            seeds=1,
            rounds=16,
            models=list(models),
            axes={"size": [6], "method": ["luby-glauber"], "replicas": [48]},
        )

    def test_list_coloring_expands_and_runs(self):
        config = self._family_config(
            {"family": "list-coloring", "graph": "cycle", "q": 5, "list_size": 3}
        )
        result = run_sweep(expand_grid(config), mode="local")
        assert result.counts == {"total": 1, "ok": 1, "error": 0, "dedup": 0}
        row = result.table["cells"][0]
        assert row["checks"]["stationarity"]["applicable"]

    def test_list_coloring_models_are_reproducible(self):
        """Per-vertex lists derive from base_seed only: same config, same model."""
        config = self._family_config(
            {"family": "list-coloring", "graph": "cycle", "q": 5, "list_size": 3}
        )
        first = expand_grid(config).cells[0].spec.model
        second = expand_grid(config).cells[0].spec.model
        assert first.model_fingerprint() == second.model_fingerprint()

    def test_list_coloring_list_size_validation(self):
        config = self._family_config(
            {"family": "list-coloring", "graph": "cycle", "q": 5, "list_size": 9}
        )
        with pytest.raises(ModelError):
            expand_grid(config)

    @pytest.mark.parametrize(
        "entry",
        [
            {"family": "coloring-csp", "graph": "cycle", "q": 4},
            {"family": "nae", "graph": "cycle", "q": 3},
            {"family": "dominating-set", "graph": "path"},
            {"family": "mis", "graph": "path"},
        ],
        ids=lambda entry: entry["family"],
    )
    def test_csp_families_expand_and_run(self, entry):
        result = run_sweep(expand_grid(self._family_config(entry)), mode="local")
        assert result.counts["error"] == 0
        row = result.table["cells"][0]
        assert row["status"] == "ok"
        assert row["summary"]["feasible_fraction"] == 1.0

    def test_families_fixture_expands(self):
        fixture = Path(__file__).resolve().parent.parent / "examples" / "sweep_families.toml"
        grid = load_grid(fixture)
        assert len(grid) == 16
        families = {cell.coords["model"] for cell in grid.cells}
        assert families == {
            "list-coloring-cycle",
            "coloring-csp-cycle",
            "nae-cycle",
            "mis-path",
        }
