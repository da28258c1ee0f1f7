"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.cli import _build_spec, _model, build_parser, main
from repro.families import FAMILIES
from repro.graphs import cycle_graph
from repro.mrf import proper_coloring_mrf
from repro.spec import JobSpec
from repro.sweep import expand_grid


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sample_defaults(self):
        args = build_parser().parse_args(["sample"])
        assert args.model == "coloring"
        assert args.method == "local-metropolis"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "--method", "bogus"])


class TestFamilyRegistry:
    """``--model`` and sweep ``family`` entries read one registry."""

    def test_one_default_per_parameter(self):
        seen = {}
        for family in FAMILIES.values():
            for param in family.params:
                assert seen.setdefault(param.name, param) == param, param.name

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cli_args_and_sweep_entry_build_the_same_model(self, family):
        args = build_parser().parse_args(
            ["sample", "--model", family, "--size", "6", "--seed", "7"]
        )
        grid = expand_grid(
            {"sweep": {"base_seed": 7, "size": 6, "models": [{"family": family}]}}
        )
        sweep_model = grid.cells[0].spec.model
        assert _model(args).model_fingerprint() == sweep_model.model_fingerprint()


class TestJobDefaults:
    """The CLI and the sweep forward only the values set: ``JobSpec`` owns every default."""

    def test_submit_mixing_time_without_eps_or_max_rounds(self):
        args = build_parser().parse_args(
            ["submit", "--kind", "mixing_time", "--graph", "cycle", "--size", "6",
             "--q", "3", "--replicas", "64", "--seed", "5"]
        )
        model = _model(args)
        default = JobSpec.mixing_time(model, method=args.method, replicas=64, seed=5)
        assert _build_spec(args, model).cache_key() == default.cache_key()

    def test_submit_sample_many_without_eps(self):
        args = build_parser().parse_args(
            ["submit", "--graph", "cycle", "--size", "6", "--q", "3", "--seed", "5"]
        )
        model = _model(args)
        default = JobSpec.sample_many(model, args.replicas, method=args.method, seed=5)
        assert _build_spec(args, model).cache_key() == default.cache_key()

    def test_sweep_mixing_time_cell_without_eps_or_max_rounds(self):
        grid = expand_grid(
            {"sweep": {"kind": "mixing_time", "base_seed": 7, "size": 6, "replicas": 64,
                       "models": [{"family": "coloring", "graph": "cycle", "q": 3}]}}
        )
        spec = grid.cells[0].spec
        default = JobSpec.mixing_time(spec.model, method=spec.method, replicas=64, seed=spec.seed)
        assert spec.cache_key() == default.cache_key()

    def test_set_values_are_forwarded(self):
        args = build_parser().parse_args(
            ["submit", "--kind", "mixing_time", "--graph", "cycle", "--size", "6", "--q", "3",
             "--eps", "0.2", "--max-rounds", "64", "--stride", "4", "--seed", "5"]
        )
        spec = _build_spec(args, _model(args))
        assert (spec.eps, spec.max_rounds, spec.stride) == (0.2, 64, 4)
        grid = expand_grid(
            {"sweep": {"kind": "mixing_time", "eps": 0.2, "max_rounds": 64, "stride": 4,
                       "size": 6, "models": [{"family": "coloring", "graph": "cycle", "q": 3}]}}
        )
        spec = grid.cells[0].spec
        assert (spec.eps, spec.max_rounds, spec.stride) == (0.2, 64, 4)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "2+sqrt2" in out or "3.414" in out
        assert "lambda_c" in out

    def test_budget(self, capsys):
        assert main(["budget", "--graph", "cycle", "--size", "12", "--q", "6"]) == 0
        out = capsys.readouterr().out
        for method in ("local-metropolis", "luby-glauber", "glauber"):
            assert method in out

    @pytest.mark.parametrize("engine", ["chain", "reference"])
    def test_sample_coloring(self, capsys, engine):
        code = main(
            [
                "sample",
                "--graph",
                "cycle",
                "--size",
                "10",
                "--q",
                "6",
                "--seed",
                "3",
                "--rounds",
                "50",
                "--engine",
                engine,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"engine: {engine}" in out
        assert "feasible: True" in out

    @pytest.mark.parametrize("method", ["local-metropolis", "luby-glauber"])
    def test_default_sample_is_one_replica_of_the_batched_engine(self, capsys, method):
        argv = ["sample", "--graph", "torus", "--size", "6", "--q", "8", "--seed", "5",
                "--rounds", "12", "--method", method]
        assert main(argv) == 0
        out = capsys.readouterr().out
        model = _model(build_parser().parse_args(argv))
        expected = repro.sample_many(model, 1, method=method, seed=5, rounds=12)[0]
        assert "sample  : " + " ".join(map(str, expected.tolist())) in out
        engine = repro.make_ensemble(model, 1, method=method).__class__.__name__
        assert f"engine: {engine}" in out

    def test_sample_hardcore_on_grid(self, capsys):
        code = main(
            [
                "sample",
                "--model",
                "hardcore",
                "--graph",
                "grid",
                "--size",
                "5",
                "--fugacity",
                "0.8",
                "--seed",
                "1",
                "--rounds",
                "80",
            ]
        )
        assert code == 0
        assert "feasible: True" in capsys.readouterr().out

    def test_sample_ising_regular(self, capsys):
        code = main(
            [
                "sample",
                "--model",
                "ising",
                "--graph",
                "regular",
                "--size",
                "10",
                "--degree",
                "3",
                "--beta",
                "1.2",
                "--seed",
                "2",
                "--rounds",
                "30",
                "--method",
                "luby-glauber",
            ]
        )
        assert code == 0
        assert "feasible: True" in capsys.readouterr().out

    def test_sample_reproducible(self, capsys):
        argv = ["sample", "--graph", "path", "--size", "8", "--q", "5",
                "--seed", "9", "--rounds", "40"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "argv, message",
        [
            # cycle of size 2 is invalid -> ReproError -> exit code 1.
            (["--graph", "cycle", "--size", "2"], "error"),
            (
                ["--graph", "cycle", "--size", "6", "--q", "4", "--rounds", "-1",
                 "--seed", "1"],
                "rounds must be >= 0, got -1",
            ),
            (
                ["--method", "glauber", "--engine", "reference", "--size", "6"],
                "no LOCAL-model protocol",
            ),
        ],
        ids=["bad-graph", "negative-rounds", "glauber-reference"],
    )
    def test_error_path_returns_nonzero(self, capsys, argv, message):
        code = main(["sample", *argv])
        assert code == 1
        assert message in capsys.readouterr().err


class TestMixCommand:
    def test_emits_valid_json_curve(self, capsys):
        code = main(
            [
                "mix",
                "--model",
                "coloring",
                "--graph",
                "cycle",
                "--size",
                "4",
                "--q",
                "3",
                "--replicas",
                "128",
                "--checkpoints",
                "1,2,4",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"].startswith("coloring")
        assert payload["engine"] == "EnsembleLocalMetropolisColoring"
        assert payload["replicas"] == 128
        assert [rounds for rounds, _ in payload["curve"]] == [1, 2, 4]
        assert all(0.0 <= tv <= 1.0 for _, tv in payload["curve"])
        assert "mixing_time" not in payload
        # mix runs the facade's curve: the same seed gives the same numbers.
        curve = repro.tv_curve(
            proper_coloring_mrf(cycle_graph(4), 3), [1, 2, 4], replicas=128, seed=0
        )
        assert payload["curve"] == [[rounds, tv] for rounds, tv in curve]

    def test_eps_adds_mixing_time(self, capsys):
        code = main(
            [
                "mix",
                "--graph",
                "cycle",
                "--size",
                "4",
                "--q",
                "3",
                "--replicas",
                "256",
                "--checkpoints",
                "1,2",
                "--eps",
                "0.35",
                "--max-rounds",
                "512",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eps"] == 0.35
        assert 1 <= payload["mixing_time"] <= 512

    def test_generic_fallback_model(self, capsys):
        code = main(
            [
                "mix",
                "--model",
                "ising",
                "--graph",
                "path",
                "--size",
                "3",
                "--beta",
                "1.2",
                "--method",
                "glauber",
                "--replicas",
                "64",
                "--checkpoints",
                "1,4",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "EnsembleGlauberDynamics"
        assert len(payload["curve"]) == 2

    @pytest.mark.parametrize("flag", ["--max-rounds", "--stride"])
    def test_mixing_time_flags_need_eps(self, capsys, monkeypatch, flag):
        """Refused by name before a model is built, not dropped."""

        def unbuilt(args):
            raise AssertionError("mix built a model before checking its flags")

        monkeypatch.setattr(repro.cli, "_model", unbuilt)
        argv = ["mix", "--graph", "cycle", "--size", "4", "--q", "3", "--checkpoints", "1,2"]
        assert main([*argv, flag, "4"]) == 1
        err = capsys.readouterr().err
        assert flag in err and "--eps" in err

    def test_bad_checkpoints_rejected(self, capsys):
        code = main(
            ["mix", "--graph", "cycle", "--size", "4", "--checkpoints", "1,zap"]
        )
        assert code == 1
        assert "checkpoints" in capsys.readouterr().err

    def test_too_large_state_space_rejected(self, capsys):
        # The exact target enumerates q**n; a big instance must fail cleanly.
        code = main(["mix", "--graph", "torus", "--size", "8", "--q", "8"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCSPModels:
    """The CSP builder specs flow through the same sample/budget/mix CLI."""

    @pytest.mark.parametrize("model", ["dominating-set", "mis", "nae"])
    def test_sample_csp_models(self, capsys, model):
        code = main(
            [
                "sample",
                "--model",
                model,
                "--graph",
                "cycle",
                "--size",
                "8",
                "--q",
                "3",
                "--seed",
                "5",
                "--rounds",
                "80",
                "--method",
                "luby-glauber",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out

    def test_sample_dominating_set_weight(self, capsys):
        code = main(
            [
                "sample",
                "--model",
                "dominating-set",
                "--weight",
                "2.0",
                "--graph",
                "path",
                "--size",
                "6",
                "--seed",
                "1",
                "--rounds",
                "40",
            ]
        )
        assert code == 0
        assert "dominating-set(w=2.0)" in capsys.readouterr().out

    def test_budget_marks_glauber_not_applicable(self, capsys):
        assert main(["budget", "--model", "mis", "--graph", "path", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "no CSP kernel" in out
        assert "local-metropolis" in out

    def test_glauber_method_on_csp_fails_cleanly(self, capsys):
        code = main(
            [
                "sample",
                "--model",
                "nae",
                "--graph",
                "cycle",
                "--size",
                "6",
                "--method",
                "glauber",
            ]
        )
        assert code == 1
        assert "no CSP kernel" in capsys.readouterr().err

    def test_mix_csp_uses_csp_ensemble_and_gibbs(self, capsys):
        code = main(
            [
                "mix",
                "--model",
                "dominating-set",
                "--graph",
                "path",
                "--size",
                "5",
                "--replicas",
                "128",
                "--checkpoints",
                "1,4,16",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "EnsembleLocalMetropolis"
        assert payload["model"].startswith("dominating-set")
        assert len(payload["curve"]) == 3
        tvs = [tv for _, tv in payload["curve"]]
        assert tvs[0] > tvs[-1]

    def test_infeasible_greedy_start_is_refused(self, capsys):
        # The default 16-cycle: no MIS spin of vertex 15 fits its greedy prefix.
        code = main(["sample", "--model", "mis"])
        assert code == 1
        err = capsys.readouterr().err
        assert "vertex 15" in err and "initial=" in err

    def test_nae_rejects_edgeless_graph(self, capsys):
        code = main(["sample", "--model", "nae", "--graph", "path", "--size", "1"])
        assert code == 1
        assert "at least one edge" in capsys.readouterr().err


class TestParallelCli:
    """--samples / --jobs wiring into the sharded execution subsystem."""

    def test_sample_batch_with_jobs(self, capsys):
        code = main(
            [
                "sample", "--graph", "cycle", "--size", "10", "--q", "4",
                "--samples", "6", "--jobs", "2", "--rounds", "8", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 6" in out and "jobs: 2" in out
        assert "feasible: 6/6" in out

    def test_sample_batch_matches_across_job_counts(self, capsys):
        def run(jobs):
            assert main(
                [
                    "sample", "--graph", "cycle", "--size", "8", "--q", "4",
                    "--samples", "4", "--jobs", jobs, "--rounds", "5",
                    "--seed", "9",
                ]
            ) == 0
            return capsys.readouterr().out.splitlines()[-1]

        assert run("1") == run("2")

    def test_sample_batch_rejects_protocol_engines(self, capsys):
        code = main(
            [
                "sample", "--graph", "cycle", "--size", "8", "--samples", "4",
                "--engine", "reference",
            ]
        )
        assert code == 1
        assert "single samples" in capsys.readouterr().err

    def test_sample_rejects_zero_samples(self, capsys):
        code = main(["sample", "--graph", "cycle", "--samples", "0"])
        assert code == 1
        assert "--samples" in capsys.readouterr().err

    def test_mix_with_jobs_emits_engine_and_jobs(self, capsys):
        code = main(
            [
                "mix", "--graph", "cycle", "--size", "5", "--q", "3",
                "--replicas", "64", "--checkpoints", "1,2", "--jobs", "2",
                "--seed", "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "ShardedEnsemble"
        assert payload["jobs"] == 2
        curve = repro.tv_curve(
            proper_coloring_mrf(cycle_graph(5), 3), [1, 2], replicas=64, seed=0, parallel=0
        )
        assert payload["curve"] == [[rounds, tv] for rounds, tv in curve]


class TestServeCli:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import ReproServer

        with ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv:
            yield srv

    @pytest.fixture(scope="class")
    def server_arg(self, server):
        host, port = server.address
        return f"{host}:{port}"

    def test_serve_runs_and_shuts_down(self, capsys):
        code = main(["serve", "--port", "0", "--workers", "1",
                     "--max-seconds", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "listening on http://127.0.0.1:" in out
        assert "shut down" in out

    def test_submit_sample_many_miss_then_hit(self, capsys, server_arg):
        argv = [
            "submit", "--server", server_arg, "--graph", "cycle", "--size", "6",
            "--q", "3", "--kind", "sample_many", "--replicas", "4",
            "--rounds", "4", "--seed", "11",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache: miss" in cold
        assert "feasible: " in cold and "sample 0:" in cold
        assert main(argv) == 0
        hit = capsys.readouterr().out
        assert "cache: hit" in hit
        # Identical sample line: the cached replay is bit-identical.
        assert cold.splitlines()[-1] == hit.splitlines()[-1]

    def test_submit_tv_curve_json(self, capsys, server_arg):
        code = main([
            "submit", "--server", server_arg, "--graph", "cycle", "--size", "6",
            "--q", "3", "--kind", "tv_curve", "--checkpoints", "1,2",
            "--replicas", "64", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert [point[0] for point in payload["curve"]] == [1, 2]

    def test_submit_stream_prints_checkpoints(self, capsys, server_arg):
        code = main([
            "submit", "--server", server_arg, "--graph", "cycle", "--size", "6",
            "--q", "3", "--kind", "tv_curve", "--checkpoints", "1,2,4",
            "--replicas", "64", "--seed", "6", "--stream",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accepted: job" in out
        assert out.count("round ") == 3 and "tv " in out

    def test_submit_mixing_time(self, capsys, server_arg):
        code = main([
            "submit", "--server", server_arg, "--graph", "cycle", "--size", "6",
            "--q", "3", "--kind", "mixing_time", "--eps", "0.5",
            "--replicas", "256", "--max-rounds", "64", "--stride", "4",
            "--seed", "3",
        ])
        assert code == 0
        assert "mixing_time: " in capsys.readouterr().out

    def test_submit_bad_server_argument(self, capsys):
        code = main([
            "submit", "--server", "nonsense", "--graph", "cycle", "--size", "6",
        ])
        assert code == 1
        assert "HOST:PORT" in capsys.readouterr().err

    def test_submit_unreachable_server(self, capsys):
        code = main([
            "submit", "--server", "127.0.0.1:1", "--graph", "cycle",
            "--size", "6", "--timeout", "2",
        ])
        assert code == 1
        assert "failed" in capsys.readouterr().err


class TestSweepCli:
    _TINY = (
        "[sweep]\n"
        'name = "tiny"\n'
        'kind = "sample_many"\n'
        "base_seed = 3\n"
        "seeds = 1\n"
        "rounds = 24\n"
        "[[sweep.models]]\n"
        'family = "coloring"\n'
        'graph = "cycle"\n'
        "q = 4\n"
        "[sweep.axes]\n"
        "size = [4, 5]\n"
        'method = ["glauber"]\n'
        "replicas = [48]\n"
    )

    def _write_config(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(self._TINY)
        return str(path)

    def test_sweep_stdout_table(self, capsys, tmp_path):
        code = main(["sweep", "--config", self._write_config(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        table = json.loads(captured.out)
        assert table["schema"] == "repro.sweep/v1"
        assert table["counts"] == {"total": 2, "ok": 2, "error": 0, "dedup": 0}
        for row in table["cells"]:
            assert row["checks"]["stationarity"]["passed"]
        assert "sweep tiny: 2 cells" in captured.err

    def test_sweep_output_file_and_jobs_mode(self, capsys, tmp_path):
        out_path = tmp_path / "table.json"
        code = main([
            "sweep", "--config", self._write_config(tmp_path),
            "--jobs", "2", "--no-checks", "--output", str(out_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        table = json.loads(out_path.read_text())
        assert table["counts"]["ok"] == 2
        assert table["cells"][0]["checks"] == {}

    def test_sweep_committed_smoke_grid(self, capsys):
        # The exact config the CI sweep-smoke job runs.
        from pathlib import Path

        config = Path(__file__).resolve().parents[1] / "examples" / "sweep_smoke.toml"
        code = main(["sweep", "--config", str(config), "--no-checks"])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert table["name"] == "smoke"
        assert table["counts"] == {"total": 16, "ok": 16, "error": 0, "dedup": 0}

    def test_sweep_jobs_and_server_mutually_exclusive(self, capsys, tmp_path):
        code = main([
            "sweep", "--config", self._write_config(tmp_path),
            "--jobs", "2", "--server", "127.0.0.1:1",
        ])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_bad_jobs_count(self, capsys, tmp_path):
        code = main([
            "sweep", "--config", self._write_config(tmp_path), "--jobs", "0",
        ])
        assert code == 1
        assert ">= 1" in capsys.readouterr().err

    def test_sweep_missing_config(self, capsys, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "nope.toml")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
