"""One declaration of each job kind's parameters: ``repro.spec.JOB_PARAMS``.

The wire (``JobSpec.from_wire``), sweep cells (``expand_grid``) and ``repro
submit`` all build their spec through ``JobSpec.from_params``, so they
agree on three rules:

* a key the kind does not take — a misspelt one too — is refused by name,
  after the number checks;
* an absent parameter takes the kind's constructor default, so it shares
  the cache key of the spec built without it;
* an explicit ``None`` (JSON ``null``) is kept where the constructor takes
  one, so every payload ``to_wire`` emits decodes with its own cache key.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ModelError
from repro.graphs import cycle_graph
from repro.mrf import proper_coloring_mrf
from repro.spec import JOB_KINDS, JOB_PARAMS, JobSpec
from repro.sweep import expand_grid


@pytest.fixture(scope="module")
def model():
    return proper_coloring_mrf(cycle_graph(6), 3)


def _roundtrip(payload: dict) -> JobSpec:
    return JobSpec.from_wire(json.loads(json.dumps(payload)))


class TestFromParams:
    def test_every_kind_is_declared(self):
        assert set(JOB_PARAMS) == set(JOB_KINDS)

    @pytest.mark.parametrize(
        "kind, params, spec",
        [
            ("sample_many", {"replicas": 4, "rounds": 3},
             lambda m: JobSpec.sample_many(m, 4, rounds=3, seed=1)),
            ("tv_curve", {"checkpoints": [1, 2]},
             lambda m: JobSpec.tv_curve(m, (1, 2), seed=1)),
            ("mixing_time", {"replicas": 8, "stride": 2},
             lambda m: JobSpec.mixing_time(m, replicas=8, stride=2, seed=1)),
        ],
    )
    def test_builds_what_the_constructor_builds(self, model, kind, params, spec):
        built = JobSpec.from_params(kind, model, params, seed=1)
        assert built == spec(model)
        assert built.cache_key() == spec(model).cache_key()

    def test_params_dict_emits_exactly_the_declared_keys(self, model):
        specs = [
            JobSpec.sample_many(model, 4),
            JobSpec.tv_curve(model, (1, 2)),
            JobSpec.mixing_time(model, parallel=0, shard_size=2),
        ]
        for spec in specs:
            own = set(spec.params_dict()) - {"initial", "sharded", "shard_size"}
            assert own == set(JOB_PARAMS[spec.kind])

    def test_numbers_are_checked_before_unknown_keys(self, model):
        with pytest.raises(ModelError, match="rounds must be an integer, got 3.5"):
            JobSpec.from_params("sample_many", model, {"replicas": 4, "rounds": 3.5, "round": 5})
        with pytest.raises(ModelError, match=r"'round'.*replicas, rounds, eps"):
            JobSpec.from_params("sample_many", model, {"replicas": 4, "round": 5})

    @pytest.mark.parametrize(
        "kind, params, needle",
        [
            ("teleport", {}, "unknown job kind"),
            ("run", {}, "unknown job kind"),
            ("sample_many", {}, "replicas"),
            ("tv_curve", {"replicas": 8}, "checkpoints"),
            ("tv_curve", {"checkpoints": 4}, "checkpoints must be a list"),
            ("tv_curve", {"checkpoints": [2, 1]}, "strictly increasing"),
            ("mixing_time", {"eps": None}, "eps must be a number"),
            ("mixing_time", {"max_rounds": None}, "max_rounds must be an integer"),
        ],
    )
    def test_refusals_are_model_errors(self, model, kind, params, needle):
        with pytest.raises(ModelError, match=needle):
            JobSpec.from_params(kind, model, params)


class TestWire:
    @pytest.mark.parametrize(
        "spec, key",
        [
            (lambda m: JobSpec.sample_many(m, 4, seed=1, rounds=2), "eps"),
            (lambda m: JobSpec.sample_many(m, 4, seed=1), "rounds"),
            (lambda m: JobSpec.tv_curve(m, (1, 2), seed=1), "replicas"),
            (lambda m: JobSpec.mixing_time(m, seed=1), "eps"),
            (lambda m: JobSpec.mixing_time(m, seed=1), "max_rounds"),
            (lambda m: JobSpec.mixing_time(m, seed=1), "stride"),
        ],
    )
    def test_absent_param_takes_the_constructor_default(self, model, spec, key):
        """A ``sample_many`` payload without ``eps`` used to run at ``eps=None``:
        the same bits as the default spec, cached under a second key."""
        wire = spec(model).to_wire()
        del wire["params"][key]
        assert _roundtrip(wire).cache_key() == spec(model).cache_key()

    def test_sample_many_payload_without_replicas_is_refused(self, model):
        wire = JobSpec.sample_many(model, 4, seed=1).to_wire()
        del wire["params"]["replicas"]
        with pytest.raises(ModelError, match="replicas"):
            JobSpec.from_wire(wire)

    @pytest.mark.parametrize(
        "spec",
        [
            lambda m: JobSpec.sample_many(m, 4, seed=1, rounds=2, eps=None),
            lambda m: JobSpec.sample_many(m, 4, seed=1, eps=None),
            lambda m: JobSpec.sample_many(m, 4, seed=1, rounds=2, parallel=0),
            lambda m: JobSpec.tv_curve(m, [1, 3], replicas=16, seed=1, initial=[0, 1] * 3),
            lambda m: JobSpec.mixing_time(m, eps=1, replicas=8, max_rounds=9, seed=1),
        ],
    )
    def test_every_emitted_payload_keeps_its_key(self, model, spec):
        original = spec(model)
        assert _roundtrip(original.to_wire()).cache_key() == original.cache_key()
        assert _roundtrip(original.to_wire()).params_dict() == original.params_dict()


class TestSweep:
    @pytest.mark.parametrize(
        "sweep, key",
        [
            ({"kind": "mixing_time", "max_round": 50}, "max_round"),
            ({"kind": "mixing_time", "replica": 8}, "replica"),
            ({"kind": "tv_curve", "checkpoints": [1, 2], "eps": 0.1}, "eps"),
            ({"kind": "mixing_time", "rounds": 24}, "rounds"),
            ({"kind": "mixing_time", "axes": {"size": [4], "rounds": [8]}}, "rounds"),
            ({"kind": "sample_many", "checkpoints": [1, 2]}, "checkpoints"),
            ({"kind": "sample_many", "stride": 2}, "stride"),
        ],
    )
    def test_a_key_the_kind_does_not_take_is_refused_by_name(self, sweep, key):
        """A misspelt ``max_round`` used to run 10,000 rounds, and a key of
        another kind used to be dropped."""
        config = {"sweep": {
            "size": 4, **sweep, "models": [{"family": "coloring", "graph": "cycle", "q": 3}],
        }}
        with pytest.raises(ModelError, match=repr(key)):
            expand_grid(config)

    def test_unset_params_take_the_constructor_defaults(self):
        grid = expand_grid({"sweep": {
            "kind": "tv_curve", "checkpoints": [1, 2], "size": 4,
            "models": [{"family": "coloring", "graph": "cycle", "q": 3}],
        }})
        spec = grid.cells[0].spec
        default = JobSpec.tv_curve(spec.model, (1, 2), replicas=64, seed=spec.seed)
        assert spec.cache_key() == default.cache_key()


class TestSubmit:
    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--kind", "tv_curve", "--rounds", "5"], "rounds"),
            (["--kind", "tv_curve", "--checkpoints", "1,2", "--eps", "0.1"], "eps"),
            (["--kind", "mixing_time", "--checkpoints", "1,2"], "checkpoints"),
            (["--kind", "sample_many", "--stride", "2"], "stride"),
            (["--kind", "tv_curve"], "checkpoints"),
        ],
    )
    def test_a_flag_the_kind_does_not_take_exits_1(self, capsys, flags, key):
        """``--rounds`` used to be dropped silently on a tv_curve submit.  The
        spec is refused before any connection is made."""
        code = main([
            "submit", "--server", "127.0.0.1:1", "--graph", "cycle", "--size", "6",
            "--q", "3", *flags,
        ])
        assert code == 1
        assert repr(key) in capsys.readouterr().err
