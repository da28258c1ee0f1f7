"""JobSpec: the unified request description and its facade integration.

Covers the request-API redesign contract: one dataclass describes a
request for every layer; ``run_spec``/``JobSpec.run`` are bit-identical
to the positional facade calls; ``cache_key`` hashes
exactly the bit-reaching parameters; ``to_wire``/``from_wire`` round-trip
through JSON without changing results.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import api
from repro.csp.builders import not_all_equal_csp
from repro.errors import ModelError, UnknownModelError
from repro.graphs import cycle_graph, grid_graph
from repro.mrf import proper_coloring_mrf
from repro.serialize import decode_array, encode_array
from repro.spec import JobSpec

SEED = 20170625


@pytest.fixture(scope="module")
def coloring():
    return proper_coloring_mrf(grid_graph(3, 3), 5)


@pytest.fixture(scope="module")
def small_coloring():
    return proper_coloring_mrf(cycle_graph(6), 3)


@pytest.fixture(scope="module")
def csp():
    return not_all_equal_csp([(0, 1, 2), (1, 2, 3), (2, 3, 4)], n=5, q=3)


class TestValidation:
    def test_unknown_kind(self, coloring):
        with pytest.raises(ModelError, match="kind"):
            JobSpec(kind="bogus", model=coloring)

    def test_tv_curve_needs_checkpoints(self, coloring):
        with pytest.raises(ModelError, match="checkpoints"):
            JobSpec(kind="tv_curve", model=coloring)

    def test_mixing_time_needs_eps(self, coloring):
        with pytest.raises(ModelError, match="eps"):
            JobSpec(kind="mixing_time", model=coloring)

    def test_shard_size_requires_parallel(self, coloring):
        with pytest.raises(ModelError, match="parallel"):
            JobSpec.sample_many(coloring, 8, shard_size=4)

    def test_negative_parallel_rejected(self, coloring):
        with pytest.raises(ModelError, match="parallel"):
            JobSpec.sample_many(coloring, 8, parallel=-1)

    def test_checkpoints_canonical_or_rejected(self, coloring):
        spec = JobSpec.tv_curve(coloring, [np.int64(1), 2.0, 4])
        assert spec.checkpoints == (1, 2, 4)
        assert all(type(c) is int for c in spec.checkpoints)
        with pytest.raises(ModelError, match="checkpoints"):
            repro.tv_curve(coloring, [1.5, 2])  # rejected, not truncated to 1

    def test_label_defaults_to_kind_method(self, coloring):
        assert JobSpec.sample_many(coloring, 4).label == "sample_many:local-metropolis"
        assert JobSpec.sample_many(coloring, 4, name="x").label == "x"


class TestRunSpec:
    def test_sample_many_equals_positional(self, coloring):
        spec = JobSpec.sample_many(coloring, 16, seed=SEED, rounds=12)
        direct = repro.sample_many(coloring, 16, seed=SEED, rounds=12)
        np.testing.assert_array_equal(repro.run_spec(spec), direct)
        np.testing.assert_array_equal(spec.run(), direct)

    def test_tv_curve_equals_positional(self, small_coloring):
        spec = JobSpec.tv_curve(small_coloring, (1, 2, 4), replicas=64, seed=3)
        direct = repro.tv_curve(small_coloring, [1, 2, 4], replicas=64, seed=3)
        assert repro.run_spec(spec) == direct

    def test_mixing_time_equals_positional(self, small_coloring):
        spec = JobSpec.mixing_time(
            small_coloring, eps=0.5, replicas=256, max_rounds=64, stride=4, seed=3
        )
        direct = repro.mixing_time(
            small_coloring, eps=0.5, replicas=256, max_rounds=64, stride=4, seed=3
        )
        assert repro.run_spec(spec) == direct

    def test_csp_spec(self, csp):
        spec = JobSpec.sample_many(csp, 8, seed=SEED, rounds=10)
        np.testing.assert_array_equal(
            repro.run_spec(spec), repro.sample_many(csp, 8, seed=SEED, rounds=10)
        )

    def test_sharded_spec_bit_identical_across_worker_counts(self, coloring):
        base = repro.run_spec(
            JobSpec.sample_many(coloring, 16, seed=SEED, rounds=10, parallel=0)
        )
        pooled = repro.run_spec(
            JobSpec.sample_many(coloring, 16, seed=SEED, rounds=10, parallel=2)
        )
        np.testing.assert_array_equal(base, pooled)

    def test_positional_path_still_requires_args(self, coloring):
        with pytest.raises(TypeError, match="'r'"):
            repro.sample_many(coloring)
        with pytest.raises(TypeError, match="checkpoints"):
            repro.tv_curve(coloring)

    def test_run_spec_rejects_non_spec(self, coloring):
        with pytest.raises(ModelError, match="JobSpec"):
            api.run_spec(coloring)


class TestCacheKey:
    def test_deterministic_and_seed_sensitive(self, coloring):
        a = JobSpec.sample_many(coloring, 8, seed=1, rounds=5)
        b = JobSpec.sample_many(coloring, 8, seed=1, rounds=5)
        c = JobSpec.sample_many(coloring, 8, seed=2, rounds=5)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_unseeded_and_generator_uncacheable(self, coloring):
        assert JobSpec.sample_many(coloring, 8).cache_key() is None
        gen = np.random.default_rng(1)
        assert JobSpec.sample_many(coloring, 8, seed=gen).cache_key() is None

    def test_fresh_seed_sequence_equals_int(self, coloring):
        by_int = JobSpec.sample_many(coloring, 8, seed=7, rounds=5)
        by_seq = JobSpec.sample_many(
            coloring, 8, seed=np.random.SeedSequence(7), rounds=5
        )
        assert by_int.cache_key() == by_seq.cache_key()
        np.testing.assert_array_equal(repro.run_spec(by_int), repro.run_spec(by_seq))

    def test_spent_seed_sequence_uncacheable(self, coloring):
        spent = np.random.SeedSequence(7)
        spent.spawn(1)  # its next spawn differs from a fresh SeedSequence(7)
        assert JobSpec.sample_many(coloring, 8, seed=spent).cache_key() is None

    def test_name_is_cosmetic(self, coloring):
        a = JobSpec.sample_many(coloring, 8, seed=1, name="alpha")
        b = JobSpec.sample_many(coloring, 8, seed=1, name="beta")
        assert a.cache_key() == b.cache_key()

    def test_shardedness_changes_key_but_worker_count_does_not(self, coloring):
        mono = JobSpec.sample_many(coloring, 8, seed=1, rounds=5)
        sharded0 = JobSpec.sample_many(coloring, 8, seed=1, rounds=5, parallel=0)
        sharded2 = JobSpec.sample_many(coloring, 8, seed=1, rounds=5, parallel=2)
        sized = JobSpec.sample_many(
            coloring, 8, seed=1, rounds=5, parallel=0, shard_size=2
        )
        # Monolithic and sharded runs produce different bits -> different keys;
        # worker count is placement only -> same key.
        assert mono.cache_key() != sharded0.cache_key()
        assert sharded0.cache_key() == sharded2.cache_key()
        assert sized.cache_key() != sharded0.cache_key()

    def test_with_placement_moves_between_layers(self, coloring):
        base = JobSpec.sample_many(coloring, 8, seed=1, rounds=5)
        sharded = base.with_placement(parallel=2, shard_size=4)
        assert sharded.parallel == 2 and sharded.shard_size == 4
        assert sharded.name == base.name
        # Placement is not cosmetic here: shardedness reaches the bits.
        assert sharded.cache_key() != base.cache_key()
        # ...but worker count alone does not.
        assert (
            sharded.with_placement(parallel=6, shard_size=4).cache_key()
            == sharded.cache_key()
        )
        assert sharded.with_placement().cache_key() == base.cache_key()

    def test_params_reach_the_key(self, coloring, small_coloring):
        base = JobSpec.sample_many(coloring, 8, seed=1, rounds=5)
        assert base.cache_key() != JobSpec.sample_many(
            coloring, 9, seed=1, rounds=5
        ).cache_key()
        assert base.cache_key() != JobSpec.sample_many(
            coloring, 8, seed=1, rounds=6
        ).cache_key()
        assert base.cache_key() != JobSpec.sample_many(
            coloring, 8, seed=1, rounds=5, method="glauber"
        ).cache_key()
        assert base.cache_key() != JobSpec.sample_many(
            small_coloring, 8, seed=1, rounds=5
        ).cache_key()


#: Literal cache keys of five seeded specs.  A served cache hit is looked up
#: by this key, so a refactor that moves one silently turns every cached
#: result into a miss; a change that means to move keys re-pins these and
#: says so in CHANGES.md.  Last re-pinned (the four MRF keys) when the MRF
#: palette stopped storing, and so hashing, an all-ones pad table.
PINNED_KEYS = {
    "sample_many": "e26a4066a5da82ffda03c0c7d6ff6fb443db1d9d671f8d047e5501ae2e1bbb15",
    "sample_many_sharded": "b1c9ef5e6d93f80a0d7fec187ba836bd4115e0fa16d0d0c6f8c52f64af62774b",
    "sample_many_initial": "e38808df275da5b3162097079d20a79a2f553c0fca8422bd83da8b9cda850f83",
    "tv_curve": "79e20986829673c927d3c34aed34928f77c4ef0a10e4a40b8e28b0e745e2f893",
    "mixing_time": "706380fb7fed9d36ebf8363c54a7df4b60e3a3235d7a2dd3a64963e8cd42902b",
}

#: A per-replica start batch: four proper 3-colourings of the 6-cycle.
INITIAL = [[0, 1, 2, 0, 1, 2], [1, 2, 0, 1, 2, 0], [2, 0, 1, 2, 0, 1], [0, 1, 0, 1, 0, 1]]


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_cache_key_is_pinned(name, coloring, small_coloring, csp):
    specs = {
        "sample_many": lambda: JobSpec.sample_many(coloring, 16, seed=SEED, rounds=12),
        "sample_many_sharded": lambda: JobSpec.sample_many(
            coloring, 16, seed=SEED, rounds=12, parallel=0, shard_size=4
        ),
        "sample_many_initial": lambda: JobSpec.sample_many(
            small_coloring, 4, seed=SEED, rounds=3, initial=INITIAL
        ),
        "tv_curve": lambda: JobSpec.tv_curve(small_coloring, (1, 2, 4), replicas=64, seed=SEED),
        "mixing_time": lambda: JobSpec.mixing_time(
            csp, eps=0.25, method="luby-glauber", replicas=128, seed=SEED
        ),
    }
    assert specs[name]().cache_key() == PINNED_KEYS[name]


def test_initial_key_does_not_depend_on_its_container(small_coloring):
    specs = [
        JobSpec.sample_many(small_coloring, 4, seed=SEED, rounds=3, initial=initial)
        for initial in (INITIAL, np.array(INITIAL, dtype=np.int64), np.array(INITIAL, np.int8))
    ]
    specs.append(JobSpec.from_wire(json.loads(json.dumps(specs[0].to_wire()))))
    assert {spec.cache_key() for spec in specs} == {PINNED_KEYS["sample_many_initial"]}
    np.testing.assert_array_equal(repro.run_spec(specs[-1]), repro.run_spec(specs[0]))


class TestWire:
    def test_roundtrip_preserves_results_and_key(self, coloring):
        spec = JobSpec.sample_many(coloring, 8, seed=SEED, rounds=8, name="wired")
        clone = JobSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
        assert clone.name == "wired"
        assert clone.cache_key() == spec.cache_key()
        np.testing.assert_array_equal(repro.run_spec(clone), repro.run_spec(spec))

    def test_roundtrip_all_kinds(self, small_coloring):
        specs = [
            JobSpec.sample_many(small_coloring, 8, seed=1, rounds=4),
            JobSpec.tv_curve(small_coloring, (1, 3), replicas=32, seed=1),
            JobSpec.mixing_time(
                small_coloring, eps=0.5, replicas=256, max_rounds=64, stride=4, seed=1
            ),
        ]
        for spec in specs:
            clone = JobSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
            assert repro.run_spec(clone) == pytest.approx(repro.run_spec(spec))

    def test_sharded_spec_travels_as_sharded(self, coloring):
        spec = JobSpec.sample_many(
            coloring, 8, seed=1, rounds=5, parallel=4, shard_size=2
        )
        clone = JobSpec.from_wire(spec.to_wire())
        # Placement does not travel; sharded semantics (and their bits) do.
        assert clone.parallel == 0
        assert clone.shard_size == 2
        assert clone.cache_key() == spec.cache_key()
        np.testing.assert_array_equal(repro.run_spec(clone), repro.run_spec(spec))

    def test_generator_seed_not_serialisable(self, coloring):
        spec = JobSpec.sample_many(coloring, 8, seed=np.random.default_rng(1))
        with pytest.raises(ModelError, match="seed"):
            spec.to_wire()

    def test_unseeded_spec_serialisable(self, coloring):
        spec = JobSpec.sample_many(coloring, 4, rounds=3)
        clone = JobSpec.from_wire(spec.to_wire())
        assert clone.seed is None and clone.cache_key() is None

    def test_malformed_payloads_rejected(self, coloring):
        with pytest.raises(ModelError, match="dict"):
            JobSpec.from_wire("nope")
        with pytest.raises(ModelError, match="kind"):
            JobSpec.from_wire({"kind": "bogus", "model": coloring.to_dict()})
        with pytest.raises(ModelError, match="version"):
            JobSpec.from_wire(
                {"version": 99, "kind": "sample_many", "model": coloring.to_dict()}
            )
        with pytest.raises(ModelError):
            JobSpec.from_wire({"kind": "sample_many"})  # missing model
        wire = JobSpec.sample_many(coloring, 4, seed=1, rounds=2).to_wire()
        with pytest.raises(ModelError, match="malformed"):
            JobSpec.from_wire(dict(wire, seed=[1]))
        with pytest.raises(ModelError, match="non-negative"):
            JobSpec.from_wire(dict(wire, seed=-1))
        # Wire numbers are checked, never coerced: 1.5 is not seed 1, "false"
        # is not true, 3.7 is not 3 rounds and "6" is not n = 6.
        for value in (1.5, True, "1"):
            with pytest.raises(ModelError, match=f"seed must be an integer, got {value!r}"):
                JobSpec.from_wire(dict(wire, seed=value))
        for key, value, needle in [
            ("sharded", "false", "sharded must be true or false"),
            ("rounds", 3.7, "rounds must be an integer"),
            ("replicas", "4", "replicas must be an integer"),
            ("eps", "0.05", "eps must be a number"),
        ]:
            with pytest.raises(ModelError, match=needle):
                JobSpec.from_wire(dict(wire, params={**wire["params"], key: value}))
        sharded = JobSpec.sample_many(coloring, 4, seed=1, rounds=2, parallel=0).to_wire()
        sharded["params"]["shard_size"] = 2.5
        with pytest.raises(ModelError, match="shard_size must be an integer"):
            JobSpec.from_wire(sharded)
        mixing = JobSpec.mixing_time(coloring, eps=0.5, replicas=8, seed=1).to_wire()
        for key, value in (("max_rounds", 8.5), ("stride", False)):
            with pytest.raises(ModelError, match=f"{key} must be an integer"):
                JobSpec.from_wire(dict(mixing, params={**mixing["params"], key: value}))
        for key, value in (("n", 6.9), ("n", "9"), ("q", 5.5)):
            with pytest.raises(ModelError, match=f"{key} must be an integer"):
                JobSpec.from_wire(dict(wire, model={**wire["model"], key: value}))
        # An integral float reads as its integer.
        integral = JobSpec.from_wire(dict(wire, seed=1.0, params={**wire["params"], "rounds": 2.0}))
        assert integral.cache_key() == JobSpec.from_wire(wire).cache_key()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("sample_many", "round", 5),
            ("sample_many", "backend", "numpy"),
            ("sample_many", "checkpoints", [1, 2]),
            ("sample_many", "shard_size", 2),
            ("tv_curve", "eps", 0.1),
            ("tv_curve", "rounds", 3),
            ("mixing_time", "rounds", 3),
            ("mixing_time", "checkpoints", [1]),
        ],
    )
    def test_unknown_params_rejected(self, small_coloring, kind, key, value):
        """A key ``params_dict`` does not emit for the kind is refused by name.

        Each kind has its own keys, and ``shard_size`` belongs to sharded
        payloads only.
        """
        specs = {
            "sample_many": JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2),
            "tv_curve": JobSpec.tv_curve(small_coloring, (1, 2), replicas=8, seed=1),
            "mixing_time": JobSpec.mixing_time(small_coloring, eps=0.5, replicas=8, seed=1),
        }
        wire = specs[kind].to_wire()
        wire["params"][key] = value
        with pytest.raises(ModelError, match=repr(key)):
            JobSpec.from_wire(wire)

    def test_fingerprint_reference_resolves_through_models(self, coloring):
        spec = JobSpec.sample_many(coloring, 4, seed=1, rounds=2)
        stub = spec.to_wire_fingerprint()
        registry = {coloring.model_fingerprint(): coloring}
        clone = JobSpec.from_wire(stub, models=registry)
        assert clone.model is coloring
        assert clone.cache_key() == spec.cache_key()
        with pytest.raises(UnknownModelError):
            JobSpec.from_wire(stub)
        with pytest.raises(UnknownModelError):
            JobSpec.from_wire(stub, models={})
        for bad in (["x"], "x", "0" * 63, "A" * 64, 7):
            malformed = dict(stub, model={"type": "fingerprint", "fingerprint": bad})
            with pytest.raises(ModelError, match="64 lowercase hex") as caught:
                JobSpec.from_wire(malformed, models=registry)
            assert not isinstance(caught.value, UnknownModelError)


#: JSON values a hostile or buggy client could put anywhere in a payload.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

#: Paths of the fields the fuzzer replaces or deletes.
_WIRE_FIELDS = [
    ("version",), ("kind",), ("method",), ("seed",), ("name",), ("model",),
    ("params",), ("params", "replicas"), ("params", "rounds"), ("params", "eps"),
    ("params", "initial"), ("params", "sharded"), ("params", "shard_size"),
    ("params", "backend"), ("params", "checkpoints"), ("params", "max_rounds"),
    ("params", "stride"), ("model", "type"), ("model", "fingerprint"),
    ("model", "n"), ("model", "q"), ("model", "arrays"), ("model", "arrays", "edge_u"),
    ("model", "arrays", "palette"), ("model", "arrays", "edge_table"),
    ("model", "arrays", "vertex_palette"), ("model", "arrays", "vertex_index"),
    ("model", "arrays", "edge_u", "shape"),
]


class TestWireFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_is_spec_or_model_error(self, data):
        """``from_wire`` either builds a spec or raises ModelError — never
        a raw TypeError/ValueError/OverflowError (a served 500)."""
        model = proper_coloring_mrf(cycle_graph(4), 3)
        specs = [
            JobSpec.sample_many(model, 4, seed=1, rounds=2, parallel=2, shard_size=2),
            JobSpec.tv_curve(model, (1, 2), replicas=8, seed=2),
            JobSpec.mixing_time(model, eps=0.5, replicas=8, seed=3),
        ]
        spec = data.draw(st.sampled_from(specs))
        by_fingerprint = data.draw(st.booleans())
        wire = spec.to_wire_fingerprint() if by_fingerprint else spec.to_wire()
        payload = json.loads(json.dumps(wire))
        path = data.draw(st.sampled_from(_WIRE_FIELDS))
        parent = payload
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if data.draw(st.booleans()):
                parent[path[-1]] = data.draw(_JSON_VALUES)
            else:
                parent.pop(path[-1], None)
        try:
            rebuilt = JobSpec.from_wire(
                payload, models={model.model_fingerprint(): model}
            )
        except ModelError:
            return
        assert isinstance(rebuilt, JobSpec)
        rebuilt.cache_key()  # a served request hashes the spec next


def _fault_specs() -> list[JobSpec]:
    """Valid specs whose payloads the fault injector breaks: both model kinds,
    a per-vertex activity palette, and ``initial`` starts of both ranks."""
    mrf = proper_coloring_mrf(cycle_graph(4), 3).with_vertex_activity(2, [1.0, 2.0, 0.5])
    nae = not_all_equal_csp([(0, 1, 2), (1, 2, 3)], n=4, q=3)
    return [
        JobSpec.sample_many(mrf, 2, seed=1, rounds=2, initial=[[0, 1, 0, 1], [1, 2, 1, 2]]),
        JobSpec.sample_many(nae, 2, method="luby-glauber", seed=1, rounds=2,
                            initial=[0, 1, 2, 0]),
    ]


def _encoded_arrays(wire: dict) -> list[tuple[object, object]]:
    """``(container, key)`` of every encoded array in a wire payload."""
    arrays = wire["model"]["arrays"]
    found = [(arrays, field) for field, value in arrays.items() if isinstance(value, dict)]
    found += [(arrays["palette"], k) for k in range(len(arrays["palette"]))
              if isinstance(arrays["palette"], list)]
    return found + [(wire["params"], "initial")]


def _redo(encoded: dict, edit) -> dict:
    """Decode ``encoded``, apply ``edit`` and re-encode: a valid array, bad content."""
    kind = "float" if encoded["dtype"] == "<f8" else "int"
    return encode_array(edit(decode_array(encoded, kind)))


def _set_entry(data):
    value = data.draw(st.sampled_from([-1, 1, 2, 3, 4, 7, 2**31, 2**40]))

    def edit(array):
        array.flat[data.draw(st.integers(0, max(array.size - 1, 0)))] = value
        return array

    return edit


#: Each fault breaks one part of one encoded array (or the arrays object).
_FAULTS = {
    "dtype": lambda data, target: target.update(dtype=data.draw(
        st.sampled_from(["<f8", "|i1", "<i4", "<i8", ">i8", "|O", "<U4", "i8", ""])
        | st.text(max_size=3)
    )),
    "rank": lambda data, target: target.update(shape=data.draw(
        st.sampled_from([target["shape"] + [1], target["shape"][:-1], []])
    )),
    "extent": lambda data, target: target["shape"].__setitem__(
        data.draw(st.integers(0, len(target["shape"]) - 1)),
        data.draw(st.sampled_from([-1, 0, 2, 2**31, 2**62, 10**30])),
    ),
    "empty-huge": lambda data, target: target.update(b64="", shape=[0] + [data.draw(
        st.sampled_from([2**31, 2**62, 10**30])
    )] * (len(target["shape"]) - 1)),
    "b64-invalid": lambda data, target: target.update(b64=target["b64"][:1] + data.draw(
        st.sampled_from(["!", "é", "*", " ", "="])
    ) + target["b64"][1:]),
    "b64-truncated": lambda data, target: target.update(
        b64=target["b64"][: data.draw(st.integers(0, max(len(target["b64"]) - 1, 0)))]
    ),
    "entry": lambda data, target: target.update(_redo(target, _set_entry(data))),
    "length": lambda data, target: target.update(_redo(target, lambda array: data.draw(
        st.sampled_from([array[:-1], np.concatenate([array, array[:1]])])
    ))),
    "float-for-int": lambda data, target: target.update(
        _redo(target, lambda array: array.astype(float) + data.draw(st.sampled_from([0.0, 0.5])))
    ),
}


class TestArrayFaults:
    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_broken_array_payload_is_spec_or_model_error(self, data):
        """One broken part of an encoded model or ``initial`` array: a spec or a
        ModelError (a served 400), never another exception (a served 500)."""
        wire = json.loads(json.dumps(data.draw(st.sampled_from(_fault_specs())).to_wire()))
        fault = data.draw(st.sampled_from([*_FAULTS, "arrays", "indptr"]))
        if fault == "arrays":
            wire["model"]["arrays"] = data.draw(st.sampled_from([[], "arrays", 3, None]))
        elif fault == "indptr" and "scope_indptr" in wire["model"]["arrays"]:
            arrays = wire["model"]["arrays"]
            arrays["scope_indptr"] = _redo(arrays["scope_indptr"], lambda indptr: data.draw(
                st.sampled_from([indptr + 1, indptr[::-1], np.append(indptr[:-1], 99)])
            ))
        else:  # an MRF has no scope_indptr: break an entry instead
            container, key = data.draw(st.sampled_from(_encoded_arrays(wire)))
            _FAULTS.get(fault, _FAULTS["entry"])(data, container[key])
        try:
            rebuilt = JobSpec.from_wire(wire)
        except ModelError:
            return
        assert isinstance(rebuilt, JobSpec)
        rebuilt.cache_key()
