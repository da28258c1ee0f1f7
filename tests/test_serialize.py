"""Canonical serialization: the array codec, round trips and fingerprints.

The contract under test (see :mod:`repro.serialize`): a round-tripped
model has the same stored arrays and is *operationally identical* — same
exact distribution, same sampling bits for the same seed — and
``model_fingerprint()`` follows its documented recipe, is stable across
round trips, independent of cosmetic names, and sensitive to every
parameter that can reach a sampled bit.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest

import repro
from repro.csp.builders import (
    coloring_csp,
    dominating_set_csp,
    maximal_independent_set_csp,
    not_all_equal_csp,
)
from repro.csp.model import LocalCSP
from repro.errors import InfeasibleStateError, ModelError
from repro.graphs import cycle_graph, grid_graph, path_graph, random_regular_graph
from repro.mrf import (
    hardcore_mrf,
    ising_mrf,
    potts_mrf,
    proper_coloring_mrf,
    uniform_mrf,
)
from repro.mrf.model import MRF
from repro.serialize import (
    MODEL_KEYS,
    canonical_json,
    decode_array,
    encode_array,
    model_from_dict,
    model_to_dict,
)

SEED = 20170625


def _random_graph(rng):
    kind = rng.integers(4)
    if kind == 0:
        return path_graph(int(rng.integers(2, 7)))
    if kind == 1:
        return cycle_graph(int(rng.integers(3, 8)))
    if kind == 2:
        return grid_graph(2, int(rng.integers(2, 4)))
    return random_regular_graph(2, int(rng.integers(4, 8)), seed=int(rng.integers(2**31)))


def _random_mrf(rng) -> MRF:
    graph = _random_graph(rng)
    family = rng.integers(5)
    if family == 0:
        return proper_coloring_mrf(graph, int(rng.integers(3, 6)))
    if family == 1:
        return hardcore_mrf(graph, float(rng.uniform(0.2, 2.5)))
    if family == 2:
        return ising_mrf(graph, float(rng.uniform(0.5, 2.0)))
    if family == 3:
        return potts_mrf(graph, int(rng.integers(2, 5)), float(rng.uniform(0.5, 2.0)))
    return uniform_mrf(graph, int(rng.integers(2, 4)))


def _random_csp(rng) -> LocalCSP:
    graph = _random_graph(rng)
    family = rng.integers(4)
    if family == 0:
        return dominating_set_csp(graph, weight=float(rng.uniform(0.5, 2.0)))
    if family == 1:
        return maximal_independent_set_csp(graph)
    if family == 2:
        return coloring_csp(graph, int(rng.integers(3, 6)))
    n = graph.number_of_nodes()
    scopes = sorted({tuple(sorted({v, *graph.neighbors(v)})) for v in range(n)})
    scopes = [s for s in scopes if len(s) >= 2]
    if not scopes:
        return coloring_csp(graph, 3)
    return not_all_equal_csp(scopes, n=n, q=int(rng.integers(2, 4)))


def _assert_equivalent(model, clone):
    assert type(clone) is type(model)
    assert clone.n == model.n and clone.q == model.q
    assert clone.name == model.name
    assert clone.model_fingerprint() == model.model_fingerprint()
    # Operational identity: identical sampling bits for an identical seed,
    # or the identical refusal of an infeasible greedy start.
    a, b = _sample_or_refusal(model), _sample_or_refusal(clone)
    if isinstance(a, str):
        assert a == b
    else:
        np.testing.assert_array_equal(a, b)


def _sample_or_refusal(model):
    try:
        return repro.sample(model, rounds=6, seed=SEED)
    except InfeasibleStateError as refusal:
        return str(refusal)


class TestFuzzRoundTrip:
    def test_mrf_families_roundtrip_through_json(self):
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            model = _random_mrf(rng)
            payload = json.loads(json.dumps(model.to_dict()))
            _assert_equivalent(model, MRF.from_dict(payload))

    def test_csp_families_roundtrip_through_json(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(25):
            model = _random_csp(rng)
            payload = json.loads(json.dumps(model.to_dict()))
            _assert_equivalent(model, LocalCSP.from_dict(payload))

    def test_dispatching_helpers_roundtrip_both_types(self):
        rng = np.random.default_rng(SEED + 2)
        for build in (_random_mrf, _random_csp):
            model = build(rng)
            clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
            _assert_equivalent(model, clone)


def _family_model(name: str):
    """A small model of registry family ``name``, on a 3x3 grid."""
    return repro.families.build_model({"family": name, "graph": "grid"}, 3, seed=0)


def _recipe(model) -> str:
    """The fingerprint recipe of :mod:`repro.serialize`, recomputed here."""
    arrays = model.compiled()
    if isinstance(model, LocalCSP):
        kind, fields = "csp", ["scope_indptr", "scope_vertex", "constraint_table"]
        tables = [("palette", table) for table in arrays.palette]
    else:
        kind, tables = "mrf", []
        fields = ["edge_u", "edge_v", "edge_table", "palette", "vertex_index", "vertex_palette"]
    stored = [(field, getattr(arrays, field)) for field in fields] + tables
    header = f"{kind} {model.n} {model.q}\n"
    for field, array in stored:
        assert array.dtype.str in ("<i8", "<f8")
        header += f"{field} {array.dtype.str} {','.join(str(e) for e in array.shape)}\n"
    digest = hashlib.sha256(header.encode("ascii"))
    for _, array in stored:
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", repro.families.FAMILIES)
def test_a_model_is_its_name_and_arrays(name):
    """Payload, pickle and record hold the name, n, q and stored arrays, nothing else."""
    model = _family_model(name)
    payload = model.to_dict()
    assert tuple(payload) == MODEL_KEYS
    assert tuple(payload["arrays"]) == tuple(model.compiled().ARRAYS)
    assert set(vars(pickle.loads(pickle.dumps(model)))) == {"name", "n", "q", "_arrays"}
    if isinstance(model, MRF):
        # No pad table: every palette entry is some edge's table.
        arrays = model.compiled()
        assert np.unique(arrays.edge_table).tolist() == list(range(len(arrays.palette)))


class TestFingerprint:
    @pytest.mark.parametrize("name", repro.families.FAMILIES)
    def test_follows_the_documented_recipe(self, name):
        model = _family_model(name)
        assert model.model_fingerprint() == _recipe(model)

    @pytest.mark.parametrize("name", repro.families.FAMILIES)
    def test_wire_round_trip_keeps_the_arrays_and_fingerprint(self, name):
        model = _family_model(name)
        spec = repro.JobSpec.sample_many(model, 2, rounds=1, seed=0)
        clone = repro.JobSpec.from_wire(json.loads(json.dumps(spec.to_wire()))).model
        mine = list(model.compiled().stored_arrays())
        theirs = list(clone.compiled().stored_arrays())
        assert [field for field, _ in mine] == [field for field, _ in theirs]
        for (field, a), (_, b) in zip(mine, theirs, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        assert clone.model_fingerprint() == model.model_fingerprint()

    def test_name_is_cosmetic(self, path3_coloring):
        payload = path3_coloring.to_dict()
        payload["name"] = "renamed"
        clone = MRF.from_dict(payload)
        assert clone.name == "renamed"
        assert clone.model_fingerprint() == path3_coloring.model_fingerprint()

    def test_parameters_reach_the_fingerprint(self):
        graph = cycle_graph(5)
        assert (
            hardcore_mrf(graph, 1.0).model_fingerprint()
            != hardcore_mrf(graph, 1.5).model_fingerprint()
        )
        assert (
            proper_coloring_mrf(graph, 3).model_fingerprint()
            != proper_coloring_mrf(graph, 4).model_fingerprint()
        )
        assert (
            dominating_set_csp(graph, weight=1.0).model_fingerprint()
            != dominating_set_csp(graph, weight=2.0).model_fingerprint()
        )

    def test_n_q_and_every_stored_entry_reach_the_fingerprint(self):
        for model in (_hetero_mrf(), dominating_set_csp(path_graph(4), weight=2.0)):
            kind = "csp" if isinstance(model, LocalCSP) else "mrf"
            stored = list(model.compiled().stored_arrays())
            fingerprint = model.model_fingerprint()
            assert repro.serialize.model_fingerprint(kind, model.n, model.q, stored) == fingerprint
            for n, q in ((model.n + 1, model.q), (model.n, model.q + 1)):
                assert repro.serialize.model_fingerprint(kind, n, q, stored) != fingerprint
            for k, (field, array) in enumerate(stored):
                for position in range(array.size):
                    changed = array.copy()
                    changed.flat[position] += 1
                    edited = [*stored[:k], (field, changed), *stored[k + 1:]]
                    assert repro.serialize.model_fingerprint(
                        kind, model.n, model.q, edited
                    ) != fingerprint, (field, position)

    def test_fingerprint_stable_across_processes_contract(self, path3_coloring):
        # sha256 over the stored bytes: recomputing must be bit-stable.
        assert (
            path3_coloring.model_fingerprint()
            == MRF.from_dict(path3_coloring.to_dict()).model_fingerprint()
        )

    def test_constraint_order_is_significant(self):
        # Factor evaluation order fixes float-product order, hence bits:
        # reordering constraints makes a *different* model identity.
        csp = coloring_csp(path_graph(3), 3)
        reordered = LocalCSP(csp.n, csp.q, list(reversed(csp.constraints)))
        assert reordered.model_fingerprint() != csp.model_fingerprint()


def _decoded(payload: dict) -> dict:
    """The decoded arrays of an MRF payload."""
    return {
        field: decode_array(value, "float" if "palette" in field else "int")
        for field, value in payload["arrays"].items()
    }


def _edit(payload: dict, field: str, edit) -> None:
    """Replace an integer ``field`` of ``payload`` by ``edit(decoded)``, re-encoded."""
    arrays = payload["arrays"]
    arrays[field] = encode_array(edit(decode_array(arrays[field], "int")))


def _hetero_mrf() -> MRF:
    """A 6-cycle whose edge (0, 1) and vertex 2 carry their own tables."""
    graph = cycle_graph(6)
    plain = np.ones((3, 3)) - np.eye(3)
    soft = np.full((3, 3), 2.0)
    edges = {edge: plain.copy() for edge in graph.edges()}
    edges[(0, 1)] = soft
    vertex = np.ones((6, 3))
    vertex[2] = [1.0, 2.0, 3.0]
    return MRF(graph, 3, edges, vertex)


class TestPaletteForm:
    def test_shared_and_per_edge_tables_serialise_equally(self):
        graph = cycle_graph(6)
        table = np.ones((3, 3)) - np.eye(3)
        shared = MRF(graph, 3, table, np.ones(3))
        copies = MRF(
            graph, 3, {edge: table.copy() for edge in graph.edges()}, np.ones((6, 3))
        )
        assert shared.to_dict() == copies.to_dict()
        assert shared.model_fingerprint() == copies.model_fingerprint()
        arrays = _decoded(shared.to_dict())
        assert arrays["palette"].tolist() == [table.tolist()]
        assert arrays["edge_table"].tolist() == [0] * 6
        assert arrays["vertex_palette"].tolist() == [[1.0, 1.0, 1.0]]
        assert arrays["vertex_index"].tolist() == [0] * 6

    def test_palette_is_in_first_use_order(self):
        arrays = _decoded(_hetero_mrf().to_dict())
        # (0, 1) is the first edge in canonical order, so its table is entry 0.
        assert (arrays["edge_u"][0], arrays["edge_v"][0]) == (0, 1)
        assert arrays["edge_table"].tolist() == [0, 1, 1, 1, 1, 1]
        assert arrays["palette"][0].tolist() == np.full((3, 3), 2.0).tolist()
        assert arrays["vertex_index"].tolist() == [0, 0, 1, 0, 0, 0]

    def test_from_dict_shares_frozen_tables(self):
        model = _hetero_mrf()
        payload = json.loads(json.dumps(model.to_dict()))
        clone = MRF.from_dict(payload)
        tables = [clone.edge_activity(u, v) for u, v in clone.edges]
        # Every palette entry is used.
        assert len({id(table) for table in tables}) == payload["arrays"]["palette"]["shape"][0]
        assert not any(table.flags.writeable for table in tables)
        assert clone.model_fingerprint() == model.model_fingerprint()

        csp = dominating_set_csp(cycle_graph(6))
        csp_payload = json.loads(json.dumps(csp.to_dict()))
        # every closed neighbourhood has 3 vertices
        assert len(csp_payload["arrays"]["palette"]) == 1
        csp_clone = LocalCSP.from_dict(csp_payload)
        csp_tables = [constraint.table for constraint in csp_clone.constraints]
        assert len({id(table) for table in csp_tables}) == 1
        assert not any(table.flags.writeable for table in csp_tables)

    @pytest.mark.parametrize("build", [_hetero_mrf, lambda: dominating_set_csp(cycle_graph(5))])
    def test_fingerprint_is_memoized(self, monkeypatch, build):
        """Hashed once per stored record; a pickled copy hashes its own once."""
        model = build()
        calls = []
        fingerprint = repro.compiled.model_fingerprint

        def counting(*args):
            calls.append(args[0])
            return fingerprint(*args)

        monkeypatch.setattr(repro.compiled, "model_fingerprint", counting)
        first = model.model_fingerprint()
        assert model.model_fingerprint() == first
        assert len(calls) == 1
        copy = pickle.loads(pickle.dumps(model))
        assert copy.model_fingerprint() == copy.model_fingerprint() == first
        assert len(calls) == 2

    def test_without_edge_gets_its_own_fingerprint(self):
        parent = _hetero_mrf()
        before = parent.model_fingerprint()
        child = parent.without_edge(0, 1)
        assert child.model_fingerprint() != before
        assert parent.model_fingerprint() == before
        assert child.model_fingerprint() == MRF.from_dict(child.to_dict()).model_fingerprint()
        restored = child.with_edge(0, 1, parent.edge_activity(0, 1))
        assert restored.model_fingerprint() == before


#: sha256 of ``canonical_json(model.to_dict())``, the model name included,
#: for one model of each CSP family: the payload bytes must not move.
#: Re-pinned when the payload lost its per-constraint names.
CSP_PAYLOAD_DIGESTS = [
    ({"family": "coloring-csp", "graph": "grid", "q": 3}, 3,
     "221fc5ff2b7d45547c9d07b34b586278efc1bda638d3356094e7210fc3b7b8f7"),
    ({"family": "nae", "graph": "cycle", "q": 3}, 7,
     "e3c11f69d030020a252ebe83e18599fb4462361af4a4cb96f0176f18b5152865"),
    ({"family": "dominating-set", "graph": "grid", "weight": 2.0}, 3,
     "7037a4e01ede57b9cb2ad23d75cb12bb75ab668165c3494d9766bb31ab63b53a"),
    ({"family": "mis", "graph": "path"}, 5,
     "57fb9ffea097adbd0e388ada9eed067d946422b0604775fd9863f86038ef934d"),
]


@pytest.mark.parametrize(
    "entry, size, digest", CSP_PAYLOAD_DIGESTS, ids=[e["family"] for e, _, _ in CSP_PAYLOAD_DIGESTS]
)
def test_csp_payload_bytes_are_pinned(entry, size, digest):
    model = repro.families.build_model(entry, size)
    text = canonical_json(model.to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert canonical_json(LocalCSP.from_dict(json.loads(text)).to_dict()) == text


class TestMalformed:
    def test_unknown_type_rejected(self):
        with pytest.raises(ModelError, match="type"):
            model_from_dict({"type": "bogus"})

    def test_non_dict_rejected(self):
        with pytest.raises(ModelError):
            model_from_dict([1, 2, 3])

    def test_mrf_table_count_mismatch_rejected(self, path3_coloring):
        for field in ("edge_table", "vertex_index"):
            payload = path3_coloring.to_dict()
            _edit(payload, field, lambda array: array[:-1])
            with pytest.raises(ModelError, match="palette index has"):
                MRF.from_dict(payload)

    @pytest.mark.parametrize("field, palette", [("edge_table", "palette"),
                                                ("vertex_index", "vertex_palette")])
    @pytest.mark.parametrize("past", [False, True])
    def test_mrf_palette_index_out_of_range_rejected(self, path3_coloring, field, palette, past):
        payload = path3_coloring.to_dict()
        bad = payload["arrays"][palette]["shape"][0] if past else -1

        def edit(array):
            array[0] = bad
            return array

        _edit(payload, field, edit)
        with pytest.raises(ModelError, match="palette index outside"):
            MRF.from_dict(payload)

    def test_csp_palette_index_out_of_range_rejected(self):
        payload = dominating_set_csp(cycle_graph(3)).to_dict()
        size = len(payload["arrays"]["palette"])
        _edit(payload, "constraint_table", lambda array: np.concatenate([[size], array[1:]]))
        with pytest.raises(ModelError, match="palette index outside"):
            LocalCSP.from_dict(payload)

    def test_mrf_vertex_palette_width_checked(self, path3_coloring):
        payload = path3_coloring.to_dict()
        payload["arrays"]["vertex_palette"] = encode_array(np.ones((1, 2)))  # q = 3
        with pytest.raises(ModelError, match="vertex palette"):
            MRF.from_dict(payload)

    def test_csp_malformed_constraint_rejected(self):
        payload = dominating_set_csp(cycle_graph(3)).to_dict()
        del payload["arrays"]["constraint_table"]  # a constraint without its table
        with pytest.raises(ModelError, match="constraint_table"):
            LocalCSP.from_dict(payload)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ModelError):
            canonical_json({"x": float("nan")})

    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
