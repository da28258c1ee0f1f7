"""Canonical serialization: to_dict/from_dict round-trips and fingerprints.

The contract under test (see :mod:`repro.serialize`): a round-tripped
model is *operationally identical* — same exact distribution, same
sampling bits for the same seed — and ``model_fingerprint()`` is stable
across round trips, independent of cosmetic names, and sensitive to
every parameter that can reach a sampled bit.
"""

from __future__ import annotations

import hashlib
import json

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
    canonical_json,
    model_from_dict,
    model_to_dict,
    payload_fingerprint,
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


class TestFingerprint:
    def test_name_is_cosmetic(self, path3_coloring):
        payload = path3_coloring.to_dict()
        payload["name"] = "renamed"
        clone = MRF.from_dict(payload)
        assert clone.name == "renamed"
        assert clone.model_fingerprint() == path3_coloring.model_fingerprint()

    def test_csp_constraint_names_are_cosmetic(self):
        csp = dominating_set_csp(cycle_graph(4))
        payload = csp.to_dict()
        for constraint in payload["constraints"]:
            constraint["name"] = "anon"
        clone = LocalCSP.from_dict(payload)
        assert clone.model_fingerprint() == csp.model_fingerprint()

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

    def test_fingerprint_stable_across_processes_contract(self, path3_coloring):
        # sha256 over canonical JSON: recomputing must be bit-stable.
        assert (
            path3_coloring.model_fingerprint()
            == MRF.from_dict(path3_coloring.to_dict()).model_fingerprint()
        )

    def test_constraint_order_is_significant(self):
        # Factor evaluation order fixes float-product order, hence bits:
        # reordering constraints is a *different* canonical payload.
        csp = coloring_csp(path_graph(3), 3)
        payload = csp.to_dict()
        reordered = dict(payload, constraints=list(reversed(payload["constraints"])))
        assert payload_fingerprint(
            {k: v for k, v in payload.items() if k != "name"}
        ) != payload_fingerprint(
            {k: v for k, v in reordered.items() if k != "name"}
        )


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
        payload = shared.to_dict()
        assert payload["edge_palette"] == [table.tolist()]
        assert payload["edge_index"] == [0] * 6
        assert payload["vertex_palette"] == [[1.0, 1.0, 1.0]]
        assert payload["vertex_index"] == [0] * 6

    def test_palette_is_in_first_use_order(self):
        payload = _hetero_mrf().to_dict()
        # (0, 1) is the first edge in canonical order, so its table is entry 0.
        assert payload["edges"][0] == [0, 1]
        assert payload["edge_index"] == [0, 1, 1, 1, 1, 1]
        assert payload["edge_palette"][0] == np.full((3, 3), 2.0).tolist()
        assert payload["vertex_index"] == [0, 0, 1, 0, 0, 0]

    def test_from_dict_shares_frozen_tables(self):
        model = _hetero_mrf()
        payload = json.loads(json.dumps(model.to_dict()))
        clone = MRF.from_dict(payload)
        tables = [clone.edge_activity(u, v) for u, v in clone.edges]
        assert len({id(table) for table in tables}) == len(payload["edge_palette"])
        assert not any(table.flags.writeable for table in tables)
        assert clone.model_fingerprint() == model.model_fingerprint()

        csp = dominating_set_csp(cycle_graph(6))
        csp_payload = json.loads(json.dumps(csp.to_dict()))
        assert len(csp_payload["palette"]) == 1  # every closed neighbourhood has 3 vertices
        csp_clone = LocalCSP.from_dict(csp_payload)
        csp_tables = [constraint.table for constraint in csp_clone.constraints]
        assert len({id(table) for table in csp_tables}) == 1
        assert not any(table.flags.writeable for table in csp_tables)

    @pytest.mark.parametrize("build", [_hetero_mrf, lambda: dominating_set_csp(cycle_graph(5))])
    def test_fingerprint_is_memoized(self, monkeypatch, build):
        model = build()
        calls = []
        to_dict = type(model).to_dict

        def counting_to_dict(self):
            calls.append(self)
            return to_dict(self)

        monkeypatch.setattr(type(model), "to_dict", counting_to_dict)
        first = model.model_fingerprint()
        assert model.model_fingerprint() == first
        assert len(calls) == 1

    def test_without_edge_gets_its_own_fingerprint(self):
        parent = _hetero_mrf()
        before = parent.model_fingerprint()
        child = parent.without_edge(0, 1)
        assert child.model_fingerprint() != before
        assert parent.model_fingerprint() == before
        assert child.model_fingerprint() == MRF.from_dict(child.to_dict()).model_fingerprint()
        restored = child.with_edge(0, 1, parent.edge_activity(0, 1))
        assert restored.model_fingerprint() == before


#: sha256 of ``canonical_json(model.to_dict())``, names included, for one
#: model of each CSP family.  Pinned from the constraint-object storage
#: the array storage replaced: the payload bytes must not move.
CSP_PAYLOAD_DIGESTS = [
    ({"family": "coloring-csp", "graph": "grid", "q": 3}, 3,
     "835ab0346adefb7ca1ca7a54f104a100de87c996cf0cf5542106610d4d167878"),
    ({"family": "nae", "graph": "cycle", "q": 3}, 7,
     "8ea4dc9f8224759ef1f138a76b6e75cb3e20e311e9f560699329e662434f0d0a"),
    ({"family": "dominating-set", "graph": "grid", "weight": 2.0}, 3,
     "bcbe78bd2b2038d7aef11fc09c8505a8c1398cdaa5e1bb6389a9494500c22c21"),
    ({"family": "mis", "graph": "path"}, 5,
     "5f7bbcdb9efa8ccf138e069c60c298c88548669a9a06df6aa52c42be6b7078d9"),
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
        for field in ("edge_index", "vertex_index"):
            payload = path3_coloring.to_dict()
            payload[field] = payload[field][:-1]
            with pytest.raises(ModelError, match="palette index has"):
                MRF.from_dict(payload)

    @pytest.mark.parametrize("field", ["edge_index", "vertex_index"])
    @pytest.mark.parametrize("bad", [-1, 1])
    def test_mrf_palette_index_out_of_range_rejected(self, path3_coloring, field, bad):
        payload = path3_coloring.to_dict()  # one-entry palettes: only 0 is valid
        payload[field][0] = bad
        with pytest.raises(ModelError, match="palette index outside"):
            MRF.from_dict(payload)

    def test_csp_palette_index_out_of_range_rejected(self):
        payload = dominating_set_csp(cycle_graph(3)).to_dict()
        payload["constraints"][0]["table"] = len(payload["palette"])
        with pytest.raises(ModelError, match="palette index outside"):
            LocalCSP.from_dict(payload)

    def test_mrf_vertex_palette_width_checked(self, path3_coloring):
        payload = path3_coloring.to_dict()
        payload["vertex_palette"] = [[1.0, 1.0]]  # q = 3
        with pytest.raises(ModelError, match="vertex palette"):
            MRF.from_dict(payload)

    def test_csp_malformed_constraint_rejected(self):
        payload = dominating_set_csp(cycle_graph(3)).to_dict()
        payload["constraints"][0] = {"scope": [0, 1]}  # missing table
        with pytest.raises(ModelError):
            LocalCSP.from_dict(payload)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ModelError):
            canonical_json({"x": float("nan")})

    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
