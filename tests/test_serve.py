"""The sampling service: caching, admission control, streaming, lifecycle.

The load-bearing guarantees under test:

* a served result — cold or cached — is **bit-identical** to calling the
  :mod:`repro.api` facade directly with the same spec;
* the LRU cache evicts at capacity and replays only safely-cacheable
  requests;
* overload is a fast backpressure error (HTTP 429 /
  :class:`~repro.errors.ServerOverloadedError`), never a hang;
* a client disconnecting mid-stream neither kills the worker pool nor
  loses the result (it still lands in the cache);
* cooperative cancellation settles a queued job through the normal event
  stream;
* connections persist across requests, close exactly when the server says
  so, and neither a slow client nor an idle connection holds the server.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.spec
from repro.csp.builders import not_all_equal_csp
from repro.csp.model import Constraint, LocalCSP
from repro.errors import ServeError, ServerOverloadedError
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.mrf import MRF, proper_coloring_mrf
from repro.serialize import decode_array, encode_array
from repro.serve import ReproServer, ResultCache, ServeClient
from repro.spec import JobSpec

SEED = 20170625


@pytest.fixture(scope="module")
def coloring():
    return proper_coloring_mrf(grid_graph(3, 3), 5)


@pytest.fixture(scope="module")
def wide_coloring():
    return proper_coloring_mrf(path_graph(4), 200)


@pytest.fixture(scope="module")
def small_coloring():
    return proper_coloring_mrf(cycle_graph(6), 3)


@pytest.fixture(scope="module")
def server():
    with ReproServer(workers=2, cache_capacity=32, max_pending=16) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServeClient(*server.address) as cli:
        yield cli


def _post_spec(server, spec_payload) -> tuple[int, dict]:
    """POST a raw wire payload; returns (HTTP status, response document)."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request("POST", "/v1/jobs", body=json.dumps({"spec": spec_payload}))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _first_scope(model: dict, scope: list[int]) -> None:
    """Give constraint 0 of a CSP payload ``scope``, re-encoding the scope arrays."""
    arrays = model["arrays"]
    indptr = decode_array(arrays["scope_indptr"], "int")
    vertex = decode_array(arrays["scope_vertex"], "int")
    arrays["scope_vertex"] = encode_array(np.concatenate([scope, vertex[indptr[1]:]]))
    arrays["scope_indptr"] = encode_array(np.append(0, indptr[1:] - indptr[1] + len(scope)))


def _first_table_entry(model: dict, value: float) -> None:
    """Set the first entry of a CSP payload's palette table 0 (sent as a float64)."""
    table = decode_array(model["arrays"]["palette"][0], "float")
    table.flat[0] = value
    model["arrays"]["palette"][0] = encode_array(table)


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _raw_exchange(server, data: bytes) -> tuple[int, bytes, bytes]:
    """Send raw bytes and read until the server closes the connection.

    Returns (status, response head, rest).  A server that leaves the
    connection open fails the read with a socket timeout.
    """
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(1 << 16):
            reply += chunk
    head, _, rest = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, rest


class TestBitIdentity:
    # q=5 spins travel as int8; q=200 spins (up to 199) as int16.
    @pytest.mark.parametrize("model", ["coloring", "wide_coloring"])
    def test_sample_many_cold_and_hit_match_direct(self, client, request, model):
        spec = JobSpec.sample_many(request.getfixturevalue(model), 16, seed=SEED, rounds=12)
        direct = repro.run_spec(spec)
        cold = client.submit(spec)
        hit = client.submit(spec)
        assert cold["cached"] is False and hit["cached"] is True
        np.testing.assert_array_equal(cold["result"], direct)
        np.testing.assert_array_equal(hit["result"], direct)
        assert cold["result"].dtype == hit["result"].dtype == direct.dtype == np.int64

    def test_tv_curve_bitwise(self, client, small_coloring):
        spec = JobSpec.tv_curve(small_coloring, (1, 2, 4, 8), replicas=64, seed=3)
        direct = repro.run_spec(spec)
        assert client.run(spec) == direct  # exact float equality, not approx
        assert client.run(spec) == direct  # cached replay, same bits

    def test_mixing_time_bitwise(self, client, small_coloring):
        spec = JobSpec.mixing_time(
            small_coloring, eps=0.5, replicas=256, max_rounds=64, stride=4, seed=3
        )
        assert client.run(spec) == repro.run_spec(spec)

    def test_sharded_spec_served(self, client, coloring):
        spec = JobSpec.sample_many(coloring, 16, seed=SEED, rounds=12, parallel=2)
        np.testing.assert_array_equal(client.run(spec), repro.run_spec(spec))

    def test_streamed_checkpoints_and_result(self, client, small_coloring):
        spec = JobSpec.tv_curve(small_coloring, (1, 2, 4), replicas=64, seed=91)
        events = list(client.stream(spec))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds.count("checkpoint") == 3
        assert kinds[-1] == "result"
        direct = repro.run_spec(spec)
        assert events[-1]["result"] == direct
        checkpoints = [
            (event["round"], event["value"])
            for event in events
            if event["event"] == "checkpoint"
        ]
        assert checkpoints == direct


def _mixed_arity_csp() -> LocalCSP:
    """NAE scopes of arities 2-4 plus unary constraints, q=3."""
    nae = not_all_equal_csp([(0, 1, 2), (2, 3), (3, 4, 5, 0), (1, 5)], n=6, q=3)
    unary = np.array([1.0, 2.0, 0.5])
    for v in (0, 3, 4):
        nae = nae.with_constraint(Constraint((v,), unary))
    return nae


class TestServedCSP:
    @pytest.mark.parametrize("method", ["local-metropolis", "luby-glauber"])
    def test_by_payload_then_by_fingerprint_match_direct(self, method, monkeypatch):
        csp = _mixed_arity_csp()
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            first = JobSpec.sample_many(csp, 8, method=method, seed=SEED, rounds=12)
            by_payload = cli.submit(first)
            assert csp.model_fingerprint() in cli._known_models
            decodes = []
            from_dict = repro.spec.model_from_dict
            monkeypatch.setattr(
                repro.spec,
                "model_from_dict",
                lambda payload: decodes.append(payload) or from_dict(payload),
            )
            second = JobSpec.sample_many(csp, 8, method=method, seed=SEED + 1, rounds=12)
            by_fingerprint = cli.submit(second)
            assert decodes == []  # resolved by fingerprint, no payload decoded
            assert by_payload["cached"] is False and by_fingerprint["cached"] is False
            np.testing.assert_array_equal(by_payload["result"], repro.run_spec(first))
            np.testing.assert_array_equal(by_fingerprint["result"], repro.run_spec(second))


class TestCachePolicy:
    def test_unseeded_requests_never_cached(self, client, coloring):
        spec = JobSpec.sample_many(coloring, 4, rounds=5)
        a = client.submit(spec)
        b = client.submit(spec)
        assert a["cached"] is False and b["cached"] is False
        assert not np.array_equal(a["result"], b["result"])

    def test_lru_eviction_under_small_capacity(self, small_coloring):
        with (
            ReproServer(workers=1, cache_capacity=2, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            specs = [
                JobSpec.sample_many(small_coloring, 4, seed=s, rounds=4)
                for s in (101, 102, 103)
            ]
            for spec in specs:
                assert cli.submit(spec)["cached"] is False
            stats = cli.stats()["cache"]
            assert stats["size"] == 2
            assert stats["evictions"] == 1
            # 101 was evicted (LRU); 103 is still resident.
            assert cli.submit(specs[2])["cached"] is True
            assert cli.submit(specs[0])["cached"] is False

    def test_result_cache_unit_behaviour(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1
        assert cache.stats()["hits"] == 3
        disabled = ResultCache(capacity=0)
        disabled.put("a", 1)
        assert disabled.get("a") is None


class TestAdmissionControl:
    def test_overload_rejects_instead_of_hanging(self, coloring):
        slow = JobSpec.sample_many(coloring, 256, seed=1, rounds=4000, name="slow")
        quick = JobSpec.sample_many(coloring, 2, seed=2, rounds=2)
        with (
            ReproServer(workers=1, cache_capacity=4, max_pending=1) as srv,
            ServeClient(*srv.address) as cli,
        ):
            results: dict = {}

            def occupy():
                results["slow"] = cli.submit(slow)

            thread = threading.Thread(target=occupy)
            thread.start()
            try:
                assert _wait_until(lambda: cli.stats()["pending"] >= 1)
                began = time.monotonic()
                with pytest.raises(ServerOverloadedError, match="overloaded"):
                    cli.submit(quick)
                assert time.monotonic() - began < 5.0  # rejected, not queued
                assert cli.stats()["jobs"]["rejected"] >= 1
            finally:
                thread.join(timeout=120)
            assert not thread.is_alive()
            assert results["slow"]["cached"] is False
            # The pool drained; the server accepts work again.
            np.testing.assert_array_equal(cli.run(quick), repro.run_spec(quick))

    def test_cache_hits_served_even_when_saturated(self, coloring):
        warm = JobSpec.sample_many(coloring, 4, seed=5, rounds=4)
        slow = JobSpec.sample_many(coloring, 256, seed=6, rounds=4000)
        with (
            ReproServer(workers=1, cache_capacity=4, max_pending=1) as srv,
            ServeClient(*srv.address) as cli,
        ):
            direct = cli.run(warm)  # populate the cache while idle
            results: dict = {}
            thread = threading.Thread(
                target=lambda: results.update(slow=cli.submit(slow))
            )
            thread.start()
            try:
                assert _wait_until(lambda: cli.stats()["pending"] >= 1)
                hit = cli.submit(warm)  # saturated, but hits bypass admission
                assert hit["cached"] is True
                np.testing.assert_array_equal(hit["result"], direct)
            finally:
                thread.join(timeout=120)


class TestDisconnectAndCancel:
    def test_client_disconnect_mid_stream_keeps_runner_and_caches(
        self, server, client, small_coloring
    ):
        spec = JobSpec.tv_curve(
            small_coloring, tuple(range(1, 30)), replicas=256, seed=77
        )
        completed_before = client.stats()["jobs"]["completed"]
        connection = http.client.HTTPConnection(*server.address, timeout=60)
        connection.request(
            "POST",
            "/v1/jobs",
            body=json.dumps({"spec": spec.to_wire(), "stream": True}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        accepted = json.loads(response.readline())
        assert accepted["event"] == "accepted"
        connection.close()  # hang up mid-stream
        # The job keeps running server-side and completes...
        assert _wait_until(
            lambda: client.stats()["jobs"]["completed"] > completed_before
        )
        # ...its result landed in the cache despite the disconnect...
        hit = client.submit(spec)
        assert hit["cached"] is True
        assert hit["result"] == repro.run_spec(spec)
        # ...and the pool is fully alive for fresh work.
        probe = JobSpec.sample_many(small_coloring, 2, seed=123, rounds=2)
        np.testing.assert_array_equal(client.run(probe), repro.run_spec(probe))

    def test_cancel_queued_job_settles_with_error(self, coloring, small_coloring):
        slow = JobSpec.sample_many(coloring, 256, seed=8, rounds=4000)
        queued = JobSpec.sample_many(small_coloring, 4, seed=9, rounds=4)
        with (
            ReproServer(workers=1, cache_capacity=4, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            results: dict = {}
            thread = threading.Thread(
                target=lambda: results.update(slow=cli.submit(slow))
            )
            thread.start()
            try:
                assert _wait_until(lambda: cli.stats()["pending"] >= 1)
                stream = cli.stream(queued)
                accepted = next(stream)
                assert accepted["event"] == "accepted"
                assert cli.cancel(accepted["job_id"]) is True
                terminal = [event for event in stream]
                assert terminal[-1]["event"] == "error"
                assert "Cancelled" in terminal[-1]["message"]
            finally:
                thread.join(timeout=120)
            assert "slow" in results  # the busy job was untouched

    def test_cancel_unknown_job_is_false(self, client):
        assert client.cancel(99_999) is False


class TestProtocolErrors:
    @pytest.mark.parametrize(
        "spec, needle",
        [
            ({"kind": "x"}, "kind"),
            # clients of the int-list result form, of the nested-list model
            # form and of the constraint-name and pad-table model form are
            # refused by version
            ({"version": 2, "kind": "sample_many"}, "speaks version 5"),
            ({"version": 3, "kind": "sample_many"}, "speaks version 5"),
            ({"version": 4, "kind": "sample_many"}, "speaks version 5"),
        ],
    )
    def test_malformed_spec_is_400(self, server, spec, needle):
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        connection.request("POST", "/v1/jobs", body=json.dumps({"spec": spec}))
        response = connection.getresponse()
        assert response.status == 400
        assert needle in json.loads(response.read())["error"]
        connection.close()

    def test_invalid_json_is_400(self, server):
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        connection.request("POST", "/v1/jobs", body="{not json")
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    @pytest.mark.parametrize(
        "data, status",
        [
            (b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /v1/health HTTP/1.1\r\n" + b"X-A: b\r\n" * 200_000 + b"\r\n", 431),
            (b"GET /v1/health HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (
                b"POST /v1/invalidate HTTP/1.1\r\nContent-Length: 2\r\n"
                b'Content-Length: 25\r\n\r\n{"fingerprint": "abcdef"}',
                400,
            ),
            (
                b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                501,
            ),
        ],
        ids=["long-header-line", "huge-head", "negative-length", "conflicting-lengths",
             "chunked"],
    )
    def test_untrusted_framing_is_refused_then_closed(self, server, data, status):
        got, head, _ = _raw_exchange(server, data)  # reads to EOF
        assert got == status
        assert b"\r\nConnection: close" in head

    @pytest.mark.parametrize("fingerprint", [["x"], "x", "0" * 63, None])
    def test_malformed_fingerprint_is_400(self, server, small_coloring, fingerprint):
        wire = JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2).to_wire_fingerprint()
        wire["model"]["fingerprint"] = fingerprint
        status, document = _post_spec(server, wire)
        assert status == 400
        assert "fingerprint" in document["error"]

    def test_malformed_seed_is_400(self, server, small_coloring):
        wire = JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2).to_wire()
        wire["seed"] = [1]
        status, document = _post_spec(server, wire)
        assert status == 400
        assert "malformed" in document["error"]

    def test_non_finite_model_is_400(self, server, small_coloring):
        wire = JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2).to_wire()
        palette = decode_array(wire["model"]["arrays"]["palette"], "float")
        palette[0, 0, 1] = float("inf")
        wire["model"]["arrays"]["palette"] = encode_array(palette)
        status, document = _post_spec(server, wire)
        assert status == 400
        assert "finite" in document["error"]

    @pytest.mark.parametrize(
        "base, field, value",
        [
            ("tv_curve", "checkpoints", [4, 1]),
            ("tv_curve", "checkpoints", [0, 1]),
            ("tv_curve", "checkpoints", [2, 2]),
            ("tv_curve", "checkpoints", [-2]),
            ("tv_curve", "checkpoints", [1.5]),
            ("tv_curve", "checkpoints", [True, 2]),
            ("sample_many", "rounds", -3),
            ("sample_many", "method", "bogus"),
            ("sample_many", "backend", "torch"),
            ("sample_many", "round", 5),
            ("csp", "method", "glauber"),
            # an MRF lives on a simple graph: a self-loop or a repeated edge
            ("sample_many", "edges", [[0, 1], [0, 5], [1, 1], [2, 3], [3, 4], [4, 5]]),
            ("sample_many", "edges", [[0, 1], [0, 5], [0, 1], [2, 3], [3, 4], [4, 5]]),
            # wire numbers are checked, never coerced: 1.5 is not seed 1,
            # "false" is not true, 3.7 is not 3 rounds
            ("sample_many", "seed", 1.5),
            ("sample_many", "seed", True),
            ("sample_many", "seed", "1"),
            ("sample_many", "sharded", "false"),
            ("sample_many", "sharded", 1),
            ("sample_many", "rounds", 3.7),
            ("sample_many", "rounds", "3"),
            ("sample_many", "replicas", 4.5),
            ("sample_many", "replicas", True),
            ("sample_many", "eps", "0.05"),
            ("sample_many", "eps", True),
            ("sharded", "shard_size", 2.5),
            ("mixing_time", "max_rounds", "64"),
            ("mixing_time", "stride", 1.5),
        ],
    )
    def test_invalid_job_fields_are_400_and_never_submitted(
        self, server, client, small_coloring, base, field, value
    ):
        specs = {
            "tv_curve": JobSpec.tv_curve(small_coloring, (1, 2), replicas=8, seed=1),
            "sample_many": JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2),
            "sharded": JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2, parallel=0,
                                           shard_size=2),
            "mixing_time": JobSpec.mixing_time(small_coloring, eps=0.5, replicas=8,
                                               max_rounds=8, seed=1),
            "csp": JobSpec.sample_many(
                not_all_equal_csp([(0, 1, 2), (1, 2, 3)], n=4, q=3),
                4,
                method="luby-glauber",
                seed=1,
                rounds=2,
            ),
        }
        wire = specs[base].to_wire()
        if field in ("method", "seed"):
            wire[field] = value
        elif field == "edges":
            edges = np.array(value)
            wire["model"]["arrays"].update(
                edge_u=encode_array(edges[:, 0]), edge_v=encode_array(edges[:, 1])
            )
        else:
            wire["params"][field] = value
        submitted = client.stats()["jobs"]["submitted"]
        status, document = _post_spec(server, wire)
        assert status == 400
        assert field in document["error"]
        assert client.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda model: _first_scope(model, [0, 0, 1]), "distinct"),
            (lambda model: _first_scope(model, [0, 1, 4]), "outside 0..3"),
            (lambda model: _first_scope(model, [0, 1]), "one axis"),
            (lambda model: _first_table_entry(model, float("inf")), "finite"),
            (lambda model: model["arrays"]["palette"].append(
                encode_array(np.array([float("nan"), -1.0, 0.0]))), "palette entry 1"),
        ],
        ids=["repeated-vertex", "vertex-past-n", "arity-mismatch", "non-finite", "unused-entry"],
    )
    def test_malformed_csp_is_400_and_never_submitted(self, server, client, edit, needle):
        csp = not_all_equal_csp([(0, 1, 2), (1, 2, 3)], n=4, q=3)
        wire = JobSpec.sample_many(csp, 4, method="luby-glauber", seed=1, rounds=2).to_wire()
        edit(wire["model"])
        submitted = client.stats()["jobs"]["submitted"]
        status, document = _post_spec(server, wire)
        assert status == 400
        assert needle in document["error"]
        assert client.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "kind, edit, needle",
        [
            ("mrf", lambda model: model["arrays"]["edge_u"].update(b64="AAAA"), "edge_u of shape"),
            ("mrf", lambda model: model["arrays"]["vertex_index"].update(shape=[2**62, 0]),
             "shape"),
            ("csp", lambda model: model["arrays"].update(
                scope_indptr=encode_array(np.array([0, 3, 7]))), "scope_indptr must start at 0"),
            ("csp", lambda model: model.update(n=2**31), "2**31"),
            ("mrf", lambda model: model.update(n=6.9), "n must be an integer, got 6.9"),
            ("mrf", lambda model: model.update(n="6"), "n must be an integer, got '6'"),
            ("csp", lambda model: model.update(q=3.5), "q must be an integer, got 3.5"),
            ("csp", lambda model: model.update(q=True), "q must be an integer, got True"),
            ("mrf", lambda model: model.update(edges=[[0, 1]]), "unknown key(s) ['edges']"),
            ("mrf", lambda model: model["arrays"].update(edge_tabel=model["arrays"]["edge_table"]),
             "unknown array(s) ['edge_tabel']"),
            ("csp", lambda model: model.update(constraint_names=["nae(0, 1, 2)", "nae(1, 2, 3)"]),
             "unknown key(s) ['constraint_names']"),
        ],
        ids=["mrf-truncated-b64", "mrf-huge-extent", "csp-indptr-past-end", "csp-huge-n",
             "mrf-fractional-n", "mrf-string-n", "csp-fractional-q", "csp-bool-q",
             "mrf-stray-key", "mrf-misspelt-array", "csp-version-4-names"],
    )
    def test_malformed_model_arrays_are_400(self, server, client, small_coloring, kind, edit,
                                            needle):
        spec = JobSpec.sample_many(small_coloring, 4, seed=1, rounds=2)
        if kind == "csp":
            csp = not_all_equal_csp([(0, 1, 2), (1, 2, 3)], n=4, q=3)
            spec = JobSpec.sample_many(csp, 4, method="luby-glauber", seed=1, rounds=2)
        wire = spec.to_wire()
        edit(wire["model"])
        submitted = client.stats()["jobs"]["submitted"]
        status, document = _post_spec(server, wire)
        assert status == 400
        assert needle in document["error"]
        assert client.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize("q", [10**30, 2**40])
    def test_huge_q_is_400_and_never_submitted(self, server, client, q):
        """No constraint bounds q, so the model does: never a worker's 500 or MemoryError."""
        wire = JobSpec.sample_many(LocalCSP(4, 3, []), 4, method="luby-glauber", seed=1,
                                   rounds=2).to_wire()
        wire["model"]["q"] = q
        submitted = client.stats()["jobs"]["submitted"]
        status, document = _post_spec(server, wire)
        assert status == 400
        assert f"got q = {q}" in document["error"]
        assert client.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "initial, needle",
        [([0.7, 1.9, 2.2], "integers"), ([0, 1, 7], "0..2"), ([[0, 1, 2]] * 3, "shape")],
        ids=["fractional", "out-of-range", "wrong-shape"],
    )
    def test_invalid_initial_is_400_and_never_submitted(
        self, server, client, initial, needle
    ):
        """A bad start is refused at decode: never truncated, never a 500."""
        spec = JobSpec.sample_many(proper_coloring_mrf(path_graph(3), 3), 2, seed=1, rounds=2)
        wire = spec.to_wire()
        wire["params"]["initial"] = encode_array(np.array(initial))
        submitted = client.stats()["jobs"]["submitted"]
        status, document = _post_spec(server, wire)
        assert status == 400
        assert needle in document["error"]
        assert client.stats()["jobs"]["submitted"] == submitted

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError, match="no route"):
            client._request("GET", "/v1/nope")

    def test_failing_job_is_500_with_message(self, client, small_coloring):
        # An unreachable tolerance raises ConvergenceError server-side.
        doomed = JobSpec.mixing_time(
            small_coloring, eps=1e-9, replicas=8, max_rounds=4, stride=4, seed=1
        )
        with pytest.raises(ServeError, match="did not reach"):
            client.run(doomed)

    def test_health_and_stats_shapes(self, client):
        health = client.health()
        assert health["ok"] is True and health["workers"] == 2
        stats = client.stats()
        assert {"workers", "pending", "jobs", "cache"} <= set(stats)


class TestLifecycle:
    def test_closed_server_refuses_restart_and_double_close(self):
        srv = ReproServer(workers=1)
        srv.start()
        with ServeClient(*srv.address) as cli:
            assert cli.health()["ok"] is True
            srv.close()
            srv.close()  # idempotent
            with pytest.raises(ServeError, match="closed"):
                srv.start()
            with pytest.raises(ServeError):
                cli.health()

    def test_close_is_prompt_with_an_idle_keep_alive_connection(self):
        srv = ReproServer(workers=1)
        srv.start()
        try:
            with ServeClient(*srv.address) as cli:
                assert cli.health()["ok"] is True  # its connection stays open
                assert srv.stats()["connections"]["open"] == 1
                began = time.monotonic()
                srv.close()
                assert time.monotonic() - began < 2.0
                assert srv.stats()["connections"]["open"] == 0
        finally:
            srv.close()

    def test_close_is_prompt_with_a_job_in_flight(self, coloring):
        slow = JobSpec.sample_many(coloring, 256, seed=10, rounds=8000)
        srv = ReproServer(workers=1)
        srv.start()
        errors: list[str] = []
        try:
            with ServeClient(*srv.address) as cli:

                def occupy():
                    try:
                        cli.submit(slow)
                    except ServeError as error:
                        errors.append(str(error))

                thread = threading.Thread(target=occupy)
                thread.start()
                try:
                    assert _wait_until(lambda: srv.stats()["pending"] >= 1, interval=0.01)
                    began = time.monotonic()
                    srv.close()
                    assert time.monotonic() - began < 2.0
                finally:
                    thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            srv.close()
        assert errors == ["server shutting down"]

    def test_address_before_start_raises(self):
        srv = ReproServer(workers=1)
        with pytest.raises(ServeError, match="start"):
            srv.address
        srv.close()


class TestKeepAlive:
    def test_two_requests_share_one_connection(self, server):
        accepted = server.stats()["connections"]["accepted"]
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            connection.request("GET", "/v1/health")
            first = connection.getresponse()
            assert json.loads(first.read())["ok"] is True
            sock = connection.sock
            connection.request("GET", "/v1/health")
            second = connection.getresponse()
            assert json.loads(second.read())["ok"] is True
            assert connection.sock is sock
            assert first.will_close is False and second.will_close is False
        finally:
            connection.close()
        assert server.stats()["connections"]["accepted"] == accepted + 1

    @pytest.mark.parametrize(
        "data",
        [
            b"GET /v1/health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
            b"GET /v1/health HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_requests_are_answered_then_closed(self, server, data):
        status, head, body = _raw_exchange(server, data)  # reads to EOF
        assert status == 200
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["ok"] is True

    def test_stream_closes_its_connection_after_the_terminal_line(
        self, server, small_coloring
    ):
        spec = JobSpec.tv_curve(small_coloring, (1, 2), replicas=16, seed=57)
        body = json.dumps({"spec": spec.to_wire(), "stream": True}).encode()
        data = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        status, head, lines = _raw_exchange(server, data)  # reads to EOF
        assert status == 200
        assert b"\r\nConnection: close" in head
        events = [json.loads(line) for line in lines.splitlines()]
        assert events[0]["event"] == "accepted"
        assert events[-1]["event"] == "result"

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Le",
            b'POST /v1/jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{"spec"',
        ],
        ids=["silent", "partial-head", "short-body"],
    )
    def test_read_deadline_closes_slow_connections(self, server, monkeypatch, data):
        monkeypatch.setattr("repro.serve.server._READ_TIMEOUT", 0.2)
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(data)
            assert sock.recv(1024) == b""  # closed without an answer

    def test_client_resends_on_a_connection_closed_while_idle(
        self, server, monkeypatch, small_coloring
    ):
        monkeypatch.setattr("repro.serve.server._READ_TIMEOUT", 0.2)
        spec = JobSpec.sample_many(small_coloring, 4, seed=4711, rounds=4)
        with ServeClient(*server.address) as cli:
            assert cli.health()["ok"] is True
            (stale,) = cli._idle
            # The server's deadline closes the idle connection: EOF is readable.
            assert select.select([stale.sock], [], [], 10)[0]
            document = cli.submit(spec)  # no error surfaces
            np.testing.assert_array_equal(document["result"], repro.run_spec(spec))
            assert stale.sock is None  # tried, found closed, dropped
            assert cli._idle and cli._idle[0] is not stale

    def test_one_client_uses_one_connection(self, server, client, small_coloring):
        spec = JobSpec.sample_many(small_coloring, 4, seed=4712, rounds=4)
        direct = client.run(spec)  # cached from here on
        accepted = server.stats()["connections"]["accepted"]
        with ServeClient(*server.address) as cli:
            for _ in range(20):
                document = cli.submit(spec)
                assert document["cached"] is True
                np.testing.assert_array_equal(document["result"], direct)
            stats = cli.stats()["connections"]
            metrics = cli.metrics()
        assert server.stats()["connections"]["accepted"] == accepted + 1
        assert stats["accepted"] == accepted + 1 and stats["open"] >= 1
        assert f"repro_serve_connections_total {accepted + 1}" in metrics
        assert "# TYPE repro_serve_open_connections gauge" in metrics

    def test_shared_client_under_thread_contention(self, server, small_coloring):
        threads_n, hits = 8, 25
        specs = [
            JobSpec.sample_many(small_coloring, 4, seed=4800 + k, rounds=4)
            for k in range(threads_n)
        ]
        direct = [repro.run_spec(spec) for spec in specs]
        accepted = server.stats()["connections"]["accepted"]
        results: dict[int, list] = {k: [] for k in range(threads_n)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeClient(*server.address) as cli:
                for spec in specs:
                    cli.run(spec)  # warm the cache

                def hammer(k):
                    for _ in range(hits):
                        results[k].append(cli.run(specs[k]))

                threads = [threading.Thread(target=hammer, args=(k,)) for k in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for k in range(threads_n):
            assert len(results[k]) == hits
            for batch in results[k]:
                np.testing.assert_array_equal(batch, direct[k])
        assert server.stats()["connections"]["accepted"] <= accepted + threads_n


class TestDynamicModels:
    """Mutation safety: a mutated model must never see pre-mutation results."""

    def test_mutation_never_serves_stale_results(self, small_coloring):
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            spec = JobSpec.sample_many(small_coloring, 4, seed=SEED, rounds=4)
            assert cli.submit(spec)["cached"] is False
            assert cli.submit(spec)["cached"] is True
            mutated = repro.mutate(small_coloring, "remove_edge", 0, 1)
            mutated_spec = JobSpec.sample_many(mutated, 4, seed=SEED, rounds=4)
            # same seed, same params — only the model changed, and the
            # fingerprint-keyed cache key must miss.
            document = cli.submit(mutated_spec)
            assert document["cached"] is False
            direct = repro.run_spec(mutated_spec)
            assert np.array_equal(document["result"], direct)

    def test_invalidate_route_drops_the_models_entries(self, small_coloring):
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            specs = [
                JobSpec.sample_many(small_coloring, 4, seed=s, rounds=4)
                for s in (1, 2)
            ]
            for spec in specs:
                cli.submit(spec)
            other = repro.mutate(small_coloring, "remove_edge", 0, 1)
            other_spec = JobSpec.sample_many(other, 4, seed=3, rounds=4)
            cli.submit(other_spec)
            assert cli.stats()["cache"]["size"] == 3
            # invalidate by model object: only ITS two entries go
            assert cli.invalidate(small_coloring) == 2
            stats = cli.stats()
            assert stats["cache"]["size"] == 1
            assert stats["cache"]["invalidated"] == 2
            assert stats["invalidations"] == 1
            assert cli.submit(specs[0])["cached"] is False
            assert cli.submit(other_spec)["cached"] is True  # untouched

    def test_invalidate_validation(self, server):
        connection = http.client.HTTPConnection(*server.address)
        connection.request(
            "POST", "/v1/invalidate", body=json.dumps({"fingerprint": 7})
        )
        assert connection.getresponse().status == 400
        connection.close()
        with ServeClient(*server.address) as client:
            assert client.invalidate("not-a-known-fingerprint") == 0


class TestFingerprintFastPath:
    def test_repeat_submissions_skip_the_model_payload(self, small_coloring):
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            spec_a = JobSpec.sample_many(small_coloring, 4, seed=1, rounds=4)
            spec_b = JobSpec.sample_many(small_coloring, 4, seed=2, rounds=4)
            first = cli.submit(spec_a)
            assert small_coloring.model_fingerprint() in cli._known_models
            assert srv.stats()["models"] == 1
            # the second spec travels by fingerprint; the wire payload
            # proves it resolves to the same model
            second = cli.submit(spec_b)
            assert second["cached"] is False
            direct = repro.run_spec(spec_b)
            assert np.array_equal(second["result"], direct)
            # and a repeat is a cache hit through the fast path
            assert cli.submit(spec_b)["cached"] is True
            assert first["cached"] is False

    def test_unknown_fingerprint_falls_back_to_full_submission(
        self, small_coloring
    ):
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            fingerprint = small_coloring.model_fingerprint()
            # pretend a previous life registered the model, then lose it
            cli._known_models.add(fingerprint)
            spec = JobSpec.sample_many(small_coloring, 4, seed=1, rounds=4)
            document = cli.submit(spec)  # 409 inside, retried in full
            assert np.array_equal(document["result"], repro.run_spec(spec))
            assert fingerprint in cli._known_models
            assert srv.stats()["models"] == 1

    def test_raw_unknown_fingerprint_is_409(self, server, small_coloring):
        spec = JobSpec.sample_many(small_coloring, 4, seed=99991, rounds=4)
        wire = spec.to_wire_fingerprint()
        wire["model"]["fingerprint"] = "0" * 64
        connection = http.client.HTTPConnection(*server.address)
        connection.request(
            "POST", "/v1/jobs", body=json.dumps({"spec": wire, "stream": False})
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 409
        assert document["unknown_fingerprint"] is True

    def test_hit_by_fingerprint_decodes_and_hashes_no_model(
        self, small_coloring, monkeypatch
    ):
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            spec = JobSpec.sample_many(small_coloring, 4, seed=13, rounds=4)
            cold = cli.submit(spec)  # full model: decoded, fingerprinted, registered
            calls = []
            from_dict = repro.spec.model_from_dict
            monkeypatch.setattr(
                repro.spec,
                "model_from_dict",
                lambda payload: calls.append("model_from_dict") or from_dict(payload),
            )
            for cls in (MRF, LocalCSP):
                to_dict = cls.to_dict
                monkeypatch.setattr(
                    cls,
                    "to_dict",
                    lambda self, to_dict=to_dict: calls.append("to_dict") or to_dict(self),
                )
            hit = cli.submit(spec)
            assert hit["cached"] is True
            np.testing.assert_array_equal(hit["result"], cold["result"])
            assert calls == []  # no decode, no model hash, client or server

    def test_streamed_submission_uses_fast_path_too(self, small_coloring):
        with (
            ReproServer(workers=1, cache_capacity=8, max_pending=8) as srv,
            ServeClient(*srv.address) as cli,
        ):
            spec = JobSpec.sample_many(small_coloring, 4, seed=5, rounds=4)
            cli.submit(spec)
            events = list(cli.stream(spec))
            assert events[-1]["event"] == "result"
            assert events[-1]["cached"] is True
            np.testing.assert_array_equal(events[-1]["result"], repro.run_spec(spec))


class TestCacheByteBound:
    def test_max_bytes_evicts_before_capacity(self):
        cache = ResultCache(capacity=100, max_bytes=64)
        cache.put("a", {"payload": "x" * 30})
        cache.put("b", {"payload": "y" * 30})
        stats = cache.stats()
        assert stats["size"] == 1  # a evicted on bytes, far below capacity
        assert stats["bytes"] <= 64
        assert cache.evictions == 1
        assert cache.get("b") is not None

    def test_oversized_single_entry_is_not_retained(self):
        cache = ResultCache(capacity=4, max_bytes=16)
        cache.put("huge", {"payload": "z" * 100})
        assert len(cache) == 0
        assert cache.stats()["bytes"] == 0

    def test_replacing_an_entry_reaccounts_bytes(self):
        cache = ResultCache(capacity=4, max_bytes=1000)
        cache.put("a", "x" * 50)
        first = cache.stats()["bytes"]
        cache.put("a", "x" * 10)
        assert cache.stats()["bytes"] < first
        assert len(cache) == 1

    def test_invalidate_reclaims_bytes(self):
        cache = ResultCache(capacity=4, max_bytes=1000)
        cache.put("a", "x" * 50, fingerprint="f1")
        cache.put("b", "y" * 50, fingerprint="f2")
        assert cache.invalidate("f1") == 1
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["invalidated"] == 1
        assert cache.invalidate("f1") == 0

    def test_server_byte_occupancy_in_stats(self, small_coloring):
        with (
            ReproServer(
                workers=1, cache_capacity=8, cache_max_bytes=1 << 20, max_pending=8
            ) as srv,
            ServeClient(*srv.address) as cli,
        ):
            cli.submit(JobSpec.sample_many(small_coloring, 4, seed=1, rounds=4))
            stats = cli.stats()["cache"]
            assert stats["max_bytes"] == 1 << 20
            assert stats["bytes"] > 0
