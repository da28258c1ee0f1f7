"""Stdlib HTTP client for the sampling daemon.

:class:`ServeClient` speaks the :mod:`repro.serve.server` request API with
nothing beyond ``http.client``.  Connections persist: a call reuses an
idle connection of an earlier call when there is one, so a client pays
for one TCP connect rather than one per request.  A client is safe to
share across threads (concurrent calls never share a connection), and
should be closed when done — ``with ServeClient(host, port) as client:``
— to release its idle connections.

Repeat submissions for the same model take the *fingerprint fast path*:
once a full model payload has been accepted, later specs on that model
travel as ``{"type": "fingerprint", ...}`` stubs — a few hundred bytes
instead of the full model document.  A server that no longer knows the
fingerprint answers HTTP 409 and the client transparently falls back to
(and re-registers with) a full submission.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.errors import ServeError, ServerOverloadedError
from repro.obs import trace as _obs_trace
from repro.serve.wire import decode_result
from repro.spec import JobSpec

__all__ = ["ServeClient"]

_HEADERS = {"Content-Type": "application/json"}

#: How a reused connection fails when the server closed it while idle
#: (``RemoteDisconnected`` is a ``ConnectionResetError``).  The server never
#: read the request, so it is safe to send it again on a fresh connection.
_STALE = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)


class _UnknownFingerprintError(ServeError):
    """The server rejected a fingerprint-only submission (HTTP 409)."""


class ServeClient:
    """Submit :class:`~repro.spec.JobSpec` requests to a running daemon.

    ``run`` is the blocking convenience (result only); ``submit`` returns
    the full response document (result, ``cached`` flag, job id);
    ``stream`` yields the live event lines of a streamed submission.
    Overloaded submissions raise
    :class:`~repro.errors.ServerOverloadedError`; every other server-side
    failure raises :class:`~repro.errors.ServeError`.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._known_models: set[str] = set()
        # Idle keep-alive connections.  A call owns the connection it takes
        # until it has read the response in full, so the list never holds
        # more connections than there were concurrent calls.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> ServeClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _send(self, method: str, path: str, body, stream: bool):
        """Send one request; return ``(connection, response)``, body unread.

        A unary call reuses an idle connection when there is one; if that
        connection turns out stale before any response byte arrives, the
        request goes once more on a fresh connection.  A stream always
        opens its own: the server closes it when the stream ends.
        """
        if not stream:
            with self._idle_lock:
                connection = self._idle.pop() if self._idle else None
            if connection is not None:
                try:
                    return connection, _exchange(connection, method, path, body)
                except _STALE:
                    pass
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        return connection, _exchange(connection, method, path, body)

    def _fetch(self, method: str, path: str, payload=None, stream=False):
        """Send one request; return ``(connection, response, body bytes)``.

        The body is None for an accepted stream, whose response is left
        unread on its own connection for the caller to close.  Otherwise the
        connection goes back to the idle list unless the response closes it.
        """
        body = None if payload is None else json.dumps(payload)
        connection = None
        try:
            connection, response = self._send(method, path, body, stream)
            if stream and response.status == 200:
                return connection, response, None
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            if connection is not None:
                connection.close()
            raise ServeError(f"request to {self.host}:{self.port} failed: {error}") from error
        if stream or response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return connection, response, data

    def _request(self, method: str, path: str, payload=None, stream=False):
        connection, response, data = self._fetch(method, path, payload, stream)
        if data is None:
            return connection, response
        document = {}
        if data:
            try:
                document = json.loads(data)
            except ValueError:
                document = {"error": data.decode("utf-8", "replace")}
        if response.status == 429:
            raise ServerOverloadedError(document.get("error", "server overloaded"))
        if response.status == 409 and document.get("unknown_fingerprint"):
            raise _UnknownFingerprintError(
                document.get("error", "unknown model fingerprint")
            )
        if response.status != 200:
            raise ServeError(
                document.get("error", f"HTTP {response.status} from server")
            )
        return document

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/health``."""
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        """``GET /v1/stats`` — job and cache counters."""
        return self._request("GET", "/v1/stats")

    def cancel(self, job_id: int) -> bool:
        """Request cooperative cancellation of an accepted job."""
        document = self._request("POST", f"/v1/jobs/{int(job_id)}/cancel")
        return bool(document.get("cancelled"))

    def invalidate(self, model_or_fingerprint) -> int:
        """``POST /v1/invalidate`` — retire cached results for one model.

        Accepts a model object (its ``model_fingerprint()`` is used) or a
        fingerprint hex string; returns the number of cache entries the
        server dropped.  Call this after mutating a model away so the
        server does not keep the stale model's results (and its registered
        payload) alive until LRU eviction.
        """
        fingerprint = model_or_fingerprint
        if not isinstance(fingerprint, str):
            fingerprint = model_or_fingerprint.model_fingerprint()
        self._known_models.discard(fingerprint)
        document = self._request(
            "POST", "/v1/invalidate", {"fingerprint": fingerprint}
        )
        return int(document.get("invalidated", 0))

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the Prometheus text-format exposition."""
        _, response, data = self._fetch("GET", "/v1/metrics")
        if response.status != 200:
            raise ServeError(f"HTTP {response.status} from /v1/metrics")
        return data.decode("utf-8")

    def _submit_request(self, spec: JobSpec, stream: bool):
        """POST a spec, fingerprint-first when the server should know it.

        When tracing is enabled (:func:`repro.obs.enable_tracing`), the
        whole submission is wrapped in a ``client.request`` span whose ids
        ride in the request body's ``"trace"`` key, so the server's
        ``serve.request`` span — and everything below it — parents on this
        client call.
        """
        with _obs_trace.span(
            "client.request", kind=spec.kind, label=spec.label, stream=bool(stream)
        ):
            trace_context = _obs_trace.current_context()

            def body(spec_payload) -> dict:
                payload = {"spec": spec_payload, "stream": stream}
                if trace_context is not None:
                    payload["trace"] = trace_context
                return payload

            fast = spec.to_wire_fingerprint()
            fingerprint = None if fast is None else fast["model"]["fingerprint"]
            if fingerprint is not None and fingerprint in self._known_models:
                try:
                    return self._request(
                        "POST", "/v1/jobs", body(fast), stream=stream
                    )
                except _UnknownFingerprintError:
                    # The server restarted or evicted the model: fall through
                    # to a full submission, which re-registers it.
                    self._known_models.discard(fingerprint)
            outcome = self._request(
                "POST", "/v1/jobs", body(spec.to_wire()), stream=stream
            )
            if fingerprint is not None:
                self._known_models.add(fingerprint)
            return outcome

    def submit(self, spec: JobSpec) -> dict:
        """Submit a spec and block for the full response document.

        Returns ``{"result": <decoded>, "cached": bool, "job_id": ...}``;
        the result is decoded back to the exact :mod:`repro.api` return
        type (bit-identical to a direct call).
        """
        document = self._submit_request(spec, stream=False)
        document["result"] = decode_result(document["kind"], document["result"])
        return document

    def run(self, spec: JobSpec):
        """Submit a spec and return just its decoded result."""
        return self.submit(spec)["result"]

    def stream(self, spec: JobSpec):
        """Submit a spec with streaming; yield event dicts as they arrive.

        Events are ``accepted`` / ``started`` / ``checkpoint`` lines
        followed by exactly one ``result`` (its ``"result"`` value decoded)
        or ``error`` terminal line; the generator ends after the terminal
        event.  Closing the generator early disconnects — the server keeps
        running (and caching) the job.
        """
        connection, response = self._submit_request(spec, stream=True)
        try:
            while True:
                line = response.readline()
                if not line:
                    return
                event = json.loads(line)
                if event.get("event") == "result":
                    event["result"] = decode_result(event["kind"], event["result"])
                yield event
                if event.get("event") in ("result", "error"):
                    return
        finally:
            connection.close()

    def __repr__(self) -> str:
        return f"ServeClient({self.host!r}, {self.port})"


def _exchange(connection: http.client.HTTPConnection, method: str, path: str, body):
    """Send one request on ``connection`` and read the response head.

    The connection is closed if that fails.
    """
    try:
        connection.request(method, path, body=body, headers=_HEADERS)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise
