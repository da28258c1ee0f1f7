"""The always-on sampling daemon.

:class:`ReproServer` fronts a :class:`~repro.exec.jobs.JobRunner` worker
pool with an HTTP/JSON request API (stdlib only — ``asyncio`` transport,
hand-rolled HTTP/1.1), a content-addressed result cache and admission
control:

* Connections persist (HTTP/1.1 keep-alive): a client pays for one TCP
  connect, not one per request.  The server closes a connection after a
  request that asks for it (``Connection: close`` or HTTP/1.0), a request
  it cannot frame, a 413, a stream, the 500 safety net, at shutdown, or
  when the next request is not read in full within ``_READ_TIMEOUT``.
* ``POST /v1/jobs`` submits a :meth:`repro.spec.JobSpec.to_wire` payload.
  With ``"stream": true`` the response is a ``Connection: close`` JSON-lines
  stream of per-checkpoint :class:`~repro.exec.jobs.JobUpdate` events ending
  in a ``result``/``error`` line; otherwise one JSON document with the final
  result, after which the connection stays open.
* Requests whose spec has a :meth:`~repro.spec.JobSpec.cache_key` are served
  from the LRU :class:`~repro.serve.cache.ResultCache` when possible —
  bit-identical to a fresh run by the key's contract — and cached on
  completion *regardless of whether the client stayed connected*.
* Admission control bounds the in-flight job count (``max_pending``);
  beyond it, submissions are rejected immediately with HTTP 429 rather
  than queueing without bound.  Cache hits are exempt — they cost no
  worker time.
* ``POST /v1/jobs/<id>/cancel`` cancels a job: one that is not running
  settles at once (the dispatcher's next poll returns it), a running
  one stops at its next checkpoint boundary;
  ``GET /v1/health`` and ``GET /v1/stats`` report liveness and counters.

Threading model: the asyncio loop runs in one daemon thread (connection
handling, all bookkeeping); a second *dispatcher* thread blocks on
``runner.next_event(timeout)`` and trampolines each event into the loop
via ``call_soon_threadsafe``.  The runner's own lock makes the
cross-thread submit/poll pattern safe.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from time import perf_counter

from repro.errors import ModelError, ReproError, ServeError, UnknownModelError
from repro.exec.jobs import JobRunner
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.serve.cache import ResultCache
from repro.serve.wire import encode_result
from repro.spec import JobSpec

__all__ = ["ReproServer"]

#: Dispatcher poll granularity (seconds): the latency floor for noticing a
#: shutdown request; events themselves wake the poll immediately.
_DISPATCH_POLL = 0.1
#: Reject request bodies beyond this size (bytes) instead of buffering them.
_MAX_BODY = 128 * 1024 * 1024
#: Bound (seconds) on the wait for a connection's next request plus the
#: reading of its head and body; a connection that misses it is closed.
_READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_CANCEL_ROUTE = re.compile(r"^/v1/jobs/(\d+)/cancel$")

#: Request latencies kept for the /v1/stats percentiles (a rolling window;
#: 1024 requests is plenty to stabilise a p99 without unbounded growth).
_LATENCY_WINDOW = 1024


def _percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile of an ascending-sorted list (None when empty)."""
    if not sorted_values:
        return None
    rank = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]

#: Bound on the fingerprint -> decoded-model registry behind the submission
#: fast path (LRU).  An evicted fingerprint simply costs one 409 round
#: trip: the client falls back to a full submission and re-registers it.
_MODEL_REGISTRY_CAPACITY = 256


@dataclass
class _JobContext:
    """Loop-side state of one in-flight submission."""

    job_id: int
    spec: JobSpec
    cache_key: str | None
    fingerprint: str | None  # model fingerprint, tags the cached result
    # The job's event lines, ending in its result or error line: a stream
    # relays each, a unary request answers the last.
    queue: asyncio.Queue


@dataclass(eq=False)
class _Connection:
    """Loop-side state of one client connection."""

    writer: asyncio.StreamWriter
    task: asyncio.Task  # the handler serving this connection
    keep_alive: bool = True  # cleared by the response that ends the connection
    idle: bool = True  # awaiting a request (or lingering): shutdown may close it


class _Refusal(Exception):
    """A request that cannot be framed; answered with ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ReproServer:
    """An always-on sampling service over a persistent worker pool.

    Usable as a context manager::

        with ReproServer(workers=4) as server, ServeClient(*server.address) as client:
            batch = client.run(JobSpec.sample_many(model, 256, seed=7))

    ``port=0`` (the default) binds an ephemeral port; read the bound
    address from :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_capacity: int = 128,
        cache_max_bytes: int | None = None,
        max_pending: int = 32,
    ) -> None:
        if max_pending < 1:
            raise ModelError(f"max_pending must be >= 1, got {max_pending}")
        self._requested_host = host
        self._requested_port = int(port)
        self.workers = int(workers)
        self.max_pending = int(max_pending)
        self.cache = ResultCache(cache_capacity, max_bytes=cache_max_bytes)
        self.host: str | None = None
        self.port: int | None = None
        self._runner: JobRunner | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._contexts: dict[int, _JobContext] = {}
        self._connections: set[_Connection] = set()  # loop thread only
        self._accepted = 0
        # fingerprint -> decoded model (loop thread only): a repeat client
        # submits by fingerprint instead of re-shipping the model, and the
        # server resolves it without decoding or hashing anything.
        self._models: OrderedDict[str, object] = OrderedDict()
        self._stop = threading.Event()
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._invalidations = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._latency_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind the socket, start the pool and both threads; returns (host, port)."""
        if self._closed:
            raise ServeError("this ReproServer has been closed")
        if self._loop is not None:
            raise ServeError("this ReproServer has already been started")
        self._runner = JobRunner(workers=self.workers)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._loop_thread.start()
        try:
            opened = asyncio.run_coroutine_threadsafe(self._open(), self._loop)
            self.host, self.port = opened.result(timeout=30)
        except Exception:
            self.close()
            raise
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        return self.host, self.port

    async def _open(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self._requested_host, self._requested_port
        )
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises if the server is not running."""
        if self.host is None or self.port is None:
            raise ServeError("server is not running; call start() first")
        return self.host, self.port

    def close(self) -> None:
        """Stop accepting, fail in-flight requests, stop the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(
                    timeout=10
                )
            except Exception:  # pragma: no cover - teardown best effort
                pass
            loop.call_soon_threadsafe(loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=10)
            loop.close()
        if self._runner is not None:
            self._runner.close()

    async def _shutdown(self) -> None:
        # The order matters: on Python >= 3.12.1 wait_closed() waits for
        # every open connection, so in-flight handlers must be answered and
        # idle connections closed before it is awaited.  Waiting for the
        # handlers themselves makes that hold on every version, and leaves
        # no handler pending when the loop stops.
        if self._server is not None:
            self._server.close()
        for ctx in list(self._contexts.values()):
            self._finish(ctx, {"event": "error", "job_id": ctx.job_id,
                               "message": "server shutting down"})
        for conn in list(self._connections):
            if conn.idle:
                conn.writer.close()
        if self._connections:
            await asyncio.wait([conn.task for conn in self._connections])
        if self._server is not None:
            await self._server.wait_closed()

    def __enter__(self) -> ReproServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatcher thread: runner events -> loop
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                event = self._runner.next_event(timeout=_DISPATCH_POLL)
            except ReproError as error:
                # The runner is unusable (closed, or every worker died):
                # fail whatever is in flight and stop dispatching.
                message = f"job scheduler failed: {error}"
                loop = self._loop
                if loop is not None and not loop.is_closed():
                    loop.call_soon_threadsafe(self._fail_all, message)
                return
            if event is None:
                continue
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            loop.call_soon_threadsafe(self._route_event, event)

    def _fail_all(self, message: str) -> None:
        for ctx in list(self._contexts.values()):
            self._failed += 1
            self._finish(ctx, {"event": "error", "job_id": ctx.job_id,
                               "message": message})

    def _route_event(self, event) -> None:
        """Fold one JobUpdate into the in-flight contexts (loop thread only).

        Results are cached *here*, in the central router, not in the
        per-connection handlers — a client that disconnected mid-stream
        still populates the cache when its job completes.
        """
        ctx = self._contexts.get(event.job_id)
        if ctx is None:
            return
        if event.kind == "started":
            ctx.queue.put_nowait(
                {"event": "started", "job_id": ctx.job_id, "label": event.label}
            )
        elif event.kind == "checkpoint":
            ctx.queue.put_nowait(
                {
                    "event": "checkpoint",
                    "job_id": ctx.job_id,
                    "round": event.round,
                    "value": event.value,
                }
            )
        elif event.kind == "result":
            encoded = encode_result(ctx.spec.kind, event.payload)
            if ctx.cache_key is not None:
                self.cache.put(
                    ctx.cache_key,
                    {"kind": ctx.spec.kind, "result": encoded},
                    fingerprint=ctx.fingerprint,
                )
            self._completed += 1
            self._finish(
                ctx,
                {
                    "event": "result",
                    "job_id": ctx.job_id,
                    "kind": ctx.spec.kind,
                    "cached": False,
                    "result": encoded,
                },
            )
        elif event.kind == "error":
            self._failed += 1
            self._finish(
                ctx,
                {"event": "error", "job_id": ctx.job_id, "message": str(event.payload)},
            )

    def _finish(self, ctx: _JobContext, line: dict) -> None:
        """Settle a context: its terminal ``result``/``error`` line ends its queue."""
        self._contexts.pop(ctx.job_id, None)
        ctx.queue.put_nowait(line)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        conn = _Connection(writer, asyncio.current_task())
        self._connections.add(conn)
        self._accepted += 1
        try:
            # A handler that starts after close() began is past the
            # shutdown sweep of idle connections: it must not wait.
            while conn.keep_alive and not self._closed:
                conn.idle = True
                try:
                    async with asyncio.timeout(_READ_TIMEOUT):
                        request = await self._read_request(reader)
                except TimeoutError:
                    return  # a silent or slow client: drop the connection
                if request is None:
                    return  # the client closed between requests
                conn.idle = False
                method, path, body, conn.keep_alive = request
                await self._route(method, path, body, conn)
        except _Refusal as refusal:
            conn.keep_alive = False
            await self._try_respond(conn, refusal.status, {"error": str(refusal)})
            conn.idle = True
            if not self._closed:  # past the shutdown sweep nothing would end it early
                await _linger(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            # The client hung up; any job it submitted keeps running and
            # its result still lands in the cache via _route_event.
            pass
        except ServeError as error:
            conn.keep_alive = False
            await self._try_respond(conn, 500, {"error": str(error)})
        except Exception as error:  # pragma: no cover - handler safety net
            conn.keep_alive = False
            await self._try_respond(
                conn, 500, {"error": f"{type(error).__name__}: {error}"}
            )
        finally:
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader):
        """Read one request as ``(method, path, body, keep_alive)``.

        Returns None when the client closed the connection between
        requests.  The head is one read bounded by the reader's 64 KiB
        limit; a request whose framing cannot be trusted raises
        :class:`_Refusal`, because on a persistent connection a misread
        byte would start the next request.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if error.partial:
                raise _Refusal(400, "malformed HTTP request") from None
            return None
        except asyncio.LimitOverrunError:
            raise _Refusal(431, "request head too large") from None
        request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _Refusal(400, "malformed HTTP request")
        method, path, version = parts
        fields: dict[str, set[str]] = {}
        for line in lines:
            name, _, value = line.partition(":")
            fields.setdefault(name.strip().lower(), set()).add(value.strip())
        if "transfer-encoding" in fields:
            raise _Refusal(501, "Transfer-Encoding is not supported; send Content-Length")
        lengths = fields.get("content-length", {"0"})
        length = lengths.pop()
        if lengths or not (length.isascii() and length.isdigit()):
            raise _Refusal(400, "Content-Length must be one non-negative integer")
        if int(length) > _MAX_BODY:
            raise _Refusal(413, "request body too large")
        body = await reader.readexactly(int(length))
        tokens = {
            token.strip().lower()
            for value in fields.get("connection", ())
            for token in value.split(",")
        }
        keep_alive = version == "HTTP/1.1" and "close" not in tokens
        return method.upper(), path, body, keep_alive

    async def _write(self, conn: _Connection, status: int, body: bytes, content_type: str) -> None:
        """Write one response; it says ``Connection: close`` when it ends the connection."""
        if self._closed:
            conn.keep_alive = False
        close = "" if conn.keep_alive else "Connection: close\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        ).encode("latin-1")
        conn.writer.write(head + body)
        await conn.writer.drain()

    async def _respond(self, conn: _Connection, status: int, payload: dict) -> None:
        await self._write(conn, status, json.dumps(payload).encode("utf-8"), _JSON)

    async def _try_respond(self, conn: _Connection, status: int, payload: dict) -> None:
        try:
            await self._respond(conn, status, payload)
        except Exception:  # pragma: no cover - client already gone
            pass

    async def _route(self, method: str, path: str, body: bytes, conn: _Connection) -> None:
        if method == "GET" and path == "/v1/health":
            await self._respond(
                conn, 200, {"ok": True, "workers": self.workers}
            )
            return
        if method == "GET" and path == "/v1/stats":
            await self._respond(conn, 200, self.stats())
            return
        if method == "GET" and path == "/v1/metrics":
            await self._write(conn, 200, self.render_metrics().encode("utf-8"), _PROMETHEUS)
            return
        if method == "POST" and path == "/v1/jobs":
            started = perf_counter()
            try:
                await self._handle_submit(body, conn)
            finally:
                elapsed = perf_counter() - started
                with self._latency_lock:
                    self._latencies.append(elapsed)
                _obs_metrics.observe(
                    "repro_serve_request_seconds", elapsed, route="/v1/jobs"
                )
            return
        if method == "POST" and path == "/v1/invalidate":
            await self._handle_invalidate(body, conn)
            return
        cancel = _CANCEL_ROUTE.match(path)
        if method == "POST" and cancel:
            cancelled = self._runner.cancel(int(cancel.group(1)))
            await self._respond(conn, 200, {"cancelled": bool(cancelled)})
            return
        await self._respond(conn, 404, {"error": f"no route {method} {path}"})

    # ------------------------------------------------------------------
    # job submission
    # ------------------------------------------------------------------
    def _register_model(self, model) -> str | None:
        """Remember a decoded model under its (memoized) fingerprint (LRU).

        A model resolved from the registry is re-registered too, which
        marks it most recently used.
        """
        fingerprint = getattr(model, "model_fingerprint", None)
        if fingerprint is None:
            return None
        digest = fingerprint()
        self._models[digest] = model
        self._models.move_to_end(digest)
        while len(self._models) > _MODEL_REGISTRY_CAPACITY:
            self._models.popitem(last=False)
        return digest

    async def _handle_submit(self, body: bytes, conn: _Connection) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ModelError("request body must be a JSON object")
            spec = JobSpec.from_wire(payload.get("spec"), models=self._models)
            # A JSON boolean or absent: "false" or 1 is refused, not coerced.
            stream = payload.get("stream", False)
            if not isinstance(stream, bool):
                raise ModelError(f"stream must be true or false, got {stream!r}")
        except UnknownModelError as error:
            await self._respond(
                conn, 409, {"error": str(error), "unknown_fingerprint": True}
            )
            return
        except (ValueError, UnicodeDecodeError) as error:
            await self._respond(conn, 400, {"error": f"malformed request: {error}"})
            return
        except ModelError as error:
            await self._respond(conn, 400, {"error": str(error)})
            return

        # An optional trace context rides beside the spec in the body (it
        # is not part of the JobSpec wire format and never touches cache
        # keys): the server-side span parents on the client's span, and
        # runner.submit exports the nested context to the worker — one
        # stitched trace from client to engine.
        trace_parent = payload.get("trace")
        if not isinstance(trace_parent, dict):
            trace_parent = None
        with _obs_trace.span(
            "serve.request", parent=trace_parent, kind=spec.kind, stream=stream
        ):
            await self._submit_parsed(spec, stream, conn)

    async def _submit_parsed(self, spec: JobSpec, stream: bool, conn: _Connection) -> None:
        fingerprint = self._register_model(spec.model)
        key = spec.cache_key()
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                result_line = {
                    "event": "result",
                    "job_id": None,
                    "kind": hit["kind"],
                    "cached": True,
                    "result": hit["result"],
                }
                if stream:
                    await self._stream_lines(conn, [result_line])
                else:
                    await self._respond(conn, 200, result_line)
                return

        # Admission control *after* the cache check: a hit costs no worker
        # time, so it is served even when the pool is saturated.
        if len(self._contexts) >= self.max_pending:
            self._rejected += 1
            await self._respond(
                conn,
                429,
                {
                    "error": (
                        f"server overloaded: {len(self._contexts)} jobs in "
                        f"flight (max_pending={self.max_pending}); retry later"
                    )
                },
            )
            return
        if self._closed:
            # close() has begun: a job registered now could miss the
            # shutdown sweep of in-flight jobs and never settle.
            await self._respond(conn, 500, {"error": "server shutting down"})
            return

        # Submit and register the context in one synchronous block: the
        # dispatcher routes events via call_soon_threadsafe, which can only
        # run once control returns to the loop — so the job's first events
        # cannot outrun the registration.
        try:
            job_id = self._runner.submit(spec)
        except ReproError as error:
            await self._respond(conn, 500, {"error": str(error)})
            return
        ctx = self._contexts[job_id] = _JobContext(job_id, spec, key, fingerprint, asyncio.Queue())
        self._submitted += 1
        if stream:
            await self._stream_lines(conn, [{"event": "accepted", "job_id": job_id}])
        while True:
            line = await ctx.queue.get()
            settled = line["event"] in ("result", "error")
            if stream:
                # A client that disconnects stops this relay only: the job
                # keeps running and _route_event still caches its result.
                conn.writer.write(json.dumps(line).encode("utf-8") + b"\n")
                await conn.writer.drain()
            elif line["event"] == "result":
                await self._respond(conn, 200, line)
            elif settled:
                await self._respond(conn, 500, {"error": line["message"]})
            if settled:
                return

    async def _handle_invalidate(self, body: bytes, conn: _Connection) -> None:
        """``POST /v1/invalidate`` — retire every result of one model.

        The cache key already hashes the model fingerprint, so a *mutated*
        model can never hit a pre-mutation entry; invalidation is the
        explicit hygiene step that also frees the stale entries (and the
        registered model) once a client knows the old model is gone for
        good.
        """
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ModelError("request body must be a JSON object")
            fingerprint = payload.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                raise ModelError("invalidate needs a non-empty 'fingerprint' string")
        except (ValueError, UnicodeDecodeError) as error:
            await self._respond(conn, 400, {"error": f"malformed request: {error}"})
            return
        except ModelError as error:
            await self._respond(conn, 400, {"error": str(error)})
            return
        removed = self.cache.invalidate(fingerprint)
        self._models.pop(fingerprint, None)
        self._invalidations += 1
        await self._respond(
            conn, 200, {"invalidated": removed, "fingerprint": fingerprint}
        )

    async def _stream_lines(self, conn: _Connection, lines) -> None:
        """Start a JSON-lines stream; it ends when its connection closes."""
        conn.keep_alive = False
        conn.writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        for line in lines:
            conn.writer.write(json.dumps(line).encode("utf-8") + b"\n")
        await conn.writer.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Job and cache counters as one JSON-able dict."""
        with self._latency_lock:
            latencies = sorted(self._latencies)
        return {
            "workers": self.workers,
            "max_pending": self.max_pending,
            "pending": len(self._contexts),
            "jobs": {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "rejected": self._rejected,
            },
            "latency": {
                "count": len(latencies),
                "p50_s": _percentile(latencies, 0.50),
                "p90_s": _percentile(latencies, 0.90),
                "p99_s": _percentile(latencies, 0.99),
            },
            "invalidations": self._invalidations,
            "models": len(self._models),
            "cache": self.cache.stats(),
            "connections": {"accepted": self._accepted, "open": len(self._connections)},
        }

    def render_metrics(self) -> str:
        """``GET /v1/metrics`` body: Prometheus text exposition format.

        Server-derived series (job counters, pending gauge, cache counters,
        request-latency percentiles) are rendered directly from
        :meth:`stats`, then the process-wide ``repro.obs`` registry —
        request-latency histograms and, when ``repro.obs.enable()`` is on,
        the engine probes of everything running in this process — is
        appended.
        """
        stats = self.stats()
        lines = ["# TYPE repro_serve_jobs_total counter"]
        for state in ("submitted", "completed", "failed", "rejected"):
            lines.append(f'repro_serve_jobs_total{{state="{state}"}} {stats["jobs"][state]}')
        lines.append("# TYPE repro_serve_pending_jobs gauge")
        lines.append(f"repro_serve_pending_jobs {stats['pending']}")
        lines.append("# TYPE repro_serve_workers gauge")
        lines.append(f"repro_serve_workers {stats['workers']}")
        lines.append("# TYPE repro_serve_invalidations_total counter")
        lines.append(f"repro_serve_invalidations_total {stats['invalidations']}")
        lines.append("# TYPE repro_serve_registered_models gauge")
        lines.append(f"repro_serve_registered_models {stats['models']}")
        lines.append("# TYPE repro_serve_connections_total counter")
        lines.append(f"repro_serve_connections_total {stats['connections']['accepted']}")
        lines.append("# TYPE repro_serve_open_connections gauge")
        lines.append(f"repro_serve_open_connections {stats['connections']['open']}")
        cache = stats["cache"]
        lines.append("# TYPE repro_serve_cache_events_total counter")
        for event in ("hits", "misses", "evictions", "invalidated"):
            lines.append(
                f'repro_serve_cache_events_total{{event="{event}"}} {cache[event]}'
            )
        lines.append("# TYPE repro_serve_cache_entries gauge")
        lines.append(f"repro_serve_cache_entries {cache['size']}")
        lines.append("# TYPE repro_serve_cache_bytes gauge")
        lines.append(f"repro_serve_cache_bytes {cache['bytes']}")
        latency = stats["latency"]
        lines.append("# TYPE repro_serve_request_latency_seconds gauge")
        for quantile in ("p50", "p90", "p99"):
            value = latency[f"{quantile}_s"]
            if value is not None:
                lines.append(
                    "repro_serve_request_latency_seconds"
                    f'{{quantile="{quantile}"}} {value!r}'
                )
        body = "\n".join(lines) + "\n"
        return body + _obs_metrics.render_prometheus()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "running" if self._loop is not None else "new"
        )
        return (
            f"ReproServer({state}, workers={self.workers}, "
            f"pending={len(self._contexts)}, cache={self.cache.stats()})"
        )


async def _linger(reader, writer) -> None:
    """Half-close, then discard input until the client closes or the deadline.

    Closing a socket that still holds unread input makes the kernel send a
    reset, which can destroy the response before the client reads it.
    """
    try:
        writer.write_eof()
        async with asyncio.timeout(_READ_TIMEOUT):
            while await reader.read(1 << 16):
                pass
    except (OSError, TimeoutError):
        pass
