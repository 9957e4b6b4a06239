"""Resident STA service: asyncio front door, threaded query workers.

The event loop owns admission — a bounded waiting line plus an
``asyncio.Semaphore`` of execution slots — and never runs numpy; each
admitted query executes in a small :class:`~concurrent.futures.
ThreadPoolExecutor` via :meth:`CompiledSTA.analyze_batch
<repro.core.sta_compiled.CompiledSTA.analyze_batch>`, which is safe to
share across worker threads (its propagation state is per-call and its
perf updates are locked). Deadlines wrap the executor future in
``asyncio.wait_for``: a missed deadline abandons the worker's result
but answers the client immediately with code ``deadline``.

Every request leaves an audit trail of events on the server's
:class:`~repro.perf.PerfCounters` — ``serve_admit`` → ``serve_start``
→ ``serve_finish`` (status ``ok`` / ``deadline`` / ``error``), or
``serve_reject`` when it is refused at the door (lint-invalid input,
unknown design, full queue) — which counts them for ``/stats`` and
appends them to the :class:`~repro.journal.RunJournal` attached to
those counters, if any. Rejection is *validated* refusal: every
inbound document runs through :func:`repro.lint.lint_serve_request`
(rules SRV001–SRV003) before anything touches a design.

Two transports share one dispatch path:

* a **unix socket** speaking newline-delimited JSON (one request
  object per line, one response object per line — the low-overhead
  path used by :class:`repro.serve.client.ServeClient` and CI);
* a minimal **HTTP/1.1** endpoint (``POST /query``, ``GET /stats``,
  ``GET /designs``, ``GET /healthz``) for humans with ``curl``.

The journal records monotonic offsets only and all timing uses
``time.perf_counter`` — the server leaks no wall-clock state into its
artifacts, same contract as the batch flow.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.lint.domain import SERVE_MAX_SCENARIOS, lint_serve_request
from repro.perf import PerfCounters
from repro.serve.protocol import (
    QueryRequest,
    QueryResponse,
    ScenarioResult,
    reject,
)
from repro.serve.registry import DesignRegistry

#: HTTP status per reject code (``ok`` responses are 200).
HTTP_STATUS = {
    "invalid": 400,
    "unknown_design": 404,
    "busy": 429,
    "deadline": 504,
    "error": 500,
}

_MAX_REQUEST_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Operating envelope of one server.

    Attributes
    ----------
    max_concurrency:
        Queries executing simultaneously (worker thread count).
    queue_depth:
        Admitted-but-waiting queries beyond the executing ones; the
        next arrival is rejected with code ``busy``.
    default_deadline_s:
        Deadline applied when a request carries none (``None`` = no
        default deadline).
    max_scenarios:
        Per-request scenario-grid ceiling enforced by lint rule SRV003.
    """

    max_concurrency: int = 4
    queue_depth: int = 32
    default_deadline_s: Optional[float] = None
    max_scenarios: int = SERVE_MAX_SCENARIOS


class STAServer:
    """Long-lived query server over a :class:`DesignRegistry`.

    Construct, :meth:`start` (or :meth:`run` / :meth:`start_in_thread`),
    query over the unix socket or HTTP, :meth:`stop`. Request events go
    to ``perf`` (default: the registry's counters) and to the journal
    attached to it.
    """

    def __init__(
        self,
        registry: DesignRegistry,
        config: Optional[ServeConfig] = None,
        perf: Optional[PerfCounters] = None,
    ):
        self.registry = registry
        self.config = config if config is not None else ServeConfig()
        self.perf = perf if perf is not None else registry.perf
        self._ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._servers: List[asyncio.base_events.Server] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._slots: Optional[asyncio.Semaphore] = None
        # Loop-thread-only bookkeeping (read cross-thread for /stats).
        self._waiting = 0
        self._active = 0
        self._peak_active = 0
        self._served = 0
        self.port: Optional[int] = None
        # Open connections, so shutdown can drain instead of cancel.
        self._conn_tasks: set = set()
        self._conn_writers: set = set()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def handle(self, doc: Any) -> dict:
        """Dispatch one request document to its op handler."""
        if not isinstance(doc, dict):
            self._note_reject("", "invalid")
            return reject("invalid", "request is not a JSON object").to_dict()
        op = doc.get("op", "query")
        if op == "query":
            response = await self._handle_query(doc)
            return response.to_dict()
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "designs":
            return {"ok": True, "designs": self.registry.names()}
        if op == "ping":
            return {"ok": True, "pong": True}
        self._note_reject("", "invalid")
        return reject("invalid", f"unknown op {op!r}").to_dict()

    async def _handle_query(self, doc: dict) -> QueryResponse:
        request_id = str(doc.get("request_id", "")) or f"q{next(self._ids)}"
        payload = {k: v for k, v in doc.items() if k != "op"}
        payload["request_id"] = request_id

        report = lint_serve_request(
            payload, max_scenarios=self.config.max_scenarios
        )
        if report.errors:
            diagnostics = [d.render() for d in report.errors]
            self._note_reject(request_id, "invalid", diagnostics=diagnostics)
            return reject(
                "invalid",
                f"{len(diagnostics)} validation error(s)",
                design=str(doc.get("design", "")),
                request_id=request_id,
                diagnostics=diagnostics,
            )

        request = QueryRequest.from_dict(payload)
        if request.design not in self.registry:
            self._note_reject(
                request_id, "unknown_design", design=request.design
            )
            return reject(
                "unknown_design",
                f"design {request.design!r} is not registered "
                f"(available: {', '.join(self.registry.names()) or 'none'})",
                design=request.design,
                request_id=request_id,
            )

        if self._waiting >= self.config.queue_depth:
            self._note_reject(request_id, "busy", design=request.design)
            return reject(
                "busy",
                f"admission queue full ({self._waiting} waiting, "
                f"depth {self.config.queue_depth})",
                design=request.design,
                request_id=request_id,
            )

        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        self.perf.event(
            "serve_admit",
            request_id=request_id,
            design=request.design,
            n_scenarios=request.n_scenarios,
            waiting=self._waiting,
            active=self._active,
        )
        assert self._slots is not None and self._loop is not None
        self._waiting += 1
        try:
            await self._slots.acquire()
        finally:
            self._waiting -= 1
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)
        try:
            self.perf.event(
                "serve_start",
                {
                    "sta_serve_requests": 1,
                    "sta_serve_scenarios": request.n_scenarios,
                },
                request_id=request_id,
                design=request.design,
                n_scenarios=request.n_scenarios,
            )
            t0 = time.perf_counter()
            future = self._loop.run_in_executor(
                self._pool, self._run_query, request
            )
            try:
                response = await asyncio.wait_for(future, deadline)
            except asyncio.TimeoutError:
                self.perf.event(
                    "serve_finish", {"sta_serve_deadline_misses": 1},
                    request_id=request_id,
                    design=request.design,
                    status="deadline",
                    wall_s=round(time.perf_counter() - t0, 6),
                )
                return reject(
                    "deadline",
                    f"deadline of {deadline}s exceeded",
                    design=request.design,
                    request_id=request_id,
                )
            except Exception as exc:  # worker raised
                self.perf.event(
                    "serve_finish",
                    request_id=request_id,
                    design=request.design,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                    wall_s=round(time.perf_counter() - t0, 6),
                )
                return reject(
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    design=request.design,
                    request_id=request_id,
                )
            wall = time.perf_counter() - t0
            response.request_id = request_id
            response.served_s = wall
            self._served += 1
            self.perf.event(
                "serve_finish",
                request_id=request_id,
                design=request.design,
                status="ok",
                n_scenarios=response.n_scenarios,
                wall_s=round(wall, 6),
            )
            return response
        finally:
            self._active -= 1
            self._slots.release()

    def _run_query(self, request: QueryRequest) -> QueryResponse:
        """Worker-thread body: warm engine lookup + one batch query."""
        engine = self.registry.engine(request.design)
        results = engine.analyze_batch(request.scenarios())
        return QueryResponse(
            ok=True,
            design=request.design,
            key=self.registry.key(request.design),
            results=[ScenarioResult.from_batch_result(r) for r in results],
        )

    # ------------------------------------------------------------------
    def _note_reject(
        self, request_id: str, code: str, design: str = "", **fields: Any
    ) -> None:
        self.perf.event(
            "serve_reject", {"sta_serve_rejects": 1},
            request_id=request_id,
            design=design,
            code=code,
            **fields,
        )

    def stats(self) -> dict:
        """Live server + registry counters (the ``/stats`` payload)."""
        return {
            "served": self._served,
            "rejected": self.perf.sta_serve_rejects,
            "deadline_missed": self.perf.sta_serve_deadline_misses,
            "waiting": self._waiting,
            "active": self._active,
            "peak_active": self._peak_active,
            "max_concurrency": self.config.max_concurrency,
            "queue_depth": self.config.queue_depth,
            "registry": self.registry.stats(),
            "perf": self.perf.to_dict(),
        }

    # ------------------------------------------------------------------
    # Connection tracking: shutdown drains handlers instead of letting
    # asyncio.run() cancel them mid-write (which logs noisy tracebacks).
    # ------------------------------------------------------------------
    async def _tracked(self, handler, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            await handler(reader, writer)
        finally:
            self._conn_writers.discard(writer)
            self._conn_tasks.discard(task)

    # ------------------------------------------------------------------
    # Unix-socket transport: newline-delimited JSON
    # ------------------------------------------------------------------
    async def _serve_unix_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    doc = json.loads(text)
                except json.JSONDecodeError as exc:
                    self._note_reject("", "invalid")
                    out = reject("invalid", f"bad JSON: {exc}").to_dict()
                else:
                    out = await self.handle(doc)
                writer.write(json.dumps(out).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # HTTP transport: minimal HTTP/1.1, close-per-request
    # ------------------------------------------------------------------
    async def _serve_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, doc = await self._read_http_request(reader)
            if status != 200:
                payload = reject("invalid", str(doc)).to_dict()
            else:
                payload = await self.handle(doc)
                status = (
                    200
                    if payload.get("ok")
                    else HTTP_STATUS.get(str(payload.get("code")), 500)
                )
            body = json.dumps(payload).encode()
            writer.write(
                b"HTTP/1.1 %d %s\r\n" % (status, b"OK" if status == 200 else b"Error")
                + b"Content-Type: application/json\r\n"
                + b"Content-Length: %d\r\n" % len(body)
                + b"Connection: close\r\n\r\n"
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_http_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Any]:
        """Parse request line + headers + body into a dispatch document."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, "malformed request line"
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_REQUEST_BYTES:
            return 400, f"request body over {_MAX_REQUEST_BYTES} bytes"
        body = await reader.readexactly(length) if length else b""

        if method == "GET":
            route = {
                "/stats": {"op": "stats"},
                "/designs": {"op": "designs"},
                "/healthz": {"op": "ping"},
            }.get(path)
            if route is None:
                return 400, f"no GET route {path!r}"
            return 200, route
        if method == "POST" and path == "/query":
            try:
                doc = json.loads(body.decode("utf-8")) if body else {}
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return 400, f"bad JSON body: {exc}"
            if isinstance(doc, dict):
                doc.setdefault("op", "query")
            return 200, doc
        return 400, f"no route {method} {path!r}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
    ) -> None:
        """Bind the requested transports (at least one required)."""
        if socket_path is None and host is None:
            raise ReproError(
                "serve needs a transport: pass a unix socket path, "
                "a host/port, or both"
            )
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="sta-serve",
        )
        self._slots = asyncio.Semaphore(self.config.max_concurrency)

        endpoints: Dict[str, Any] = {}
        if socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    lambda r, w: self._tracked(
                        self._serve_unix_connection, r, w
                    ),
                    path=socket_path,
                )
            )
            endpoints["socket"] = socket_path
        if host is not None:
            http_server = await asyncio.start_server(
                lambda r, w: self._tracked(self._serve_http_connection, r, w),
                host=host,
                port=port,
            )
            self._servers.append(http_server)
            self.port = http_server.sockets[0].getsockname()[1]
            endpoints["host"] = host
            endpoints["port"] = self.port
        self.perf.event(
            "serve_listen",
            designs=self.registry.names(),
            max_concurrency=self.config.max_concurrency,
            queue_depth=self.config.queue_depth,
            **endpoints,
        )

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop`, then tear the transports down."""
        assert self._stop_event is not None
        await self._stop_event.wait()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        # Drain open connections: closing their transports makes the
        # handlers' reads return EOF so they exit on their own.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.perf.event(
            "serve_shutdown",
            served=self._served,
            rejected=self.perf.sta_serve_rejects,
            deadline_missed=self.perf.sta_serve_deadline_misses,
            peak_active=self._peak_active,
        )

    def stop(self) -> None:
        """Request shutdown (thread-safe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    def run(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        ready: Optional[Any] = None,
    ) -> None:
        """Foreground entry point: bind, signal readiness, serve.

        ``ready`` is an optional zero-argument callable invoked on the
        loop after binding (e.g. write a ready file for a supervisor).
        """

        async def _main() -> None:
            await self.start(socket_path=socket_path, host=host, port=port)
            loop = asyncio.get_running_loop()
            # Graceful stop on SIGTERM/SIGINT so a supervised server
            # still writes its serve_shutdown journal bracket. Signal
            # handlers only install on the main thread — embedded runs
            # (start_in_thread) rely on an explicit stop() instead.
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.stop)
                except (NotImplementedError, RuntimeError, ValueError):
                    break
            if ready is not None:
                ready()
            await self.serve_until_stopped()

        asyncio.run(_main())


class ServerHandle:
    """A server running in a daemon thread (tests, CI, embedding)."""

    def __init__(self, server: STAServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread."""
        self.server.stop()
        self.thread.join(timeout=timeout)


def start_in_thread(
    server: STAServer,
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: int = 0,
    timeout: float = 10.0,
) -> ServerHandle:
    """Run ``server`` in a background thread; return once it is bound."""
    bound = threading.Event()
    failure: List[BaseException] = []

    def _ready() -> None:
        bound.set()

    def _body() -> None:
        try:
            server.run(
                socket_path=socket_path, host=host, port=port, ready=_ready
            )
        except BaseException as exc:  # surfaced to the starter below
            failure.append(exc)
            bound.set()

    thread = threading.Thread(
        target=_body, name="sta-serve-loop", daemon=True
    )
    thread.start()
    if not bound.wait(timeout=timeout):
        server.stop()
        raise ReproError(f"server failed to bind within {timeout}s")
    if failure:
        raise ReproError(f"server failed to start: {failure[0]}")
    return ServerHandle(server, thread)
