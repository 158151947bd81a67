"""HTTP front-end: routes, the asyncio server, and a thread harness.

Endpoints (all JSON unless noted):

* ``GET  /healthz`` — liveness + queue summary.  ``?ready=1`` switches
  to a *readiness* probe: 200 only when the service has finished its
  journal replay, is not draining, and its worker pool is healthy —
  503 otherwise (liveness stays 200 the whole time);
* ``GET  /metrics`` — flat metrics export in the registry's series-name
  schema (``name{label=value}``); ``?format=csv`` for the CSV rendering;
* ``POST /runs`` — submit one spec.  Body is either the spec object
  itself or ``{"spec": {...}, "client": "id"}``.  By default the call
  blocks until the result is ready and returns it; ``?wait=0`` returns
  ``202 {"id": ...}`` immediately for later polling.  A spec the Runner
  has memoized is answered at admission (status ``done`` at once);
* ``POST /batch`` — ``{"specs": [...], "client": "id"}``; answers its
  memo hits, admits the rest atomically, waits for all results, returns
  them in spec order (duplicates — in the list or against in-flight
  work — coalesce);
* ``GET  /runs/{id}`` — job record: status, spec, result when done.

Admission rejections carry a (jittered) ``Retry-After`` header: ``429``
for back-pressure (queue or client cap full), ``503`` while the service
is unavailable (journal replay, graceful drain, degraded pool).  A job
killed by the serve watchdog answers ``504`` with the structured
``Timeout`` error result in the body; other execution failures answer
``200`` with ``result.error`` populated (the run *completed*, its
simulation failed — the distinction mirrors the Runner's fail-soft
contract).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Tuple

from repro.config import ServiceConfig
from repro.experiments.runner import Runner
from repro.serve import protocol
from repro.serve.service import Job, Shed, SimulationService, spec_from_dict


class ServiceServer:
    """One :class:`SimulationService` behind an asyncio TCP server."""

    def __init__(self, service: Optional[SimulationService] = None,
                 runner: Optional[Runner] = None,
                 config: Optional[ServiceConfig] = None):
        self.service = service if service is not None else SimulationService(
            runner=runner, config=config)
        self.config = self.service.config
        self._server: Optional[asyncio.AbstractServer] = None
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        # Bind before the service starts so /healthz answers (not-ready)
        # while a large journal replays; submissions shed with 503 until
        # start() flips the readiness gate.
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        await self.service.start()

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting connections after in-flight
        work drains (or the drain budget expires), then close."""
        await self.service.drain(timeout_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await protocol.read_request(reader)
            except protocol.ProtocolError as exc:
                writer.write(protocol.error_response(exc.status, str(exc)))
                return
            if request is None:
                return
            try:
                response = await self._dispatch(request)
            except protocol.ProtocolError as exc:
                response = protocol.error_response(exc.status, str(exc))
            except Shed as exc:
                response = protocol.error_response(
                    exc.status, exc.reason,
                    {"Retry-After": f"{exc.retry_after_s:g}"},
                    details={"trace_id": exc.trace_id})
            except Exception as exc:   # pragma: no cover - defensive
                response = protocol.error_response(
                    500, f"{type(exc).__name__}: {exc}")
            writer.write(response)
            await writer.drain()
        except (ConnectionError, OSError):
            pass                        # client went away mid-exchange
        finally:
            writer.close()

    async def _dispatch(self, request: protocol.Request) -> bytes:
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                return protocol.error_response(405, "GET only")
            snap = self.service.snapshot()
            if request.query.get("ready") in ("1", "true", "yes") \
                    and not self.service.is_ready():
                snap["status"] = "not-ready"
                return protocol.json_response(503, snap)
            return protocol.json_response(200, snap)
        if path == "/metrics":
            if method != "GET":
                return protocol.error_response(405, "GET only")
            flat = self.service.metrics_flat()
            if request.query.get("format") == "csv":
                return protocol.render_response(
                    200, self.service.registry.to_csv().encode(),
                    content_type="text/csv")
            return protocol.json_response(200, flat)
        if path == "/runs" and method == "POST":
            return await self._post_run(request)
        if path == "/batch" and method == "POST":
            return await self._post_batch(request)
        if path.startswith("/runs/") and method == "GET":
            return self._get_run(path[len("/runs/"):])
        return protocol.error_response(404, f"no route for "
                                            f"{method} {path}")

    # ------------------------------------------------------------------
    # Route bodies
    # ------------------------------------------------------------------
    def _parse_submission(self, request: protocol.Request
                          ) -> Tuple[Dict[str, object], str]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise protocol.ProtocolError(400, "body must be a JSON object")
        client = str(payload.pop("client", "anon"))
        spec_blob = payload.pop("spec", None)
        if spec_blob is None:
            spec_blob = payload          # the body *is* the spec
        return spec_blob, client

    async def _post_run(self, request: protocol.Request) -> bytes:
        spec_blob, client = self._parse_submission(request)
        try:
            spec = spec_from_dict(spec_blob)
        except (ValueError, KeyError) as exc:
            raise protocol.ProtocolError(400, f"bad spec: {exc}") from None
        job, coalesced = self.service.submit_nowait(spec, client)
        if request.query.get("wait") in ("0", "false", "no"):
            return protocol.json_response(
                202, {"id": job.id, "status": job.status,
                      "coalesced": coalesced})
        result = await asyncio.shield(job.future)
        return protocol.json_response(
            self._status_code(job),
            {"id": job.id, "status": job.status, "coalesced": coalesced,
             "result": result.to_dict()})

    async def _post_batch(self, request: protocol.Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("specs"), list):
            raise protocol.ProtocolError(
                400, 'body must be {"specs": [...], "client": "id"}')
        client = str(payload.get("client", "anon"))
        try:
            specs = [spec_from_dict(blob) for blob in payload["specs"]]
        except (ValueError, KeyError) as exc:
            raise protocol.ProtocolError(400, f"bad spec: {exc}") from None
        admitted = self.service.admit_batch(specs, client)
        await asyncio.gather(*(asyncio.shield(job.future)
                               for job, _ in admitted))
        entries = []
        for job, coalesced in admitted:
            entries.append({"id": job.id, "status": job.status,
                            "coalesced": coalesced,
                            "result": job.future.result().to_dict()})
        return protocol.json_response(200, {"results": entries})

    def _get_run(self, job_id: str) -> bytes:
        job = self.service.job(job_id)
        if job is None:
            return protocol.error_response(404, f"unknown run {job_id!r}")
        return protocol.json_response(self._status_code(job), job.info())

    @staticmethod
    def _status_code(job: Job) -> int:
        return 504 if job.status == "timeout" else 200


class ServerThread:
    """Run a :class:`ServiceServer` on its own event loop in a daemon
    thread — the harness tests, the metamorphic suite, and the load
    generator's ``--spawn`` mode all use it.

    ``start()`` blocks until the socket is bound (so ``host``/``port``
    are valid), ``stop()`` shuts the loop down and joins the thread.
    """

    def __init__(self, runner: Optional[Runner] = None,
                 config: Optional[ServiceConfig] = None):
        self._runner = runner
        self._config = config
        self.server: Optional[ServiceServer] = None
        self.host: str = ""
        self.port: int = 0
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("service did not come up within 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:    # noqa: BLE001 - reported to caller
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self.server = ServiceServer(runner=self._runner, config=self._config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None \
                and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful drain from the calling thread, then full stop."""
        if self._loop is not None and self.server is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(timeout_s), self._loop)
            future.result(timeout=(timeout_s or 30) + 10)
        self.stop()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
