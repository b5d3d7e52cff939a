"""HTTP front end for the campaign service (stdlib asyncio only).

``python -m repro.tools svc serve --root DIR`` exposes one
:class:`~repro.svc.service.CampaignService` over HTTP:

* ``POST /studies`` — submit a study: a JSON body holding the
  :class:`~repro.sched.plan.StudySpec` fields (or ``{"tenant": ...,
  "spec": {...}}``; the tenant may also ride in an ``X-Tenant``
  header).  Strictly validated at the boundary — unknown fields,
  bare-string axes and unresolvable grid names are a ``400`` whose
  body says exactly what to fix; a tenant over quota is a ``429``
  naming the exhausted knob.  Success is ``202`` with the study id.
* ``GET /studies`` — every study's lifecycle row.
* ``GET /studies/{id}/status`` — live tally, injections, totals.
* ``GET /studies/{id}/events`` — NDJSON stream of the study's unit
  transitions (``?since=SEQ`` replays from an offset), closed by a
  deterministic ``study_complete`` line once the study is terminal —
  the same read-to-EOF protocol as ``obs serve``.
* ``GET /studies/{id}/report`` — the plain-text study report.
* ``POST /studies/{id}/cancel`` — cancel (``409`` if already terminal).
* ``GET /status`` — service-level snapshot: queue fairness state,
  per-tenant depths, fleet occupancy, golden-cache hit rate.

Remote-fleet endpoints (the :mod:`repro.svc.remote` agent protocol):

* ``POST /fleet/register`` — ``{"worker": name}``; answers the lease
  contract (epoch, heartbeat cadence).  Idempotent.
* ``POST /fleet/lease`` — long poll: an NDJSON stream of
  ``{"keepalive": true}`` lines until a unit is dispatched
  (``{"lease": {...}}``) or the wait expires (``{"lease": null}``).
* ``POST /fleet/heartbeat`` — ``{"worker": name, "fences": [...]}``;
  answers the fences the worker must kill.  ``409 unregistered`` tells
  a forgotten worker (server restart, miss-budget eviction) to
  re-register.
* ``POST /fleet/complete`` — settle a lease by fence; a revoked fence
  is ``409 stale-fence``, a retried settle is a detected duplicate,
  and a body failing semantic ingest validation (record counts, mask
  stream, classifications, golden observables — see
  :mod:`repro.svc.attest`) is ``422`` with a machine-readable code.
* ``POST /fleet/challenge`` — prove the registration determinism
  challenge; failure is ``403 distrusted``.  A registered worker that
  has not proven its challenge gets ``403 challenge-pending`` on
  ``/fleet/lease``.
* ``GET /blobs/{digest}`` — raw compressed golden payloads,
  content-addressed.

When ``--token`` (or ``SVC_TOKEN``) arms authentication, every
endpoint requires ``Authorization: Bearer <token>`` and answers ``401``
with a machine-readable body otherwise.

The whole service runs on one asyncio loop: HTTP handlers and the
scheduling tick (``CampaignService.tick`` every ``TICK_S``) interleave
cooperatively, so no state needs locking.  Unit work happens in fleet
worker *processes*, so a tick never blocks the loop for long.
``REPRO_SVC_CHAOS`` (see :mod:`repro.svc.chaos`) arms the server-side
``disconnect`` fault on fleet endpoints: the request is processed,
then the response is discarded — the at-most-once crucible the fences
exist for.
"""

from __future__ import annotations

import asyncio
import hmac
import json
from urllib.parse import parse_qs, urlsplit

from repro.obs.live import StudyView
from repro.obs.server import KEEPALIVE_S, _http_head, stream_events
from repro.svc.attest import (ChallengePending, RejectedComplete,
                              WorkerDistrusted)
from repro.svc.chaos import TransportChaos
from repro.svc.fleet import StaleFence, UnknownWorker
from repro.svc.queue import QuotaExceeded
from repro.svc.service import CampaignService

#: How often the embedded scheduling loop runs one service tick.
TICK_S = 0.05

#: Largest accepted request body (a complete ships compressed unit
#: files and possibly a golden blob; specs are tiny).
MAX_BODY = 64 << 20

#: Default / maximum lease long-poll wait.
LEASE_WAIT_S = 20.0
LEASE_WAIT_MAX_S = 120.0


def _json_body(status: str, payload: dict) -> tuple[bytes, bytes]:
    body = (json.dumps(payload) + "\n").encode()
    return _http_head(status, "application/json", len(body)), body


class ServiceServer:
    """Serves one :class:`CampaignService` over HTTP."""

    def __init__(self, service: CampaignService, host: str = "127.0.0.1",
                 port: int = 8437, token: str | None = None,
                 keepalive_s: float = KEEPALIVE_S,
                 chaos: TransportChaos | None = None):
        self.service = service
        self.host = host
        self.port = port           # updated to the bound port on start
        self.token = token
        self.keepalive_s = keepalive_s
        self.chaos = chaos if chaos is not None else TransportChaos.from_env()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._conns: set = set()       # open connection tasks

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    asyncio.LimitOverrunError):
                return
            request_line, _, rest = head.decode(
                "latin-1", errors="replace").partition("\r\n")
            parts = request_line.split()
            if len(parts) < 2 or parts[0] not in ("GET", "HEAD", "POST"):
                writer.write(_http_head("405 Method Not Allowed",
                                        "text/plain", 0))
                return
            method = parts[0]
            headers = {}
            for line in rest.split("\r\n"):
                name, sep, value = line.partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            body = b""
            if method == "POST":
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = 0
                if length > MAX_BODY:
                    writer.write(b"".join(_json_body(
                        "413 Payload Too Large",
                        {"error": f"body over {MAX_BODY} bytes"})))
                    return
                if length:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout=10.0)
            url = urlsplit(parts[1])
            query = parse_qs(url.query)
            await self._route(writer, method, url.path, query,
                              headers, body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass                       # server shutting down mid-stream
        finally:
            self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _route(self, writer, method: str, path: str, query: dict,
                     headers: dict, body: bytes) -> None:
        svc = self.service
        if self.token is not None:
            supplied = headers.get("authorization", "")
            if not hmac.compare_digest(supplied, f"Bearer {self.token}"):
                writer.write(b"".join(_json_body(
                    "401 Unauthorized",
                    {"error": "missing or bad bearer token",
                     "reason": "unauthorized"})))
                return
        if path.startswith("/fleet/") and method == "POST":
            await self._route_fleet(writer, path, body)
            return
        if path.startswith("/blobs/") and method in ("GET", "HEAD"):
            digest = path[len("/blobs/"):]
            blob = svc.fleet.cache.blob_by_digest(digest)
            if blob is None:
                writer.write(b"".join(_json_body(
                    "404 Not Found", {"error": f"no blob {digest}"})))
                return
            writer.write(_http_head("200 OK", "application/octet-stream",
                                    len(blob)))
            if method == "GET":
                writer.write(blob)
            return
        if path == "/studies" and method == "POST":
            self._submit(writer, headers, body)
            return
        if path == "/studies" and method in ("GET", "HEAD"):
            writer.write(b"".join(_json_body(
                "200 OK", {"studies": svc.studies()})))
            return
        if path == "/status" and method in ("GET", "HEAD"):
            writer.write(b"".join(_json_body("200 OK", svc.status())))
            return
        segs = [s for s in path.split("/") if s]
        if len(segs) == 3 and segs[0] == "studies":
            study_id, action = segs[1], segs[2]
            try:
                svc.study_status(study_id)
            except KeyError:
                writer.write(b"".join(_json_body(
                    "404 Not Found",
                    {"error": f"no such study: {study_id}"})))
                return
            if action == "status" and method in ("GET", "HEAD"):
                writer.write(b"".join(_json_body(
                    "200 OK", svc.study_status(study_id))))
                return
            if action == "events" and method in ("GET", "HEAD"):
                await self._serve_events(writer, study_id, query)
                return
            if action == "report" and method in ("GET", "HEAD"):
                from repro.obs.summarize import summarize_file
                from repro.sched.scheduler import EVENTS_NAME
                text = summarize_file(
                    svc.study_dir(study_id) / EVENTS_NAME)
                data = text.encode()
                writer.write(_http_head("200 OK",
                                        "text/plain; charset=utf-8",
                                        len(data)))
                writer.write(data)
                return
            if action == "cancel" and method == "POST":
                try:
                    writer.write(b"".join(_json_body(
                        "200 OK", svc.cancel(study_id))))
                except ValueError as exc:
                    writer.write(b"".join(_json_body(
                        "409 Conflict", {"error": str(exc)})))
                return
        writer.write(b"".join(_json_body(
            "404 Not Found", {"error": "not found"})))

    def _submit(self, writer, headers: dict, body: bytes) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            writer.write(b"".join(_json_body(
                "400 Bad Request", {"error": f"body is not JSON: {exc}"})))
            return
        tenant = headers.get("x-tenant", "default")
        spec = payload
        if isinstance(payload, dict) and "spec" in payload:
            spec = payload["spec"]
            tenant = payload.get("tenant", tenant)
        if not isinstance(tenant, str) or not tenant:
            writer.write(b"".join(_json_body(
                "400 Bad Request",
                {"error": f"tenant must be a non-empty string, "
                          f"got {tenant!r}"})))
            return
        try:
            study_id = self.service.submit(spec, tenant=tenant)
        except QuotaExceeded as exc:
            writer.write(b"".join(_json_body(
                "429 Too Many Requests",
                {"error": str(exc), "reason": exc.reason,
                 "tenant": exc.tenant})))
            return
        except ValueError as exc:
            writer.write(b"".join(_json_body(
                "400 Bad Request", {"error": str(exc)})))
            return
        writer.write(b"".join(_json_body("202 Accepted", {
            "id": study_id,
            "tenant": tenant,
            "status_url": f"/studies/{study_id}/status",
            "events_url": f"/studies/{study_id}/events",
        })))

    # -- remote-fleet endpoints --------------------------------------------

    async def _route_fleet(self, writer, path: str, body: bytes) -> None:
        """The agent protocol: register / lease / heartbeat / complete."""
        svc = self.service
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            writer.write(b"".join(_json_body(
                "400 Bad Request", {"error": f"body is not JSON: {exc}"})))
            return
        if not isinstance(payload, dict):
            writer.write(b"".join(_json_body(
                "400 Bad Request", {"error": "body must be a JSON object"})))
            return
        if path == "/fleet/lease":
            await self._serve_lease(writer, payload)
            return
        name = payload.get("worker")
        if path != "/fleet/complete" and (not isinstance(name, str)
                                          or not name):
            writer.write(b"".join(_json_body(
                "400 Bad Request",
                {"error": f"worker must be a non-empty string, "
                          f"got {name!r}"})))
            return
        if path == "/fleet/register":
            try:
                response = _json_body(
                    "200 OK", svc.register_worker(name,
                                                  payload.get("meta")))
            except WorkerDistrusted as exc:
                response = _json_body(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "distrusted"})
        elif path == "/fleet/challenge":
            try:
                response = _json_body(
                    "200 OK", svc.worker_challenge(name, payload))
            except WorkerDistrusted as exc:
                response = _json_body(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "distrusted",
                     "admitted": False})
            except UnknownWorker:
                response = _json_body(
                    "409 Conflict",
                    {"error": f"unknown worker: {name}",
                     "reason": "unregistered"})
        elif path == "/fleet/heartbeat":
            try:
                response = _json_body(
                    "200 OK",
                    svc.worker_heartbeat(name, payload.get("fences")))
            except UnknownWorker:
                response = _json_body(
                    "409 Conflict",
                    {"error": f"unknown worker: {name}",
                     "reason": "unregistered"})
        elif path == "/fleet/complete":
            try:
                response = _json_body("200 OK", svc.complete_remote(payload))
            except StaleFence as exc:
                response = _json_body(
                    "409 Conflict",
                    {"error": str(exc), "reason": "stale-fence"})
            except RejectedComplete as exc:
                # Semantic ingest validation failed: machine-readable
                # code, and the lease is already settled as a failure
                # (the unit retries on an honest worker).
                response = _json_body(
                    "422 Unprocessable Entity",
                    {"error": str(exc), "reason": exc.code,
                     "rejected": True, "unit": exc.unit,
                     "worker": exc.worker})
        else:
            response = _json_body("404 Not Found", {"error": "not found"})
        # Server-side chaos: the work above already happened; dropping
        # the response here forces the client through its retry path
        # against an effect that already landed.
        if self.chaos.drop_response():
            return
        writer.write(b"".join(response))

    async def _serve_lease(self, writer, payload: dict) -> None:
        """Long-poll one lease as an NDJSON keepalive stream."""
        svc = self.service
        name = payload.get("worker")
        try:
            wait_s = min(float(payload.get("wait_s", LEASE_WAIT_S)),
                         LEASE_WAIT_MAX_S)
        except (TypeError, ValueError):
            wait_s = LEASE_WAIT_S
        if name not in svc.fleet.remote_workers:
            writer.write(b"".join(_json_body(
                "409 Conflict", {"error": f"unknown worker: {name}",
                                 "reason": "unregistered"})))
            return
        if svc.attestor is not None:
            try:
                svc.attestor.admit_gate(name)
            except ChallengePending as exc:
                writer.write(b"".join(_json_body(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "challenge-pending"})))
                return
            except WorkerDistrusted as exc:
                writer.write(b"".join(_json_body(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "distrusted"})))
                return
        writer.write(_http_head("200 OK", "application/x-ndjson"))
        loop = asyncio.get_event_loop()
        deadline = loop.time() + wait_s
        last_line = loop.time()
        while True:
            worker = svc.fleet.remote_workers.get(name)
            if worker is None:       # evicted mid-poll
                writer.write(b'{"error": "unregistered"}\n')
                await writer.drain()
                return
            # A waiting poll is proof of life as good as a heartbeat.
            worker.last_seen = loop.time()
            try:
                lease = svc.lease_remote(name)
            except (ChallengePending, WorkerDistrusted):
                # Distrusted mid-poll: end the stream like an eviction.
                writer.write(b'{"error": "unregistered"}\n')
                await writer.drain()
                return
            if lease is not None:
                writer.write(
                    (json.dumps({"lease": lease}) + "\n").encode())
                await writer.drain()
                return
            now = loop.time()
            if now >= deadline:
                writer.write(b'{"lease": null}\n')
                await writer.drain()
                return
            if now - last_line >= self.keepalive_s:
                writer.write(b'{"keepalive": true}\n')
                last_line = now
            await writer.drain()
            await asyncio.sleep(TICK_S)

    async def _serve_events(self, writer, study_id: str,
                            query: dict) -> None:
        """NDJSON unit-transition stream, obs-serve protocol."""
        def finished():
            # Terminality is the *service's* call, not the journal's: a
            # fully-done tally can still be reopened (an audit voiding a
            # distrusted worker's unit), and a finish is deferred while
            # audits are pending — so only the lifecycle row closes the
            # stream.
            rec = self.service.state.studies[study_id]
            return {"state": rec.state} if rec.terminal else None

        await stream_events(writer,
                            StudyView(self.service.study_dir(study_id)),
                            query, finished, keepalive_s=self.keepalive_s)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; returns the asyncio server."""
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        self.port = server.sockets[0].getsockname()[1]
        return server

    async def _tick_loop(self) -> None:
        while True:
            self.service.tick()
            await asyncio.sleep(TICK_S)

    async def _main(self, on_ready=None) -> None:
        self._stop = asyncio.Event()
        server = await self.start()
        ticker = asyncio.ensure_future(self._tick_loop())
        if on_ready is not None:
            on_ready(self)
        try:
            async with server:
                await self._stop.wait()
        finally:
            ticker.cancel()
            try:
                await ticker
            except asyncio.CancelledError:
                pass
            # Open streams (lease long-polls, /events followers) would
            # otherwise outlive the loop and die noisily with it.
            for task in list(self._conns):
                task.cancel()
            if self._conns:
                await asyncio.gather(*self._conns, return_exceptions=True)

    def serve_forever(self, on_ready=None) -> None:
        """Blocking entry point (the CLI's ``svc serve``).

        *on_ready* is called with the server once the port is bound —
        tests and scripts use it to learn an ephemeral port.  Stop from
        another thread with :meth:`stop`.
        """
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._main(on_ready))
        finally:
            try:
                self._loop.close()
            finally:
                self._loop = None

    def stop(self) -> None:
        """Thread-safe shutdown of :meth:`serve_forever`."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)


def serve_service(root, host: str = "127.0.0.1", port: int = 8437,
                  on_ready=None, token: str | None = None,
                  **service_kwargs) -> None:
    """One-call blocking service over *root* (CLI plumbing)."""
    service = CampaignService(root, **service_kwargs)
    try:
        ServiceServer(service, host=host, port=port,
                      token=token).serve_forever(on_ready)
    finally:
        service.close()


__all__ = ["ServiceServer", "serve_service", "TICK_S", "LEASE_WAIT_S"]
