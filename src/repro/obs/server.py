"""Streaming status server for a running study (stdlib asyncio only).

``python -m repro.tools obs serve --study-dir DIR`` exposes one study
directory over three endpoints:

* ``GET /status`` — the full :meth:`StudyView.snapshot` as JSON:
  per-unit state, live outcome counts with Wilson intervals, the
  converged-at-99 %/3 % flags, injections/sec, ETA, stall list, phase
  and checkpoint breakdowns.
* ``GET /events`` — an NDJSON stream of journal unit transitions
  (``leased``/``done``/``failed``/``quarantined``), replayed from the
  start (or ``?since=SEQ``) and then followed live; when every unit is
  terminal a final ``study_complete`` line is emitted and the stream
  closes, so clients (and CI) can read-to-EOF deterministically.
* ``GET /`` — a small self-contained dashboard page that polls
  ``/status`` and re-renders itself; no external assets.

The server is read-only over the study directory and single-threaded
(one asyncio loop), so it can watch a study another process is
actively running — the underlying :class:`~repro.obs.live.StudyView`
tailer tolerates torn tails and concurrent writers by construction.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.obs.live import DEFAULT_STALL_AFTER_S, StudyView

#: How often /events re-polls the study directory for new transitions.
EVENTS_POLL_S = 0.25

#: Quiet-stream liveness: an /events stream with nothing to say emits
#: a ``{"keepalive": true}`` line this often, so clients can tell an
#: idle study from a dead connection (and time out when neither rows
#: nor keepalives arrive).
KEEPALIVE_S = 15.0

_DASHBOARD = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro study — live</title>
<style>
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2rem auto; max-width: 64rem; color: #263238; }
h1 { font-size: 1.3rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .25rem .5rem;
         border-bottom: 1px solid #eceff1; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { padding: .05rem .45rem; border-radius: 9px; font-size: .75rem;
         font-weight: 600; }
.ok { background: #dcedc8; color: #33691e; }
.warn { background: #ffecb3; color: #e65100; }
.bad { background: #ffcdd2; color: #b71c1c; }
.muted { color: #90a4ae; }
#kv { display: flex; gap: 2rem; flex-wrap: wrap; margin: .8rem 0; }
</style></head><body>
<h1>repro study <span id="spec" class="muted"></span></h1>
<div id="kv"></div>
<table id="cells"><tr><th>unit</th><th>state</th>
<th class="num">injections</th><th class="num">margin</th>
<th>converged</th></tr></table>
<p class="muted">auto-refreshes from <code>/status</code> every 2s;
full report: <code>repro.tools obs report</code></p>
<script>
function badge(s) {
  const css = {done: "ok", leased: "warn", failed: "warn",
               quarantined: "bad"}[s] || "muted";
  return '<span class="badge ' + css + '">' + s + "</span>";
}
async function tick() {
  try {
    const s = await (await fetch("/status")).json();
    document.getElementById("spec").textContent = s.spec_hash || "";
    const p = s.progress, eta = p.eta_s == null ? "—"
        : (p.eta_s > 90 ? (p.eta_s / 60).toFixed(1) + "m"
                        : p.eta_s.toFixed(0) + "s");
    document.getElementById("kv").innerHTML =
      "<span>injections <b>" + s.injections_done +
      (p.planned_injections ? " / " + p.planned_injections : "") +
      "</b></span><span>rate <b>" + p.injections_per_sec.toFixed(1) +
      "/s</b></span><span>ETA <b>" + eta + "</b></span>" +
      "<span>converged <b>" + p.converged_cells + " / " + s.units +
      "</b></span><span>" + badge(s.complete ? "done" : "leased") +
      (s.stalled.length ? ' <span class="badge bad">stalled: ' +
       s.stalled.length + "</span>" : "") + "</span>";
    const rows = s.cells.map(c =>
      "<tr><td>" + c.unit + "</td><td>" + badge(c.state) +
      (c.stalled ? ' <span class="badge bad">stalled</span>' : "") +
      '</td><td class="num">' + c.injections +
      (c.planned ? " / " + c.planned : "") +
      '</td><td class="num">±' +
      (100 * c.convergence.margin).toFixed(1) + "%</td><td>" +
      (c.convergence.converged ? '<span class="badge ok">99%/3%</span>'
                               : '<span class="muted">not yet</span>') +
      "</td></tr>").join("");
    document.getElementById("cells").innerHTML =
      "<tr><th>unit</th><th>state</th><th class=num>injections</th>" +
      "<th class=num>margin</th><th>converged</th></tr>" + rows;
  } catch (e) { /* server restarting; retry next tick */ }
}
tick(); setInterval(tick, 2000);
</script></body></html>
"""


def _http_head(status: str, content_type: str,
               length: int | None = None) -> bytes:
    head = [f"HTTP/1.1 {status}",
            f"Content-Type: {content_type}",
            "Cache-Control: no-store",
            "Connection: close"]
    if length is not None:
        head.append(f"Content-Length: {length}")
    return ("\r\n".join(head) + "\r\n\r\n").encode()


async def stream_events(writer: asyncio.StreamWriter, view: StudyView,
                        query: dict, finished,
                        keepalive_s: float = KEEPALIVE_S) -> None:
    """Serve ``/events``: *view*'s unit transitions as NDJSON.

    Replays from ``?since=SEQ`` (default 0), then follows the study,
    writing a ``{"keepalive": true}`` line after *keepalive_s* without
    one.  *finished()* decides when the stream ends: None while the
    study runs, else a dict of extra fields for the closing
    ``study_complete`` line.
    """
    try:
        seq = int(query.get("since", ["0"])[0])
    except ValueError:
        seq = 0
    writer.write(_http_head("200 OK", "application/x-ndjson"))
    clock = asyncio.get_event_loop().time
    last_line = clock()
    while True:
        view.refresh()
        while seq < len(view.transitions):
            writer.write((json.dumps(view.transitions[seq]) + "\n").encode())
            seq += 1
            last_line = clock()
        if clock() - last_line >= keepalive_s:
            writer.write(b'{"keepalive": true}\n')
            last_line = clock()
        await writer.drain()
        extra = finished()
        if extra is not None:
            final = {
                "name": "study_complete",
                "complete": view.complete(),
                **extra,
                "tally": view.tally(),
                "injections_done": view.injections_done(),
                "units": {uid: dict(view.units[uid].best_counts())
                          for uid in view.unit_ids},
            }
            writer.write((json.dumps(final) + "\n").encode())
            await writer.drain()
            return
        await asyncio.sleep(EVENTS_POLL_S)


class StatusServer:
    """Serves one study directory's live view over HTTP."""

    def __init__(self, study_dir, host: str = "127.0.0.1",
                 port: int = 8436,
                 stall_after_s: float = DEFAULT_STALL_AFTER_S,
                 follow: bool = True):
        self.view = StudyView(study_dir, stall_after_s=stall_after_s)
        self.host = host
        self.port = port           # updated to the bound port on start
        self.follow = follow       # /events keeps following a live study
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    asyncio.LimitOverrunError):
                return
            request_line = head.split(b"\r\n", 1)[0].decode(
                "latin-1", errors="replace")
            parts = request_line.split()
            if len(parts) < 2 or parts[0] not in ("GET", "HEAD"):
                writer.write(_http_head("405 Method Not Allowed",
                                        "text/plain", 0))
                return
            url = urlsplit(parts[1])
            query = parse_qs(url.query)
            if url.path == "/status":
                await self._serve_status(writer)
            elif url.path == "/events":
                await stream_events(writer, self.view, query,
                                    self._events_finished)
            elif url.path in ("/", "/index.html"):
                body = _DASHBOARD.encode()
                writer.write(_http_head("200 OK",
                                        "text/html; charset=utf-8",
                                        len(body)))
                writer.write(body)
            else:
                body = b'{"error": "not found"}'
                writer.write(_http_head("404 Not Found",
                                        "application/json", len(body)))
                writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_status(self, writer: asyncio.StreamWriter) -> None:
        self.view.refresh()
        body = json.dumps(self.view.snapshot()).encode()
        writer.write(_http_head("200 OK", "application/json", len(body)))
        writer.write(body)

    def _events_finished(self) -> dict | None:
        """``/events`` closes once every unit is terminal, or after the
        replay when not following."""
        return {} if self.view.complete() or not self.follow else None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; returns the asyncio server."""
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        self.port = server.sockets[0].getsockname()[1]
        return server

    async def _main(self, on_ready=None) -> None:
        self._stop = asyncio.Event()
        server = await self.start()
        if on_ready is not None:
            on_ready(self)
        async with server:
            await self._stop.wait()

    def serve_forever(self, on_ready=None) -> None:
        """Blocking entry point (the CLI's ``obs serve``).

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


def serve_study(study_dir, host: str = "127.0.0.1", port: int = 8436,
                on_ready=None, **kwargs) -> None:
    """One-call blocking server over *study_dir* (CLI plumbing)."""
    StatusServer(study_dir, host=host, port=port,
                 **kwargs).serve_forever(on_ready)


__all__ = ["StatusServer", "serve_study", "stream_events", "EVENTS_POLL_S",
           "KEEPALIVE_S"]
