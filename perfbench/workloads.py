"""The four workloads, each one repetition at a fixed size.

Every workload drives a real entry point of the program and hands back
a :class:`Rep`: wall time, set-up time, per-mask latencies and, per
cell, the records, golden reference and telemetry events the program
wrote.  Nothing here judges the results; :mod:`checks` compares them
with the pins and :mod:`layers` turns telemetry into per-layer numbers.

The seed orders independent cells; the masks come from the mask seed,
pinned per workload, so every run does the same simulation and its
records can be checked byte for byte.  A study's unit order is left as
the plan gives it: it decides how many golden runs the scheduler makes,
so shuffling it would change the work itself.  See README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

SETUPS = ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")

#: Event names the scheduler and service write themselves; everything
#: else in a study's events.jsonl is a unit worker's shipped stream.
PARENT_EVENTS = {"study_start", "heartbeat", "unit_leased", "unit_done",
                 "unit_failed", "unit_quarantined", "study_end",
                 "fence_rejected", "attest_rejected"}


@dataclass
class Cell:
    """One campaign cell or study unit of a repetition."""

    key: str                      # pin key, identical across paths
    pair: str                     # "setup/benchmark"
    expected: int                 # masks the cell was asked for
    records: list                 # record dicts, as the program wrote them
    golden: dict | None           # GoldenReference.to_dict()
    counts: dict                  # classification the program reported
    events: list                  # worker-side telemetry events
    latencies: list               # dispatch -> record seconds per mask
    setup_s: float                # start of cell -> first mask dispatch
    failed: str | None = None     # why the program failed the cell
    attempts: int = 1


@dataclass
class Rep:
    wall_s: float = 0.0
    setup_s: float = 0.0
    cells: list = field(default_factory=list)
    requests: int = 0             # client HTTP requests (study-fleet)
    failed_requests: int = 0
    http_s: list = field(default_factory=list)
    traced: bool = False
    info: dict = field(default_factory=dict)

    @property
    def masks(self) -> int:
        return sum(len(c.records) for c in self.cells)


@dataclass
class Context:
    workload: str
    seed: int
    mask_seed: int
    workdir: Path
    size: dict
    recorder: object = None       # spans.Recorder while tracing

    def order(self, items) -> list:
        items = list(items)
        random.Random(f"{self.workload}:{self.seed}").shuffle(items)
        return items

    @property
    def traced(self) -> bool:
        return self.recorder is not None and self.recorder.enabled


def campaign_key(setup, bench, structure, fault_type, n, seed) -> str:
    return (f"campaign/{setup}/{bench}/{structure}/{fault_type}/"
            f"n={n}/seed={seed}/prune=off")


def unit_key(unit_id: str, n: int, seed: int, prune: str) -> str:
    return f"unit/{unit_id}/n={n}/seed={seed}/prune={prune}"


# -- in-process campaigns ---------------------------------------------------

def inject_pairs(events) -> list[tuple[dict, dict]]:
    """(inject_start, inject_end) per simulated mask, by set_id."""
    starts = {}
    pairs = []
    for ev in events:
        if ev["name"] == "inject_start":
            starts[ev["set_id"]] = ev
        elif ev["name"] == "inject_end" and ev["set_id"] in starts:
            pairs.append((starts.pop(ev["set_id"]), ev))
    return pairs


def _campaign_cells(ctx: Context, cells, run, progress_latency: bool):
    from repro.obs import RingBufferSink, Tracer

    rep = Rep(traced=ctx.traced)
    t0 = time.perf_counter()
    for setup, bench, structure, fault_type, n in ctx.order(cells):
        sink = RingBufferSink(capacity=1 << 20)
        stamps = []
        t_call = time.time()
        result = run(setup, bench, structure, n, fault_type, Tracer(sink),
                     lambda i, total, rec: stamps.append(time.time()))
        counts = result.classify()
        events = [ev.to_dict() for ev in sink.events]
        pairs = inject_pairs(events)
        first = pairs[0][0]["ts"] if pairs else stamps[0]
        if progress_latency:
            # Outside view: the progress callback fires as each record
            # lands, and the next mask is dispatched right after it.
            marks = [first] + stamps
            latencies = [b - a for a, b in zip(marks, marks[1:])]
        else:
            latencies = [end["ts"] - start["ts"] for start, end in pairs]
        rep.cells.append(Cell(
            key=campaign_key(setup, bench, structure, fault_type, n,
                             ctx.mask_seed),
            pair=f"{setup}/{bench}", expected=n,
            records=[r.to_dict() for r in result.records],
            golden=result.golden.to_dict(), counts=counts, events=events,
            latencies=latencies, setup_s=first - t_call))
    rep.wall_s = time.perf_counter() - t0
    rep.setup_s = sum(c.setup_s for c in rep.cells)
    return rep


def transient_serial(ctx: Context) -> Rep:
    """Serial ``run_campaign``, transient faults, prune off, early stop."""
    from repro.core import campaign

    n = ctx.size["masks"]
    cells = [("MaFIN-x86", "sha", "l1d", "transient", n["sha/l1d"]),
             ("GeFIN-x86", "search", "lsq", "transient", n["search/lsq"]),
             ("GeFIN-ARM", "qsort", "int_rf", "transient",
              n["qsort/int_rf"])]

    def run(setup, bench, structure, count, fault_type, tracer, progress):
        return campaign.run_campaign(setup, bench, structure,
                                     injections=count, seed=ctx.mask_seed,
                                     fault_type=fault_type, tracer=tracer,
                                     progress=progress)

    return _campaign_cells(ctx, cells, run, progress_latency=True)


def stuck_parallel(ctx: Context) -> Rep:
    """``run_campaign_parallel(workers=2)``, permanent/intermittent."""
    from repro.core import parallel

    n = ctx.size["masks"]
    cells = [("MaFIN-x86", "sha", "l1i", "permanent", n["sha/l1i"]),
             ("GeFIN-x86", "qsort", "int_rf", "intermittent",
              n["qsort/int_rf"]),
             ("GeFIN-ARM", "sha", "l1d", "permanent", n["sha/l1d"])]

    def run(setup, bench, structure, count, fault_type, tracer, progress):
        return parallel.run_campaign_parallel(
            setup, bench, structure, injections=count, seed=ctx.mask_seed,
            workers=ctx.size["workers"], fault_type=fault_type,
            tracer=tracer, progress=progress)

    return _campaign_cells(ctx, cells, run, progress_latency=False)


# -- study directories (sched and svc) ---------------------------------------

def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            pass                   # a torn tail is not ours to judge
    return rows


def study_cells(study_dir: Path, prune: str) -> tuple[list, dict]:
    """Cells of one finished study directory, plus its raw journal/events.

    Journal rows give each unit's lease and outcome; the events file
    holds each unit worker's stream as one contiguous batch ending at
    the scheduler's ``unit_done``.
    """
    from repro.core.repository import LogsRepository
    from repro.sched.plan import WorkUnit

    journal = _jsonl(study_dir / "journal.jsonl")
    events = _jsonl(study_dir / "events.jsonl")
    header = journal[0]
    spec = header["spec"]
    batches: dict = {}
    buffer: list = []
    for ev in events:
        if ev["name"] == "unit_done":
            batches[ev["unit"]] = buffer
            buffer = []
        elif ev["name"] not in PARENT_EVENTS:
            buffer.append(ev)
    leased: dict = {}
    failures: dict = {}
    attempts: dict = {}
    for row in journal[1:]:
        uid = row.get("unit")
        if row.get("state") == "leased":
            leased[uid] = row["ts"]
            attempts[uid] = row.get("attempt", 1)
        elif row.get("state") in ("failed", "quarantined", "audit_void"):
            failures[uid] = row.get("reason") or row["state"]
    cells = []
    for uid in header["units"]:
        unit = WorkUnit.from_id(uid)
        logs = LogsRepository(study_dir / "logs" / f"{unit.file_id}.jsonl")
        batch = batches.get(uid, [])
        pairs = inject_pairs(batch)
        firsts = [ev["ts"] for ev in batch
                  if ev["name"] in ("inject_start", "pruned")]
        records = [r.to_dict() for r in logs.records]
        counts = next((row.get("counts") for row in reversed(journal)
                       if row.get("unit") == uid
                       and row.get("state") == "done"), None) or {}
        cells.append(Cell(
            key=unit_key(uid, spec["injections"], spec["seed"], prune),
            pair=f"{unit.setup}/{unit.benchmark}",
            expected=spec["injections"], records=records,
            golden=logs.golden.to_dict() if logs.golden else None,
            counts=counts, events=batch,
            latencies=[end["ts"] - start["ts"] for start, end in pairs],
            setup_s=(min(firsts) - leased[uid]) if firsts and uid in leased
            else 0.0,
            failed=failures.get(uid), attempts=attempts.get(uid, 0)))
    return cells, {"journal": journal, "events": events}


def study_sched(ctx: Context) -> Rep:
    """``sched run --workers 2 --prune analyze`` through the CLI main."""
    from repro import tools

    study_dir = ctx.workdir / f"sched-{time.monotonic_ns()}"
    argv = ["sched", "run", "--out", str(study_dir),
            "--setups", *ctx.size["setups"],
            "--benchmarks", *ctx.size["benchmarks"],
            "--structures", *ctx.size["structures"],
            "--injections", str(ctx.size["injections"]),
            "--seed", str(ctx.mask_seed),
            "--workers", str(ctx.size["workers"]),
            "--prune", "analyze", "--json"]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = tools.main(argv)
    wall = time.perf_counter() - t0
    cells, raw = study_cells(study_dir, "analyze")
    if code != 0:
        for cell in cells:
            cell.failed = cell.failed or f"sched run exited {code}"
    rep = Rep(wall_s=wall, cells=cells, traced=ctx.traced,
              setup_s=sum(c.setup_s for c in cells))
    rep.info = {"slots": ctx.size["workers"], **raw}
    return rep


# -- the service -------------------------------------------------------------

READY_RE = re.compile(r"(http://[\d.]+:\d+)/status")


class Client:
    """One closed-loop HTTP client; every request is timed and counted."""

    def __init__(self, url: str, rep: Rep, recorder=None):
        self.url = url
        self.rep = rep
        self.recorder = recorder

    def call(self, method: str, path: str, payload=None, stream=False):
        data = json.dumps(payload).encode() if payload is not None \
            else None
        req = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        span = self.recorder.open("bench.client:http") \
            if self.recorder is not None and self.recorder.enabled else None
        t0 = time.perf_counter()
        status = 0
        try:
            with urllib.request.urlopen(req, timeout=170) as resp:
                status = resp.status
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            status, raw = exc.code, exc.read()
        finally:
            if span is not None:
                self.recorder.close(span)
        elapsed = time.perf_counter() - t0
        self.rep.requests += 1
        if not 200 <= status < 300:
            self.rep.failed_requests += 1
        if stream:
            lines = [json.loads(ln) for ln in raw.splitlines() if ln.strip()]
            body = [ln for ln in lines if not ln.get("keepalive")]
        else:
            self.rep.http_s.append(elapsed)
            body = json.loads(raw or b"null")
        return status, body


def _spawn(ctx: Context, argv: list[str], log: Path) -> subprocess.Popen:
    """Start ``repro.tools`` in a child; traced runs go through child.py,
    which installs the same span wrappers before calling the same main."""
    if ctx.traced:
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
               str(ctx.recorder.spool), *argv]
    else:
        cmd = [sys.executable, "-m", "repro.tools", *argv]
    with open(log, "w") as err:
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, cwd=ctx.workdir)


def _stop(*procs: subprocess.Popen) -> None:
    """SIGTERM every process first: an idle worker agent only notices
    its stop flag once the service has closed its lease long-poll."""
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def study_fleet(ctx: Context) -> Rep:
    """``svc serve --workers 1`` + one ``svc worker`` with one slot.

    One client submits two tenants' pruned studies over the same
    (setup, benchmark) pairs on different structures, then streams each
    study's ``/events`` to its ``study_complete`` terminator.
    """
    rep = Rep(traced=ctx.traced)
    root = ctx.workdir / f"svc-{time.monotonic_ns()}"
    root.mkdir(parents=True)
    n, seed = ctx.size["injections"], ctx.mask_seed
    tenants = [("alice", "l1d"), ("bob", "int_rf")]
    setups = ctx.size["setups"]
    t0 = time.perf_counter()
    serve = _spawn(ctx, ["svc", "serve", "--root", str(root), "--port", "0",
                         "--workers", "1"], root / "serve.log")
    worker = None
    try:
        match = READY_RE.search(serve.stdout.readline())
        if match is None:
            raise RuntimeError(f"svc serve gave no ready line; see "
                               f"{root / 'serve.log'}")
        ready_s = time.perf_counter() - t0
        url = match.group(1)
        worker = _spawn(ctx, ["svc", "worker", "--connect", url,
                              "--workers", "1", "--name", "bench-remote",
                              "--scratch-dir", str(root / "remote")],
                        root / "worker.log")
        client = Client(url, rep, ctx.recorder)
        ids = []
        for tenant, structure in tenants:
            spec = {"setups": setups, "benchmarks": ["sha"],
                    "structures": [structure], "injections": n,
                    "seed": seed, "prune": "analyze"}
            status, body = client.call("POST", "/studies",
                                       {"tenant": tenant, "spec": spec})
            if status != 202:
                raise RuntimeError(f"submit refused: {status} {body}")
            ids.append(body["id"])
        finals = {}
        for sid in ids:
            _, lines = client.call("GET", f"/studies/{sid}/events",
                                   stream=True)
            finals[sid] = lines[-1] if lines else {}
        _, status_body = client.call("GET", "/status")
        for sid in ids:
            client.call("GET", f"/studies/{sid}/status")
        rep.wall_s = time.perf_counter() - t0
    finally:
        _stop(*[p for p in (worker, serve) if p is not None])
    for sid in ids:
        cells, raw = study_cells(root / "studies" / sid, "analyze")
        final = finals.get(sid, {})
        if final.get("name") != "study_complete" or not final.get("complete"):
            for cell in cells:
                cell.failed = cell.failed or "study incomplete"
        rep.cells.extend(cells)
        rep.info.setdefault("journal", []).extend(raw["journal"])
        rep.info.setdefault("events", []).extend(raw["events"])
    rep.setup_s = ready_s + sum(c.setup_s for c in rep.cells)
    rep.info.update({"ready_s": ready_s, "status": status_body,
                     "slots": 2})
    return rep


WORKLOADS = {
    "transient-serial": transient_serial,
    "stuck-parallel": stuck_parallel,
    "study-sched": study_sched,
    "study-fleet": study_fleet,
}

#: Fixed size of one repetition of each workload.  study-sched and
#: study-fleet share the mask count and seed, so their common units are
#: the same cells and must produce the same records.
SIZES = {
    "transient-serial": {"masks": {"sha/l1d": 6, "search/lsq": 14,
                                   "qsort/int_rf": 30}},
    "stuck-parallel": {"workers": 2,
                       "masks": {"sha/l1i": 7, "qsort/int_rf": 7,
                                 "sha/l1d": 7}},
    "study-sched": {"workers": 2, "injections": 4, "setups": SETUPS,
                    "benchmarks": ["sha", "qsort"],
                    "structures": ["l1d", "int_rf"]},
    "study-fleet": {"injections": 4, "setups": ["MaFIN-x86", "GeFIN-ARM"]},
}

#: Mask seeds with pinned records; the first is the default.
MASK_SEEDS = (1, 2)
