"""Durable campaign scheduler: lease, retry, quarantine, resume, merge.

The :class:`Scheduler` drives a :class:`~repro.sched.plan.CampaignPlan`
to completion with local worker processes.  Every unit state transition
is journaled (write-ahead, fsync'd) before the scheduler acts on it, so
a study killed at any point — including SIGKILL — resumes losslessly:

* completed units are never re-run (their classification rides in the
  journal's ``done`` record);
* a unit interrupted mid-campaign resumes from its logs repository and
  injects only the masks it is missing (``set_id``-keyed idempotence);
* stale leases left by a dead scheduler count as spent attempts.

Failure policy: a unit that fails (worker exception, worker death, or
per-unit wall-clock timeout) is retried with exponential backoff up to
``max_retries`` times; after that it is quarantined as a poison unit
and the study completes without it (reported, never silently dropped).

Sharding: ``plan.shard(i, n)`` restricts a host to the units whose id
hashes to shard *i*; shards journal independently and
:func:`merge_studies` checks spec compatibility and coverage before
folding the per-unit classifications together.  Per-unit logs files
are named by unit id, so shard output directories merge cleanly.

Observability: unit-lifecycle trace events (``study_start``,
``unit_leased``, ``unit_done``, ``unit_failed``, ``unit_quarantined``,
``study_end``), ``sched.*`` counters (retries, timeouts, quarantined)
and a queue-depth gauge flow through :mod:`repro.obs`; worker trace
events and metrics are shipped home exactly like the parallel runner's.
With ``heartbeat_s`` set, the run loop additionally emits periodic
``heartbeat`` events carrying the leases in flight and their ages —
the liveness signal :mod:`repro.obs.live` and ``obs serve`` use to
tell a slow unit from a dead scheduler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JSONLSink, NULL_TRACER, TraceEvent, Tracer
from repro.sched.journal import (DONE, FAILED, LEASED, PENDING, QUARANTINED,
                                 Journal, JournalState, load_journal)
from repro.sched.plan import CampaignPlan, StudySpec, WorkUnit
from repro.sched.pool import CRASHED, RESULT, LeasePool

JOURNAL_NAME = "journal.jsonl"
EVENTS_NAME = "events.jsonl"


@dataclass
class CellOutcome:
    """Terminal (or last-known) state of one unit after a run."""

    unit_id: str
    state: str
    counts: dict | None = None
    injections: int = 0
    early_stops: int = 0
    attempts: int = 0
    error: str | None = None


@dataclass
class StudyResult:
    """What one scheduler run (or resume) produced."""

    spec: StudySpec
    shard: tuple | None
    cells: dict = field(default_factory=dict)   # unit_id -> CellOutcome
    interrupted: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (not self.interrupted and
                all(c.state == DONE for c in self.cells.values()))

    def classifications(self) -> dict:
        """unit_id -> classification counts for every completed unit."""
        return {uid: c.counts for uid, c in sorted(self.cells.items())
                if c.state == DONE and c.counts is not None}

    def totals(self) -> dict:
        """Merged class -> count over all completed units."""
        totals: dict = {}
        for counts in self.classifications().values():
            for cls, n in counts.items():
                totals[cls] = totals.get(cls, 0) + n
        return totals

    def quarantined(self) -> list:
        return sorted(uid for uid, c in self.cells.items()
                      if c.state == QUARANTINED)


class Scheduler:
    """Runs a plan's units to completion against a durable journal."""

    def __init__(self, plan: CampaignPlan, study_dir,
                 workers: int = 2, unit_timeout_s: float | None = None,
                 max_retries: int = 2, backoff_s: float = 0.5,
                 fsync: bool = True, tracer=None, metrics=None,
                 events: bool = True, progress=None,
                 heartbeat_s: float | None = None):
        self.plan = plan
        self.study_dir = Path(study_dir)
        self.workers = max(workers, 1)
        self.unit_timeout_s = unit_timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.fsync = fsync
        self.heartbeat_s = heartbeat_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress = progress
        self._own_tracer = None
        if tracer is None and events:
            tracer = self._own_tracer = Tracer(
                JSONLSink(self.study_dir / EVENTS_NAME))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._cancelled = False
        self._paused = False
        self._draining = False

    # -- construction from an existing study ------------------------------

    @classmethod
    def resume(cls, study_dir, **overrides) -> "Scheduler":
        """Rebuild a scheduler from a study directory's journal.

        The plan (spec + shard) comes from the journal header; runtime
        knobs (workers, timeouts, retries...) may be overridden.
        """
        study_dir = Path(study_dir)
        state = load_journal(study_dir / JOURNAL_NAME)
        spec = StudySpec.from_dict(state.spec_dict)
        plan = CampaignPlan.from_spec(spec)
        if state.shard is not None:
            plan = plan.shard(*state.shard)
        return cls(plan, study_dir, **overrides)

    def cancel(self) -> None:
        """Graceful shutdown: terminate leases, leave the journal durable."""
        self._cancelled = True

    def pause(self) -> None:
        """Stop granting new leases; keep polling the ones in flight.

        Thread-safe programmatic control for embedding callers (the
        service layer, tests): a paused scheduler holds its queue until
        :meth:`unpause`, :meth:`drain` or :meth:`cancel`.
        """
        self._paused = True

    def unpause(self) -> None:
        """Resume granting leases after :meth:`pause`."""
        self._paused = False

    def drain(self) -> None:
        """Finish the leases in flight, then return without new work.

        Unlike :meth:`cancel`, nothing is terminated: running units
        complete and journal normally, queued units stay pending (the
        run returns ``interrupted`` if any remain) and a later
        ``resume`` picks them up.
        """
        self._draining = True

    # -- the run loop ------------------------------------------------------

    def run(self, resume: bool = False) -> StudyResult:
        self.study_dir.mkdir(parents=True, exist_ok=True)
        journal_path = self.study_dir / JOURNAL_NAME
        prior = None
        if journal_path.exists() and journal_path.stat().st_size > 0:
            if not resume:
                raise FileExistsError(
                    f"{journal_path} already exists — resume the study "
                    f"(sched resume) or pick a fresh directory")
            prior = load_journal(journal_path)
            if prior.spec_hash != self.plan.spec.spec_hash:
                raise ValueError(
                    f"journal {journal_path} belongs to spec "
                    f"{prior.spec_hash}, not {self.plan.spec.spec_hash}")

        journal = Journal(journal_path, fsync=self.fsync)
        try:
            if prior is None:
                journal.write_header(self.plan.spec.to_dict(),
                                     self.plan.unit_ids(),
                                     shard=self.plan.shard_id)
            return self._loop(journal, prior)
        finally:
            journal.close()
            if self._own_tracer is not None:
                self._own_tracer.close()
                self._own_tracer = None

    def _loop(self, journal: Journal,
              prior: JournalState | None) -> StudyResult:
        t0 = time.monotonic()
        result = StudyResult(spec=self.plan.spec,
                             shard=self.plan.shard_id)
        attempts: dict[str, int] = {}
        queue: list[tuple[float, WorkUnit]] = []     # (eligible_at, unit)
        for unit in self.plan:
            uid = unit.unit_id
            state = prior.state_of(uid) if prior is not None else PENDING
            attempts[uid] = prior.attempts.get(uid, 0) if prior else 0
            if state == DONE:
                row = prior.results[uid]
                result.cells[uid] = CellOutcome(
                    uid, DONE, counts=row.get("counts"),
                    injections=row.get("injections", 0),
                    early_stops=row.get("early_stops", 0),
                    attempts=attempts[uid])
            elif state == QUARANTINED:
                result.cells[uid] = CellOutcome(
                    uid, QUARANTINED, attempts=attempts[uid],
                    error=prior.last[uid].get("detail"))
            else:
                # PENDING, stale LEASED, or FAILED mid-retry: (re)queue.
                queue.append((0.0, unit))
        queue.sort(key=lambda item: item[0])

        pool = LeasePool(self.workers)
        golden_blobs: dict[tuple, bytes] = {}
        self.tracer.emit("study_start", units=len(self.plan),
                         pending=len(queue), workers=self.workers,
                         shard=list(self.plan.shard_id)
                         if self.plan.shard_id else None,
                         spec_hash=self.plan.spec.spec_hash,
                         resumed=prior is not None)

        def queue_depth() -> None:
            self.metrics.gauge("sched.queue_depth").set(
                len(queue) + len(pool.running))

        # Liveness hook for the live-monitoring layer (repro.obs.live):
        # a periodic heartbeat event carrying the leases in flight and
        # their ages, so an external observer can tell "scheduler alive,
        # unit slow" from "scheduler gone" without process introspection.
        last_beat = time.monotonic()

        def heartbeat() -> None:
            nonlocal last_beat
            if self.heartbeat_s is None or not self.tracer.enabled:
                return
            now_mono = time.monotonic()
            if now_mono - last_beat < self.heartbeat_s:
                return
            last_beat = now_mono
            done_n = sum(1 for c in result.cells.values()
                         if c.state == DONE)
            self.tracer.emit(
                "heartbeat", workers=self.workers,
                running=[{"unit": lease.unit.unit_id,
                          "attempt": lease.attempt,
                          "age_s": lease.age_s(now_mono)}
                         for lease in pool.running],
                queued=len(queue), done=done_n, units=len(self.plan))

        def finish_failure(lease, reason: str, detail: str) -> None:
            uid = lease.unit.unit_id
            journal.record(uid, FAILED, attempt=lease.attempt,
                           reason=reason, detail=detail)
            self.tracer.emit("unit_failed", unit=uid,
                             attempt=lease.attempt, reason=reason)
            self.metrics.counter("sched.units_failed").inc()
            if reason == "timeout":
                self.metrics.counter("sched.timeouts").inc()
            if lease.attempt > self.max_retries:
                journal.record(uid, QUARANTINED, attempts=lease.attempt,
                               detail=detail)
                self.tracer.emit("unit_quarantined", unit=uid,
                                 attempts=lease.attempt)
                self.metrics.counter("sched.quarantined").inc()
                result.cells[uid] = CellOutcome(
                    uid, QUARANTINED, attempts=lease.attempt, error=detail)
                self._notify(uid, QUARANTINED, result)
            else:
                self.metrics.counter("sched.retries").inc()
                delay = self.backoff_s * (2 ** (lease.attempt - 1))
                queue.append((time.monotonic() + delay, lease.unit))
                self._notify(uid, FAILED, result)

        def finish_success(lease, res: dict) -> None:
            uid = lease.unit.unit_id
            journal.record(uid, DONE, attempt=lease.attempt,
                           counts=res["counts"],
                           injections=res["injections"],
                           early_stops=res["early_stops"],
                           pruned=res.get("pruned", 0),
                           resumed=res["resumed"], wall_s=res["wall_s"])
            blob = res.get("golden_blob")
            if blob is not None:
                golden_blobs[self._pair(lease.unit)] = blob
            if self.tracer.enabled:
                for ev in res["events"]:
                    self.tracer.sink.write(TraceEvent.from_dict(ev))
            self.metrics.merge(MetricsRegistry.from_dict(res["metrics"]))
            self.metrics.counter("sched.units_done").inc()
            self.metrics.histogram("time.unit_s").observe(res["wall_s"])
            self.tracer.emit("unit_done", unit=uid, attempt=lease.attempt,
                             injections=res["injections"],
                             pruned=res.get("pruned", 0),
                             resumed=res["resumed"], wall_s=res["wall_s"])
            result.cells[uid] = CellOutcome(
                uid, DONE, counts=res["counts"],
                injections=res["injections"],
                early_stops=res["early_stops"], attempts=lease.attempt)
            self._notify(uid, DONE, result)

        while queue or pool.running:
            if self._cancelled:
                pool.terminate_all()
                result.interrupted = True
                break
            if self._draining and not pool.running:
                result.interrupted = bool(queue)
                break

            # Launch leases while there are slots and eligible units.
            now = time.monotonic()
            while (pool.free_slots > 0 and
                   not (self._paused or self._draining)):
                idx = next((i for i, (at, _) in enumerate(queue)
                            if at <= now), None)
                if idx is None:
                    break
                _, unit = queue.pop(idx)
                uid = unit.unit_id
                attempts[uid] += 1
                attempt = attempts[uid]
                # Write-ahead: the lease is durable before work starts.
                journal.record(uid, LEASED, attempt=attempt)
                self.tracer.emit("unit_leased", unit=uid, attempt=attempt)
                pair = self._pair(unit)
                blob = golden_blobs.get(pair)
                pool.launch(unit, self.plan.spec, attempt=attempt,
                            logs_path=self._logs_path(unit),
                            masks_path=self._masks_path(unit),
                            golden_blob=blob, fsync=self.fsync,
                            want_blob=blob is None,
                            deadline_s=self.unit_timeout_s)
                queue_depth()

            # Results first, then deaths, then timeouts (pool order).
            for lease, kind, payload in pool.poll():
                if self._cancelled:
                    # Cancelled by an earlier result of this batch: the
                    # rest count as terminated leases, unjournaled, and
                    # a resume re-leases them.
                    result.interrupted = True
                    continue
                if kind == RESULT:
                    if payload.get("ok"):
                        finish_success(lease, payload)
                    else:
                        finish_failure(lease, "error",
                                       payload.get("error", "worker error"))
                else:
                    finish_failure(lease,
                                   "crashed" if kind == CRASHED
                                   else "timeout", payload)
                queue_depth()

            heartbeat()
            if queue or pool.running:
                time.sleep(0.01)

        result.wall_s = time.monotonic() - t0
        tally = {DONE: 0, QUARANTINED: 0}
        for cell in result.cells.values():
            tally[cell.state] = tally.get(cell.state, 0) + 1
        self.tracer.emit("study_end", done=tally.get(DONE, 0),
                         quarantined=tally.get(QUARANTINED, 0),
                         interrupted=result.interrupted,
                         wall_s=result.wall_s)
        return result

    # -- layout helpers ----------------------------------------------------

    @staticmethod
    def _pair(unit: WorkUnit) -> tuple:
        return (unit.setup, unit.benchmark)

    def _logs_path(self, unit: WorkUnit) -> Path:
        return self.study_dir / "logs" / f"{unit.file_id}.jsonl"

    def _masks_path(self, unit: WorkUnit) -> Path:
        return self.study_dir / "masks" / f"{unit.file_id}.jsonl"

    def _notify(self, uid: str, state: str, result: StudyResult) -> None:
        if self.progress is not None:
            self.progress(uid, state,
                          sum(1 for c in result.cells.values()
                              if c.state == DONE),
                          len(self.plan))


def run_study(spec: StudySpec, study_dir, shard=None,
              resume: bool = False, **kwargs) -> StudyResult:
    """One-call study: expand *spec*, (optionally) shard, run to done."""
    plan = CampaignPlan.from_spec(spec)
    if shard is not None:
        plan = plan.shard(*shard)
    if resume:
        sched = Scheduler.resume(study_dir, **kwargs)
        return sched.run(resume=True)
    return Scheduler(plan, study_dir, **kwargs).run()


# -- status / merge --------------------------------------------------------

def study_status(study_dir) -> dict:
    """Machine-readable status of a study directory's journal."""
    study_dir = Path(study_dir)
    state = load_journal(study_dir / JOURNAL_NAME)
    cells = []
    injections = 0
    for uid in state.unit_ids:
        st = state.state_of(uid)
        row = state.results.get(uid, {})
        if st == DONE:
            injections += row.get("injections", 0)
        cells.append({"unit": uid, "state": st,
                      "attempts": state.attempts.get(uid, 0),
                      "injections": row.get("injections", 0)})
    return {
        "study_dir": str(study_dir),
        "spec_hash": state.spec_hash,
        "shard": list(state.shard) if state.shard else None,
        "units": len(state.unit_ids),
        "tally": state.tally(),
        "injections_done": injections,
        "cells": cells,
    }


def merge_studies(study_dirs) -> dict:
    """Fold several shard journals of one study into one result.

    Verifies every journal shares the spec (by hash), unions the
    per-unit classifications (flagging conflicting duplicates), and
    reports coverage against the spec's full grid — so a missing shard
    shows up as ``complete: false`` with the units it owes.
    """
    states = []
    for d in study_dirs:
        states.append(load_journal(Path(d) / JOURNAL_NAME))
    if not states:
        raise ValueError("nothing to merge")
    spec_hash = states[0].spec_hash
    for st in states[1:]:
        if st.spec_hash != spec_hash:
            raise ValueError(
                f"spec mismatch: {st.spec_hash} vs {spec_hash} — these "
                f"journals belong to different studies")
    spec = StudySpec.from_dict(states[0].spec_dict)
    grid = CampaignPlan.from_spec(spec).unit_ids()

    units: dict[str, dict] = {}
    conflicts: list[str] = []
    quarantined: set = set()
    for st in states:
        for uid, row in st.results.items():
            counts = row.get("counts", {})
            if uid in units and units[uid]["counts"] != counts:
                conflicts.append(uid)
            units[uid] = {"counts": counts,
                          "injections": row.get("injections", 0)}
        for uid in st.unit_ids:
            if st.state_of(uid) == QUARANTINED:
                quarantined.add(uid)
    missing = [uid for uid in grid if uid not in units]
    totals: dict = {}
    for u in units.values():
        for cls, n in u["counts"].items():
            totals[cls] = totals.get(cls, 0) + n
    return {
        "sources": len(states),
        "spec_hash": spec_hash,
        "complete": not missing and not conflicts,
        "missing": missing,
        "conflicts": sorted(set(conflicts)),
        "quarantined": sorted(quarantined),
        "units": {uid: units[uid]["counts"] for uid in sorted(units)},
        "injections": sum(u["injections"] for u in units.values()),
        "totals": totals,
    }
