"""Per-unit campaign execution inside a scheduler worker process.

:func:`run_unit` is one leased cell of a study executed end to end by
the campaign controller (:class:`~repro.core.campaign.InjectionCampaign`,
the same one ``run_campaign`` drives): golden run, the unit's
deterministic masks, a resume that skips every ``set_id`` its logs
repository already holds, injection of the rest, and classification.
What is unit-specific lives here: the chaos hook, the per-unit mask
seed, durable (fsync) repositories, and adopting the scheduler's cached
golden blob — one :func:`~repro.core.parallel.build_golden_payload`
blob per (setup, benchmark), shipped to every later unit of that pair,
so only the first unit of a pair pays for the golden execution.

:func:`unit_entry` is the ``multiprocessing.Process`` target: it sends
the result dict (records summary, trace events, metrics, optionally
the golden blob for the parent's cache) back over a pipe and never
raises — failures travel home as ``{"ok": False, ...}`` and become
journal ``failed`` transitions, retries, and eventually quarantine.

Chaos hook (tests/CI only): the ``REPRO_SCHED_CHAOS`` environment
variable — ``"<unit_id>=fail:N"`` or ``"<unit_id>=hang:N"`` entries
separated by ``;`` — makes a unit raise or hang while the lease's
attempt number is ≤ N, which is how the retry/backoff/timeout/
quarantine machinery is exercised deterministically.
"""

from __future__ import annotations

import os
import time

from repro.core.campaign import cell_campaign
from repro.core.parallel import (_ListSink, adopt_golden_payload,
                                 build_golden_payload)
from repro.core.repository import LogsRepository, MasksRepository
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.prune import PRUNE_OFF
from repro.sched.plan import StudySpec, WorkUnit

# Not called here; kept as module attributes because perfbench/layers.py
# wraps them under this module's name.
from repro.core.parser import classify_all
from repro.prune import build_prune_plan


class ChaosFailure(RuntimeError):
    """Deliberate failure injected through ``REPRO_SCHED_CHAOS``."""


def _chaos(unit_id: str, attempt: int) -> None:
    """Apply the test-only chaos directive for this unit, if any."""
    directives = os.environ.get("REPRO_SCHED_CHAOS", "")
    for entry in directives.split(";"):
        entry = entry.strip()
        if not entry or "=" not in entry:
            continue
        uid, _, action = entry.rpartition("=")
        if uid != unit_id:
            continue
        mode, _, bound = action.partition(":")
        try:
            bound_n = int(bound) if bound else 1
        except ValueError:
            continue
        if attempt > bound_n:
            return
        if mode == "fail":
            raise ChaosFailure(f"chaos fail (attempt {attempt})")
        if mode == "hang":
            time.sleep(3600)


def run_unit(unit: WorkUnit, spec: StudySpec, logs_path, masks_path=None,
             attempt: int = 1, golden_blob: bytes | None = None,
             fsync: bool = False, want_blob: bool = False) -> dict:
    """Execute one work unit; returns a plain result dict.

    Idempotent under interruption: masks are regenerated from the
    unit's deterministic seed, and any ``set_id`` already present in
    the logs repository is skipped, so a unit killed mid-campaign
    finishes exactly the injections it was missing.
    """
    t0 = time.perf_counter()
    _chaos(unit.unit_id, attempt)
    sink = _ListSink()
    metrics = MetricsRegistry()
    # The guard's SIGALRM watchdog arms here for real: run_unit executes
    # on the main thread of a dedicated spawned process, so a hang
    # inside one sim.step() raises WatchdogTimeout and records a
    # Timeout instead of burning the unit's whole lease.
    campaign = cell_campaign(unit.setup, unit.benchmark, unit.structure,
                             scaled=spec.scaled, scale=spec.scale,
                             seed=unit.seed(spec.seed),
                             fault_type=unit.fault_type,
                             early_stop=spec.early_stop,
                             n_checkpoints=spec.n_checkpoints,
                             tracer=Tracer(sink), metrics=metrics,
                             timeout_s=spec.timeout_s, guard=spec.guard,
                             prune=spec.prune)
    campaign.logs = LogsRepository(logs_path, fsync=fsync)
    campaign.masks = MasksRepository(masks_path, fsync=fsync)
    if golden_blob is not None:
        # A blob built without a trace cannot serve a pruned unit: the
        # campaign then re-runs the golden execution, recording one.
        adopt_golden_payload(campaign.dispatcher, golden_blob)
    campaign.prepare(injections=spec.injections,
                     confidence=spec.confidence,
                     error_margin=spec.error_margin)
    resumed = campaign.logs.set_ids
    result = campaign.run()
    records = result.records
    counts = result.classify()
    wall_s = time.perf_counter() - t0
    return {
        "ok": True,
        "unit": unit.unit_id,
        "counts": counts,
        "injections": len(records),
        "fresh": len(records) - len(resumed),
        "resumed": len(resumed),
        "early_stops": result.early_stops,
        "pruned": sum(1 for r in records
                      if r.pruned is not None and r.set_id not in resumed),
        "prune": result.prune,
        "wall_s": wall_s,
        "events": list(sink.rows),
        "metrics": metrics.to_dict(),
        # The blob carries the access trace when pruning, so later units
        # of the same (setup, benchmark) pair skip re-recording too.
        "golden_blob": (build_golden_payload(
                            campaign.dispatcher,
                            include_trace=spec.prune != PRUNE_OFF)
                        if want_blob and campaign.trace_source != "adopted"
                        else None),
    }


def unit_entry(conn, payload: dict) -> None:
    """Process target: run the unit, ship the result dict, never raise."""
    try:
        result = run_unit(
            unit=WorkUnit.from_dict(payload["unit"]),
            spec=StudySpec.from_dict(payload["spec"]),
            logs_path=payload["logs_path"],
            masks_path=payload.get("masks_path"),
            attempt=payload.get("attempt", 1),
            golden_blob=payload.get("golden_blob"),
            fsync=payload.get("fsync", False),
            want_blob=payload.get("want_blob", False),
        )
    except Exception as exc:
        import traceback
        result = {"ok": False,
                  "unit": payload["unit"].get("setup", "?"),
                  "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    try:
        conn.send(result)
    finally:
        conn.close()
