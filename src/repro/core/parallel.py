"""Parallel campaign execution.

The paper's 300 000-injection study ran on ten workstations (~100
threads) for a month; the unit of parallelism is the *injection run* —
runs share nothing but the golden reference and the masks repository.
This module fans a campaign's simulated fault sets over worker
processes.

Everything else is the serial controller's:
:func:`run_campaign_parallel` drives the same
:class:`~repro.core.campaign.InjectionCampaign` as ``run_campaign``
(golden run, masks, prune plan, resume, logs, audit, telemetry) and
swaps only its executor.  The pool turns the ordered list of masks to
simulate into ``(record, sample, events)`` rows: the parent serializes
its golden run — pristine state and checkpoint snapshots, plain
picklable containers — and ships it compressed to every worker through
the pool initializer, so workers adopt it instead of re-running it.
Each worker ships home its record, its per-run
:class:`~repro.obs.profile.InjectionSample` and its trace events
(``inject_start``/``checkpoint_restored``/``cold_start``/``early_stop``/
``inject_end``); the campaign folds the samples into its metrics and
replays the events into its own sink, so both the merged metrics and an
``obs summarize`` report match the serial campaign's.

On a single-core host this adds no speed but is exercised by the tests
for correctness (parallel == serial records).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import zlib
from dataclasses import dataclass
from functools import partial

from repro.core.campaign import CampaignResult, run_cell
from repro.core.checkpoint import CheckpointStore
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import TRANSIENT, FaultSet
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.guard import GuardPolicy, OFF as GUARD_OFF
from repro.obs.profile import InjectionSample
from repro.obs.trace import TraceEvent, Tracer
from repro.prune import PRUNE_OFF, AccessTrace
from repro.sim.config import setup_config

# Not called here; kept as a module attribute because perfbench/layers.py
# wraps it under this module's name.
from repro.prune import build_prune_plan

_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class _CellSpec:
    setup: str
    benchmark: str
    structure: str
    scaled: bool
    early_stop: bool
    scale: int
    n_checkpoints: int
    timeout_s: float | None = None
    guard: GuardPolicy = GUARD_OFF


class _ListSink:
    """Collects events as dicts so a worker can ship them home."""

    def __init__(self):
        self.rows: list[dict] = []

    def write(self, event: TraceEvent) -> None:
        self.rows.append(event.to_dict())

    def close(self) -> None:
        pass


def build_golden_payload(dispatcher: InjectorDispatcher,
                         include_trace: bool = False) -> bytes:
    """Serialize a dispatcher's golden run as one compressed blob.

    The blob carries the golden reference, the pristine (cycle-0)
    snapshot and every checkpoint — everything another process needs to
    serve injections without re-running the golden execution.  Consumed
    by :func:`adopt_golden_payload`; used by the pool initializer here
    and by ``repro.sched``'s per-unit workers.

    With *include_trace*, the pruner's access trace (when the golden
    run recorded one) rides along, so a scheduler unit that adopts the
    blob can prune without re-recording.  Pool workers here never need
    it — pruning happens in the parent, workers only simulate.
    """
    store = dispatcher.checkpoints
    payload = {
        "golden": dispatcher.golden.to_dict(),
        "pristine": dispatcher._pristine,
        "snapshots": store.snapshots,
        "interval": store.interval,
        "max_snaps": store.max_snaps,
    }
    trace = getattr(dispatcher, "access_trace", None)
    if include_trace and trace is not None:
        payload["trace"] = trace.to_dict()
    return zlib.compress(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 1)


def adopt_golden_payload(dispatcher: InjectorDispatcher,
                         blob: bytes) -> None:
    """Install a :func:`build_golden_payload` blob into *dispatcher*."""
    payload = pickle.loads(zlib.decompress(blob))
    dispatcher.adopt_golden(
        GoldenReference.from_dict(payload["golden"]),
        payload["pristine"],
        CheckpointStore.from_snapshots(payload["snapshots"],
                                       interval=payload["interval"],
                                       max_snaps=payload["max_snaps"]))
    if "trace" in payload:
        dispatcher.access_trace = AccessTrace.from_dict(payload["trace"])


# Backwards-compatible internal alias.
_build_payload = build_golden_payload


def _worker_init(spec: _CellSpec, blob: bytes) -> None:
    from repro.bench import suite
    config = setup_config(spec.setup, scaled=spec.scaled)
    program = suite.program(spec.benchmark, config.isa, spec.scale)
    sink = _ListSink()
    dispatcher = InjectorDispatcher(config, program,
                                    n_checkpoints=spec.n_checkpoints,
                                    tracer=Tracer(sink),
                                    timeout_s=spec.timeout_s,
                                    guard=spec.guard)
    adopt_golden_payload(dispatcher, blob)
    _WORKER_STATE["dispatcher"] = dispatcher
    _WORKER_STATE["sink"] = sink
    _WORKER_STATE["early_stop"] = spec.early_stop


def _worker_run(fault_set_dict: dict) -> dict:
    dispatcher = _WORKER_STATE["dispatcher"]
    sink = _WORKER_STATE["sink"]
    sink.rows.clear()
    fault_set = FaultSet.from_dict(fault_set_dict)
    try:
        record = dispatcher.inject(fault_set,
                                   early_stop=_WORKER_STATE["early_stop"])
        sample = dispatcher.last_sample
    except Exception as exc:
        # A worker must never take down (or hang) the pool: anything the
        # dispatcher did not already classify becomes a simulator-crash
        # record, so the run is counted instead of lost and the merge
        # stream stays in mask order.
        record = InjectionRecord(
            set_id=fault_set.set_id,
            masks=[m.to_dict() for m in fault_set.masks],
            reason="sim-crash",
            detail=f"worker: {type(exc).__name__}: {exc}")
        sample = InjectionSample(set_id=fault_set.set_id)
    return {"record": record.to_dict(),
            "sample": sample.to_dict(),
            "events": list(sink.rows)}


def _pool_rows(spec: _CellSpec, workers: int, campaign, sets):
    """The pool executor of :meth:`InjectionCampaign.run`.

    Ships *campaign*'s golden run to *workers* processes and yields one
    ``(record, sample, events)`` row per fault set, in mask order.
    """
    blob = _build_payload(campaign.dispatcher)
    ctx = mp.get_context("spawn" if mp.get_start_method(True) == "spawn"
                         else "fork")
    with ctx.Pool(processes=workers, initializer=_worker_init,
                  initargs=(spec, blob)) as pool:
        for row in pool.imap(_worker_run, [fs.to_dict() for fs in sets],
                             chunksize=max(len(sets) // (workers * 4), 1)):
            yield (InjectionRecord.from_dict(row["record"]),
                   InjectionSample.from_dict(row["sample"]), row["events"])


def run_campaign_parallel(setup: str, benchmark: str, structure: str,
                          injections: int | None = None, seed: int = 1,
                          workers: int = 2, fault_type: str = TRANSIENT,
                          early_stop: bool = True, scaled: bool = True,
                          scale: int = 1, n_checkpoints: int = 10,
                          logs_path=None, progress=None, tracer=None,
                          metrics=None, events_path=None,
                          timeout_s: float | None = None,
                          guard=None, prune: str = PRUNE_OFF,
                          trace_cache=None, audit: int = 0) -> CampaignResult:
    """Like :func:`repro.core.campaign.run_campaign`, with a process pool.

    The same campaign controller runs in the parent — golden run, masks
    (deterministic in *seed*), prune plan, logs and audit — and only the
    masks that need a real simulation travel to *workers* processes;
    their records merge back in mask order, so the result is
    record-for-record identical to the serial campaign.  Deterministic
    telemetry (injection counts, outcome and early-stop distributions,
    simulated/saved cycles) also matches; wall times are the parallel
    run's own.  *timeout_s* and *guard* are installed in every worker's
    dispatcher — each worker seals its own integrity digests over the
    shipped golden payload, so contamination defense covers this path
    too.  *progress* fires per record, in mask order.
    """
    spec = _CellSpec(setup, benchmark, structure, scaled, early_stop,
                     scale, n_checkpoints, timeout_s, GuardPolicy.of(guard))
    return run_cell(setup, benchmark, structure, injections=injections,
                    scaled=scaled, scale=scale, progress=progress,
                    tracer=tracer, events_path=events_path,
                    simulate=partial(_pool_rows, spec, workers), seed=seed,
                    fault_type=fault_type, early_stop=early_stop,
                    n_checkpoints=n_checkpoints, logs_path=logs_path,
                    metrics=metrics, timeout_s=timeout_s, guard=guard,
                    prune=prune, trace_cache=trace_cache, audit=audit)
