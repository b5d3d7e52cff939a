"""Injection Campaign Controller — the second module of Fig. 1.

Reads fault masks from the masks repository, sends injection requests to
the per-simulator Injector Dispatcher, and stores the raw results in the
logs repository for the Parser.  ``run_campaign`` is the one-call user
entry point for a (setup, benchmark, structure) cell of the study.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass, field

from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import TRANSIENT
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.core.outcome import GoldenReference
from repro.core.parser import DEFAULT_POLICY, ParserPolicy, classify_all, \
    vulnerability
from repro.core.repository import LogsRepository, MasksRepository
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (CampaignTelemetry, record_classify,
                               record_golden, record_injection,
                               record_maskgen, record_pruned)
from repro.obs.trace import JSONLSink, NULL_TRACER, TraceEvent, Tracer
from repro.prune import (PRUNE_OFF, PRUNE_POLICIES, TraceCache, audit_plan,
                         build_prune_plan, synthetic_masked_record)
from repro.sim.config import SimConfig, setup_config


@dataclass
class CampaignResult:
    """Everything a campaign produced, ready for the Parser/reports.

    ``telemetry`` carries the campaign's observability summary
    (:class:`repro.obs.profile.CampaignTelemetry`); it is excluded from
    equality so instrumented and uninstrumented results compare equal.
    """

    setup: str
    benchmark: str
    structure: str
    golden: GoldenReference
    records: list = field(default_factory=list)
    early_stops: int = 0
    #: ``repro.prune`` plan statistics + audit verdict (None = prune off).
    #: Deterministic, so serial and parallel pruned campaigns compare
    #: equal — including the trace digest.
    prune: dict | None = None
    telemetry: CampaignTelemetry | None = field(default=None,
                                                compare=False, repr=False)
    _tracer: object = field(default=None, compare=False, repr=False)
    _metrics: object = field(default=None, compare=False, repr=False)

    def classify(self, policy: ParserPolicy = DEFAULT_POLICY) -> dict:
        t0 = time.perf_counter()
        counts = classify_all(self.records, self.golden, policy)
        wall_s = time.perf_counter() - t0
        if self._metrics is not None:
            record_classify(self._metrics, wall_s)
        if self.telemetry is not None:
            self.telemetry.classify_s += wall_s
        if self._tracer is not None:
            self._tracer.emit("classify", wall_s=wall_s, **counts)
        return counts

    def vulnerability(self) -> float:
        return vulnerability(self.classify())

    @property
    def injections(self) -> int:
        return len(self.records)


def golden_with_trace(dispatcher: InjectorDispatcher, benchmark: str,
                      prune: str, trace_cache=None, tracer=NULL_TRACER):
    """Golden run, recording or loading the pruner's access trace.

    Returns ``(golden, trace, source)`` where *source* is ``"recorded"``
    or ``"cache"`` (both None when *prune* is off), or ``"adopted"``
    when *dispatcher* already holds a golden run (a shipped golden blob)
    that carries the trace pruning needs.  A cached trace whose cycle
    count disagrees with the fresh golden run is stale — the simulator
    or workload changed — and is silently re-recorded, never trusted.
    """
    if dispatcher.golden is not None and (
            prune == PRUNE_OFF or dispatcher.access_trace is not None):
        return dispatcher.golden, dispatcher.access_trace, "adopted"
    if prune == PRUNE_OFF:
        return dispatcher.run_golden(), None, None
    label = dispatcher.config.label
    cached = (trace_cache.load(label, benchmark)
              if trace_cache is not None else None)
    dispatcher.record_trace = cached is None
    golden = dispatcher.run_golden()
    if cached is not None and cached.cycles != golden.cycles:
        cached = None
        dispatcher.record_trace = True
        golden = dispatcher.run_golden()
    if cached is not None:
        tracer.emit("trace_cache_hit", setup=label, benchmark=benchmark,
                    events=cached.n_events)
        return golden, cached, "cache"
    trace = dispatcher.access_trace
    trace.benchmark = benchmark
    if trace_cache is not None:
        trace_cache.store(trace)
    tracer.emit("trace_recorded", setup=label, benchmark=benchmark,
                events=trace.n_events)
    return golden, trace, "recorded"


class InjectionCampaign:
    """One campaign: a fault model × structure × benchmark × setup.

    The only per-cell controller.  :meth:`prepare` runs (or keeps an
    adopted) golden run, generates the masks and builds the prune plan;
    :meth:`run` walks the masks in ``set_id`` order, synthesizing
    pruned records and simulating the rest.  ``run_campaign``,
    ``run_campaign_parallel`` and the scheduler's ``run_unit`` all drive
    a cell through this class; they differ only in the *simulate*
    executor given to :meth:`run`.

    Logs (and masks) repositories that already hold records are resumed:
    records of this mask stream are kept and not re-run, while a record
    injected with any other mask is refused with ``ValueError``.
    """

    def __init__(self, config: SimConfig, program, benchmark_name: str,
                 structure: str, seed: int = 1,
                 fault_type: str = TRANSIENT,
                 early_stop: bool = True, n_checkpoints: int = 10,
                 masks_path=None, logs_path=None,
                 tracer=None, metrics=None, timeout_s: float | None = None,
                 guard=None, prune: str = PRUNE_OFF, trace_cache=None,
                 audit: int = 0):
        if prune not in PRUNE_POLICIES:
            raise ValueError(f"unknown prune policy {prune!r}; "
                             f"choose from {PRUNE_POLICIES}")
        self.config = config
        self.program = program
        self.benchmark_name = benchmark_name
        self.structure = structure
        self.seed = seed
        self.fault_type = fault_type
        self.early_stop = early_stop
        self.prune = prune
        self.audit = audit
        if trace_cache is not None and not isinstance(trace_cache,
                                                      TraceCache):
            trace_cache = TraceCache(trace_cache)
        self.trace_cache = trace_cache
        self._trace = None
        #: Where the golden run came from: ``"adopted"`` (installed
        #: before :meth:`prepare`), else the access trace's source —
        #: ``"recorded"``/``"cache"``, or None when prune is off.
        self.trace_source = None
        self._plan = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dispatcher = InjectorDispatcher(config, program,
                                             n_checkpoints=n_checkpoints,
                                             tracer=self.tracer,
                                             timeout_s=timeout_s,
                                             guard=guard)
        self.masks = MasksRepository(masks_path)
        self.logs = LogsRepository(logs_path)

    def prepare(self, injections: int | None = None,
                confidence: float = 0.99, error_margin: float = 0.03,
                duration_range: tuple[int, int] = (10, 1000)) -> int:
        """Golden run + mask generation + prune plan; returns the mask count.

        A golden run already installed in :attr:`dispatcher` (through
        ``adopt_golden``) is kept when it carries what the prune policy
        needs, so a shipped golden blob costs no re-execution.
        """
        golden, self._trace, self.trace_source = golden_with_trace(
            self.dispatcher, self.benchmark_name, self.prune,
            self.trace_cache, self.tracer)
        if self.trace_source != "adopted":
            record_golden(self.metrics, self.dispatcher.golden_sample)
        # The dispatcher's machine already exists; no throwaway simulator.
        sites = self.dispatcher.fault_sites()
        if self.structure not in sites:
            raise KeyError(
                f"{self.config.label} has no structure "
                f"{self.structure!r}; available: {sorted(sites)}")
        info = StructureInfo.of_site(sites[self.structure])
        gen = FaultMaskGenerator(self.seed)
        self.tracer.emit("maskgen_start", structure=self.structure,
                         seed=self.seed)
        t0 = time.perf_counter()
        sets = gen.generate(info, golden.cycles, count=injections,
                            fault_type=self.fault_type,
                            confidence=confidence,
                            error_margin=error_margin,
                            duration_range=duration_range)
        wall_s = time.perf_counter() - t0
        record_maskgen(self.metrics, wall_s, len(sets))
        self.tracer.emit("maskgen_end", structure=self.structure,
                         masks=len(sets), wall_s=wall_s)
        self._check_resume(sets)
        self.logs.set_golden(golden)
        self.masks.add_all(sets)
        if self.prune != PRUNE_OFF:
            self._plan = build_prune_plan(sets, self._trace, self.prune)
            stats = self._plan.stats()
            self.tracer.emit("prune_plan", structure=self.structure,
                             policy=self.prune, masks=stats["masks"],
                             masked=stats["masked"],
                             simulated=stats["simulated"])
        return len(sets)

    def _check_resume(self, sets) -> None:
        """Refuse repositories written for another mask stream.

        Set ids alone are just 0..N-1: the masks themselves must
        match the regenerated stream, or a resume would silently mix two
        campaigns (another seed, count, cell or fault model).
        """
        expected = {fs.set_id: [m.to_dict() for m in fs.masks]
                    for fs in sets}
        held = [(self.logs.path, rec.set_id, rec.masks)
                for rec in self.logs.records]
        held += [(self.masks.path, fs.set_id,
                  [m.to_dict() for m in fs.masks]) for fs in self.masks]
        for path, set_id, masks in held:
            if expected.get(set_id) != masks:
                raise ValueError(
                    f"{path} set {set_id} was injected with masks outside "
                    f"this campaign's mask stream — the repository "
                    f"belongs to another campaign")

    def _simulate(self, sets):
        """The in-process executor: one dispatcher run per fault set."""
        for fault_set in sets:
            record = self.dispatcher.inject(fault_set,
                                            early_stop=self.early_stop)
            yield record, self.dispatcher.last_sample, ()

    def run(self, progress=None, simulate=None) -> CampaignResult:
        """Dispatch every mask set; returns the aggregated result.

        Records the logs already hold are reused, not re-run.  The rest
        are synthesized from the prune plan or simulated by *simulate*:
        called as ``simulate(campaign, sets)`` with the fault sets that
        need a real run, in mask order, it yields one ``(record, sample,
        events)`` row per set in that order — *events* being trace-event
        dicts recorded elsewhere, replayed into this campaign's sink.
        The default simulates in this process.
        """
        if self.dispatcher.golden is None:
            raise RuntimeError("call prepare() before run()")
        t0 = time.perf_counter()
        sets = list(self.masks)
        done = {rec.set_id: rec for rec in self.logs.records}
        self.tracer.emit("campaign_start", setup=self.config.label,
                         benchmark=self.benchmark_name,
                         structure=self.structure, masks=len(sets),
                         resumed=len(done))
        result = CampaignResult(setup=self.config.label,
                                benchmark=self.benchmark_name,
                                structure=self.structure,
                                golden=self.dispatcher.golden,
                                _tracer=self.tracer,
                                _metrics=self.metrics)
        plan = self._plan
        golden = self.dispatcher.golden
        masked = plan.masked if plan is not None else {}
        to_run = [fs for fs in sets
                  if fs.set_id not in done and fs.set_id not in masked]
        simulate = simulate or InjectionCampaign._simulate
        with closing(simulate(self, to_run)) as rows:
            for i, fault_set in enumerate(sets):
                record = done.get(fault_set.set_id)
                if record is None:
                    rule = masked.get(fault_set.set_id)
                    if rule is None:
                        record, sample, events = next(rows)
                        record_injection(self.metrics, record, sample)
                        if self.tracer.enabled:
                            # Worker-side events, original stamps kept.
                            for ev in events:
                                self.tracer.sink.write(
                                    TraceEvent.from_dict(ev))
                    else:
                        record = synthetic_masked_record(fault_set, golden,
                                                         rule)
                        record_pruned(self.metrics, record)
                        self.tracer.emit("pruned", set_id=fault_set.set_id,
                                         rule=rule)
                    self.logs.add(record)
                result.records.append(record)
                if progress is not None:
                    progress(i + 1, len(sets), record)
        result.early_stops = sum(1 for r in result.records
                                 if r.early_stop is not None
                                 and r.pruned is None)
        if plan is not None:
            result.prune = plan.stats()
            result.prune["trace_source"] = self.trace_source
            if self.audit:
                verdict = audit_plan(
                    self.dispatcher,
                    {fs.set_id: fs for fs in sets},
                    {r.set_id: r for r in result.records}, plan, golden,
                    self.audit, self.seed, early_stop=self.early_stop)
                result.prune["audit"] = verdict
                self.tracer.emit("prune_audit",
                                 checked=verdict["checked"],
                                 divergences=len(verdict["divergences"]),
                                 digest_ok=verdict["pristine_digest_ok"])
        wall_s = time.perf_counter() - t0
        result.telemetry = CampaignTelemetry.from_metrics(self.metrics,
                                                          wall_s=wall_s)
        self.tracer.emit("campaign_end", setup=self.config.label,
                         benchmark=self.benchmark_name,
                         structure=self.structure,
                         injections=result.injections,
                         early_stops=result.early_stops, wall_s=wall_s)
        return result


def cell_campaign(setup: str, benchmark: str, structure: str,
                  scaled: bool = True, scale: int = 1,
                  **kwargs) -> InjectionCampaign:
    """An :class:`InjectionCampaign` for a (setup, benchmark, structure)
    cell named by paper labels; *kwargs* go to the constructor."""
    from repro.bench import suite
    config = setup_config(setup, scaled=scaled)
    program = suite.program(benchmark, config.isa, scale)
    return InjectionCampaign(config, program, benchmark, structure,
                             **kwargs)


def default_injections() -> int:
    """Per-cell injection count; overridable via ``REPRO_INJECTIONS``."""
    return int(os.environ.get("REPRO_INJECTIONS", "40"))


def run_campaign(setup: str, benchmark: str, structure: str,
                 injections: int | None = None, seed: int = 1,
                 fault_type: str = TRANSIENT, early_stop: bool = True,
                 scaled: bool = True, scale: int = 1,
                 logs_path=None, progress=None, tracer=None,
                 metrics=None, events_path=None,
                 timeout_s: float | None = None,
                 guard=None, prune: str = PRUNE_OFF, trace_cache=None,
                 audit: int = 0) -> CampaignResult:
    """One-call campaign for a (setup, benchmark, structure) cell.

    *setup* is a paper label: ``MaFIN-x86``, ``GeFIN-x86``, ``GeFIN-ARM``.
    *injections* defaults to ``REPRO_INJECTIONS`` (40) — the paper used
    2000 per cell; pass ``injections=2000`` (or set the env var) to match.

    *timeout_s* bounds each injection run's wall-clock time; runs that
    exceed it are recorded with reason ``"wall-clock"`` and classified
    as Timeouts (CLI: ``repro.tools campaign --timeout-s``).

    *guard* selects the hardening policy — ``"off"``/``"basic"``/
    ``"strict"`` or a :class:`repro.guard.GuardPolicy` — covering
    invariant checks on faulty runs, crash containment and restore
    integrity verification (CLI: ``repro.tools campaign --guard``); see
    docs/robustness.md.

    *prune* selects the campaign pruner (``repro.prune``):
    ``"analyze"`` pre-classifies provably-Masked masks from the golden
    access trace.  *trace_cache* (a directory or
    :class:`~repro.prune.TraceCache`) persists the access trace per
    (setup, benchmark).  *audit* > 0 really simulates that many pruned
    masks and reports classification divergences in
    ``result.prune["audit"]`` — see docs/performance.md.

    *logs_path* persists the golden reference and every record; a logs
    file already written for the same masks is resumed (nothing is
    re-run or appended twice), one written for other masks is refused
    with ``ValueError``.

    Observability: pass a :class:`repro.obs.Tracer` via *tracer*, or just
    *events_path* to capture the event stream as JSONL for
    ``repro.tools obs summarize``; the returned result carries a
    :class:`~repro.obs.profile.CampaignTelemetry` either way.
    """
    return run_cell(setup, benchmark, structure, injections=injections,
                    scaled=scaled, scale=scale, progress=progress,
                    tracer=tracer, events_path=events_path, seed=seed,
                    fault_type=fault_type, early_stop=early_stop,
                    logs_path=logs_path, metrics=metrics,
                    timeout_s=timeout_s, guard=guard, prune=prune,
                    trace_cache=trace_cache, audit=audit)


def run_cell(setup: str, benchmark: str, structure: str,
             injections: int | None = None, scaled: bool = True,
             scale: int = 1, progress=None, tracer=None, events_path=None,
             simulate=None, **kwargs) -> CampaignResult:
    """Prepare and run one cell's campaign with the *simulate* executor
    (see :meth:`InjectionCampaign.run`); *kwargs* go to the campaign.
    The body of ``run_campaign`` and ``run_campaign_parallel``."""
    own_tracer = None
    if tracer is None and events_path is not None:
        tracer = own_tracer = Tracer(JSONLSink(events_path))
    try:
        campaign = cell_campaign(setup, benchmark, structure, scaled=scaled,
                                 scale=scale, tracer=tracer, **kwargs)
        campaign.prepare(injections=injections if injections is not None
                         else default_injections())
        return campaign.run(progress=progress, simulate=simulate)
    finally:
        if own_tracer is not None:
            own_tracer.close()
