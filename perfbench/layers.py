"""Which program functions are wrapped, and the per-layer metrics.

A layer is a program module.  In-process layers are timed by the span
wrappers installed here; the rest comes from telemetry the program
already writes: the campaign event stream (``golden_end``,
``inject_start``/``inject_end``), study ``journal.jsonl`` rows and the
service's ``GET /status``.  Every metric is reported on every workload;
a layer the workload does not reach reads 0.
"""

from __future__ import annotations

import statistics

from spans import hot_totals, layer_of, self_times
from workloads import inject_pairs

#: Layers whose self time is reported, as ``self_s.<layer>``.
LAYERS = ("bench.harness", "bench.client", "bench", "sim",
          "core.dispatcher", "core.campaign", "core.parallel",
          "core.maskgen", "core.parser", "prune", "sched.scheduler",
          "sched.journal", "sched.worker", "svc.service", "svc.attest",
          "svc.remote")


SETUPS = ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")
CLASSES = ("Masked", "SDC", "DUE", "Timeout", "Crash", "Assert")


def table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [("bench.program_s", "s", "lower")]
    rows += [(f"sim.golden_cps.{s}", "cycles/s", "higher") for s in SETUPS]
    rows += [("sim.cycles", "count", "lower"), ("sim.step_s", "s", "lower"),
             ("sim.cps", "cycles/s", "higher"),
             ("checkpoint.snapshot_s", "s", "lower"),
             ("checkpoint.restore_s", "s", "lower"),
             ("checkpoint.bytes", "bytes", "lower"),
             ("dispatch.injections", "count", "lower"),
             ("dispatch.inject_s", "s", "lower"),
             ("dispatch.replay_frac", "ratio", "lower"),
             ("dispatch.early_stop_frac", "ratio", "higher")]
    rows += [(f"dispatch.cycles.{c}", "count", "lower") for c in CLASSES]
    rows += [(f"dispatch.wall_s.{c}", "s", "lower") for c in CLASSES]
    rows += [("maskgen.s", "s", "lower"), ("parser.classify_s", "s", "lower"),
             ("parallel.payload_bytes", "bytes", "lower"),
             ("parallel.ship_s", "s", "lower"),
             ("parallel.busy_frac", "ratio", "higher"),
             ("prune.trace_s", "s", "lower"), ("prune.plan_s", "s", "lower"),
             ("prune.pruned_frac", "ratio", "higher"),
             ("sched.unit_p50_s", "s", "lower"),
             ("sched.golden_reuse_frac", "ratio", "higher"),
             ("sched.overhead_per_unit_s", "s", "lower"),
             ("sched.lease_gap_s", "s", "lower"),
             ("sched.retries", "count", "lower"),
             ("svc.ready_s", "s", "lower"), ("svc.http_p50_s", "s", "lower"),
             ("svc.golden_cache_hit_frac", "ratio", "higher"),
             ("svc.overhead_per_unit_s", "s", "lower"),
             ("svc.remote_units", "count", "higher"),
             ("svc.attest_rejected", "count", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    rows += [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    return rows


def _nbytes(span: dict, blob) -> None:
    span["bytes"] = len(blob)


def install(rec) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro.bench import suite
    from repro.core import campaign, dispatcher, maskgen, parallel
    from repro.sched import journal, pool, scheduler, worker
    from repro.sim.base import OoOCore
    from repro.svc import attest, remote, service

    rec.wrap(suite, "program", "bench:program")
    rec.wrap(campaign, "run_campaign", "core.campaign:run_campaign")
    rec.wrap(parallel, "run_campaign_parallel",
             "core.parallel:run_campaign_parallel")
    # The same function under each module name its callers use.
    for module in (campaign, worker):
        rec.wrap(module, "classify_all", "core.parser:classify_all")
    for module in (campaign, parallel, worker):
        rec.wrap(module, "build_prune_plan", "prune:build_prune_plan")
    rec.wrap(parallel, "_build_payload",
             "core.parallel:build_golden_payload", annotate=_nbytes)
    rec.wrap(worker, "build_golden_payload",
             "core.parallel:build_golden_payload", annotate=_nbytes)
    rec.wrap(parallel, "_worker_init", "core.parallel:worker_init",
             task=True)
    rec.wrap(parallel, "_worker_run", "core.parallel:worker_run", task=True)
    rec.wrap(pool, "unit_entry", "sched.worker:unit_entry", task=True)
    rec.wrap(dispatcher.InjectorDispatcher, "run_golden",
             "core.dispatcher:run_golden")
    rec.wrap(dispatcher.InjectorDispatcher, "inject",
             "core.dispatcher:inject")
    rec.wrap(maskgen.FaultMaskGenerator, "generate",
             "core.maskgen:generate")
    rec.wrap_hot(OoOCore, "step", "sim:step")
    rec.wrap(scheduler.Scheduler, "run", "sched.scheduler:run")
    rec.wrap(journal.Journal, "record", "sched.journal:record")
    for name in ("submit", "tick", "lease_remote", "complete_remote"):
        rec.wrap(service.CampaignService, name, f"svc.service:{name}")
    rec.wrap(attest, "validate_complete", "svc.attest:validate_complete")
    rec.wrap(remote.WorkerAgent, "step", "svc.remote:step")


# -- telemetry helpers --------------------------------------------------------

def golden_runs(events) -> list[tuple[str, dict]]:
    """(setup label, golden_end event) per golden run in a stream."""
    out = []
    label = None
    for ev in events:
        if ev["name"] == "golden_start":
            label = ev.get("label")
        elif ev["name"] == "golden_end":
            out.append((label, ev))
    return out


def _lease_gaps(journal) -> list[float]:
    """Slot idle time: each ``done`` to the next ``leased`` after it."""
    rows = sorted((r for r in journal if r.get("kind") == "unit"
                   and r.get("state") in ("leased", "done")),
                  key=lambda r: r["ts"])
    gaps = []
    waiting = []
    for row in rows:
        if row["state"] == "done":
            waiting.append(row["ts"])
        elif waiting:
            gaps.append(row["ts"] - waiting.pop(0))
    return gaps


def per_layer(reps, spans_by_process, plain_cps: dict,
              workers: int) -> dict:
    """Per-layer metrics over the traced repetitions.

    Times and counts are per repetition; ratios pool every repetition.
    *plain_cps* maps a setup to its golden cycles/s without access-trace
    recording; a recorded golden run's excess over that is trace cost.
    """
    from repro.core.outcome import GoldenReference, InjectionRecord
    from repro.core.parser import classify

    n_reps = len(reps)
    studies = [rep for rep in reps if "journal" in rep.info]
    m: dict = {}
    selfs: dict = {}
    steps, step_s = 0, 0.0
    spans = [s for proc in spans_by_process for s in proc]
    for proc in spans_by_process:
        for name, secs in self_times(proc).items():
            selfs[name] = selfs.get(name, 0.0) + secs
        calls, secs = hot_totals(proc).get("sim:step", (0, 0.0))
        steps += calls
        step_s += secs

    def span_s(name):
        return selfs.get(name, 0.0) / n_reps

    m["bench.program_s"] = span_s("bench:program")

    golden = [g for rep in reps for c in rep.cells
              for g in golden_runs(c.events)]
    for setup in SETUPS:
        runs = [ev for label, ev in golden if label == setup]
        wall = sum(ev["wall_s"] for ev in runs)
        m[f"sim.golden_cps.{setup}"] = \
            sum(ev["cycles"] for ev in runs) / wall if wall else 0.0
    ends = [(c, s, e) for rep in reps for c in rep.cells
            for s, e in inject_pairs(c.events)]
    inj_cycles = sum(e["sim_cycles"] for _, _, e in ends)
    m["sim.cycles"] = (sum(ev["cycles"] for _, ev in golden)
                       + inj_cycles) / n_reps
    m["sim.step_s"] = step_s / n_reps
    m["sim.cps"] = steps / step_s if step_s else 0.0

    m["checkpoint.snapshot_s"] = sum(ev["snapshot_s"]
                                     for _, ev in golden) / n_reps
    m["checkpoint.restore_s"] = sum(e["restore_s"]
                                    for _, _, e in ends) / n_reps
    m["checkpoint.bytes"] = max((ev["checkpoint_bytes"]
                                 for _, ev in golden), default=0)

    m["dispatch.injections"] = len(ends) / n_reps
    m["dispatch.inject_s"] = sum(e["wall_s"] for _, _, e in ends) / n_reps
    replay = sum(max(0, min(s["first_cycle"], e["cycles"])
                     - e["saved_cycles"]) for _, s, e in ends)
    m["dispatch.replay_frac"] = replay / inj_cycles if inj_cycles else 0.0
    stopped = sum(1 for _, _, e in ends if e.get("early_stop"))
    m["dispatch.early_stop_frac"] = stopped / len(ends) if ends else 0.0
    by_class = {cls: [0, 0.0] for cls in CLASSES}
    for rep in reps:
        for c in rep.cells:
            if c.golden is None:
                continue
            ref = GoldenReference.from_dict(c.golden)
            records = {r["set_id"]: r for r in c.records}
            for _, end in inject_pairs(c.events):
                if end["set_id"] in records:
                    cls = classify(InjectionRecord.from_dict(
                        records[end["set_id"]]), ref)
                    by_class[cls][0] += end["sim_cycles"]
                    by_class[cls][1] += end["wall_s"]
    for cls, (cycles, wall) in by_class.items():
        m[f"dispatch.cycles.{cls}"] = cycles / n_reps
        m[f"dispatch.wall_s.{cls}"] = wall / n_reps

    m["maskgen.s"] = span_s("core.maskgen:generate")
    m["parser.classify_s"] = span_s("core.parser:classify_all")

    payload = [s for s in spans
               if s["name"] == "core.parallel:build_golden_payload"]
    m["parallel.payload_bytes"] = sum(s.get("bytes", 0)
                                      for s in payload) / n_reps
    m["parallel.ship_s"] = span_s("core.parallel:build_golden_payload")
    busy = pool_wall = 0.0
    for rep in reps:
        if "journal" in rep.info:
            continue               # study units, not a campaign pool
        for c in rep.cells:
            pairs = inject_pairs(c.events)
            if pairs and workers > 1:
                busy += sum(e["wall_s"] for _, e in pairs)
                pool_wall += (max(e["ts"] for _, e in pairs)
                              - min(s["ts"] for s, _ in pairs))
    m["parallel.busy_frac"] = busy / (workers * pool_wall) \
        if pool_wall else 0.0

    trace_s = sum(ev["wall_s"] - ev["cycles"] / plain_cps[label]
                  for label, ev in golden if label in plain_cps)
    m["prune.trace_s"] = trace_s / n_reps
    m["prune.plan_s"] = span_s("prune:build_prune_plan")
    all_records = [r for rep in reps for c in rep.cells for r in c.records]
    pruned = sum(1 for r in all_records if r.get("pruned"))
    m["prune.pruned_frac"] = pruned / len(all_records) \
        if all_records else 0.0

    journal = [row for rep in reps for row in rep.info.get("journal", [])]
    done = [r for r in journal if r.get("state") == "done"]
    m["sched.unit_p50_s"] = statistics.median(
        r["wall_s"] for r in done) if done else 0.0
    pairs_run = sum(len({c.pair for c in rep.cells}) for rep in studies)
    golden_n = sum(len(golden_runs(c.events)) for rep in studies
                   for c in rep.cells)
    m["sched.golden_reuse_frac"] = pairs_run / golden_n if golden_n else 0.0
    overhead = [(rep.info["slots"] * rep.wall_s
                 - sum(r["wall_s"] for r in rep.info["journal"]
                       if r.get("state") == "done")) / len(rep.cells)
                for rep in studies]
    m["sched.overhead_per_unit_s"] = statistics.mean(overhead) \
        if overhead else 0.0
    gaps = [g for rep in studies for g in _lease_gaps(rep.info["journal"])]
    m["sched.lease_gap_s"] = statistics.mean(gaps) if gaps else 0.0
    m["sched.retries"] = sum(1 for r in journal
                             if r.get("state") == "failed") / n_reps

    fleet = [rep for rep in reps if "ready_s" in rep.info]
    m["svc.ready_s"] = statistics.mean(
        rep.info["ready_s"] for rep in fleet) if fleet else 0.0
    http = [t for rep in fleet for t in rep.http_s]
    m["svc.http_p50_s"] = statistics.median(http) if http else 0.0
    hits = sum(rep.info["status"]["golden_cache"]["hits"] for rep in fleet)
    misses = sum(rep.info["status"]["golden_cache"]["misses"]
                 for rep in fleet)
    m["svc.golden_cache_hit_frac"] = hits / (hits + misses) \
        if hits + misses else 0.0
    m["svc.overhead_per_unit_s"] = m["sched.overhead_per_unit_s"] \
        if fleet else 0.0
    m["svc.remote_units"] = sum(1 for rep in fleet
                                for r in rep.info["journal"]
                                if r.get("state") == "done"
                                and r.get("worker")) / n_reps
    m["svc.attest_rejected"] = sum(
        (rep.info["status"].get("attest") or {}).get("rejected", 0)
        for rep in fleet) / n_reps

    by_layer: dict = {}
    for name, secs in selfs.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + secs
    for layer in LAYERS:
        m[f"self_s.{layer}"] = by_layer.get(layer, 0.0) / n_reps
    return m
