"""Throughput benchmark of the fault-injection system, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transient-serial --seed 1 \\
        --seconds 30 --trace 0

Runs the workload repeatedly for about ``--seconds`` seconds (at least
``MIN_REPS`` times), checks every record against ``pins.json``, prints
a report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics, self time per layer and
the tracing overhead.  ``--write-pins`` records one repetition as the
pins of its mask seed instead of measuring.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from env import make_hermetic, run_environment          # noqa: E402
from stats import median, percentile, tail_percentile   # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "injections_per_s": "1/s",
              "mask_p50_s": "s", "mask_p90_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 2
PAPER_INJECTIONS = 300_000
PAPER_PER_CELL = 2000


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and any waited child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(reps) -> tuple[dict, dict]:
    """End-to-end metrics over untraced repetitions, plus the figures
    printed beside them."""
    latencies = [t for rep in reps for c in rep.cells for t in c.latencies]
    tail = tail_percentile(len(latencies))
    metrics = {
        "setup_s": median(rep.setup_s for rep in reps),
        "injections_per_s": median(rep.masks / rep.wall_s for rep in reps),
        "mask_p50_s": percentile(latencies, 50),
        "mask_p90_s": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"mask_samples": len(latencies), "tail_percentile": tail,
             "reps": len(reps)}
    if tail is not None:
        extra[f"mask_p{tail:g}_s"] = percentile(latencies, tail)
    return metrics, extra


def golden_table(reps) -> dict:
    """Golden cycles per host second, per setup."""
    from layers import golden_runs
    table: dict = {}
    for rep in reps:
        for cell in rep.cells:
            for label, ev in golden_runs(cell.events):
                row = table.setdefault(label, [0, 0.0])
                row[0] += ev["cycles"]
                row[1] += ev["wall_s"]
    return {label: cycles / wall for label, (cycles, wall)
            in sorted(table.items())}


def projection_hours(reps, slots: int) -> float:
    """Host hours for the paper's 300k injections at 2000 per cell.

    Per cell: this run's mean set-up per cell plus 2000 times its mean
    per-mask cost (pruned masks included), spread over *slots*.
    """
    cells = [c for rep in reps for c in rep.cells]
    setup = sum(c.setup_s for c in cells) / len(cells)
    busy = sum(rep.wall_s * slots - rep.setup_s for rep in reps)
    per_mask = busy / sum(rep.masks for rep in reps)
    n_cells = PAPER_INJECTIONS / PAPER_PER_CELL
    return n_cells * (setup + PAPER_PER_CELL * per_mask) / slots / 3600


def plain_golden_cps(setups) -> dict:
    """Golden cycles/s per setup without access-trace recording, from one
    untraced qsort golden run each (the baseline of ``prune.trace_s``)."""
    from repro.bench import suite
    from repro.core.dispatcher import InjectorDispatcher
    from repro.sim.config import setup_config
    out = {}
    for setup in sorted(setups):
        config = setup_config(setup)
        dispatcher = InjectorDispatcher(
            config, suite.program("qsort", config.isa, 1), n_checkpoints=10)
        t0 = time.perf_counter()
        golden = dispatcher.run_golden()
        out[setup] = golden.cycles / (time.perf_counter() - t0)
    return out


def parse(argv):
    from workloads import MASK_SEEDS, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*sorted(WORKLOADS), "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=1,
                   help="orders the work within a run (default 1)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mask-seed", type=int, default=MASK_SEEDS[0],
                   help=f"seed of the fault masks; pinned: {MASK_SEEDS}")
    p.add_argument("--write-pins", action="store_true",
                   help="run once and record the result as the pins")
    return p.parse_args(argv)


def main(argv=None) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    scrubbed = make_hermetic(src)
    sys.path.insert(0, str(src))
    args = parse(argv)
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])

    from checks import check_rep, load_pins, update_pins, PINS
    from layers import install, per_layer, table as layer_table
    from repro.bench import suite
    from spans import Recorder, read_spool
    from workloads import SIZES, WORKLOADS, Context

    env = run_environment(root, src)
    env["scrubbed"] = scrubbed
    print("env " + json.dumps(env))
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    spool = workdir / "spool"
    spool.mkdir(parents=True)
    clear_caches = (suite.program.cache_clear, suite.assembly.cache_clear)
    recorder = None
    if args.trace:
        recorder = Recorder(spool)
        install(recorder)
    ctx = Context(workload=args.workload, seed=args.seed,
                  mask_seed=args.mask_seed, workdir=workdir,
                  size=SIZES[args.workload], recorder=recorder)
    pins = load_pins()
    seen: dict = {}
    reps, problems = [], []
    attempted = failed = 0
    try:
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            for clear in clear_caches:
                clear()             # every repetition builds its programs
            span = None
            if recorder is not None:
                recorder.enabled = traced
                span = recorder.open("bench.harness:rep") if traced \
                    else None
            rep = WORKLOADS[args.workload](ctx)
            if span is not None:
                recorder.close(span)
                recorder.enabled = False
            reps.append(rep)
            goldens = sum(1 for c in rep.cells for ev in c.events
                          if ev["name"] == "golden_end")
            print(f"rep {len(reps)}{' traced' if traced else ''}: "
                  f"wall {rep.wall_s:.3f} s  setup {rep.setup_s:.3f} s  "
                  f"masks {rep.masks}  golden runs {goldens}", flush=True)
            for c in rep.cells:
                print(f"  {c.key}: {len(c.records)} records  setup "
                      f"{c.setup_s:.3f} s  masks {sum(c.latencies):.3f} s")
            if args.write_pins:
                update_pins(pins, rep, args.workload, args.mask_seed)
                PINS.write_text(json.dumps(pins, indent=1, sort_keys=True)
                                + "\n")
                print(f"pinned {args.workload} mask seed {args.mask_seed}: "
                      f"{len(rep.cells)} cells")
                return 0
            bad, why = check_rep(rep, pins, args.workload, args.mask_seed,
                                 seen)
            attempted += sum(c.expected for c in rep.cells) + rep.requests
            failed += bad + rep.failed_requests
            problems += why
            elapsed = time.perf_counter() - t_start
            if len(reps) >= MIN_REPS and \
                    elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break

        for line in problems:
            print(f"FAILED {line}")
        plain = [r for r in reps if not r.traced]
        if args.trace:
            traced_reps = [r for r in reps if r.traced]
            pruning = {c.pair.split("/")[0] for r in traced_reps
                       for c in r.cells
                       if any(rec.get("pruned") for rec in c.records)}
            spans = [recorder.spans] + read_spool(spool)
            metrics = per_layer(traced_reps, spans,
                                plain_golden_cps(pruning),
                                SIZES[args.workload].get("workers", 1))
            metrics["trace.overhead_frac"] = (
                median(r.wall_s for r in traced_reps)
                / median(r.wall_s for r in plain) - 1)
            out_path = root / ".perfbench" / \
                f"spans-{args.workload}-seed{args.seed}.json"
            out_path.write_text(json.dumps(spans))
            print(f"spans written to {out_path}")
            units = {name: unit for name, unit, _ in layer_table()}
        else:
            metrics, extra = end_to_end(plain)
            print("samples " + json.dumps(extra))
            print("golden_cps " + json.dumps(golden_table(plain)))
            if args.workload in ("transient-serial", "study-sched"):
                slots = SIZES[args.workload].get("workers", 1)
                print(f"projection: {PAPER_INJECTIONS} injections at "
                      f"{PAPER_PER_CELL}/cell = "
                      f"{projection_hours(plain, slots):.1f} host-hours "
                      f"({slots} slot{'s' if slots > 1 else ''})")
            units = END_TO_END
        for name, value in metrics.items():
            print(f"{name:36s} {value:14.6g} {units[name]}")
        print(f"{'failed_frac':36s} {failed / attempted:14.6g} ratio "
              f"({failed} of {attempted} masks and requests)")
    finally:
        if recorder is not None:
            recorder.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(argv) -> int:
    """Each workload in its own process (its own peak RSS), then a
    summary table; fails if any workload did."""
    import subprocess
    from workloads import WORKLOADS
    i = argv.index("--workload")
    results = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, *argv[:i + 1], name, *argv[i + 2:]],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 \
            else {"correct": False, "exit": proc.returncode}
    print("== summary")
    for name, res in results.items():
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in res.get("metrics", {}).items())
        frac = res["failed"] / res["attempted"] if "failed" in res else 1.0
        print(f"{name:17s} correct={res['correct']}  failed_frac="
              f"{frac:.4g} ratio  {shown}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
