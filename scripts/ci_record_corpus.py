"""Record corpus: frozen digests of what the simulator produces.

Every optimisation of the simulator core must leave the paper's
evidence byte-identical.  The parity tests compare two live code paths;
this corpus compares the live code against a frozen truth instead.
``tests/data/record_corpus.json`` holds, for the ``sha`` benchmark:

* per setup, the golden run's cycle count, a sha256 of its statistics
  and the sha256 of its pruner access trace (``AccessTrace.digest``);
* per (setup, structure, fault model) cell, the sha256 of its canonical
  ``InjectionRecord`` stream and its classification counts.

The matrix is 3 setups x 8 structures x 3 fault models, with a few
seeded masks per cell.  ``tests/test_record_corpus.py`` re-runs a small
slice of it on every test run; this script runs all of it.  Usage:

    PYTHONPATH=src python scripts/ci_record_corpus.py           # check
    PYTHONPATH=src python scripts/ci_record_corpus.py --write   # re-pin

Re-pin only when a change is *meant* to alter simulated behaviour, and
say why in the change that does it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import suite                               # noqa: E402
from repro.core.campaign import InjectionCampaign           # noqa: E402
from repro.core.dispatcher import InjectorDispatcher        # noqa: E402
from repro.core.parallel import (adopt_golden_payload,      # noqa: E402
                                 build_golden_payload)
from repro.sim.config import setup_config                   # noqa: E402

CORPUS = ROOT / "tests" / "data" / "record_corpus.json"

BENCHMARK = "sha"
SETUPS = ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")
STRUCTURES = ("int_rf", "l1d", "l1i", "l2", "lsq", "iq", "l1i_tag",
              "itlb")
FAULT_TYPES = ("transient", "intermittent", "permanent")
INJECTIONS = 4
SEED = 1

#: The cells the tier-1 test re-runs: each setup once, covering the
#: fetch path (l1i, l1i_tag, itlb) and the issue queue.
SLICE = (("MaFIN-x86", "l1i", "transient"),
         ("GeFIN-x86", "iq", "intermittent"),
         ("GeFIN-ARM", "l1i_tag", "permanent"),
         ("GeFIN-ARM", "itlb", "transient"))


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cell_key(setup: str, structure: str, fault_type: str) -> str:
    return f"{setup}/{structure}/{fault_type}"


class Golden:
    """One setup's golden run, pinned and shipped to its cells."""

    def __init__(self, setup: str):
        config = setup_config(setup)
        program = suite.program(BENCHMARK, config.isa)
        plain = InjectorDispatcher(config, program)
        golden = plain.run_golden()
        traced = InjectorDispatcher(config, program)
        traced.record_trace = True
        # Recording only observes: the traced golden run must agree.
        if traced.run_golden() != golden:
            raise AssertionError(f"{setup}: recording the access trace "
                                 f"changed the golden run")
        self.setup = setup
        self.config = config
        self.program = program
        self.payload = build_golden_payload(plain)
        self.pin = {"cycles": golden.cycles,
                    "stats_sha256": sha256_json(golden.stats),
                    "trace_sha256": traced.access_trace.digest}

    def cell(self, structure: str, fault_type: str) -> dict:
        campaign = InjectionCampaign(self.config, self.program, BENCHMARK,
                                     structure, seed=SEED,
                                     fault_type=fault_type)
        adopt_golden_payload(campaign.dispatcher, self.payload)
        campaign.prepare(injections=INJECTIONS)
        result = campaign.run()
        records = sorted((r.to_dict() for r in result.records),
                         key=lambda r: r["set_id"])
        return {"records_sha256": sha256_json(records),
                "counts": dict(sorted(result.classify().items()))}


def run_corpus(cells, setups=None) -> dict:
    """Corpus entries for *cells* ((setup, structure, fault) triples)
    and the golden pins of *setups* (default: the cells' setups)."""
    wanted = dict.fromkeys([*(setups or ()), *(c[0] for c in cells)])
    goldens = {setup: Golden(setup) for setup in wanted}
    out = {"golden": {s: g.pin for s, g in goldens.items()}, "cells": {}}
    for setup, structure, fault_type in cells:
        out["cells"][cell_key(setup, structure, fault_type)] = \
            goldens[setup].cell(structure, fault_type)
    return out


def full_matrix() -> list:
    return [(s, st, f) for s in SETUPS for st in STRUCTURES
            for f in FAULT_TYPES]


def load_corpus(path: Path = CORPUS) -> dict:
    return json.loads(path.read_text())


def differences(got: dict, want: dict) -> list[str]:
    """Entries of *got* that disagree with (or are missing from) *want*."""
    problems = []
    for table in ("golden", "cells"):
        for key, value in got[table].items():
            pinned = want[table].get(key)
            if pinned is None:
                problems.append(f"{table} {key}: not in the corpus")
            elif pinned != value:
                problems.append(f"{table} {key}: {value} != pinned {pinned}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="re-pin: write the corpus instead of checking it")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    got = run_corpus(full_matrix(), SETUPS)
    wall = time.perf_counter() - t0
    if args.write:
        corpus = {"benchmark": BENCHMARK, "injections": INJECTIONS,
                  "seed": SEED, **got}
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {len(got['cells'])} cells to {CORPUS} "
              f"in {wall:.0f}s")
        return 0
    problems = differences(got, load_corpus())
    for line in problems:
        print(line)
    print(f"{len(got['cells'])} cells, {len(got['golden'])} goldens, "
          f"{len(problems)} mismatches, {wall:.0f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
