"""Correctness of a repetition: records against the pins.

``pins.json`` holds, per (setup, benchmark), the golden cycle count and
a digest of the golden stats; per cell, the sha256 of its canonical
record stream and its classification counts; and per workload and
mask seed, a digest over its cells.  Cell keys name what determines
the records (cell, mask count, seed, prune policy) and not the path
that ran them, so a study-sched unit and the study-fleet unit of the
same cell are held to the same pin.

A cell's masks all count as failed when the program failed, retried
or quarantined its unit, a record is missing, or any digest or count
disagrees.  A mask seed without pins can still be run: its golden runs
are checked and each repetition must reproduce the first one's records.
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import golden_pin, records_digest, sha256_text

PINS = Path(__file__).with_name("pins.json")


def load_pins(path: Path = PINS) -> dict:
    if not path.exists():
        return {"golden": {}, "cells": {}, "workloads": {}}
    return json.loads(path.read_text())


def cell_pin(cell) -> dict:
    return {"records_sha256": records_digest(cell.records),
            "counts": dict(sorted(cell.counts.items()))}


def workload_pin(cells) -> dict:
    lines = sorted(f"{c.key} {records_digest(c.records)}" for c in cells)
    totals: dict = {}
    for c in cells:
        for cls, n in c.counts.items():
            totals[cls] = totals.get(cls, 0) + n
    return {"records_sha256": sha256_text("\n".join(lines)),
            "counts": dict(sorted(totals.items()))}


def cell_problem(cell, pins: dict, seen: dict) -> str | None:
    """Why *cell* fails, or None.  *seen* remembers unpinned digests."""
    if cell.failed:
        return f"unit failed: {cell.failed}"
    if cell.attempts > 1:
        return f"unit retried ({cell.attempts} attempts)"
    if len(cell.records) != cell.expected:
        return f"{len(cell.records)} of {cell.expected} records"
    if sum(cell.counts.values()) != cell.expected:
        return f"counts {cell.counts} do not cover {cell.expected} masks"
    if cell.golden is None:
        return "no golden reference"
    want = pins["golden"].get(cell.pair)
    if want is None:
        return f"golden {cell.pair} is not pinned"
    if golden_pin(cell.golden) != want:
        return f"golden {cell.pair} differs from its pin"
    got = cell_pin(cell)
    want = pins["cells"].get(cell.key)
    if want is None:
        want = seen.setdefault(cell.key, got)
    if got != want:
        return "records or counts differ from the pin"
    return None


def check_rep(rep, pins: dict, workload: str, mask_seed: int,
              seen: dict) -> tuple[int, list[str]]:
    """(failed masks, problems) of one repetition."""
    failed = 0
    problems = []
    for cell in rep.cells:
        why = cell_problem(cell, pins, seen)
        if why is not None:
            failed += cell.expected
            problems.append(f"{cell.key}: {why}")
    want = pins["workloads"].get(workload, {}).get(str(mask_seed))
    if want is not None and workload_pin(rep.cells) != want:
        failed = sum(c.expected for c in rep.cells)
        problems.append(f"{workload}: workload digest differs from its pin")
    return failed, problems


def update_pins(pins: dict, rep, workload: str, mask_seed: int) -> None:
    """Record *rep* as the truth for its cells (pin maintenance only).

    A golden or cell already pinned by another workload must agree:
    two paths that disagree on the same cell is a defect, not a re-pin.
    To re-pin on purpose, delete the entries first.
    """
    for cell in rep.cells:
        for table, key, value in (("golden", cell.pair,
                                   golden_pin(cell.golden)),
                                  ("cells", cell.key, cell_pin(cell))):
            old = pins[table].setdefault(key, value)
            if old != value:
                raise ValueError(f"{workload} disagrees with the existing "
                                 f"pin of {key}")
    pins["workloads"].setdefault(workload, {})[str(mask_seed)] = \
        workload_pin(rep.cells)
