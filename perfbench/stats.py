"""Order statistics and record digests for the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (``tail_percentile``); the record
digests are sha256 over canonical JSON, so they do not depend on dict
key order, tuple-vs-list, or which execution path produced a record.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest-rank index of percentile *p* among *n* samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def beyond(n: int, p: float) -> int:
    """How many of *n* samples lie beyond the nearest-rank *p*-th."""
    return n - rank(n, p)


def tail_percentile(n: int, candidates=TAIL_PERCENTILES) -> float | None:
    """Highest candidate percentile with ``MIN_BEYOND`` samples beyond it.

    None when even the lowest candidate lacks them (the run was too
    short to report a tail).
    """
    ok = [p for p in candidates if beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), p) - 1]


def median(values) -> float:
    return statistics.median(values)


def canonical(obj) -> str:
    """Key-order-independent JSON text of *obj*."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def records_digest(records) -> str:
    """sha256 of a record stream: records (dicts) in ``set_id`` order."""
    rows = sorted(records, key=lambda r: r["set_id"])
    return sha256_text("\n".join(canonical(r) for r in rows))


def golden_pin(golden: dict) -> dict:
    """What the pins hold for one golden run: cycles + stats digest."""
    return {"cycles": golden["cycles"],
            "stats_sha256": sha256_text(canonical(golden["stats"]))}
