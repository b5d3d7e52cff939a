"""One cell, every entry point: the classification must not depend on
the code path.

``run_campaign``, ``run_campaign_parallel`` and the scheduler's
``run_unit`` drive the same campaign controller with different
executors; given the same mask seed they must write byte-identical
record streams and the same prune statistics.  Logs left by an earlier
run are resumed when they hold the same masks and refused otherwise,
whichever entry point meets them.
"""

import json
from functools import partial

import pytest

from repro.core.campaign import run_campaign
from repro.core.parallel import run_campaign_parallel
from repro.core.repository import LogsRepository
from repro.sched.plan import StudySpec, WorkUnit
from repro.sched.worker import run_unit


def canonical(records) -> list[str]:
    """Records in ``set_id`` order as sorted-key compact JSON."""
    return [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
            for r in sorted(records, key=lambda r: r.set_id)]


@pytest.mark.parametrize("setup,structure,prune,injections", [
    ("MaFIN-x86", "int_rf", "off", 4),
    ("GeFIN-x86", "l1d", "analyze", 6),
])
def test_every_entry_point_writes_the_same_records(tmp_path, setup,
                                                   structure, prune,
                                                   injections):
    unit = WorkUnit(setup, "sha", structure)
    spec = StudySpec(setups=(setup,), benchmarks=("sha",),
                     structures=(structure,), injections=injections,
                     seed=5, prune=prune)
    cell = dict(injections=injections, seed=unit.seed(spec.seed),
                prune=prune)
    serial = run_campaign(setup, "sha", structure, **cell)
    parallel = run_campaign_parallel(setup, "sha", structure, workers=2,
                                     **cell)
    unit_logs = tmp_path / "unit.jsonl"
    first = run_unit(unit, spec, unit_logs, want_blob=True)
    # A later unit of the pair adopts the first one's golden blob.
    adopted_logs = tmp_path / "adopted.jsonl"
    adopted = run_unit(unit, spec, adopted_logs,
                       golden_blob=first["golden_blob"])

    want = canonical(serial.records)
    assert len(want) == injections
    assert canonical(parallel.records) == want
    assert canonical(LogsRepository(unit_logs).records) == want
    assert canonical(LogsRepository(adopted_logs).records) == want
    assert parallel.prune == serial.prune == first["prune"]
    counts = serial.classify()
    assert first["counts"] == adopted["counts"] == counts
    if prune == "off":
        assert serial.prune is None
    else:
        assert serial.prune["masked"] > 0
        assert adopted["prune"]["trace_source"] == "adopted"
        assert {**adopted["prune"], "trace_source": "recorded"} == \
            serial.prune


@pytest.mark.parametrize("runner", [
    run_campaign, partial(run_campaign_parallel, workers=2)],
    ids=["serial", "parallel"])
def test_rerun_resumes_same_masks_and_refuses_others(tmp_path, runner):
    logs = tmp_path / "logs.jsonl"
    cell = ("GeFIN-x86", "sha", "int_rf")
    first = runner(*cell, injections=3, seed=1, logs_path=logs)
    written = logs.read_bytes()

    again = runner(*cell, injections=3, seed=1, logs_path=logs)
    assert again.records == first.records
    assert logs.read_bytes() == written          # nothing appended

    with pytest.raises(ValueError, match="mask stream"):
        runner(*cell, injections=3, seed=2, logs_path=logs)
    assert logs.read_bytes() == written
