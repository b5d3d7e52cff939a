"""Tests of the benchmark's own code.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import check_rep, load_pins                  # noqa: E402
from env import scrubbed                                  # noqa: E402
from layers import table                                  # noqa: E402
from run import END_TO_END                                # noqa: E402
from spans import Recorder, self_times                    # noqa: E402
from stats import (beyond, percentile, records_digest,    # noqa: E402
                   tail_percentile)
from workloads import Context, study_sched                # noqa: E402


# -- the "highest percentile with ten samples beyond" rule ------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert beyond(100, 90) == 10
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_percentile_is_an_observed_sample():
    values = list(range(1, 101))           # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- span self time -----------------------------------------------------------

def span(id_, name, start, end, parent, hot=None):
    s = {"id": id_, "name": name, "start": start, "end": end,
         "parent": parent}
    if hot:
        s["hot"] = hot
    return s


def test_self_time_subtracts_children_and_hot_calls():
    spans = [span(0, "bench.harness:rep", 0.0, 10.0, None),
             span(1, "core.dispatcher:inject", 1.0, 4.0, 0,
                  hot={"sim:step": [3, 2.0]}),
             span(2, "core.campaign:run_campaign", 5.0, 6.0, 0),
             span(3, "core.maskgen:generate", 5.2, 5.5, 2),
             span(4, "core.dispatcher:inject", 7.0, 8.0, 0,
                  hot={"sim:step": [1, 0.5]})]
    got = self_times(spans)
    assert got["bench.harness:rep"] == pytest.approx(10 - 3 - 1 - 1)
    assert got["core.dispatcher:inject"] == pytest.approx(1.0 + 0.5)
    assert got["sim:step"] == pytest.approx(2.5)
    assert got["core.campaign:run_campaign"] == pytest.approx(0.7)
    assert got["core.maskgen:generate"] == pytest.approx(0.3)
    # Self times partition the root span's duration.
    assert sum(got.values()) == pytest.approx(10.0)


class Toy:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_recorder_wraps_and_restores():
    original = Toy.outer
    rec = Recorder()
    rec.wrap(Toy, "outer", "toy:outer")
    rec.wrap_hot(Toy, "inner", "toy:inner")
    assert Toy().outer() == 2 and rec.spans == []     # disabled: no spans
    rec.enabled = True
    assert Toy().outer() == 2
    (only,) = rec.spans
    assert only["name"] == "toy:outer" and only["hot"]["toy:inner"][0] == 2
    got = self_times(rec.spans)
    assert got["toy:outer"] + got["toy:inner"] == \
        pytest.approx(only["end"] - only["start"])
    rec.unwrap_all()
    assert Toy.outer is original


# -- digests ------------------------------------------------------------------

def test_record_digest_ignores_key_order_and_stream_order():
    a = {"set_id": 0, "masks": [{"entry": 3, "bit": 1}], "reason": "exit",
         "events": [("write", 1)]}
    b = {"set_id": 1, "reason": "killed", "masks": [], "events": []}
    shuffled = {"events": [["write", 1]], "reason": "exit",
                "masks": [{"bit": 1, "entry": 3}], "set_id": 0}
    assert records_digest([a, b]) == records_digest([b, shuffled])
    changed = dict(a, reason="panic")
    assert records_digest([a, b]) != records_digest([changed, b])


def test_environment_scrub():
    env = {"PATH": "/bin", "REPRO_INJECTIONS": "5",
           "REPRO_SCHED_CHAOS": "x=fail:1", "REPRO_SVC_CHAOS": "drop=1",
           "REPRO_GUARD_CHAOS": "1", "REPRO_BENCH_SEED": "3",
           "SVC_TOKEN": "t"}
    assert scrubbed(env) == {"PATH": "/bin"}


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == table()


# -- a failing unit is counted, not dropped -----------------------------------

def test_retried_unit_counts_in_failed(tmp_path, monkeypatch):
    unit = "MaFIN-x86/qsort/int_rf/transient"
    monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{unit}=fail:1")
    ctx = Context(workload="study-sched", seed=1, mask_seed=1,
                  workdir=tmp_path,
                  size={"workers": 1, "injections": 2,
                        "setups": ["MaFIN-x86"], "benchmarks": ["qsort"],
                        "structures": ["int_rf"]})
    rep = study_sched(ctx)
    (cell,) = rep.cells
    assert len(cell.records) == 2 and cell.attempts == 2
    failed, problems = check_rep(rep, load_pins(), "study-sched", 1, {})
    assert failed == 2
    assert "unit failed" in problems[0]
