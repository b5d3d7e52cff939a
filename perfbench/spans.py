"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: :meth:`Recorder.wrap` replaces a
public function or method with a timing wrapper and :meth:`unwrap_all`
puts every original back.  A span is ``{id, name, start, end,
parent}``; its name is ``"<layer>:<function>"`` and the layer is the
program module it belongs to.

``OoOCore.step`` runs ~10k times per simulated second, so it is wrapped
*hot*: no span per call, only a ``[calls, seconds]`` total folded into
the enclosing span's ``hot`` map.  Self time is computed the same way
for both kinds (:func:`self_times`).

Forked children (pool workers, unit processes) inherit the wrappers.
:meth:`Recorder.wrap` with ``task=True`` marks a child's task function:
on entry in a new process the inherited spans are dropped, and on exit
the child's spans are appended to ``<spool>/spans-<pid>.jsonl`` for the
parent to merge, since nothing else would bring them home.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self, spool: Path | None = None):
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.enabled = False
        self._next_id = 0           # span ids stay unique across flushes
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _adopt(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            self._next_id = 0

    def open(self, name: str) -> dict:
        self._adopt()
        span = {"id": self._next_id, "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self.stack[-1]["id"] if self.stack else None}
        self._next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def flush(self) -> None:
        """Append this process's closed spans to the spool and drop them."""
        if self.spool is None or not self.spans:
            return
        path = self.spool / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                if span["end"] is not None:
                    fh.write(json.dumps(span) + "\n")
        self.spans = [s for s in self.spans if s["end"] is None]

    # -- wrapping ----------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, annotate=None,
             task: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        *annotate(span, result)* may attach numbers to the span.  A
        *task* is a child process's unit of work: its spans are flushed
        to the spool when it returns.
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
                if task:
                    rec.flush()
            if annotate is not None:
                annotate(span, result)
            return result

        self._install(owner, attr, wrapper)

    def wrap_hot(self, owner, attr: str, name: str) -> None:
        """Fold every call's time into the enclosing span's ``hot`` map."""
        fn = getattr(owner, attr)
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled or not rec.stack:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                hot = rec.stack[-1].setdefault("hot", {})
                tally = hot.get(name)
                if tally is None:
                    hot[name] = [1, clock() - t0]
                else:
                    tally[0] += 1
                    tally[1] += clock() - t0

        self._install(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def read_spool(spool: Path) -> list[list[dict]]:
    """Spans flushed by child processes, one list per process."""
    out = []
    for path in sorted(spool.glob("spans-*.jsonl")):
        with open(path) as fh:
            out.append([json.loads(line) for line in fh if line.strip()])
    return out


def layer_of(name: str) -> str:
    return name.partition(":")[0]


def self_times(spans: list[dict]) -> dict:
    """Self seconds per span name, over one process's spans.

    A span's self time is its duration minus the time its child spans
    and its hot calls cover.  Children of one span never overlap (one
    thread, one stack), so covered time is their summed duration.
    Hot entries are leaves: their self time is their total.
    """
    covered: dict = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    out: dict = defaultdict(float)
    for span in spans:
        hot = span.get("hot", {})
        hot_s = sum(t for _, t in hot.values())
        out[span["name"]] += (span["end"] - span["start"]
                              - covered[span["id"]] - hot_s)
        for name, (_, t) in hot.items():
            out[name] += t
    return dict(out)


def hot_totals(spans: list[dict]) -> dict:
    """``name -> [calls, seconds]`` over every span's hot map."""
    out: dict = {}
    for span in spans:
        for name, (n, t) in span.get("hot", {}).items():
            tally = out.setdefault(name, [0, 0.0])
            tally[0] += n
            tally[1] += t
    return out
