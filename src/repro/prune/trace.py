"""Golden access-trace recording — the data the pruner reasons from.

The campaign-level pruner (ROADMAP item 2; ZOFI's coverage pre-analysis
and ARMORY's fault-equivalence pruning are the models) rests on one
observation about deterministic simulators: a faulty run is
*bit-identical* to the golden run up to the first read of the corrupted
entry.  The golden run's per-entry access sequence therefore predicts,
without any simulation, everything that can happen to a flipped bit
before the machine first looks at it: the bit may be overwritten, the
line invalidated, or simply never touched again — all provably Masked.

:class:`TraceRecorder` piggybacks on the golden run and logs, for every
entry of the five paper structures (RF, L1D, L1I, L2, LSQ), the cycle-
stamped sequence of accesses observed at the storage-array boundary:

``r``
    a read (``WordArray.read`` / ``LineArray.read_bytes``).  Dirty
    evictions read the line before handing it to the next level, so a
    corrupted dirty writeback shows up as a read — never prunable.
``W``
    a covering write (``WordArray.write`` — whole entry rewritten).
``w lo hi``
    a partial write (``LineArray.write_bytes``) touching bytes
    ``[lo, hi)`` of the line; covers a bit only if its byte is in range
    (the same granularity as the §III.B watch machinery).
``F``
    a line fill (``LineArray.fill``) — a covering write that also makes
    the line live.
``i``
    a line invalidation — whatever the line held is discarded unread
    (mirror-mode evictions, flushes).

Recording works by shadowing the arrays' access methods with wrapping
closures *on the instances*, so the hot per-cycle path pays nothing when
no recorder is attached.  A shadowed array is marked ``traced``, which
clears its ``clean`` predicate and sends the simulator's direct-read
fast paths back through the wrapped methods.  The wrappers only
observe; the golden execution, its checkpoints and its statistics are
unchanged.

Event stamps use the simulator's post-increment cycle counter, matching
the dispatcher's drive loop: a mask at cycle *c* is applied after every
event stamped ``<= c`` and before any event stamped ``c+1``, so
``bisect_right(stamps, c)`` is the exact index of the first event the
flip can influence.
"""

from __future__ import annotations

import hashlib
import json

# The five structures of the paper's study (Table IV / Figs. 2-6), and
# the only ones the pruner reasons about.
PRUNE_STRUCTURES = ("int_rf", "l1d", "l1i", "l2", "lsq")

TRACE_VERSION = 1


class StructureTrace:
    """Per-entry access events of one storage array over the golden run."""

    __slots__ = ("name", "kind", "entries", "bits_per_entry",
                 "initial_filled", "events")

    def __init__(self, name: str, kind: str, entries: int,
                 bits_per_entry: int, initial_filled=(), events=None):
        self.name = name
        self.kind = kind                    # "word" | "line"
        self.entries = entries
        self.bits_per_entry = bits_per_entry
        #: Lines already filled when recording started (cycle 0 state);
        #: word arrays are always considered filled.
        self.initial_filled = frozenset(initial_filled)
        #: entry -> chronological [cycle, kind(, lo, hi)] event lists.
        self.events: dict[int, list] = events if events is not None else {}

    def events_for(self, entry: int) -> list:
        return self.events.get(entry, ())

    def filled_at(self, entry: int, cycle: int) -> bool:
        """Is the entry live storage just after cycle *cycle*?

        Word arrays always hold storage.  For line arrays the last
        fill/invalidate event stamped ``<= cycle`` decides, falling back
        to the filled-set captured when recording started.
        """
        if self.kind != "line":
            return True
        filled = entry in self.initial_filled
        for ev in self.events.get(entry, ()):
            if ev[0] > cycle:
                break
            if ev[1] == "F":
                filled = True
            elif ev[1] == "i":
                filled = False
        return filled

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "entries": self.entries,
            "bits_per_entry": self.bits_per_entry,
            "initial_filled": sorted(self.initial_filled),
            "events": {str(e): evs
                       for e, evs in sorted(self.events.items())},
        }

    @staticmethod
    def from_dict(d: dict) -> "StructureTrace":
        return StructureTrace(
            name=d["name"], kind=d["kind"], entries=d["entries"],
            bits_per_entry=d["bits_per_entry"],
            initial_filled=d.get("initial_filled", ()),
            events={int(e): [list(ev) for ev in evs]
                    for e, evs in d.get("events", {}).items()})


class AccessTrace:
    """The golden run's access trace for one (setup, benchmark) pair."""

    __slots__ = ("setup", "benchmark", "cycles", "structures")

    def __init__(self, setup: str, benchmark: str, cycles: int,
                 structures: dict):
        self.setup = setup
        self.benchmark = benchmark
        self.cycles = cycles
        self.structures: dict[str, StructureTrace] = structures

    def to_dict(self) -> dict:
        return {
            "version": TRACE_VERSION,
            "setup": self.setup,
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "structures": {name: st.to_dict()
                           for name, st in sorted(self.structures.items())},
        }

    @staticmethod
    def from_dict(d: dict) -> "AccessTrace":
        return AccessTrace(
            setup=d["setup"], benchmark=d["benchmark"], cycles=d["cycles"],
            structures={name: StructureTrace.from_dict(sd)
                        for name, sd in d.get("structures", {}).items()})

    def to_bytes(self) -> bytes:
        """Canonical serialization — byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "AccessTrace":
        return AccessTrace.from_dict(json.loads(blob.decode()))

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @property
    def n_events(self) -> int:
        return sum(len(evs) for st in self.structures.values()
                   for evs in st.events.values())


class TraceRecorder:
    """Shadows a machine's storage arrays to log golden accesses.

    Attach before the golden run's first ``step()``, detach after, then
    :meth:`finish` yields the :class:`AccessTrace`.  Consecutive
    identical events of one entry within one cycle are coalesced (a
    same-cycle repeat adds no injection-window boundary — masks land on
    cycle edges).
    """

    def __init__(self, sim, structures=PRUNE_STRUCTURES):
        self._sim = sim
        self._wrapped: list = []        # (array, attr, original) to undo
        self._traces: dict[str, StructureTrace] = {}
        sites = sim.fault_sites()
        for name in structures:
            site = sites.get(name)
            if site is None:
                continue
            arr = site.array
            if hasattr(arr, "lines"):
                st = StructureTrace(
                    name, "line", arr.entries, arr.bits_per_entry,
                    initial_filled=[i for i in range(arr.entries)
                                    if arr.lines[i] is not None])
                self._wrap_line(arr, st.events)
            else:
                st = StructureTrace(name, "word", arr.entries,
                                    arr.bits_per_entry)
                self._wrap_word(arr, st.events)
            self._traces[name] = st

    # -- instance-method shadowing ----------------------------------------

    def _note(self, events: dict, entry: int, ev: list) -> None:
        lst = events.get(entry)
        if lst is None:
            events[entry] = [ev]
        elif lst[-1] != ev:
            lst.append(ev)

    def _wrap_word(self, arr, events: dict) -> None:
        sim, note = self._sim, self._note
        orig_read, orig_write = arr.read, arr.write

        def read(entry, cycle=0):
            note(events, entry, [sim.cycle, "r"])
            return orig_read(entry, cycle)

        def write(entry, value):
            note(events, entry, [sim.cycle, "W"])
            return orig_write(entry, value)

        self._install(arr, read=read, write=write)

    def _wrap_line(self, arr, events: dict) -> None:
        sim, note = self._sim, self._note
        orig_read = arr.read_bytes
        orig_write = arr.write_bytes
        orig_fill = arr.fill
        orig_inval = arr.invalidate

        def read_bytes(line, offset, size, cycle=0):
            note(events, line, [sim.cycle, "r"])
            return orig_read(line, offset, size, cycle)

        def write_bytes(line, offset, data):
            note(events, line, [sim.cycle, "w", offset, offset + len(data)])
            return orig_write(line, offset, data)

        def fill(line, data):
            note(events, line, [sim.cycle, "F"])
            return orig_fill(line, data)

        def invalidate(line):
            note(events, line, [sim.cycle, "i"])
            return orig_inval(line)

        self._install(arr, read_bytes=read_bytes, write_bytes=write_bytes,
                      fill=fill, invalidate=invalidate)

    def _install(self, arr, **wrappers) -> None:
        # Marked so the simulator's fast paths, which read storage
        # directly, route this array's accesses through the wrappers.
        arr.set_traced(True)
        for attr, fn in wrappers.items():
            self._wrapped.append((arr, attr))
            setattr(arr, attr, fn)

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Remove the shadowing wrappers, restoring the class methods."""
        for arr, attr in self._wrapped:
            arr.set_traced(False)
            try:
                delattr(arr, attr)
            except AttributeError:
                pass
        self._wrapped.clear()

    def finish(self, setup: str, benchmark: str, cycles: int) -> AccessTrace:
        self.detach()
        return AccessTrace(setup=setup, benchmark=benchmark, cycles=cycles,
                           structures=self._traces)
