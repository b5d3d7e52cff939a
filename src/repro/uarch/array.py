"""Injectable storage arrays — the foundation of the fault injectors.

The paper's central premise (§III.C) is that performance simulators model
array-based hardware structures (register files, cache data/tag arrays,
queues, buffers, TLBs, BTBs) faithfully enough that flipping a modeled
storage bit is "largely equivalent to injecting it on the actual
hardware".  Every such structure in both simulators stores its state in a
:class:`WordArray` or :class:`LineArray` so that the injectors address
any bit of any entry uniformly, for all three fault models:

* **transient** — one-shot XOR of a stored bit at a given cycle;
* **intermittent** — a bit reads as stuck at 0/1 during a cycle window;
* **permanent** — a bit reads as stuck at 0/1 forever.

The arrays also implement the campaign controller's two early-stop
optimizations (§III.B): they report whether an entry is *live* at
injection time (via an owner-provided liveness callback) and they watch
the injected entry to detect "overwritten before ever read".

Every array supports the structured snapshot protocol used by the
checkpoint engine: ``snapshot()`` returns a cheap flat blob of the
mutable state (data words/lines, stuck-bit list, watch state, fault
epoch) and ``restore(state)`` loads such a blob back *in place*, so the
owning structure keeps its identity — liveness closures and fault sites
that captured the array stay valid across restores.
"""

from __future__ import annotations


class StuckBit:
    """One stuck-at fault on (entry, bit) active during [start, end)."""

    __slots__ = ("entry", "bit", "value", "start", "end")

    def __init__(self, entry: int, bit: int, value: int,
                 start: int = 0, end: float = float("inf")):
        self.entry = entry
        self.bit = bit
        self.value = value
        self.start = start
        self.end = end

    def active(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


class _WatchState:
    """Tracks the first read/write of a watched entry (early-stop rule)."""

    __slots__ = ("entry", "bit", "first_event")

    def __init__(self, entry: int, bit: int):
        self.entry = entry
        self.bit = bit
        self.first_event: str | None = None  # "read" | "overwritten"


class StorageArray:
    """Common fault/watch machinery; subclasses define the storage."""

    def __init__(self, name: str, entries: int, bits_per_entry: int):
        self.name = name
        self.entries = entries
        self.bits_per_entry = bits_per_entry
        self.stuck: list[StuckBit] = []
        self.watch: _WatchState | None = None
        # Bumped whenever a fault alters stored state so owners can
        # invalidate any decoded-entry caches they keep for speed.
        self.fault_epoch = 0
        # Set while a golden-run access recorder shadows this array's
        # access methods (``repro.prune.trace.TraceRecorder``).
        self.traced = False
        #: May owners bypass the access methods and read storage
        #: directly?  True while no stuck bit, no watch and no access
        #: recorder is attached: then a read has no side effect and
        #: returns the stored value, so the per-cycle fast paths (cache
        #: tag lookup, TLB and issue-queue decoded caches, the L1I
        #: decode memo) are exact.  Every faulted, watched or traced
        #: array takes the general path.  A plain attribute, read
        #: several times per cycle, that :meth:`_update_clean` keeps in
        #: step: change ``stuck``, ``watch`` and ``traced`` only
        #: through the fault API, :meth:`set_traced` and restore.
        self.clean = True

    def _update_clean(self) -> None:
        self.clean = not self.stuck and self.watch is None and \
            not self.traced

    def set_traced(self, traced: bool) -> None:
        """Mark (or unmark) the array as shadowed by an access recorder."""
        self.traced = traced
        self._update_clean()

    @property
    def total_bits(self) -> int:
        return self.entries * self.bits_per_entry

    def locate(self, flat_bit: int) -> tuple[int, int]:
        """Map a flat bit offset to (entry, bit)."""
        if not 0 <= flat_bit < self.total_bits:
            raise IndexError(f"{self.name}: bit {flat_bit} out of range")
        return divmod(flat_bit, self.bits_per_entry)[0], \
            flat_bit % self.bits_per_entry

    # -- fault API -------------------------------------------------------------

    def flip(self, entry: int, bit: int) -> None:
        """Transient fault: XOR the stored bit right now."""
        self._check(entry, bit)
        self._flip_storage(entry, bit)
        self.fault_epoch += 1

    def set_stuck(self, entry: int, bit: int, value: int,
                  start: int = 0, end: float = float("inf")) -> None:
        """Intermittent (bounded window) or permanent (unbounded) fault."""
        self._check(entry, bit)
        self.stuck.append(StuckBit(entry, bit, value, start, end))
        self.fault_epoch += 1
        self.clean = False

    def clear_faults(self) -> None:
        self.stuck.clear()
        self.watch = None
        self.fault_epoch += 1
        self._update_clean()

    def watch_entry(self, entry: int, bit: int) -> None:
        """Arm the overwritten-before-read detector on (entry, bit)."""
        self.watch = _WatchState(entry, bit)
        self.clean = False

    def watch_event(self) -> str | None:
        """First event seen on the watched entry, if any."""
        return self.watch.first_event if self.watch else None

    def _check(self, entry: int, bit: int) -> None:
        if not 0 <= entry < self.entries:
            raise IndexError(f"{self.name}: entry {entry} out of range")
        if not 0 <= bit < self.bits_per_entry:
            raise IndexError(f"{self.name}: bit {bit} out of range")

    # -- hooks used by subclasses -----------------------------------------------

    def _note_read(self, entry: int) -> None:
        w = self.watch
        if w is not None and w.entry == entry and w.first_event is None:
            w.first_event = "read"

    def _note_write(self, entry: int, covers_bit: bool) -> None:
        w = self.watch
        if w is not None and w.entry == entry and w.first_event is None \
                and covers_bit:
            w.first_event = "overwritten"

    def _flip_storage(self, entry: int, bit: int) -> None:
        raise NotImplementedError

    # -- snapshot protocol ------------------------------------------------------

    def _snapshot_faults(self):
        """Fault machinery state as a flat tuple.

        :class:`StuckBit` objects are never mutated after creation, so
        the list is shallow-copied and the items shared.
        """
        w = self.watch
        return (tuple(self.stuck),
                (w.entry, w.bit, w.first_event) if w is not None else None,
                self.fault_epoch)

    def _restore_faults(self, state) -> None:
        stuck, watch, epoch = state
        self.stuck = list(stuck)
        if watch is None:
            self.watch = None
        else:
            w = _WatchState(watch[0], watch[1])
            w.first_event = watch[2]
            self.watch = w
        self.fault_epoch = epoch
        self._update_clean()


class WordArray(StorageArray):
    """Array of word-sized entries stored as Python ints.

    Used for register files, queue payloads, packed TLB/BTB/issue-queue
    entries and prefetcher tables.
    """

    def __init__(self, name: str, entries: int, bits_per_entry: int):
        super().__init__(name, entries, bits_per_entry)
        self.data = [0] * entries
        self._mask = (1 << bits_per_entry) - 1

    def read(self, entry: int, cycle: int = 0) -> int:
        value = self.data[entry]
        if self.stuck:
            value = self._apply_stuck(entry, value, cycle)
        if self.watch is not None:
            self._note_read(entry)
        return value

    def write(self, entry: int, value: int) -> None:
        self.data[entry] = value & self._mask
        if self.watch is not None:
            self._note_write(entry, covers_bit=True)

    def peek(self, entry: int) -> int:
        """Read without triggering watch events (debug/tests/stats)."""
        return self.data[entry]

    def _apply_stuck(self, entry: int, value: int, cycle: int) -> int:
        for sb in self.stuck:
            if sb.entry == entry and sb.active(cycle):
                if sb.value:
                    value |= (1 << sb.bit)
                else:
                    value &= ~(1 << sb.bit)
        return value

    def _flip_storage(self, entry: int, bit: int) -> None:
        self.data[entry] ^= (1 << bit)

    def snapshot(self):
        return (self.data.copy(), self._snapshot_faults())

    def restore(self, state) -> None:
        data, faults = state
        self.data = data.copy()
        self._restore_faults(faults)


class LineArray(StorageArray):
    """Array of cache-line-sized entries stored as bytearrays.

    Lines are allocated lazily (``None`` means the physical line holds
    unobserved garbage — it is always filled before any read).  Byte-
    granular writes only count as "overwritten" for the watch logic when
    they cover the watched bit's byte.
    """

    def __init__(self, name: str, lines: int, line_size: int):
        super().__init__(name, lines, line_size * 8)
        self.line_size = line_size
        self.lines: list[bytearray | None] = [None] * lines

    def read_bytes(self, line: int, offset: int, size: int,
                   cycle: int = 0) -> bytes:
        buf = self.lines[line]
        if buf is None:
            raise ValueError(f"{self.name}: read of unfilled line {line}")
        if self.stuck:
            buf = self._apply_stuck(line, buf, cycle)
        if self.watch is not None:
            self._note_read(line)
        return bytes(buf[offset:offset + size])

    def write_bytes(self, line: int, offset: int, data: bytes) -> None:
        buf = self.lines[line]
        if buf is None:
            raise ValueError(f"{self.name}: write to unfilled line {line}")
        buf[offset:offset + len(data)] = data
        if self.watch is not None:
            w = self.watch
            byte = w.bit // 8
            self._note_write(line, offset <= byte < offset + len(data))

    def fill(self, line: int, data: bytes) -> None:
        """Install a full line (refill); counts as a covering write."""
        self.lines[line] = bytearray(data)
        if self.watch is not None:
            self._note_write(line, covers_bit=True)

    def invalidate(self, line: int) -> None:
        self.lines[line] = None

    def is_filled(self, line: int) -> bool:
        return self.lines[line] is not None

    def peek_line(self, line: int) -> bytes | None:
        buf = self.lines[line]
        return bytes(buf) if buf is not None else None

    def _apply_stuck(self, line: int, buf: bytearray, cycle: int):
        out = bytearray(buf)
        for sb in self.stuck:
            if sb.entry == line and sb.active(cycle):
                byte, bit = divmod(sb.bit, 8)
                if sb.value:
                    out[byte] |= (1 << bit)
                else:
                    out[byte] &= ~(1 << bit)
        return out

    def _flip_storage(self, line: int, bit: int) -> None:
        buf = self.lines[line]
        if buf is None:
            # Physical garbage in a never-filled line: the flip cannot be
            # observed (any use is preceded by a fill).  Record nothing.
            return
        byte, bitpos = divmod(bit, 8)
        buf[byte] ^= (1 << bitpos)

    def snapshot(self):
        return ([bytes(buf) if buf is not None else None
                 for buf in self.lines],
                self._snapshot_faults())

    def restore(self, state) -> None:
        lines, faults = state
        self.lines = [bytearray(buf) if buf is not None else None
                      for buf in lines]
        self._restore_faults(faults)


class FaultSite:
    """One injectable structure exposed by a simulator.

    ``live`` answers "does entry *e* currently hold live state?" — the
    campaign controller's early-stop rule (i).  ``desc`` feeds the
    Table IV feature listing.
    """

    __slots__ = ("name", "array", "live", "desc")

    def __init__(self, name: str, array: StorageArray, live=None,
                 desc: str = ""):
        self.name = name
        self.array = array
        self.live = live if live is not None else (lambda entry: True)
        self.desc = desc or name

    @property
    def total_bits(self) -> int:
        return self.array.total_bits
