"""Issue queue with packed, injectable entries.

Table IV lists the Issue Queue among the injectable structures of both
tools.  The *dataflow payload* of each entry — µop kind, operation,
destination/source physical tags, ready bits, immediate, access size —
is stored packed in a :class:`WordArray`, so a bit flip genuinely changes
which registers are read, which operation executes, or which immediate is
used.  (The ROB linkage is control logic, which performance simulators do
not model as arrays; the paper scopes injection to storage arrays.)

A decoded-entry cache keyed on the array's ``fault_epoch`` keeps the
fault machinery off the no-fault hot path: ``insert`` packs the word
and fills the decoded slot from its arguments in one pass, and while
the array is ``clean`` ``view`` and ``wake`` trust (and update) a slot
decoded at the current epoch instead of unpacking the word again.
"""

from __future__ import annotations

from repro.uarch.array import FaultSite, WordArray

KINDS = ("alu", "load", "store", "br", "jmp", "ijmp", "sys", "nop")
OPS = ("add", "sub", "and", "or", "xor", "shl", "shr", "sar", "mul", "div",
       "mod", "not", "neg", "mov", "movt", "cmp",
       "eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge",
       "none")

_KIND_BITS = 3
_OP_BITS = 5
_TAG_BITS = 9
_SIZE_BITS = 3

# Field layout, LSB first.
_OFF_KIND = 0
_OFF_OP = _OFF_KIND + _KIND_BITS
_OFF_DST = _OFF_OP + _OP_BITS
_OFF_HAS_DST = _OFF_DST + _TAG_BITS
_OFF_SRC1 = _OFF_HAS_DST + 1
_OFF_HAS_SRC1 = _OFF_SRC1 + _TAG_BITS
_OFF_RDY1 = _OFF_HAS_SRC1 + 1
_OFF_SRC2 = _OFF_RDY1 + 1
_OFF_HAS_SRC2 = _OFF_SRC2 + _TAG_BITS
_OFF_RDY2 = _OFF_HAS_SRC2 + 1
_OFF_SIZE = _OFF_RDY2 + 1
_OFF_IMM = _OFF_SIZE + _SIZE_BITS
ENTRY_BITS = _OFF_IMM + 32

_TAG_MASK = (1 << _TAG_BITS) - 1

# ``KINDS.index``/``OPS.index`` as dicts (insert runs once per µop).
_KIND_INDEX = {kind: i for i, kind in enumerate(KINDS)}
_OP_INDEX = {op: i for i, op in enumerate(OPS)}


class IQSlot:
    """Decoded view of one issue-queue entry plus its ROB linkage."""

    __slots__ = ("kind", "op", "dst", "src1", "rdy1", "src2", "rdy2",
                 "size", "imm", "rob", "epoch")

    def __init__(self):
        self.rob = None
        self.epoch = -1


class IssueQueue:
    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self.array = WordArray(name, size, ENTRY_BITS)
        self.valid = [False] * size
        self.slots = [IQSlot() for _ in range(size)]
        self.free = list(range(size - 1, -1, -1))
        self.count = 0
        # Wakeup index: producing tag -> slot indices waiting on it.
        # Purely a scheduling accelerator; the packed array stays the
        # authoritative state (a corrupted tag can strand its consumer,
        # which deadlocks the pipeline — a realistic fault outcome).
        self.waiters: dict[int, list[int]] = {}

    # -- unpack -------------------------------------------------------------

    def _unpack_into(self, slot: IQSlot, word: int) -> None:
        slot.kind = KINDS[word & ((1 << _KIND_BITS) - 1)]
        op_idx = (word >> _OFF_OP) & ((1 << _OP_BITS) - 1)
        slot.op = OPS[op_idx] if op_idx < len(OPS) else "none"
        slot.dst = (word >> _OFF_DST) & _TAG_MASK \
            if word & (1 << _OFF_HAS_DST) else None
        slot.src1 = (word >> _OFF_SRC1) & _TAG_MASK \
            if word & (1 << _OFF_HAS_SRC1) else None
        slot.rdy1 = bool(word & (1 << _OFF_RDY1))
        slot.src2 = (word >> _OFF_SRC2) & _TAG_MASK \
            if word & (1 << _OFF_HAS_SRC2) else None
        slot.rdy2 = bool(word & (1 << _OFF_RDY2))
        slot.size = (word >> _OFF_SIZE) & ((1 << _SIZE_BITS) - 1)
        imm = (word >> _OFF_IMM) & 0xFFFFFFFF
        slot.imm = imm - 0x100000000 if imm & 0x80000000 else imm
        slot.epoch = self.array.fault_epoch

    # -- queue operations -----------------------------------------------------

    def insert(self, rob, kind, op, dst, src1, rdy1, src2, rdy2, size,
               imm) -> int | None:
        """Allocate a slot; returns the index or None when full.

        Packs the word and fills the decoded slot from the arguments in
        one pass; the slot is what ``_unpack_into`` makes of the word.
        An unknown *kind* or *op* raises ``ValueError``.
        """
        if not self.free:
            return None
        idx = self.free.pop()
        if op is None:
            op = "none"
        try:
            word = _KIND_INDEX[kind] | _OP_INDEX[op] << _OFF_OP
        except KeyError:
            # The error the KINDS.index/OPS.index searches used to give.
            raise ValueError("tuple.index(x): x not in tuple") from None
        tag_dst = tag1 = tag2 = None
        if dst is not None:
            tag_dst = dst & _TAG_MASK
            word |= tag_dst << _OFF_DST | 1 << _OFF_HAS_DST
        ready1 = ready2 = True
        if src1 is not None:
            tag1 = src1 & _TAG_MASK
            ready1 = bool(rdy1)
            word |= tag1 << _OFF_SRC1 | 1 << _OFF_HAS_SRC1
        if src2 is not None:
            tag2 = src2 & _TAG_MASK
            ready2 = bool(rdy2)
            word |= tag2 << _OFF_SRC2 | 1 << _OFF_HAS_SRC2
        size &= (1 << _SIZE_BITS) - 1
        imm &= 0xFFFFFFFF
        word |= ready1 << _OFF_RDY1 | ready2 << _OFF_RDY2 | \
            size << _OFF_SIZE | imm << _OFF_IMM
        arr = self.array
        arr.write(idx, word)
        slot = self.slots[idx]
        slot.kind = kind
        slot.op = op
        slot.dst = tag_dst
        slot.src1 = tag1
        slot.rdy1 = ready1
        slot.src2 = tag2
        slot.rdy2 = ready2
        slot.size = size
        slot.imm = imm - 0x100000000 if imm & 0x80000000 else imm
        slot.epoch = arr.fault_epoch
        slot.rob = rob
        self.valid[idx] = True
        self.count += 1
        if not ready1:
            self.waiters.setdefault(src1, []).append(idx)
        if not ready2 and src2 != src1:
            self.waiters.setdefault(src2, []).append(idx)
        return idx

    def view(self, idx: int, cycle: int = 0) -> IQSlot:
        """Decoded entry; re-reads the packed word after any fault."""
        slot = self.slots[idx]
        arr = self.array
        if not arr.clean or slot.epoch != arr.fault_epoch:
            self._unpack_into(slot, arr.read(idx, cycle))
        return slot

    def wake(self, tag: int) -> None:
        """Mark sources matching a produced physical tag as ready."""
        waiting = self.waiters.pop(tag, None)
        if not waiting:
            return
        arr = self.array
        # A slot decoded at the current epoch of a clean array equals
        # the unpacked word, so setting its ready bits keeps it so.
        clean = arr.clean
        for idx in waiting:
            if not self.valid[idx]:
                continue  # slot released or squashed since it enqueued
            word = arr.peek(idx)
            ready1 = word & (1 << _OFF_HAS_SRC1) and \
                not word & (1 << _OFF_RDY1) and \
                ((word >> _OFF_SRC1) & _TAG_MASK) == tag
            ready2 = word & (1 << _OFF_HAS_SRC2) and \
                not word & (1 << _OFF_RDY2) and \
                ((word >> _OFF_SRC2) & _TAG_MASK) == tag
            if not (ready1 or ready2):
                continue
            if ready1:
                word |= 1 << _OFF_RDY1
            if ready2:
                word |= 1 << _OFF_RDY2
            arr.write(idx, word)
            slot = self.slots[idx]
            if clean and slot.epoch == arr.fault_epoch:
                if ready1:
                    slot.rdy1 = True
                if ready2:
                    slot.rdy2 = True
            else:
                self._unpack_into(slot, word)

    def release(self, idx: int) -> None:
        self.valid[idx] = False
        self.slots[idx].rob = None
        self.free.append(idx)
        self.count -= 1

    def occupied(self):
        """Indices of valid entries, in slot-index order."""
        return [i for i in range(self.size) if self.valid[i]]

    def site(self) -> FaultSite:
        return FaultSite(self.name, self.array,
                         live=lambda e: self.valid[e],
                         desc=f"issue queue ({self.size} entries, packed)")

    # -- snapshot protocol ------------------------------------------------------

    def snapshot(self, copy_entry):
        """Flat state blob; *copy_entry* maps a live ROB entry into the
        snapshot's object graph (the core passes its memoised copier so
        IQ linkage, ROB list and event queues share one copy per entry).
        """
        slots = []
        for idx in range(self.size):
            if not self.valid[idx]:
                slots.append(None)
                continue
            s = self.slots[idx]
            slots.append((s.kind, s.op, s.dst, s.src1, s.rdy1, s.src2,
                          s.rdy2, s.size, s.imm, s.epoch,
                          copy_entry(s.rob)))
        return (self.array.snapshot(), tuple(self.valid), tuple(self.free),
                self.count,
                {tag: tuple(idxs) for tag, idxs in self.waiters.items()},
                slots)

    def restore(self, state, copy_entry) -> None:
        array, valid, free, count, waiters, slots = state
        self.array.restore(array)
        self.valid = list(valid)
        self.free = list(free)
        self.count = count
        self.waiters = {tag: list(idxs) for tag, idxs in waiters.items()}
        for idx, data in enumerate(slots):
            slot = self.slots[idx]
            if data is None:
                slot.rob = None
                slot.epoch = -1
                continue
            (slot.kind, slot.op, slot.dst, slot.src1, slot.rdy1, slot.src2,
             slot.rdy2, slot.size, slot.imm, slot.epoch, rob) = data
            slot.rob = copy_entry(rob)
