"""The no-fault fast paths of the per-cycle core equal the general path.

* ``IssueQueue.insert`` packs the word and fills the decoded slot from
  its arguments in one pass; word and slot must equal ``pack(...)`` and
  ``_unpack_into(pack(...))`` of the reference encoder below for every
  input, and ``wake`` keeps the slots of a clean array equal to their
  unpacked words.
* The L1I decode memo (``OoOCore._line_memo``) must re-decode after a
  flipped bit, a refill and a ``restore()``.
* An array shadowed by the pruner's access recorder is not ``clean``,
  so the recorder still sees every L1I read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.prune.trace import TraceRecorder
from repro.uarch.array import WordArray
from repro.uarch import issueq
from repro.uarch.issueq import KINDS, OPS, IQSlot, IssueQueue

from tests.helpers import fresh_sim

SLOT_FIELDS = ("kind", "op", "dst", "src1", "rdy1", "src2", "rdy2", "size",
               "imm", "epoch")

tags = st.one_of(st.none(), st.integers(min_value=-2000, max_value=2000))
readies = st.one_of(st.booleans(), st.integers(min_value=-1, max_value=2))


def fields(slot) -> tuple:
    return tuple(getattr(slot, name) for name in SLOT_FIELDS)


def pack(kind, op, dst, src1, rdy1, src2, rdy2, size, imm) -> int:
    """Reference encoder: the issue-queue word layout, field by field."""
    q = issueq
    word = KINDS.index(kind)
    word |= OPS.index(op if op is not None else "none") << q._OFF_OP
    if dst is not None:
        word |= (dst & q._TAG_MASK) << q._OFF_DST
        word |= 1 << q._OFF_HAS_DST
    if src1 is not None:
        word |= (src1 & q._TAG_MASK) << q._OFF_SRC1
        word |= 1 << q._OFF_HAS_SRC1
        word |= (1 if rdy1 else 0) << q._OFF_RDY1
    else:
        word |= 1 << q._OFF_RDY1
    if src2 is not None:
        word |= (src2 & q._TAG_MASK) << q._OFF_SRC2
        word |= 1 << q._OFF_HAS_SRC2
        word |= (1 if rdy2 else 0) << q._OFF_RDY2
    else:
        word |= 1 << q._OFF_RDY2
    word |= (size & ((1 << q._SIZE_BITS) - 1)) << q._OFF_SIZE
    word |= (imm & 0xFFFFFFFF) << q._OFF_IMM
    return word


class TestIssueQueueDirectFill:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(KINDS),
           st.one_of(st.none(), st.sampled_from(OPS)),
           tags, tags, readies, tags, readies,
           st.integers(min_value=-20, max_value=20),
           st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
           st.integers(min_value=0, max_value=3))
    def test_insert_equals_unpack_of_pack(self, kind, op, dst, src1, rdy1,
                                          src2, rdy2, size, imm, epoch):
        iq = IssueQueue("iq", 4)
        iq.array.fault_epoch = epoch
        idx = iq.insert(None, kind, op, dst, src1, rdy1, src2, rdy2, size,
                        imm)
        word = pack(kind, op, dst, src1, rdy1, src2, rdy2, size, imm)
        want = IQSlot()
        iq._unpack_into(want, word)
        assert iq.array.peek(idx) == word
        assert fields(iq.slots[idx]) == fields(want)
        waiting = set()
        if src1 is not None and not rdy1:
            waiting.add(src1)
        if src2 is not None and not rdy2 and src2 != src1:
            waiting.add(src2)
        assert {t for t, idxs in iq.waiters.items() if idx in idxs} == \
            waiting

    @pytest.mark.parametrize("kind,op", [("fma", "add"), ("alu", "fma"),
                                         ("alu", "nop")])
    def test_unknown_kind_or_op_raises_like_tuple_index(self, kind, op):
        table, name = (KINDS, kind) if kind not in KINDS else (OPS, op)
        with pytest.raises(ValueError) as want:
            table.index(name)
        iq = IssueQueue("iq", 4)
        with pytest.raises(ValueError) as got:
            iq.insert(None, kind, op, 1, 2, True, 3, True, 4, 0)
        assert str(got.value) == str(want.value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                              st.integers(min_value=0, max_value=15)),
                    min_size=1, max_size=8),
           st.lists(st.integers(min_value=0, max_value=15), max_size=12))
    def test_wake_keeps_clean_slots_equal_to_their_words(self, srcs,
                                                         produced):
        iq = IssueQueue("iq", 8)
        for s1, s2 in srcs:
            iq.insert(None, "alu", "add", 20, s1, False, s2, False, 4, -1)
        for tag in produced:
            iq.wake(tag)
        for idx in iq.occupied():
            want = IQSlot()
            iq._unpack_into(want, iq.array.peek(idx))
            assert fields(iq.slots[idx]) == fields(want)


class TestCleanPredicate:
    def test_stuck_watch_and_trace_each_clear_it(self):
        arr = WordArray("a", 4, 8)
        assert arr.clean
        pristine = arr.snapshot()
        arr.set_stuck(1, 0, 1)
        assert not arr.clean
        faulted = arr.snapshot()
        arr.clear_faults()
        assert arr.clean
        arr.restore(faulted)
        assert not arr.clean
        arr.restore(pristine)
        assert arr.clean
        arr.watch_entry(1, 0)
        assert not arr.clean
        arr.clear_faults()
        arr.set_traced(True)
        assert not arr.clean
        arr.restore(pristine)             # a recorder outlives restores
        assert not arr.clean
        arr.set_traced(False)
        assert arr.clean

    def test_recorder_marks_and_unmarks_what_it_shadows(self):
        sim = fresh_sim("GeFIN-x86")
        recorder = TraceRecorder(sim)
        assert sim.l1i.data.traced and not sim.l1i.data.clean
        assert sim.prf.traced
        assert sim.iq.array.clean        # not a pruner structure
        recorder.detach()
        assert sim.l1i.data.clean and sim.prf.clean


def reference_decode(sim, pc: int, line: int):
    """Decode *pc* straight from L1I line *line*'s current bytes."""
    off = pc & (sim.l1i.line_size - 1)
    buf = sim.l1i.data.lines[line]
    return sim.isa.decode_window(bytes(buf[off:off + sim.max_ilen]), pc)


def same(a, b) -> bool:
    return (a.mnemonic, a.length, a.raw) == (b.mnemonic, b.length, b.raw)


def memoized(sim):
    """(line, pc, instr) of one memoized fetch that decodes cleanly."""
    for line, (_buf, _epoch, decoded) in sim._fetch_memo.items():
        for pc, instr in decoded.items():
            if instr.uops:
                return line, pc, instr
    raise AssertionError("no memoized fetch")


@pytest.fixture
def warm_sim():
    sim = fresh_sim("GeFIN-x86")
    for _ in range(400):
        sim.step()
    assert sim._fetch_memo
    return sim


class TestL1IDecodeMemo:
    def test_memo_matches_the_line_bytes(self, warm_sim):
        sim = warm_sim
        for line, (buf, epoch, decoded) in sim._fetch_memo.items():
            assert epoch == sim.l1i.data.fault_epoch
            for pc, instr in decoded.items():
                if buf is sim.l1i.data.lines[line]:
                    assert same(instr, reference_decode(sim, pc, line))

    def test_flipped_bit_redecodes(self, warm_sim):
        sim = warm_sim
        line, pc, before = memoized(sim)
        byte = pc & (sim.l1i.line_size - 1)
        for bit in range(8 * byte, 8 * byte + 8):
            sim.l1i.data.flip(line, bit)
            want = reference_decode(sim, pc, line)
            if not same(want, before):
                break
            sim.l1i.data.flip(line, bit)
        else:
            pytest.skip("no single-bit flip of the first byte changes "
                        "the decode")
        instr, _lat, fault = sim._decode_at(pc)
        assert fault is None
        assert same(instr, want)

    def test_refill_redecodes(self, warm_sim):
        sim = warm_sim
        line, pc, before = memoized(sim)
        data = bytearray(sim.l1i.data.lines[line])
        off = pc & (sim.l1i.line_size - 1)
        data[off:off + sim.max_ilen] = bytes(sim.max_ilen)   # new bytes
        sim.l1i.data.fill(line, bytes(data))
        want = reference_decode(sim, pc, line)
        assert not same(want, before)
        instr, _lat, _fault = sim._decode_at(pc)
        assert same(instr, want)

    def test_restore_redecodes(self, warm_sim):
        sim = warm_sim
        line, pc, before = memoized(sim)
        state = sim.snapshot()
        data = bytearray(sim.l1i.data.lines[line])
        off = pc & (sim.l1i.line_size - 1)
        data[off:off + sim.max_ilen] = bytes(sim.max_ilen)
        sim.l1i.data.fill(line, bytes(data))
        assert not same(sim._decode_at(pc)[0], before)
        sim.restore(state)
        instr, _lat, _fault = sim._decode_at(pc)
        assert same(instr, before)
        assert same(instr, reference_decode(sim, pc, line))

    def test_memo_is_not_pickled(self, warm_sim):
        assert warm_sim._fetch_memo
        assert warm_sim.__getstate__()["_fetch_memo"] == {}


def l1i_reads(setup: str, watch: bool):
    """L1I ``r`` events of a short recorded run, and the memo it left."""
    sim = fresh_sim(setup)
    recorder = TraceRecorder(sim, structures=("l1i",))
    if watch:
        # A watch alone sends every fetch down the general path.
        sim.l1i.data.watch_entry(0, 0)
    for _ in range(1500):
        sim.step()
    trace = recorder.finish(setup, "tiny", sim.cycle)
    events = trace.structures["l1i"].events
    reads = sorted((e, ev[0]) for e, evs in events.items()
                   for ev in evs if ev[1] == "r")
    return reads, dict(sim._fetch_memo)


@pytest.mark.parametrize("setup", ["MaFIN-x86", "GeFIN-ARM"])
def test_recorder_sees_every_l1i_read(setup):
    traced, memo = l1i_reads(setup, watch=False)
    watched, _ = l1i_reads(setup, watch=True)
    assert traced                      # fetch really read the L1I
    assert memo == {}                  # the memo never engaged
    assert traced == watched
