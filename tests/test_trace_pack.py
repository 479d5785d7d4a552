"""Property tests for the columnar trace and its v6 packing.

Three families of guarantees:

* **Round-trip** — randomized event streams spanning every event kind
  (plus the deliberate edge cases: empty traces, max-``vl``, mixed
  LMUL, scalar-only streams, and events that must take the
  pickled-fallback path), written through ``ColumnTrace.from_events``,
  unpack to an event stream with identical contents and aggregate
  counters; a capture writes exactly the columns ``from_events`` writes
  from its own events.
* **Replay identity** — replaying a real capture and its unpacked copy
  produces a byte-identical ``TimingReport`` to the reference replay,
  on every machine in the registry, and neither the capture, the store
  nor the replay ever materializes an event object.
* **Plan compilation** — a capture and its unpacked copy compile to
  field-identical replay plans, and the fallback, foreign-event and
  missing-MemAccess paths behave the same before and after a pack.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest

from repro.functional.trace import (MemAccess, ScalarEvent, VectorEvent,
                                    VsetvlEvent)
from repro.functional.trace_pack import (MAGIC, TAG_FALLBACK, ColumnTrace,
                                         pack_trace, unpack_trace)
from repro.errors import TimingError
from repro.isa import Assembler
from repro.isa.instructions import MemPattern
from repro.kernels import ZOO, build_fmatmul
from repro.machine.registry import get_machine, list_machines
from repro.params import Ara2Config
from repro.sim import CaptureTask, SimPool, Simulator, TraceCache, run_pipeline
from repro.sim.simulator import build_model
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan

_I64_MAX = (1 << 63) - 1


class OddballEvent:
    """A foreign event class: must survive via the fallback map."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, OddballEvent) and self.tag == other.tag


@pytest.fixture(scope="module")
def capture():
    cfg = Ara2Config(lanes=4)
    run = build_fmatmul(cfg, 64, m=8, k=16)
    return run.capture(cfg, verify=False)


def _events_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, ScalarEvent):
        return (a.kind, a.addr, a.nbytes) == (b.kind, b.addr, b.nbytes)
    if isinstance(a, VsetvlEvent):
        return (a.vl, a.sew, a.lmul) == (b.vl, b.sew, b.lmul)
    if isinstance(a, VectorEvent):
        return (a.instr.mnemonic == b.instr.mnemonic
                and (a.vl, a.sew, a.lmul, a.slide_amount)
                == (b.vl, b.sew, b.lmul, b.slide_amount)
                and a.mem == b.mem)
    return a == b


def _assert_round_trip(trace, program):
    if not isinstance(trace, ColumnTrace):
        trace = ColumnTrace.from_events(trace, program)
    blob = pack_trace(trace, program)
    assert blob.startswith(MAGIC)
    packed = unpack_trace(blob, program)
    assert len(packed) == len(trace)
    assert packed.scalar_count == trace.scalar_count
    assert packed.vector_count == trace.vector_count
    assert packed.total_flops == trace.total_flops
    for got, want in zip(packed.events, trace.events):
        assert _events_equal(got, want), (got, want)
    return packed


def _random_events(rng, program, kinds=("scalar", "vsetvl", "vector",
                                        "fallback")):
    """A randomized event list mixing the requested event kinds, with
    the boundary values (max-vl, None addresses, every LMUL and pattern)
    reachable by the draw."""
    instrs = program.instructions
    vec_instrs = [i for i in instrs if i.mnemonic.startswith("v")]
    events = []
    n = int(rng.integers(0, 60))
    for _ in range(n):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "scalar":
            addr = (None, 0, 64, int(rng.integers(0, 1 << 40)),
                    _I64_MAX)[int(rng.integers(0, 5))]
            events.append(ScalarEvent(
                ("alu", "mul", "fp", "load", "store",
                 "branch_taken")[int(rng.integers(0, 6))],
                addr, int(rng.integers(0, 65))))
        elif kind == "vsetvl":
            vl = (0, 1, int(rng.integers(0, 1 << 16)),
                  _I64_MAX)[int(rng.integers(0, 4))]  # max-vl boundary
            events.append(VsetvlEvent(
                vl, (8, 16, 32, 64)[int(rng.integers(0, 4))],
                (1, 2, 4, 8)[int(rng.integers(0, 4))]))  # mixed LMUL
        elif kind == "vector":
            instr = vec_instrs[int(rng.integers(0, len(vec_instrs)))]
            mem = None
            if rng.random() < 0.5:
                pattern = (MemPattern.UNIT, MemPattern.STRIDED,
                           MemPattern.INDEXED,
                           MemPattern.MASK)[int(rng.integers(0, 4))]
                mem = MemAccess(base=int(rng.integers(0, 1 << 32)),
                                stride=int(rng.integers(-64, 65)),
                                count=int(rng.integers(0, 1 << 20)),
                                ew_bytes=(1, 2, 4, 8)[
                                    int(rng.integers(0, 4))],
                                pattern=pattern,
                                is_store=bool(rng.integers(0, 2)))
            events.append(VectorEvent(
                instr, int(rng.integers(0, 1 << 20)),
                (8, 16, 32, 64)[int(rng.integers(0, 4))],
                (1, 2, 4, 8)[int(rng.integers(0, 4))], mem,
                int(rng.integers(-8, 9))))
        else:
            events.append(OddballEvent(int(rng.integers(0, 1000))))
    return events


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_empty_trace(self, capture):
        packed = _assert_round_trip([], capture.program)
        assert len(packed) == 0
        assert packed.events == []

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mixed_streams(self, capture, seed):
        rng = np.random.default_rng(seed)
        events = _random_events(rng, capture.program)
        _assert_round_trip(events, capture.program)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_only_streams(self, capture, seed):
        rng = np.random.default_rng(100 + seed)
        events = _random_events(rng, capture.program, kinds=("scalar",))
        packed = _assert_round_trip(events, capture.program)
        assert packed.vector_count == 0
        assert packed.scalar_count == len(events)

    def test_real_capture_round_trips(self, capture):
        _assert_round_trip(capture.trace, capture.program)
        copy = pickle.loads(pickle.dumps(capture.program))
        with pytest.raises(ValueError, match="different program"):
            pack_trace(capture.trace, copy)

    def test_vector_events_relink_to_program_instructions(self, capture):
        packed = _assert_round_trip(capture.trace, capture.program)
        for got, want in zip(packed.events, capture.trace.events):
            if isinstance(want, VectorEvent):
                assert got.instr is want.instr  # identity, not a copy

    def test_out_of_range_fields_take_the_fallback_path(self, capture):
        # vl beyond i64, negative address, foreign event class: none of
        # these fit a column, all must survive the pickled fallback.
        trace = ColumnTrace.from_events(
            [VsetvlEvent(1 << 64, 8, 1), ScalarEvent("load", -4, 8),
             OddballEvent("x")], capture.program)
        assert trace.scalar_count == 2
        blob = pack_trace(trace, capture.program)
        packed = unpack_trace(blob, capture.program)
        assert isinstance(packed.events[0], VsetvlEvent)
        assert packed.events[0].vl == 1 << 64
        assert packed.events[1].addr == -4
        assert packed.events[2] == OddballEvent("x")

    def test_packed_trace_pickles_by_blob(self, capture):
        packed = unpack_trace(pack_trace(capture.trace, capture.program),
                              capture.program)
        clone = pickle.loads(pickle.dumps(packed))
        assert isinstance(clone, ColumnTrace)
        assert bytes(clone.blob) == bytes(packed.blob)
        assert len(clone) == len(packed)
        for got, want in zip(clone.events, packed.events):
            assert _events_equal(got, want)
        # A fresh capture ships over pipes as its packed blob too.
        fresh = pickle.loads(pickle.dumps(capture.trace))
        assert bytes(fresh.blob) == pack_trace(capture.trace,
                                               capture.program)

    def test_malformed_blobs_raise_value_error(self, capture):
        good = pack_trace(capture.trace, capture.program)
        with pytest.raises(ValueError):
            unpack_trace(b"nope" + good[4:], capture.program)
        with pytest.raises(ValueError):
            unpack_trace(good[:20], capture.program)

    def test_tag_counts_must_match_the_header(self, capture):
        good = pack_trace(capture.trace, capture.program)
        (header_len,) = struct.unpack_from("<I", good, 4)
        first = (8 + header_len + 7) & ~7  # the tag column leads
        assert good[first] == 0  # fmatmul opens with a scalar
        for tag in (2, TAG_FALLBACK + 1):
            bad = good[:first] + bytes([tag]) + good[first + 1:]
            with pytest.raises(ValueError, match="tag column"):
                unpack_trace(bad, capture.program)

    def test_from_events_rebuilds_equal_trace(self, capture):
        blob = pack_trace(capture.trace, capture.program)
        packed = unpack_trace(blob, capture.program)
        rebuilt = ColumnTrace.from_events(packed.events, capture.program)
        assert len(rebuilt) == len(capture.trace)
        assert rebuilt.scalar_count == capture.trace.scalar_count
        assert rebuilt.total_flops == capture.trace.total_flops
        assert pack_trace(rebuilt, capture.program) == blob


# ----------------------------------------------------------------------
# Replay identity: fresh capture vs unpacked copy, every registry machine
# ----------------------------------------------------------------------
def _empty_masked_store_program():
    """A masked ``vsse64.v`` with no active elements at base ``x = -8``:
    the base reads unsigned as 2**64 - 8, which no i64 column holds, and
    the empty scatter returns before it validates the address."""
    asm = Assembler("empty_masked_store_high_base")
    asm.li("x1", 8)
    asm.vsetvli("x2", "x1", sew=64, lmul=1)
    asm.vmsne_vi("v0", "v8", 0)     # v8 is all zero -> empty mask
    asm.li("x3", -8)
    asm.li("x4", 16)
    asm.vsse64_v("v9", "x3", "x4", masked=True)
    asm.vadd_vv("v10", "v9", "v9")
    asm.halt()
    return asm.build()


class TestReplayIdentity:
    @pytest.mark.parametrize("machine", sorted(list_machines()))
    def test_packed_replay_matches_object_replay(self, machine):
        cfg = get_machine(machine)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        captured = run.capture(cfg, verify=False)
        packed = unpack_trace(
            pack_trace(captured.trace, captured.program), captured.program)
        model = build_model(cfg)
        reference = TimingEngine(model).replay_reference(captured.trace)
        fast_capture = TimingEngine(model).replay(captured.trace)
        fast_packed = TimingEngine(model).replay(packed)
        assert fast_capture == reference
        assert fast_packed == reference
        assert TimingEngine(model).replay_reference(packed) == reference

    def test_real_capture_fallback_round_trips_and_replays(self):
        program = _empty_masked_store_program()
        for machine in sorted(list_machines()):
            cfg = get_machine(machine)
            trace = Simulator(cfg).capture(program).trace
            fallback = trace.fallback_events()
            assert len(fallback) == 1
            (index, event), = fallback.items()
            assert trace.columns["tags"][index] == TAG_FALLBACK
            assert event.instr.mnemonic == "vsse64_v"
            assert event.mem.base == (1 << 64) - 8
            blob = pack_trace(trace, program)
            packed = unpack_trace(blob, program)
            assert pack_trace(packed, program) == blob
            assert pack_trace(ColumnTrace.from_events(packed.events,
                                                      program),
                              program) == blob
            assert packed.fallback_events()[index].mem.base == (1 << 64) - 8
            model = build_model(cfg)
            reference = TimingEngine(model).replay_reference(trace)
            assert TimingEngine(model).replay(trace) == reference, machine
            assert TimingEngine(model).replay(packed) == reference, machine

    def test_cold_pipeline_builds_no_events(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        task = CaptureTask.for_kernel("fmatmul", cfg, 64,
                                      {"m": 8, "k": 16})
        pool = SimPool(workers=1, cache=TraceCache(disk_dir=tmp_path))
        report, = run_pipeline([task], [(cfg, 0)], pool)
        assert pool.cache.stats["misses"] == 1  # captured cold
        assert list(tmp_path.glob("trace_*.pkl"))  # put reached the disk
        trace = pool.cache.get(task.key()).trace
        assert trace._plan is not None  # replayed
        assert trace._events is None    # ... from columns alone
        assert report == TimingEngine(build_model(cfg)).replay(trace)

    @pytest.mark.parametrize("machine", sorted(list_machines()))
    def test_packed_replay_builds_no_events(self, machine):
        cfg = get_machine(machine)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        captured = run.capture(cfg, verify=False)
        packed = unpack_trace(
            pack_trace(captured.trace, captured.program), captured.program)
        TimingEngine(build_model(cfg)).replay(packed)
        assert packed._plan is not None
        assert packed._events is None


# ----------------------------------------------------------------------
# Plan compilation: before and after a pack, fallback and error paths
# ----------------------------------------------------------------------
def _plan_fields(plan: ReplayPlan) -> dict:
    """Every plan slot (arrays by dtype and contents) plus each row's
    resolved memory and slide key."""
    fields = {}
    for slot in ReplayPlan.__slots__:
        value = getattr(plan, slot)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.tolist())
        fields[slot] = value
    fields["row_mem_keys"] = [plan.mem_keys[i]
                              for i in plan._mem_ix[plan._ix_mem]]
    fields["row_slide_pairs"] = [plan.slide_pairs[i]
                                 for i in plan._slide_ix[plan._ix_slide]]
    return fields


def _both_forms(trace, program):
    """The trace as written ("object": captured or built from event
    objects) and its unpacked copy ("packed")."""
    if not isinstance(trace, ColumnTrace):
        trace = ColumnTrace.from_events(trace, program)
    packed = unpack_trace(pack_trace(trace, program), program)
    return {"object": trace, "packed": packed}


def _first_event(trace, predicate):
    return next(e for e in trace.events if predicate(e))


class TestPlanCompile:
    @pytest.mark.parametrize("kernel", sorted(set(ZOO) - {"fuzz"}))
    def test_capture_writes_the_columns_of_its_events(self, kernel):
        cfg = Ara2Config(lanes=4)
        captured = ZOO[kernel](cfg, 64).capture(cfg, verify=False)
        trace = captured.trace
        rebuilt = ColumnTrace.from_events(trace.events, captured.program)
        assert rebuilt.columns.keys() == trace.columns.keys()
        for name, column in trace.columns.items():
            assert rebuilt.columns[name].dtype == column.dtype, name
            assert np.array_equal(rebuilt.columns[name], column), name
        assert rebuilt.kinds == trace.kinds
        assert rebuilt.fallback_bytes == trace.fallback_bytes
        assert ((rebuilt.scalar_count, rebuilt.vector_count,
                 rebuilt.total_flops)
                == (trace.scalar_count, trace.vector_count,
                    trace.total_flops))

    @pytest.mark.parametrize("kernel", sorted(set(ZOO) - {"fuzz"}))
    def test_trace_forms_compile_to_equal_plans(self, kernel):
        cfg = Ara2Config(lanes=4)
        captured = ZOO[kernel](cfg, 64).capture(cfg, verify=False)
        forms = _both_forms(captured.trace, captured.program)
        plans = {name: _plan_fields(ReplayPlan.from_trace(trace))
                 for name, trace in forms.items()}
        assert plans["object"] == plans["packed"]
        assert (plans["object"]["scalar_count"]
                + plans["object"]["vector_count"]) == len(captured.trace)

    def test_fallback_rows_replay_like_the_reference(self, capture):
        base = capture.trace
        load = _first_event(base, lambda e: isinstance(e, VectorEvent)
                            and e.mem is not None
                            and e.mem.pattern is MemPattern.UNIT
                            and not e.mem.is_store)
        foreign = pickle.loads(pickle.dumps(load.instr))  # not in program
        odd_mem = MemAccess(base=(1 << 64) + 8, stride=load.mem.stride,
                            count=load.mem.count,
                            ew_bytes=load.mem.ew_bytes,
                            pattern=MemPattern.UNIT, is_store=False)
        extra = [VsetvlEvent(1 << 64, 8, 1), ScalarEvent("load", -4, 8),
                 VectorEvent(foreign, load.vl, load.sew, load.lmul,
                             load.mem, load.slide_amount),
                 VectorEvent(load.instr, load.vl, load.sew, load.lmul,
                             odd_mem, load.slide_amount)]
        events = list(base.events)
        for offset, event in enumerate(extra):
            events.insert(len(events) // 3 + 7 * offset, event)
        forms = _both_forms(events, capture.program)
        assert len(forms["packed"].fallback_events()) == len(extra)
        model = build_model(Ara2Config(lanes=4))
        reference = TimingEngine(model).replay_reference(events)
        for name, form in forms.items():
            assert TimingEngine(model).replay(form) == reference, name
        assert forms["packed"]._events is None

    @pytest.mark.parametrize("form", ["object", "packed"])
    def test_foreign_event_class_raises(self, capture, form):
        events = list(capture.trace.events)
        events.insert(5, OddballEvent("x"))
        trace = _both_forms(events, capture.program)[form]
        with pytest.raises(TimingError, match="unknown trace event"):
            TimingEngine(build_model(Ara2Config(lanes=4))).replay(trace)

    @pytest.mark.parametrize("form", ["object", "packed"])
    def test_memory_op_without_mem_access_raises(self, capture, form):
        # Relink onto a private copy of the program: the decode memo
        # lives on the instruction, and the broken event must not seed
        # it for the shared capture.
        program = pickle.loads(pickle.dumps(capture.program))
        relink = {id(old): new for old, new in
                  zip(capture.program.instructions, program.instructions)}
        events = [VectorEvent(relink[id(e.instr)],
                              e.vl, e.sew, e.lmul, e.mem, e.slide_amount)
                  if isinstance(e, VectorEvent) else e
                  for e in capture.trace.events]
        index, mem_op = next(
            (i, e) for i, e in enumerate(events)
            if isinstance(e, VectorEvent) and e.mem is not None)
        events[index] = VectorEvent(mem_op.instr, mem_op.vl, mem_op.sew,
                                    mem_op.lmul, None, mem_op.slide_amount)
        trace = _both_forms(events, program)[form]
        with pytest.raises(TimingError, match="lacks a MemAccess"):
            TimingEngine(build_model(Ara2Config(lanes=4))).replay(trace)
