"""Property tests for the v6 columnar trace packing.

Two families of guarantees:

* **Round-trip** — randomized traces spanning every event kind (plus
  the deliberate edge cases: empty traces, max-``vl``, mixed LMUL,
  scalar-only streams, and events that must take the pickled-fallback
  path) unpack to an event stream with identical contents and
  aggregate counters.
* **Replay identity** — replaying the packed form of a real captured
  trace produces a byte-identical ``TimingReport`` to replaying the
  object form, on every machine in the registry, for both the
  vectorized and the reference replay loops; the packed form replays
  without materializing a single event object.
* **Plan compilation** — both trace forms compile to field-identical
  replay plans, and the fallback, foreign-event and missing-MemAccess
  paths behave the same in either form.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.functional.trace import (DynamicTrace, MemAccess, ScalarEvent,
                                    VectorEvent, VsetvlEvent)
from repro.functional.trace_pack import (MAGIC, PackedTrace, pack_trace,
                                         unpack_trace)
from repro.errors import TimingError
from repro.isa.instructions import MemPattern
from repro.kernels import ZOO, build_fmatmul
from repro.machine.registry import get_machine, list_machines
from repro.params import Ara2Config
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


def _random_trace(rng, program, kinds=("scalar", "vsetvl", "vector",
                                       "fallback")):
    """A randomized trace mixing the requested event kinds, with the
    boundary values (max-vl, None addresses, every LMUL and pattern)
    reachable by the draw."""
    instrs = program.instructions
    vec_instrs = [i for i in instrs if i.mnemonic.startswith("v")]
    trace = DynamicTrace()
    events = trace.events
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
            trace.scalar_count += 1
        elif kind == "vsetvl":
            vl = (0, 1, int(rng.integers(0, 1 << 16)),
                  _I64_MAX)[int(rng.integers(0, 4))]  # max-vl boundary
            events.append(VsetvlEvent(
                vl, (8, 16, 32, 64)[int(rng.integers(0, 4))],
                (1, 2, 4, 8)[int(rng.integers(0, 4))]))  # mixed LMUL
            trace.scalar_count += 1
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
            trace.vector_count += 1
            trace.total_flops += float(rng.integers(0, 1000))
        else:
            events.append(OddballEvent(int(rng.integers(0, 1000))))
    return trace


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_empty_trace(self, capture):
        packed = _assert_round_trip(DynamicTrace(), capture.program)
        assert len(packed) == 0
        assert packed.events == []

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mixed_streams(self, capture, seed):
        rng = np.random.default_rng(seed)
        trace = _random_trace(rng, capture.program)
        _assert_round_trip(trace, capture.program)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_only_streams(self, capture, seed):
        rng = np.random.default_rng(100 + seed)
        trace = _random_trace(rng, capture.program, kinds=("scalar",))
        assert trace.vector_count == 0
        _assert_round_trip(trace, capture.program)

    def test_real_capture_round_trips(self, capture):
        _assert_round_trip(capture.trace, capture.program)

    def test_vector_events_relink_to_program_instructions(self, capture):
        packed = _assert_round_trip(capture.trace, capture.program)
        for got, want in zip(packed.events, capture.trace.events):
            if isinstance(want, VectorEvent):
                assert got.instr is want.instr  # identity, not a copy

    def test_out_of_range_fields_take_the_fallback_path(self, capture):
        trace = DynamicTrace()
        # vl beyond i64, negative address, foreign instruction: none of
        # these fit a column, all must survive the pickled fallback.
        trace.events.append(VsetvlEvent(1 << 64, 8, 1))
        trace.events.append(ScalarEvent("load", -4, 8))
        trace.events.append(OddballEvent("x"))
        trace.scalar_count = 2
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
        assert isinstance(clone, PackedTrace)
        assert bytes(clone.blob) == bytes(packed.blob)
        assert len(clone) == len(packed)
        for got, want in zip(clone.events, packed.events):
            assert _events_equal(got, want)

    def test_malformed_blobs_raise_value_error(self, capture):
        good = pack_trace(capture.trace, capture.program)
        with pytest.raises(ValueError):
            unpack_trace(b"nope" + good[4:], capture.program)
        with pytest.raises(ValueError):
            unpack_trace(good[:20], capture.program)

    def test_to_trace_rebuilds_equal_dynamic_trace(self, capture):
        packed = unpack_trace(pack_trace(capture.trace, capture.program),
                              capture.program)
        rebuilt = packed.to_trace()
        assert isinstance(rebuilt, DynamicTrace)
        assert len(rebuilt) == len(capture.trace)
        assert rebuilt.scalar_count == capture.trace.scalar_count
        assert rebuilt.total_flops == capture.trace.total_flops


# ----------------------------------------------------------------------
# Replay identity: packed vs object form, every registry machine
# ----------------------------------------------------------------------
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
        fast_obj = TimingEngine(model).replay(captured.trace)
        fast_packed = TimingEngine(model).replay(packed)
        assert fast_obj == reference
        assert fast_packed == reference

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
# Plan compilation: both trace forms, fallback and error paths
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
    packed = unpack_trace(pack_trace(trace, program), program)
    return {"object": trace, "packed": packed}


def _first_event(trace, predicate):
    return next(e for e in trace.events if predicate(e))


class TestPlanCompile:
    @pytest.mark.parametrize("kernel", sorted(set(ZOO) - {"fuzz"}))
    def test_trace_forms_compile_to_equal_plans(self, kernel):
        cfg = Ara2Config(lanes=4)
        captured = ZOO[kernel](cfg, 64).capture(cfg, verify=False)
        forms = _both_forms(captured.trace, captured.program)
        plans = {name: _plan_fields(ReplayPlan.from_trace(trace))
                 for name, trace in forms.items()}
        assert plans["object"] == plans["packed"]
        assert plans["object"]["n_events"] == len(captured.trace)

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
        trace = DynamicTrace(events=events)
        forms = _both_forms(trace, capture.program)
        assert len(forms["packed"].fallback_events()) == len(extra)
        model = build_model(Ara2Config(lanes=4))
        reference = TimingEngine(model).replay_reference(trace)
        for name, form in forms.items():
            assert TimingEngine(model).replay(form) == reference, name
        assert forms["packed"]._events is None

    @pytest.mark.parametrize("form", ["object", "packed"])
    def test_foreign_event_class_raises(self, capture, form):
        events = list(capture.trace.events)
        events.insert(5, OddballEvent("x"))
        trace = _both_forms(DynamicTrace(events=events),
                            capture.program)[form]
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
        trace = _both_forms(DynamicTrace(events=events), program)[form]
        with pytest.raises(TimingError, match="lacks a MemAccess"):
            TimingEngine(build_model(Ara2Config(lanes=4))).replay(trace)
