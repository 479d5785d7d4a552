"""Scoreboard hazard edges and replay-plan memo isolation.

The fuzzer drives these paths statistically; this module pins them
deterministically — full 32-register pressure, WAW/WAR orderings, and
the :class:`~repro.timing.replay_plan.ReplayPlan` per-machine memo tier
staying isolated across machine specs.
"""

from __future__ import annotations

import dataclasses

from repro.isa import Assembler
from repro.machine import get_machine
from repro.params import AraXLConfig
from repro.sim import Simulator
from repro.timing.engine import TimingEngine
from repro.uarch import build_model


def _capture(program, config):
    sim = Simulator(config)
    return sim.capture(program).trace


def _cycles(program, config) -> float:
    return TimingEngine(build_model(config)).replay(
        _capture(program, config)).cycles


# ----------------------------------------------------------------------
# Scoreboard hazard edges (the fast path's inlined scoreboard lists).
# ----------------------------------------------------------------------
class TestScoreboardHazards:
    def test_all_32_registers_live(self, ara2_small):
        """Every register in flight: fast path must equal the reference."""
        asm = Assembler("pressure32")
        asm.li("x1", 64)
        asm.vsetvli("x2", "x1", sew=64, lmul=8)
        for base in ("v0", "v8", "v16", "v24"):
            asm.vid_v(base)
        for base in ("v0", "v8", "v16", "v24"):
            asm.vadd_vv(base, base, base)        # WAW on every group
        for base, single in (("v0", "v4"), ("v8", "v5"),
                             ("v16", "v6"), ("v24", "v7")):
            asm.vredsum_vs(single, base, single)  # WAR pressure (v4-v7
        asm.vmv_v_i("v0", 1)                      # live inside groups)
        asm.halt()
        trace = _capture(asm.build(), ara2_small)
        engine = TimingEngine(build_model(ara2_small))
        assert engine.replay(trace) == engine.replay_reference(trace)

    def test_waw_serializes_same_register(self, ara2_small):
        def program(dest: str):
            asm = Assembler(f"waw_{dest}")
            asm.li("x1", 64)
            asm.vsetvli("x2", "x1", sew=64, lmul=1)
            asm.li("x3", 0)
            asm.vle64_v("v8", "x3")          # slow producer writing v8
            asm.vadd_vv(dest, "v16", "v16")  # WAW when dest == v8
            asm.halt()
            return asm.build()

        waw = _cycles(program("v8"), ara2_small)
        independent = _cycles(program("v10"), ara2_small)
        assert waw >= independent

    def test_war_orders_write_after_read(self, ara2_small):
        def program(dest: str):
            asm = Assembler(f"war_{dest}")
            asm.li("x1", 64)
            asm.vsetvli("x2", "x1", sew=64, lmul=1)
            asm.vfdiv_vv("v16", "v8", "v8")  # slow reader of v8
            asm.li("x3", 0)
            asm.vle64_v(dest, "x3")          # WAR when dest == v8
            asm.halt()
            return asm.build()

        war = _cycles(program("v8"), ara2_small)
        independent = _cycles(program("v10"), ara2_small)
        assert war >= independent

    def test_group_overlap_hazard_identity(self, ara2_small, araxl_small):
        """LMUL groups overlapping singles: fast path == reference."""
        asm = Assembler("group_overlap")
        asm.li("x1", 32)
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vid_v("v8")                      # writes v8..v11
        asm.vsetvli("x2", "x1", sew=64, lmul=1)
        asm.vadd_vv("v9", "v9", "v9")        # single inside the group
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vadd_vv("v8", "v8", "v8")        # group over the dirty single
        asm.halt()
        for config in (ara2_small, araxl_small):
            trace = _capture(asm.build(), config)
            engine = TimingEngine(build_model(config))
            assert engine.replay(trace) == engine.replay_reference(trace)


# ----------------------------------------------------------------------
# ReplayPlan per-machine memo tier.
# ----------------------------------------------------------------------
def _hazard_program():
    asm = Assembler("memo_probe")
    asm.li("x1", 64)
    asm.vsetvli("x2", "x1", sew=64, lmul=2)
    asm.li("x3", 0)
    asm.vle64_v("v8", "x3")
    asm.vfmacc_vv("v10", "v8", "v8")
    asm.vredsum_vs("v4", "v10", "v4")
    asm.halt()
    return asm.build()


class TestReplayPlanMemo:
    def test_memo_isolated_across_machines(self):
        ara2 = get_machine("8L-Ara2")
        araxl = get_machine("8L-AraXL")
        trace = _capture(_hazard_program(), ara2)  # same VLEN on both
        first = TimingEngine(build_model(ara2)).replay(trace)
        other = TimingEngine(build_model(araxl)).replay(trace)
        again = TimingEngine(build_model(ara2)).replay(trace)
        assert first == again            # memo hit, not invalidated...
        assert first != other            # ...and not cross-contaminated

    def test_memo_invalidated_by_spec_change(self):
        base = AraXLConfig(lanes=8)
        slow = dataclasses.replace(base, ring_hop_latency=8)
        trace = _capture(_hazard_program(), base)
        fast_report = TimingEngine(build_model(base)).replay(trace)
        slow_report = TimingEngine(build_model(slow)).replay(trace)
        # Same family and lane count, pure timing-knob change: the memo
        # must key on the spec, not the machine name.
        assert slow_report.cycles > fast_report.cycles
        assert TimingEngine(build_model(base)).replay(trace) == fast_report

    def test_memoized_report_is_a_defensive_copy(self):
        config = get_machine("8L-Ara2")
        trace = _capture(_hazard_program(), config)
        engine = TimingEngine(build_model(config))
        first = engine.replay(trace)
        pristine = dict(first.unit_busy)
        first.unit_busy.clear()          # caller mutates their copy
        second = engine.replay(trace)
        assert second.unit_busy == pristine
