"""Cross-module integration: the paper's headline behaviours end to end."""

import numpy as np
import pytest

from repro import AraXLConfig, Ara2Config, Assembler, Simulator, run_program
from repro.kernels import KERNELS


class TestSimulatorFacade:
    def test_quickstart_flow(self):
        config = AraXLConfig(lanes=8)
        sim = Simulator(config)
        a = Assembler("axpy")
        n = 64
        sim.mem.write_array(0, np.arange(n, dtype=np.float64))
        sim.mem.write_array(n * 8, np.ones(n))
        a.li("x1", n)
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.li("x5", 0)
        a.li("x6", n * 8)
        a.li("x7", 2 * n * 8)
        a.vle64_v("v1", "x5")
        a.vle64_v("v2", "x6")
        a.vfmacc_vf("v2", "f1", "v1")
        a.vse64_v("v2", "x7")
        a.halt()
        sim.state.f.write(1, 2.0)
        result = sim.run(a.build())
        got = sim.mem.read_array(2 * n * 8, n, np.float64)
        assert np.allclose(got, 2.0 * np.arange(n) + 1.0)
        assert result.cycles > 0
        assert result.dp_flops == 2 * n

    def test_functional_only_mode(self):
        config = Ara2Config(lanes=4)
        sim = Simulator(config)
        a = Assembler()
        a.li("x1", 1)
        a.halt()
        result = sim.run(a.build(), functional_only=True)
        assert result.cycles == 0.0

    def test_run_program_helper(self):
        a = Assembler()
        a.li("x1", 7)
        a.halt()
        result = run_program(Ara2Config(lanes=4), a.build())
        assert result.state.x.read(1) == 7


class TestPaperHeadlines:
    """The numbers the abstract and Section IV call out, at reduced size."""

    def test_fmatmul_99pct_utilization_on_64_lanes(self):
        config = AraXLConfig(lanes=64)
        run = KERNELS["fmatmul"](config, 512, m=16, k=64)
        result = run.run(config, verify=False)
        assert run.utilization(result) >= 0.97

    def test_fconv2d_97pct_utilization(self):
        config = AraXLConfig(lanes=64)
        run = KERNELS["fconv2d"](config, 512, rows=32)
        result = run.run(config, verify=False)
        assert run.utilization(result) >= 0.95

    def test_linear_weak_scaling_16_to_32(self):
        perfs = {}
        for lanes in (16, 32):
            config = AraXLConfig(lanes=lanes)
            run = KERNELS["fmatmul"](config, 512, m=16, k=64)
            perfs[lanes] = run.run(config, verify=False).flops_per_cycle
        assert perfs[32] / perfs[16] == pytest.approx(2.0, abs=0.1)

    def test_fdotproduct_degraded_scaling(self):
        perfs = {}
        for lanes in (8, 64):
            config = AraXLConfig(lanes=lanes)
            run = KERNELS["fdotproduct"](config, 512)
            perfs[lanes] = run.run(config, verify=False).flops_per_cycle
        scaling = perfs[64] / perfs[8]
        assert 5.0 < scaling < 7.5  # paper: 6.1x vs 8x ideal

    def test_long_vectors_recover_dotproduct(self):
        from repro.kernels import build_fdotproduct_strips

        config = AraXLConfig(lanes=64)
        short = KERNELS["fdotproduct"](config, 512)
        long = build_fdotproduct_strips(config, 1024, strips=16)
        u_short = short.utilization(short.run(config, verify=False))
        u_long = long.utilization(long.run(config, verify=False))
        assert u_long > u_short + 0.2  # Section IV-B: 7.6x at 16384 B/lane

    def test_araxl_worse_than_ara2_at_medium_vectors(self):
        # Section IV-B: the new interfaces increase setup time, visible
        # in the 64 B/lane regime.
        ara2 = Ara2Config(lanes=8)
        araxl = AraXLConfig(lanes=8)
        r2 = KERNELS["exp"](ara2, 64)
        rx = KERNELS["exp"](araxl, 64)
        u2 = r2.utilization(r2.run(ara2, verify=False))
        ux = rx.utilization(rx.run(araxl, verify=False))
        assert ux <= u2

    def test_interface_cuts_cost_under_2pct_at_512(self):
        import dataclasses

        base_cfg = AraXLConfig(lanes=32)
        for knob in ({"glsu_extra_regs": 4}, {"reqi_extra_regs": 1},
                     {"ringi_extra_regs": 1}):
            cut_cfg = dataclasses.replace(base_cfg, **knob)
            base_run = KERNELS["jacobi2d"](base_cfg, 512, rows=32)
            cut_run = KERNELS["jacobi2d"](cut_cfg, 512, rows=32)
            u_base = base_run.utilization(base_run.run(base_cfg, verify=False))
            u_cut = cut_run.utilization(cut_run.run(cut_cfg, verify=False))
            assert u_base - u_cut < 0.02, knob


class TestCoherencePath:
    def test_vector_store_then_scalar_load_sees_data(self):
        """The Fig 2 invalidation-filter scenario, functionally."""
        config = AraXLConfig(lanes=8)
        sim = Simulator(config)
        a = Assembler()
        a.li("x1", 16)
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.li("x5", 0)
        a.vmv_v_i("v1", 5)
        a.vse64_v("v1", "x5")
        a.ld("x6", "x5", 0)
        a.halt()
        sim.run(a.build())
        assert sim.state.x.read(6) == 5


class TestDeterminism:
    def test_same_run_same_cycles(self):
        config = AraXLConfig(lanes=16)
        runs = []
        for _ in range(2):
            kr = KERNELS["softmax"](config, 128)
            runs.append(kr.run(config, verify=True).cycles)
        assert runs[0] == runs[1]
