"""Kernel correctness and structure across machines and sizes.

Every kernel run here executes functionally and is checked against its
NumPy golden model — these are the end-to-end proofs that the RVV
implementation computes the right numbers.
"""

import numpy as np
import pytest

from repro.kernels import KERNELS, build_fdotproduct_strips, run_kernel
from repro.kernels.expk import EXP_FLOPS, EXP_FPU_OPS
from repro.kernels.softmax import SOFTMAX_FLOPS, SOFTMAX_FPU_OPS
from repro.params import Ara2Config, AraXLConfig

SMALL_KW = {
    "fmatmul": {"m": 8, "k": 16},
    "fconv2d": {"rows": 4},
    "jacobi2d": {"rows": 4},
}

MACHINES = [Ara2Config(lanes=4), AraXLConfig(lanes=8), AraXLConfig(lanes=16)]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("config", MACHINES, ids=lambda c: c.name)
def test_kernel_functionally_correct(kernel, config):
    _, result = run_kernel(KERNELS[kernel], config, 128, verify=True,
                           **SMALL_KW.get(kernel, {}))
    assert result.cycles > 0


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("bpl", [64, 128, 256, 512])
def test_kernel_correct_across_sizes(kernel, bpl):
    config = AraXLConfig(lanes=8)
    _, result = run_kernel(KERNELS[kernel], config, bpl, verify=True,
                           **SMALL_KW.get(kernel, {}))
    assert result.cycles > 0


class TestFlopAccounting:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_trace_flops_match_analytic(self, kernel):
        config = AraXLConfig(lanes=8)
        run, result = run_kernel(KERNELS[kernel], config, 128, verify=False,
                                 **SMALL_KW.get(kernel, {}))
        measured = result.functional.trace.total_flops
        # Reductions and FMA accumulations may add O(1) per strip.
        assert measured == pytest.approx(run.dp_flops, rel=0.02)

    def test_exp_ratio_is_table1(self):
        assert EXP_FLOPS / EXP_FPU_OPS == pytest.approx(28 / 21)

    def test_softmax_ratio_is_table1(self):
        assert SOFTMAX_FLOPS / SOFTMAX_FPU_OPS == pytest.approx(32 / 25)

    def test_exp_fpu_op_count_matches_trace(self):
        # 21 VMFPU ops per element-strip, from the trace itself.
        from repro.functional.trace import VectorEvent
        from repro.isa.instructions import ExecUnit

        config = AraXLConfig(lanes=8)
        run, result = run_kernel(KERNELS["exp"], config, 128, verify=False)
        fpu_ops = sum(1 for e in result.functional.trace.events
                      if isinstance(e, VectorEvent)
                      and e.spec.unit is ExecUnit.VMFPU)
        assert fpu_ops == EXP_FPU_OPS


class TestUtilization:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_bounded_by_one(self, kernel):
        config = AraXLConfig(lanes=8)
        run, result = run_kernel(KERNELS[kernel], config, 512, verify=False,
                                 **SMALL_KW.get(kernel, {}))
        assert 0.0 < run.utilization(result) <= 1.0

    def test_longer_vectors_raise_utilization(self):
        config = AraXLConfig(lanes=16)
        run64, res64 = run_kernel(KERNELS["exp"], config, 64, verify=False)
        run512, res512 = run_kernel(KERNELS["exp"], config, 512, verify=False)
        assert run512.utilization(res512) > run64.utilization(res64)


class TestDotProductStrips:
    def test_functional(self):
        config = AraXLConfig(lanes=8)
        kr = build_fdotproduct_strips(config, 128, strips=4)
        kr.run(config, verify=True)

    def test_amortizes_reduction(self):
        config = AraXLConfig(lanes=64)
        single = KERNELS["fdotproduct"](config, 512)
        res_s = single.run(config, verify=False)
        strips = build_fdotproduct_strips(config, 1024, strips=16)
        res_m = strips.run(config, verify=False)
        assert strips.utilization(res_m) > single.utilization(res_s)


class TestProblemValidation:
    def test_fmatmul_row_block(self):
        with pytest.raises(ValueError):
            KERNELS["fmatmul"](AraXLConfig(lanes=8), 128, m=6)

    def test_fmatmul_even_k(self):
        with pytest.raises(ValueError):
            KERNELS["fmatmul"](AraXLConfig(lanes=8), 128, m=8, k=15)

    def test_fconv2d_even_rows(self):
        with pytest.raises(ValueError):
            KERNELS["fconv2d"](AraXLConfig(lanes=8), 128, rows=5)

    def test_problem_metadata(self):
        run = KERNELS["fmatmul"](AraXLConfig(lanes=16), 256, m=8, k=16)
        assert run.problem["lmul"] == 2
        assert run.problem["n"] == run.problem["vl"]


class TestGoldenSensitivity:
    def test_check_detects_corruption(self):
        from repro.sim import Simulator

        config = AraXLConfig(lanes=8)
        kr = KERNELS["fdotproduct"](config, 64)
        sim = Simulator(config)
        kr.setup(sim)
        sim.run(kr.program)
        # Corrupt the result and expect the check to fire.
        base = [v for k, v in kr.problem.items() if k == "n"]
        result_addr = 2 * base[0] * 8
        sim.mem.store_f64(-(-result_addr // 64) * 64, 1e9)
        with pytest.raises(AssertionError):
            kr.check(sim)
