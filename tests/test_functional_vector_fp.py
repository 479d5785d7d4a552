"""Floating-point vector semantics: binops, FMA family, conversions."""

import warnings

import numpy as np
import pytest

from tests.vec_utils import VecEnv

RNG = np.random.default_rng(11)


def _env(vl=17, sew=64, lmul=1):
    return VecEnv(vl, sew=sew, lmul=lmul)


class TestBinops:
    @pytest.mark.parametrize("mn,func", [
        ("vfadd_vv", np.add), ("vfsub_vv", np.subtract),
        ("vfmul_vv", np.multiply), ("vfmin_vv", np.fmin),
        ("vfmax_vv", np.fmax)])
    def test_vv_forms(self, mn, func):
        env = _env()
        a = env.rand_f64(RNG)
        b = env.rand_f64(RNG)
        env.set_v(8, a)
        env.set_v(16, b)
        env.run(mn, "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), func(a, b))

    def test_vfdiv_ieee(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1.0, 0.0, -1.0]))
        env.set_v(16, np.array([0.0, 0.0, 0.0]))
        env.run("vfdiv_vv", "v24", "v8", "v16")
        got = env.get_v(24)
        assert got[0] == np.inf and np.isnan(got[1]) and got[2] == -np.inf

    def test_overflowing_quotient_is_silent_inf(self):
        """An overflowing vfdiv/vfrdiv quotient is +inf, as the hardware
        produces it, with no ``RuntimeWarning``."""
        env = _env(vl=2)
        env.set_v(8, np.array([1e300, 1e-300]))
        env.set_v(16, np.array([1e-300, 1e-300]))
        env.state.f.write(2, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env.run("vfdiv_vv", "v24", "v8", "v16")
            env.run("vfrdiv_vf", "v25", "v16", "f2")
        assert np.array_equal(env.get_v(24), [np.inf, 1.0])
        assert np.array_equal(env.get_v(25), [np.inf, np.inf])

    def test_vf_form_broadcasts_scalar(self):
        env = _env()
        a = env.rand_f64(RNG)
        env.set_v(8, a)
        env.state.f.write(2, 2.5)
        env.run("vfadd_vf", "v24", "v8", "f2")
        assert np.array_equal(env.get_v(24), a + 2.5)

    def test_vfrsub_vf(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1.0, 2.0, 3.0]))
        env.state.f.write(2, 10.0)
        env.run("vfrsub_vf", "v24", "v8", "f2")
        assert np.array_equal(env.get_v(24), [9.0, 8.0, 7.0])

    def test_vfrdiv_vf(self):
        env = _env(vl=2)
        env.set_v(8, np.array([2.0, 4.0]))
        env.state.f.write(2, 8.0)
        env.run("vfrdiv_vf", "v24", "v8", "f2")
        assert np.array_equal(env.get_v(24), [4.0, 2.0])

    def test_fmin_returns_non_nan(self):
        env = _env(vl=2)
        env.set_v(8, np.array([np.nan, 1.0]))
        env.set_v(16, np.array([3.0, np.nan]))
        env.run("vfmin_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [3.0, 1.0])

    def test_float32_sew(self):
        env = _env(vl=5, sew=32)
        a = RNG.uniform(-10, 10, 5).astype(np.float32)
        env.set_v(8, a)
        env.set_v(16, a)
        env.run("vfmul_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24, dtype=np.float32), a * a)


class TestSignInjection:
    def test_vfsgnj_copies_sign(self):
        env = _env(vl=2)
        env.set_v(8, np.array([3.0, -3.0]))
        env.set_v(16, np.array([-1.0, 1.0]))
        env.run("vfsgnj_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [-3.0, 3.0])

    def test_vfsgnjx_xors_signs(self):
        env = _env(vl=4)
        env.set_v(8, np.array([3.0, -3.0, 3.0, -3.0]))
        env.set_v(16, np.array([1.0, 1.0, -1.0, -1.0]))
        env.run("vfsgnjx_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [3.0, -3.0, -3.0, 3.0])

    def test_sgnjn_negative_zero(self):
        env = _env(vl=1)
        env.set_v(8, np.array([5.0]))
        env.set_v(16, np.array([0.0]))
        env.run("vfsgnjn_vv", "v24", "v8", "v16")
        assert np.signbit(env.get_v(24)[0])


class TestFmaFamily:
    def _prep(self, env):
        a = env.rand_f64(RNG)   # vs1
        b = env.rand_f64(RNG)   # vs2
        c = env.rand_f64(RNG)   # vd
        env.set_v(8, a)
        env.set_v(16, b)
        env.set_v(24, c)
        return a, b, c

    @pytest.mark.parametrize("mn,expr", [
        ("vfmacc_vv", lambda a, b, c: a * b + c),
        ("vfnmacc_vv", lambda a, b, c: -(a * b) - c),
        ("vfmsac_vv", lambda a, b, c: a * b - c),
        ("vfnmsac_vv", lambda a, b, c: -(a * b) + c),
        ("vfmadd_vv", lambda a, b, c: a * c + b),
        ("vfmsub_vv", lambda a, b, c: a * c - b),
        ("vfnmadd_vv", lambda a, b, c: -(a * c) - b),
        ("vfnmsub_vv", lambda a, b, c: -(a * c) + b),
    ])
    def test_vv_semantics(self, mn, expr):
        env = _env()
        a, b, c = self._prep(env)
        env.run(mn, "v24", "v8", "v16")
        assert np.allclose(env.get_v(24), expr(a, b, c), rtol=0, atol=0)

    def test_vfmacc_vf(self):
        env = _env()
        b = env.rand_f64(RNG)
        c = env.rand_f64(RNG)
        env.set_v(16, b)
        env.set_v(24, c)
        env.state.f.write(1, 1.5)
        env.run("vfmacc_vf", "v24", "f1", "v16")
        assert np.array_equal(env.get_v(24), 1.5 * b + c)


class TestUnaryAndConversions:
    def test_vfsqrt(self):
        env = _env(vl=3)
        env.set_v(8, np.array([4.0, 9.0, -1.0]))
        env.run("vfsqrt_v", "v24", "v8")
        got = env.get_v(24)
        assert got[0] == 2.0 and got[1] == 3.0 and np.isnan(got[2])

    def test_vfabs_vfneg(self):
        env = _env(vl=2)
        env.set_v(8, np.array([-2.0, 2.0]))
        env.run("vfabs_v", "v16", "v8")
        env.run("vfneg_v", "v24", "v8")
        assert np.array_equal(env.get_v(16), [2.0, 2.0])
        assert np.array_equal(env.get_v(24), [2.0, -2.0])

    def test_vfcvt_round_to_nearest_even(self):
        env = _env(vl=4)
        env.set_v(8, np.array([0.5, 1.5, 2.5, -0.5]))
        env.run("vfcvt_x_f_v", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.int64), [0, 2, 2, 0])

    def test_vfcvt_rtz_truncates(self):
        env = _env(vl=2)
        env.set_v(8, np.array([1.9, -1.9]))
        env.run("vfcvt_rtz_x_f_v", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.int64), [1, -1])

    def test_vfcvt_f_x(self):
        env = _env(vl=2)
        env.set_v(8, np.array([-3, 7], dtype=np.int64))
        env.run("vfcvt_f_x_v", "v24", "v8")
        assert np.array_equal(env.get_v(24), [-3.0, 7.0])

    def test_widening_cvt(self):
        env = _env(vl=3, sew=32)
        env.set_v(8, np.array([1.5, -2.5, 0.0], dtype=np.float32))
        env.run("vfwcvt_f_f_v", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.float64, emul=2),
                              [1.5, -2.5, 0.0])

    def test_narrowing_cvt(self):
        env = _env(vl=2, sew=32)
        env.set_v(8, np.array([1.25, -8.0], dtype=np.float64), emul=2)
        env.run("vfncvt_f_f_w", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.float32), [1.25, -8.0])


class TestWideningFp:
    def test_vfwmul(self):
        env = _env(vl=3, sew=32)
        a = np.array([1e20, 2.0, -3.0], dtype=np.float32)
        env.set_v(8, a)
        env.set_v(16, a)
        env.run("vfwmul_vv", "v24", "v8", "v16")
        got = env.get_v(24, dtype=np.float64, emul=2)
        assert np.array_equal(got, a.astype(np.float64) ** 2)

    def test_vfwmacc(self):
        env = _env(vl=2, sew=32)
        env.set_v(8, np.array([2.0, 3.0], dtype=np.float32))
        env.set_v(16, np.array([4.0, 5.0], dtype=np.float32))
        env.set_v(24, np.array([1.0, 1.0], dtype=np.float64), emul=2)
        env.run("vfwmacc_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24, dtype=np.float64, emul=2),
                              [9.0, 16.0])


class TestFpCompares:
    def test_vmflt(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1.0, 2.0, np.nan]))
        env.set_v(16, np.array([2.0, 1.0, 1.0]))
        env.run("vmflt_vv", "v2", "v8", "v16")
        assert np.array_equal(env.get_mask(2), [True, False, False])

    def test_vmfge_vf(self):
        env = _env(vl=3)
        env.set_v(8, np.array([0.5, 1.5, 2.5]))
        env.state.f.write(3, 1.5)
        env.run("vmfge_vf", "v2", "v8", "f3")
        assert np.array_equal(env.get_mask(2), [False, True, True])


class TestMoves:
    def test_vfmv_v_f(self):
        env = _env(vl=4)
        env.state.f.write(1, 6.5)
        env.run("vfmv_v_f", "v8", "f1")
        assert np.array_equal(env.get_v(8), [6.5] * 4)

    def test_vfmv_s_f_and_f_s(self):
        env = _env(vl=4)
        env.state.f.write(1, -3.25)
        env.run("vfmv_s_f", "v8", "f1")
        env.run("vfmv_f_s", "f2", "v8")
        assert env.state.f.read(2) == -3.25

    def test_vfmerge(self):
        env = _env(vl=3)
        env.set_mask(0, [True, False, True])
        env.set_v(8, np.array([1.0, 2.0, 3.0]))
        env.state.f.write(1, 9.0)
        env.run("vfmerge_vfm", "v24", "v8", "f1")
        assert np.array_equal(env.get_v(24), [9.0, 2.0, 9.0])
