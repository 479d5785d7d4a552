"""Floating-point vector semantics (VMFPU instructions).

Binary functions take ``(vs2, op1)`` in RVV assembly order; FMA functions
take ``(vd, op1, vs2)`` where ``op1`` is vs1 or the splatted f-register.

Known fidelity notes (documented deviations, consistent with the golden
NumPy models used in tests):

* FMA is computed as ``a*b + c`` with an intermediate rounding step —
  NumPy has no fused multiply-add.  Kernels and goldens share the rounding.
* ``vfmin/vfmax`` use ``np.fmin/np.fmax``, which return the non-NaN operand,
  matching the RISC-V (IEEE 754-2019 minimumNumber) behaviour.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _div(vs2: np.ndarray, op1: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return vs2 / op1


def _rdiv(vs2: np.ndarray, op1: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return op1 / vs2


def _sqrt(vs2: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.sqrt(vs2)


def _ieee(fn: Callable) -> Callable:
    """``fn`` evaluated with IEEE-754 overflow and invalid results (inf,
    NaN) taken silently, as the hardware produces them: the values are
    numpy's, only the ``RuntimeWarning`` is dropped."""

    def apply(*operands: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*operands)

    return apply


def _sign_inject(mode: str) -> Callable:
    """Bit-exact sign injection (handles -0.0 and NaN payloads)."""

    def apply(vs2: np.ndarray, op1: np.ndarray) -> np.ndarray:
        bits = vs2.dtype.itemsize * 8
        utype = np.dtype(f"u{vs2.dtype.itemsize}")
        sign = np.array(1 << (bits - 1), dtype=utype)
        mag = vs2.view(utype) & ~sign
        s2 = vs2.view(utype) & sign
        s1 = np.ascontiguousarray(op1, dtype=vs2.dtype).view(utype) & sign
        if mode == "j":
            new_sign = s1
        elif mode == "jn":
            new_sign = s1 ^ sign
        else:  # jx
            new_sign = s1 ^ s2
        return (mag | new_sign).view(vs2.dtype)

    return apply


BINOPS: dict[str, Callable] = {
    "vfadd": _ieee(np.add),
    "vfsub": _ieee(np.subtract),
    "vfrsub": _ieee(lambda vs2, op1: np.subtract(op1, vs2)),
    "vfmul": _ieee(np.multiply),
    "vfdiv": _div,
    "vfrdiv": _rdiv,
    "vfmin": np.fmin,
    "vfmax": np.fmax,
    "vfsgnj": _sign_inject("j"),
    "vfsgnjn": _sign_inject("jn"),
    "vfsgnjx": _sign_inject("jx"),
}

UNARY: dict[str, Callable] = {
    "vfsqrt_v": _sqrt,
    "vfabs_v": np.abs,
    "vfneg_v": np.negative,
}

COMPARES: dict[str, Callable] = {
    "vmfeq": np.equal,
    "vmfne": np.not_equal,
    "vmflt": np.less,
    "vmfle": np.less_equal,
    "vmfgt": np.greater,
    "vmfge": np.greater_equal,
}

#: func(vd, op1, vs2) following the RVV accumulate definitions.
FMA: dict[str, Callable] = {name: _ieee(fn) for name, fn in {
    "vfmacc": lambda vd, a, b: a * b + vd,
    "vfnmacc": lambda vd, a, b: -(a * b) - vd,
    "vfmsac": lambda vd, a, b: a * b - vd,
    "vfnmsac": lambda vd, a, b: -(a * b) + vd,
    "vfmadd": lambda vd, a, b: a * vd + b,
    "vfmsub": lambda vd, a, b: a * vd - b,
    "vfnmadd": lambda vd, a, b: -(a * vd) - b,
    "vfnmsub": lambda vd, a, b: -(a * vd) + b,
    "vfwmacc": lambda vd, a, b: a * b + vd,  # operands pre-widened
}.items()}

#: Widening FP binary ops (operands pre-widened to 2*SEW by the engine).
WIDENING: dict[str, Callable] = {
    "vfwadd": _ieee(np.add),
    "vfwmul": _ieee(np.multiply),
}
