"""The paper's benchmark kernels (Table I), written in RVV assembly.

Each module builds a :class:`~repro.kernels.common.KernelRun`: the vector
program, input placement, a golden-model check, the analytic FLOP count
and the Table-I peak-performance bound used to normalize utilization.

============  =========================  ======  =====================
kernel        problem (Table I)          LMUL    max perf [DP-FLOP/cyc]
============  =========================  ======  =====================
fmatmul       A=64x256, B=256xN          1,2,4   2 * lanes
fconv2d       A=256xN, f=7x7             2       2 * lanes
jacobi2d      A=256xN                    4       lanes
fdotproduct   A=B=N                      8       lanes
exp           A=N                        1       28/21 * lanes
softmax       A=N                        1       32/25 * lanes
============  =========================  ======  =====================
"""

from collections import OrderedDict

from ..errors import ConfigError
from .common import KernelRun, vl_and_lmul, run_kernel
from .fmatmul import build_fmatmul as _build_fmatmul
from .fconv2d import build_fconv2d as _build_fconv2d
from .jacobi2d import build_jacobi2d as _build_jacobi2d
from .fdotproduct import (build_fdotproduct as _build_fdotproduct,
                          build_fdotproduct_strips)
from .expk import build_exp as _build_exp
from .softmax import build_softmax as _build_softmax
from .scan import build_scan as _build_scan
from .sort import build_sort as _build_sort

#: Builds are deterministic in (kernel, lanes, VLEN, B/lane, kwargs):
#: the program, input data and golden model all derive from those alone,
#: so sweeps and tests revisiting an operating point share one KernelRun
#: (and therefore one Program object, whose fingerprint/plan caches then
#: amortize too).  Since the lazy-golden split, entries hold only the
#: program skeleton and closures over a lazy golden handle — arrays live
#: in the byte-budgeted memo in :mod:`repro.kernels.common` — so this
#: LRU's cap bounds entry count, not memory.
_BUILD_CACHE: OrderedDict = OrderedDict()
_BUILD_CACHE_CAP = 64


def _memoized(name: str, builder):
    def build(config, bytes_per_lane, **kwargs) -> KernelRun:
        key = (name, config.lanes, config.vlen_bits, bytes_per_lane,
               tuple(sorted(kwargs.items())))
        hit = _BUILD_CACHE.get(key)
        if hit is not None:
            _BUILD_CACHE.move_to_end(key)
            return hit
        run = builder(config, bytes_per_lane, **kwargs)
        _BUILD_CACHE[key] = run
        while len(_BUILD_CACHE) > _BUILD_CACHE_CAP:
            _BUILD_CACHE.popitem(last=False)
        return run

    build.__name__ = f"build_{name}"
    build.__doc__ = builder.__doc__
    build.__wrapped__ = builder
    return build


def _build_fuzz(config, bytes_per_lane, **kwargs) -> KernelRun:
    """Deferred import: :mod:`repro.fuzz` depends on this package."""
    from ..fuzz.kernel import build_fuzz
    return build_fuzz(config, bytes_per_lane, **kwargs)


build_fmatmul = _memoized("fmatmul", _build_fmatmul)
build_fconv2d = _memoized("fconv2d", _build_fconv2d)
build_jacobi2d = _memoized("jacobi2d", _build_jacobi2d)
build_fdotproduct = _memoized("fdotproduct", _build_fdotproduct)
build_exp = _memoized("exp", _build_exp)
build_softmax = _memoized("softmax", _build_softmax)
build_scan = _memoized("scan", _build_scan)
build_sort = _memoized("sort", _build_sort)
build_fuzz_kernel = _memoized("fuzz", _build_fuzz)

#: Kernel registry keyed by the paper's benchmark names.  Deliberately
#: pinned to Table I: the paper sweeps (fig6/fig7/table1) default to
#: iterating this dict, so growing it would change rendered figures.
KERNELS = {
    "fmatmul": build_fmatmul,
    "fconv2d": build_fconv2d,
    "jacobi2d": build_jacobi2d,
    "fdotproduct": build_fdotproduct,
    "exp": build_exp,
    "softmax": build_softmax,
}

#: The full curated zoo: every kernel the capture/replay pipeline can
#: build by name — the paper's six plus the scenario-diversity kernels
#: (``scan``, ``sort``) and the seeded random-program generator
#: (``fuzz``).  :class:`~repro.sim.parallel.CaptureTask` and
#: :func:`~repro.eval.ablations.run_knob_sweep` resolve names here, so
#: zoo kernels ride the same SimPool/TraceCache machinery unchanged.
ZOO = {
    **KERNELS,
    "scan": build_scan,
    "sort": build_sort,
    "fuzz": build_fuzz_kernel,
}


def zoo_builder(name: str):
    """Resolve a kernel name against the full zoo (raises on unknown)."""
    try:
        return ZOO[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; the zoo has "
            f"{', '.join(sorted(ZOO))}") from None


__all__ = [
    "KernelRun",
    "KERNELS",
    "ZOO",
    "zoo_builder",
    "vl_and_lmul",
    "run_kernel",
    "build_fmatmul",
    "build_fconv2d",
    "build_jacobi2d",
    "build_fdotproduct",
    "build_fdotproduct_strips",
    "build_exp",
    "build_softmax",
    "build_scan",
    "build_sort",
    "build_fuzz_kernel",
]
