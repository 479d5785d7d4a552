"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure via pytest-benchmark
and prints the rendered comparison table (run with ``-s`` to see it, or
read ``benchmarks/out/*.txt`` afterwards).  Simulation experiments are
executed with ``benchmark.pedantic(rounds=1)`` — the quantity of interest
is the experiment's *output*, not the host's wall-clock jitter.

All simulation benchmarks run on **one session-scoped**
:class:`~repro.sim.parallel.SimPool` (the :func:`sim_pool` fixture),
passed to every sweep as ``sim_pool=``.  Its process budget comes from
``--workers`` (default: autodetect), its capture phase holds at most
``--capture-workers`` of that budget while replays are pending, and its
cache is the suite's **shared disk trace store**: identical
``(program, VLEN, setup)`` operating points revisited across
``bench_fig6/7``, ``bench_table1/3``, the ablations and
``bench_trace_reuse`` are captured once and served from disk ever after
— including across suite runs and concurrent (``pytest-xdist``-style)
workers, since the store's writes are atomic.  The store directory
resolves from ``--trace-store``, then ``$REPRO_TRACE_STORE``, then
``benchmarks/out/trace_cache``; its GC (size cap, stale purge, orphan
reaping) runs once at session start.  Rendered outputs are
byte-identical whatever the store's state or the pool sizing.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sim import SimPool
from repro.sim.trace_cache import TraceCache, resolve_store_dir

OUT_DIR = pathlib.Path(__file__).parent / "out"


def pytest_addoption(parser):
    parser.addoption(
        "--trace-store", action="store", default=None, metavar="DIR",
        help="shared trace-store directory for the benchmark suite "
             "(default: $REPRO_TRACE_STORE, else benchmarks/out/trace_cache)")
    parser.addoption(
        "--workers", action="store", default="auto", metavar="N|auto",
        help="total worker-process budget of the shared capture/replay "
             "pool the simulation benchmarks run on (default 'auto': the "
             "host's schedulable CPUs; rendered outputs are byte-identical "
             "for any value)")
    parser.addoption(
        "--capture-workers", action="store", default=1, type=int, metavar="N",
        help="soft share of the --workers budget the capture phase may "
             "hold while replays are pending (default 1: captures stay "
             "in-process; clamped to the budget; rendered outputs are "
             "byte-identical for any value)")


@pytest.fixture(scope="session")
def sim_pool(request):
    """The suite-wide pool every simulation benchmark runs on.

    Sized by ``--workers`` ('auto' -> None = autodetect) and
    ``--capture-workers``; its cache is the shared disk trace store,
    GC'd once per session.
    """
    raw = request.config.getoption("--workers")
    workers = None if raw == "auto" else max(1, int(raw))
    capture_workers = max(
        1, int(request.config.getoption("--capture-workers")))
    # resolve_store_dir's default is the checkout-anchored
    # benchmarks/out/trace_cache — exactly this suite's out/ dir.
    store = TraceCache(disk_dir=resolve_store_dir(
        request.config.getoption("--trace-store")))
    store.gc()  # reap crashed-writer orphans, purge stale, enforce budget
    with SimPool(workers=workers, capture_workers=capture_workers,
                 cache=store) as pool:
        yield pool


def save_output(name: str, text: str) -> None:
    """Persist a rendered experiment next to the benchmarks."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/out/{name}.txt]")
