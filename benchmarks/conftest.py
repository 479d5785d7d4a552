"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure via pytest-benchmark
and prints the rendered comparison table (run with ``-s`` to see it, or
read ``benchmarks/out/*.txt`` afterwards).  Simulation experiments are
executed with ``benchmark.pedantic(rounds=1)`` — the quantity of interest
is the experiment's *output*, not the host's wall-clock jitter.

All simulation benchmarks attach to **one shared disk trace store** (the
session-scoped :func:`trace_store` fixture): identical ``(program, VLEN,
setup)`` operating points revisited across ``bench_fig6/7``,
``bench_table1/3``, the ablations and ``bench_trace_reuse`` are captured
once and served from disk ever after — including across suite runs and
concurrent (``pytest-xdist``-style) workers, since the store's writes
are atomic.  The store directory resolves from ``--trace-store``, then
``$REPRO_TRACE_STORE``, then ``benchmarks/out/trace_cache``; its GC
(size cap, stale purge, orphan reaping) runs once at session start.

The sweeps run on a shared :class:`~repro.sim.parallel.SimPool` whose
total process budget comes from ``--workers`` (default: autodetect) and
whose capture phase holds at most ``--capture-workers`` of that budget
while replays are pending.  Rendered outputs are byte-identical
whatever the store's state or the pool sizing.
"""

from __future__ import annotations

import pathlib

import pytest

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
def workers(request) -> int | None:
    """The shared pool's process budget ('auto' -> None = autodetect)."""
    raw = request.config.getoption("--workers")
    return None if raw == "auto" else max(1, int(raw))


@pytest.fixture(scope="session")
def capture_workers(request) -> int:
    """Capture-phase soft split every simulation benchmark threads through."""
    return max(1, int(request.config.getoption("--capture-workers")))


@pytest.fixture(scope="session")
def trace_store(request) -> TraceCache:
    """The suite-wide shared disk trace store, GC'd once per session."""
    explicit = request.config.getoption("--trace-store")
    # resolve_store_dir's default is the checkout-anchored
    # benchmarks/out/trace_cache — exactly this suite's out/ dir.
    store = TraceCache(disk_dir=resolve_store_dir(explicit))
    store.gc()  # reap crashed-writer orphans, purge stale, enforce budget
    return store


def save_output(name: str, text: str) -> None:
    """Persist a rendered experiment next to the benchmarks."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/out/{name}.txt]")
