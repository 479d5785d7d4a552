"""Tracing is observation only: the sweeps render the same bytes, the
recorded reference, with the layer wrappers installed and without, and
the traced self times account for the whole traced wall time."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402


def _render(name: str, store: Path) -> str:
    from repro.eval.runner import run_experiment
    from repro.sim import SimPool, TraceStore

    pool = SimPool(workers=1, cache=TraceStore(disk_dir=store))
    return run_experiment(name, scale="reduced", sim_pool=pool)


@pytest.mark.parametrize("name", ["fig7", "table3"])
def test_render_identical_with_tracing_on_and_off(name, tmp_path):
    import repro.sim.trace_cache as trace_cache

    pack_trace = trace_cache.pack_trace
    plain = _render(name, tmp_path / "plain")
    tracer = Tracer().install()
    try:
        root = tracer.open("run")
        traced = _render(name, tmp_path / "traced")
        tracer.close(root)
    finally:
        tracer.uninstall()

    expected = (wl.reference_dir("reduced") / f"{name}.txt").read_text()
    assert plain == expected
    assert traced == expected
    assert trace_cache.pack_trace is pack_trace  # uninstall restored it

    layers = tracer.layer_metrics()
    assert layers["capture.calls"] > 0 and layers["render.s"] > 0
    self_times = [layers[f"{layer}.s"] for layer in LAYERS]
    assert min(self_times + [layers["other.s"]]) >= 0
    assert sum(self_times) + layers["other.s"] == \
        pytest.approx(layers["traced_wall_s"], abs=1e-9)
