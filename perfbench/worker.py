"""One phase of one benchmark iteration, in a fresh interpreter.

``run.py`` starts this script once per phase so that no in-process
memo (kernel skeletons, replay plans, report memos) carries over from
the store fill into the measured sweep, or from one iteration into the
next.  Phases:

* ``fill`` -- set-up: populate the trace store at ``--store``;
* ``measure`` -- run the workload once on one in-process
  ``SimPool(workers=1)``, time it, check its outputs.

With ``--trace 1`` the layer wrappers of ``layers.py`` are installed
and a root span covers the measured run.  The phase writes one JSON
document to ``--result``; ``run.py`` aggregates those.

    python perfbench/worker.py --workload sweep-cold --phase measure \\
        --seed 1 --scale reduced --store perfbench/out/s --trace 0 \\
        --result perfbench/out/r.json
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (imports after the set-up clock starts)
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from layers import Tracer  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    """Command line of one phase."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--phase", required=True, choices=("fill", "measure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=("reduced", "paper"))
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    return parser.parse_args(argv)


class ReportTally:
    """Counts the ``TimingReport`` objects a pool produces.

    Installed as an instance attribute over ``pool.run``, so it sits
    outside any traced class-level wrapper and costs one pass over each
    call's reports.
    """

    def __init__(self, pool) -> None:
        self._run = pool.run
        self.reports = 0
        self.instructions = 0
        pool.run = self

    def __call__(self, captures, replays):
        reports = self._run(captures, replays)
        self.reports += len(reports)
        self.instructions += sum(r.vector_instructions
                                 + r.scalar_instructions for r in reports)
        return reports


def _sweep(scale: str, pool, tally) -> dict:
    """The four paper experiments; returns per-experiment outputs."""
    from repro.eval.runner import run_experiment

    outputs = {}
    for name in wl.EXPERIMENTS:
        reports, instructions = tally.reports, tally.instructions
        text = run_experiment(name, scale=scale, sim_pool=pool)
        outputs[name] = {"text": text,
                         "reports": tally.reports - reports,
                         "instructions": tally.instructions - instructions}
    return outputs


def _knob_tasks():
    from repro.params import AraXLConfig
    from repro.sim import CaptureTask

    config = AraXLConfig(lanes=wl.KNOB_LANES)
    return [CaptureTask.for_kernel(name, config, bpl, kw)
            for name, bpl, kw in wl.KNOB_KERNELS]


def check_sweep(args, outputs: dict) -> list:
    """Each experiment's points pass if its render and counts match the
    reference recorded for the scale."""
    pinned = wl.reference_counts(args.scale)
    checks = []
    for name in wl.EXPERIMENTS:
        out = outputs[name]
        expected = (wl.reference_dir(args.scale) / f"{name}.txt").read_text()
        ok = (out["text"] == expected
              and out["reports"] == pinned[name]["reports"]
              and out["instructions"] == pinned[name]["instructions"])
        checks.append({"what": name, "points": pinned[name]["reports"],
                       "ok": ok})
    return checks


def check_knob(args, pool, configs, matrix) -> list:
    """Seeded (trace, machine) cells must equal the reference replay."""
    from repro.kernels import zoo_builder
    from repro.timing.engine import TimingEngine
    from repro.uarch import build_model

    tasks = _knob_tasks()
    rng = random.Random(args.seed)
    cells = [(c, k) for c in range(len(configs)) for k in range(len(tasks))]
    checks = []
    for c, k in rng.sample(cells, wl.KNOB_REFERENCE_SAMPLES):
        task = tasks[k]
        trace = pool.cache.get(task.key()).trace
        report = TimingEngine(build_model(configs[c])).replay_reference(trace)
        peak = zoo_builder(task.kernel)(task.config, task.bytes_per_lane,
                                        **dict(task.kwargs)).max_flops_per_cycle
        checks.append({"what": f"reference[{c}][{k}]", "points": 1,
                       "ok": report.fpu_utilization(peak) == matrix[c][k]})
    return checks


def run_phase(args, tracer) -> dict:
    """Set up, run the phase once (timed), then check its outputs."""
    from repro.eval.ablations import run_knob_sweep  # imports repro.eval
    from repro.sim import SimPool, TraceStore, run_pipeline

    pool = SimPool(workers=1, cache=TraceStore(disk_dir=args.store))
    tally = ReportTally(pool)
    configs = wl.knob_configs(args.seed)
    result = {"setup_s": time.perf_counter() - T_START}

    root = tracer.open("run") if tracer else None
    t0 = time.perf_counter()
    outputs = matrix = None
    if args.workload != "knob-sweep":
        outputs = _sweep(args.scale, pool, tally)
    elif args.phase == "fill":
        run_pipeline(_knob_tasks(), [], pool)
    else:
        matrix = run_knob_sweep(configs, wl.KNOB_KERNELS, sim_pool=pool)
    result["wall_s"] = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = [[s.name, s.start, s.end, s.parent]
                           for s in tracer.spans]
    result["peak_rss_mb"] = _peak_rss_mb()

    stats = pool.cache.stats
    result["reports"] = tally.reports
    result["instructions"] = tally.instructions
    result["captures"] = stats["misses"]
    result["store_hit_ratio"] = ((stats["hits"] + stats["disk_hits"])
                                 / stats["lookups"]
                                 if stats["lookups"] else 0.0)
    result["store_entries"] = sum(
        1 for p in args.store.iterdir() if p.suffix == ".pkl")
    result["recovered"] = pool.fault_log.recovered_total()
    if args.phase == "measure":
        if matrix is None:
            result["checks"] = check_sweep(args, outputs)
        else:
            result["matrix"] = matrix
            result["checks"] = check_knob(args, pool, configs, matrix)
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    """Run one phase and write its result document."""
    args = parse_args(argv)
    try:
        tracer = Tracer().install() if args.trace else None
        result = run_phase(args, tracer)
    except Exception:  # the phase boundary: run.py counts the failure
        result = {"error": traceback.format_exc(),
                  "peak_rss_mb": _peak_rss_mb()}
    args.result.write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
