"""Layered sweep benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 40 \\
        --trace 0

Each iteration runs the workload once in a fresh interpreter
(``worker.py``), after a store fill in another fresh interpreter for
the workloads that need one.  Iterations repeat until ``--seconds``
have passed (at least ``MIN_ITERATIONS``).  ``--trace 0`` reports the
end-to-end metrics as medians over the iterations; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of the median traced iteration, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when any output mismatches, any phase fails, or a
regime guard trips; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from layers import LAYERS  # noqa: E402

#: Iterations a run makes even when ``--seconds`` is shorter than that.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4
#: Hard limit on a whole run: a phase still running then is killed and
#: counted as failed, so the command always ends inside three minutes.
RUN_LIMIT_S = 170.0

#: Metric name -> unit, as declared in BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Self-time metrics (they sum to the traced wall time), and the ones
#: that should dominate each workload.
SELF_TIMES = tuple(f"{layer}.s" for layer in LAYERS) + ("other.s",)
EXPECTED_SHAPE = {"sweep-cold": ("capture.s",), "sweep-warm": ("plan.s",),
                  "knob-sweep": ("replay_loop.s", "rows.s")}


def parse_args(argv=None) -> argparse.Namespace:
    """The driver's command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("reduced", "paper"),
                        default=wl.DEFAULT_SCALE,
                        help="problem scale of the paper sweeps")
    parser.add_argument("--store-dir", type=Path,
                        default=HERE / "out" / "work",
                        help="scratch directory for the trace stores")
    return parser.parse_args(argv)


def git_revision() -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    """What a reader needs to compare this run with another."""
    import numpy

    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "scale": ("paper" if args.workload == "knob-sweep"
                      else args.scale),
            "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace)}


def run_phase(args, phase: str, store: Path, traced: bool,
              result: Path, deadline: float) -> dict:
    """Run one ``worker.py`` phase to completion; its result document,
    or ``{"error": ...}`` if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--phase", phase,
           "--seed", str(args.seed), "--scale", args.scale,
           "--store", str(store), "--trace", str(int(traced)),
           "--result", str(result)]
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        return {"error": f"{phase} phase still running at the "
                         f"{RUN_LIMIT_S:.0f} s run limit"}
    if result.exists():
        doc = json.loads(result.read_text())
        if proc.returncode == 0 or "error" in doc:
            return doc
    return {"error": f"{phase} phase exited {proc.returncode}: "
                     f"{proc.stderr.strip()[-2000:]}"}


def run_iteration(args, index: int, traced: bool, deadline: float) -> dict:
    """One iteration: optional fill, then the measured phase."""
    store = args.store_dir / f"{args.workload}-{index}"
    shutil.rmtree(store, ignore_errors=True)
    store.mkdir(parents=True)
    result = args.store_dir / f"{args.workload}-{index}.json"
    try:
        fill_s = 0.0
        if wl.WORKLOADS[args.workload]:
            fill = run_phase(args, "fill", store, False, result, deadline)
            if "error" in fill:
                return fill
            fill_s = fill["setup_s"] + fill["wall_s"]
        doc = run_phase(args, "measure", store, traced, result, deadline)
        doc["traced"] = traced
        if "setup_s" in doc:
            doc["setup_s"] += fill_s
        return doc
    finally:
        shutil.rmtree(store, ignore_errors=True)
        result.unlink(missing_ok=True)


class Verdict:
    """Points attempted and failed, plus the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def tally(self, points: int, failed: int, what: str) -> None:
        """Count ``points`` checked, ``failed`` of which mismatched."""
        self.attempted += points
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok: bool, what: str, points: int = 1) -> None:
        """Count ``points`` checked; all of them fail unless ``ok``."""
        self.tally(points, 0 if ok else points, what)


def expected_points(args) -> int:
    """Operating points one iteration checks."""
    if args.workload == "knob-sweep":
        return (wl.KNOB_SPECS * len(wl.KNOB_KERNELS)
                + wl.KNOB_REFERENCE_SAMPLES)
    counts = wl.reference_counts(args.scale)
    return sum(counts[name]["reports"] for name in wl.EXPERIMENTS)


def judge(args, docs: list[dict], verdict: Verdict) -> None:
    """Outputs, repeatability and regime guards of every iteration."""
    first_matrix = None
    for i, doc in enumerate(docs):
        if "error" in doc:
            verdict.check(False, f"iteration {i}: {doc['error']}",
                          expected_points(args))
            continue
        for check in doc["checks"]:
            verdict.check(check["ok"], f"iteration {i}: {check['what']} "
                          "does not match its reference", check["points"])
        if "matrix" in doc:
            first_matrix = first_matrix or doc["matrix"]
            pairs = [(a, b) for row_a, row_b in zip(first_matrix,
                                                    doc["matrix"])
                     for a, b in zip(row_a, row_b)]
            verdict.tally(len(pairs), sum(a != b for a, b in pairs),
                          f"iteration {i}: utilisation matrix differs "
                          "from iteration 0")
        # Regime guards: a workload that silently changed regime must
        # fail rather than report a skewed number.
        verdict.check(doc["recovered"] == 0,
                      f"iteration {i}: pool recovered from faults")
        if args.workload == "sweep-cold":
            verdict.check(doc["captures"] == doc["store_entries"],
                          f"iteration {i}: captures != distinct trace keys")
        else:
            verdict.check(doc["captures"] == 0,
                          f"iteration {i}: warm run captured traces")
            verdict.check(doc["store_hit_ratio"] == 1.0,
                          f"iteration {i}: store hit ratio below 1")
        layers = doc.get("layers")
        if layers is None:
            continue
        if args.workload == "sweep-cold":
            verdict.check(layers["capture.calls"] == doc["store_entries"],
                          f"iteration {i}: traced captures != distinct keys")
        else:
            verdict.check(layers["capture.calls"] == 0,
                          f"iteration {i}: traced warm run captured")
        if args.workload == "knob-sweep":
            verdict.check(layers["rows.memo_hits"] == 0,
                          f"iteration {i}: machine_rows memo hit")
        total = sum(layers[k] for k in SELF_TIMES)
        verdict.check(abs(total - layers["traced_wall_s"]) < 1e-6
                      and min(layers[k] for k in SELF_TIMES) >= 0,
                      f"iteration {i}: self times do not sum to wall")


def median_doc(docs: list[dict]) -> dict:
    """The iteration whose wall time is the (lower) median."""
    ranked = sorted(docs, key=lambda d: d["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def end_to_end(docs: list[dict]) -> dict:
    """Medians over the iterations."""
    values = {
        "wall_s": [d["wall_s"] for d in docs],
        "sim_instr_per_s": [d["instructions"] / d["wall_s"] for d in docs],
        "peak_rss_mb": [d["peak_rss_mb"] for d in docs],
        "setup_s": [d["setup_s"] for d in docs],
    }
    return {name: statistics.median(v) for name, v in values.items()}


def per_layer(traced: dict, plain: list[dict]) -> dict:
    """Layers of the median traced iteration, plus the trace overhead
    against the median untraced one."""
    out = dict(traced["layers"])
    out["store.hit_ratio"] = traced["store_hit_ratio"]
    out["pool.recovered"] = traced["recovered"]
    out["untraced_wall_s"] = median_doc(plain)["wall_s"]
    out["trace_overhead_s"] = traced["wall_s"] - out["untraced_wall_s"]
    return out


def shape_report(workload: str, layers: dict) -> str:
    """Which layer dominates, against the shape the workload predicts."""
    ranked = sorted(SELF_TIMES, key=lambda k: -layers[k])
    wall = layers["traced_wall_s"] or 1.0
    shares = ", ".join(f"{k[:-2]} {layers[k] / wall:.0%}" for k in ranked[:5])
    expected = EXPECTED_SHAPE[workload]
    if workload == "knob-sweep":
        ok = sum(layers[k] for k in expected) >= wall / 2
    else:
        ok = ranked[0] in expected
    verdict = "as predicted" if ok else "DEVIATES from the predicted"
    return (f"shape: {shares}; {verdict} dominant layer "
            f"({' + '.join(k[:-2] for k in expected)})")


def main(argv=None) -> int:
    """Run the benchmark; exit 0 only when every check passed."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.store_dir = args.store_dir.resolve()
    args.store_dir.mkdir(parents=True, exist_ok=True)
    meta = metadata(args)

    minimum = MIN_TRACED_ITERATIONS if args.trace else MIN_ITERATIONS
    docs: list[dict] = []
    t0 = last = now = time.perf_counter()
    deadline = t0 + RUN_LIMIT_S
    while True:
        # Another iteration, assumed as long as the last, must end inside
        # --seconds once the minimum is met, and always inside the limit.
        ends = now + (now - last)
        if ((len(docs) >= minimum and ends - t0 > args.seconds)
                or (docs and ends > deadline)):
            break
        last = now
        traced = bool(args.trace) and len(docs) % 2 == 1
        doc = run_iteration(args, len(docs), traced, deadline)
        docs.append(doc)
        now = time.perf_counter()
        print(f"iteration {len(docs) - 1}: " + (
            "failed" if "error" in doc else
            f"wall_s {doc['wall_s']:.4f} setup_s {doc['setup_s']:.4f}"
            f"{' traced' if traced else ''}"), flush=True)

    verdict = Verdict()
    judge(args, docs, verdict)
    good = [d for d in docs if "error" not in d]
    metrics: dict = {}
    if not args.trace and good:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(good).items()}
    elif args.trace and any(d["traced"] for d in good) \
            and any(not d["traced"] for d in good):
        traced = median_doc([d for d in good if d["traced"]])
        layers = per_layer(traced, [d for d in good if not d["traced"]])
        spans = args.store_dir / f"{args.workload}-spans.json"
        spans.write_text(json.dumps(traced["spans"]))
        print(f"spans of the median traced iteration: {spans}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        print(shape_report(args.workload, layers))
    else:
        verdict.check(False, "no iteration produced metrics")

    meta["iterations"] = len(docs)
    meta["units"] = {k: v["unit"] for k, v in metrics.items()}
    print("run-metadata " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(f"{'failed_ratio':28s} {ratio:.6g} ratio "
          f"({verdict.failed} of {verdict.attempted} points)")
    for problem in verdict.problems:
        print("FAILED: " + problem, file=sys.stderr)
    correct = verdict.failed == 0
    print(json.dumps({"correct": correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
