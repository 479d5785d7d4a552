"""Workload definitions shared by the driver (``run.py``) and the
fresh-interpreter phases (``worker.py``).

``sweep-cold`` and ``sweep-warm`` run the paper's four simulation
experiments; the seed does not change them.  ``knob-sweep`` replays a
seeded draw of distinct timing-knob machines against a few paper-scale
kernels.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The paper's simulation experiments, in registry order.
EXPERIMENTS = ("fig6", "fig7", "table1", "table3")

#: Workload name -> whether set-up fills the trace store first.
WORKLOADS = {"sweep-cold": False, "sweep-warm": True, "knob-sweep": True}

#: Scale of the paper sweeps by default.  A paper-scale cold sweep takes
#: about 38 s and 1.2 GB on a 2-core host, and ``sweep-warm`` pays that
#: again as set-up, so neither fits one run; ``reduced`` keeps every
#: layer and the same operating points with smaller problems.
DEFAULT_SCALE = "reduced"

#: knob-sweep: lane count shared by every drawn machine (one VLEN, so
#: one trace per kernel), the kernels (paper-scale problem sizes) and
#: the number of distinct knob settings drawn per seed.
KNOB_LANES = 32
KNOB_KERNELS = (("fmatmul", 256, {}), ("fconv2d", 256, {}),
                ("fdotproduct", 256, {}), ("softmax", 256, {}))
KNOB_SPECS = 24

#: The timing knobs and the ranges the draw takes them from.
KNOB_RANGES = {"ring_hop_latency": range(1, 9),
               "glsu_extra_regs": range(0, 17),
               "unit_queue_depth": range(1, 9)}

#: (trace, machine) pairs per run checked against the reference replay.
KNOB_REFERENCE_SAMPLES = 2


def knob_draw(seed: int) -> list[dict]:
    """``KNOB_SPECS`` distinct knob settings drawn from ``seed``."""
    grid = list(itertools.product(*KNOB_RANGES.values()))
    picks = random.Random(seed).sample(grid, KNOB_SPECS)
    return [dict(zip(KNOB_RANGES, point)) for point in picks]


def knob_configs(seed: int) -> list:
    """The drawn machines: 32-lane AraXL with each knob setting."""
    from repro.params import AraXLConfig

    return [AraXLConfig(lanes=KNOB_LANES, **knobs)
            for knobs in knob_draw(seed)]


def reference_dir(scale: str) -> Path:
    """Where the reference renders and counts for ``scale`` live."""
    return HERE / "reference" / scale


def reference_counts(scale: str) -> dict:
    """Pinned per-experiment report and instruction counts."""
    return json.loads((reference_dir(scale) / "counts.json").read_text())
