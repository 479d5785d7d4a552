"""Experiment registry: run any paper table/figure by its identifier.

Every entry takes ``(scale, workers, trace_cache, capture_workers)``.
The **simulation sweeps** (:data:`SIMULATION_EXPERIMENTS`: fig6, fig7,
table1, table3) honour all four — ``workers`` is the total process
budget of the shared :class:`~repro.sim.parallel.SimPool` both sweep
phases run on, ``capture_workers`` the soft share of that budget the
capture phase may hold while replays are pending (the two phases run
as a pipeline: replays start as traces land), and ``trace_cache`` lets
them attach to the suite's shared disk trace store.  The **static
experiments** (:data:`STATIC_EXPERIMENTS`: fig1, fig8, fig9, table2)
regenerate fixed paper data (survey points, floorplan geometry, area
models); they accept the same arguments so the registry stays uniform,
and ignore them *by contract* — :func:`static_experiment` documents the
intent and the test suite asserts the two sets exactly partition
:data:`EXPERIMENTS`, so a new entry must declare which kind it is.
"""

from __future__ import annotations

import functools
from typing import Callable

from ..sim.trace_cache import attach_store
from .fig6_scaling import render_fig6, run_fig6
from .fig7_latency import render_fig7, run_fig7
from .fig8_floorplan import render_fig8, run_fig8
from .fig9_area import render_fig9, run_fig9
from .survey import render_survey
from .table1_kernels import render_table1, run_table1
from .table2_area import render_table2, run_table2
from .table3_ppa import render_table3, run_table3

#: Experiments whose runners simulate kernels: ``scale``, ``workers``
#: and ``trace_cache`` all change how (never what) they compute.
SIMULATION_EXPERIMENTS = frozenset({"fig6", "fig7", "table1", "table3"})

#: Experiments that regenerate fixed paper data and deliberately ignore
#: ``scale``/``workers``/``trace_cache`` (see :func:`static_experiment`).
STATIC_EXPERIMENTS = frozenset({"fig1", "fig8", "fig9", "table2"})


def static_experiment(render: Callable[[], str]) -> Callable[..., str]:
    """Adapt a zero-argument static renderer to the registry signature.

    Static experiments have no simulation phase: there is no problem
    size to ``scale``, no batch for ``workers`` or ``capture_workers``
    to fan out, and no trace for a ``trace_cache`` to hold.  Accepting-and-dropping the
    arguments *here*, in one audited place, is what makes every other
    ``def _expN(scale, workers, trace_cache)`` ignoring a parameter a
    bug by definition.
    """
    @functools.wraps(render)
    def runner(scale: str, workers: int | None = 1, trace_cache=None,
               capture_workers: int | None = 1,
               job_timeout: float | None = None, sim_pool=None,
               machines=None) -> str:
        del scale, workers, trace_cache, capture_workers  # static data
        del job_timeout, sim_pool, machines
        return render()
    return runner


def _fig6(scale: str, workers: int | None = 1, trace_cache=None,
          capture_workers: int | None = 1,
          job_timeout: float | None = None, sim_pool=None,
          machines=None) -> str:
    return render_fig6(run_fig6(scale=scale, workers=workers,
                                trace_cache=trace_cache,
                                capture_workers=capture_workers,
                                job_timeout=job_timeout,
                                sim_pool=sim_pool,
                                machines=machines))


def _fig7(scale: str, workers: int | None = 1, trace_cache=None,
          capture_workers: int | None = 1,
          job_timeout: float | None = None, sim_pool=None,
          machines=None) -> str:
    # Fig 7 studies register cuts on one base machine at a time: with a
    # machine selection, the sweep runs once per machine and the tables
    # are concatenated (a single selection renders byte-identically to
    # the default when it names the default 64L machine).
    bases = machines if machines else [None]
    return "\n\n".join(
        render_fig7(run_fig7(scale=scale, workers=workers,
                             trace_cache=trace_cache,
                             capture_workers=capture_workers,
                             job_timeout=job_timeout,
                             sim_pool=sim_pool,
                             base_config=base))
        for base in bases)


def _table1(scale: str, workers: int | None = 1, trace_cache=None,
            capture_workers: int | None = 1,
            job_timeout: float | None = None, sim_pool=None,
            machines=None) -> str:
    # Table I measures kernel peaks on one machine at a time, like fig7.
    configs = machines if machines else [None]
    return "\n\n".join(
        render_table1(run_table1(scale=scale, workers=workers,
                                 trace_cache=trace_cache,
                                 capture_workers=capture_workers,
                                 job_timeout=job_timeout,
                                 sim_pool=sim_pool,
                                 config=config))
        for config in configs)


def _table3(scale: str, workers: int | None = 1, trace_cache=None,
            capture_workers: int | None = 1,
            job_timeout: float | None = None, sim_pool=None,
            machines=None) -> str:
    return render_table3(run_table3(scale=scale, workers=workers,
                                    trace_cache=trace_cache,
                                    capture_workers=capture_workers,
                                    job_timeout=job_timeout,
                                    sim_pool=sim_pool,
                                    configs=machines))


#: Experiment id -> callable(scale, workers, trace_cache,
#: capture_workers, job_timeout, sim_pool, machines) -> rendered text.
EXPERIMENTS: dict[str, Callable[..., str]] = {
    "fig1": static_experiment(render_survey),
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": static_experiment(lambda: render_fig8(run_fig8(lanes=16))),
    "fig9": static_experiment(lambda: render_fig9(run_fig9())),
    "table1": _table1,
    "table2": static_experiment(lambda: render_table2(run_table2())),
    "table3": _table3,
}

assert set(EXPERIMENTS) == SIMULATION_EXPERIMENTS | STATIC_EXPERIMENTS
assert not SIMULATION_EXPERIMENTS & STATIC_EXPERIMENTS


def run_experiment(name: str, scale: str = "paper",
                   workers: int | None = 1,
                   trace_store=None,
                   capture_workers: int | None = 1,
                   job_timeout: float | None = None,
                   sim_pool=None,
                   machines=None) -> str:
    """Run one experiment by id ('fig6', 'table3', ...); returns text.

    ``workers`` is the total worker-process budget of the shared
    :class:`~repro.sim.SimPool` the simulation sweeps run on (``None``
    autodetects, ``1`` stays in-process), and ``capture_workers`` is
    the soft share of that budget the capture phase may hold while
    replays are pending (``1``, the default, captures in-process; the
    value is clamped to the budget).
    ``trace_store`` attaches the run to a shared disk trace store: a
    :class:`~repro.sim.TraceCache` instance or a directory path; when
    omitted, ``$REPRO_TRACE_STORE`` names the store, and with neither
    the run keeps a private in-memory cache.  ``job_timeout`` arms the
    pool's per-job deadline (seconds; hung workers are cancelled and
    their jobs reassigned) and ``sim_pool`` substitutes an already-built
    shared pool, in which case the other pool knobs are ignored.
    Rendered output is byte-identical for any ``workers`` value, any
    store state (cold, warm, or GC'd mid-run), and any recovered fault.

    ``machines`` substitutes the machine selection of the simulation
    sweeps: a sequence of :class:`~repro.params.SystemConfig` objects,
    typically resolved from registry names or spec files via
    :func:`repro.machine.get_machine`.  fig6 and table3 sweep the whole
    selection in one table; fig7 and table1 run once per machine
    (concatenating tables); static experiments ignore it by contract.
    ``None`` keeps each experiment's paper defaults, and a selection
    naming exactly the defaults renders byte-identically to them.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    cache = attach_store(trace_store) if name in SIMULATION_EXPERIMENTS \
        else None
    return runner(scale, workers, cache, capture_workers,
                  job_timeout, sim_pool, machines)
