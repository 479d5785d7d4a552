"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The simulator carries no spans of its own, so this module wraps each
layer's public functions at the name its callers use (a class attribute
for methods, the importing module's global for functions imported by
name) and records one span per outermost call: name, start, end and
parent.  Spans stay in memory until the run ends.  A layer's self time
is its spans' durations minus the time their child spans cover; the
root span ``run`` covers the whole measured run, so its self time is
``other.s`` and the self times always sum to the traced wall time.

A call into a layer that is already open on the stack (a builder that
reaches another wrapped builder, say) joins the open span instead of
opening a nested one, so calls are counted once per outermost entry.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

#: Layers in report order; ``run`` is the root span (its self time is
#: reported as ``other.s``).
LAYERS = ("kernels.build", "capture", "pack", "store.put", "store.get",
          "unpack", "plan", "rows", "replay_loop", "pool", "render")


@dataclass(slots=True)
class Span:
    """One recorded call: layer name, start/end clock and parent index."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: Seconds covered by direct child spans.
    child_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder plus the per-layer work counters."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _bundles: dict = field(default_factory=dict)

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (the innermost open one)."""
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to the work counter ``key``."""
        self.counts[key] += amount

    def _open_layer(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` recording a ``layer`` span per outermost call.

        ``on_result(args, result)`` runs after the call, inside the
        span's bookkeeping but outside its timed interval, to count
        the layer's work.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer._open_layer() == layer:
                return fn(*args, **kwargs)
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.count(layer + ".calls")
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def _replace(self, owner, attr, new) -> None:
        """Set ``owner[attr]`` (dict) or ``owner.attr``, remembering the
        original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def patch(self, owner, attr: str, layer: str, on_result=None,
              kind=None) -> None:
        """Trace ``owner.attr``; ``kind`` re-applies a descriptor such
        as ``classmethod`` around the wrapper."""
        raw = vars(owner)[attr]
        fn = raw.__func__ if kind is not None else raw
        wrapped = self.wrap(layer, fn, on_result)
        self._replace(owner, attr, kind(wrapped) if kind else wrapped)

    def install(self) -> "Tracer":
        """Wrap every layer's entry points.  Import-heavy, so callers
        time it as set-up."""
        import repro.eval.runner as runner
        import repro.eval.table3_ppa as table3
        import repro.kernels as kernels
        import repro.sim.trace_cache as trace_cache
        from repro.functional.executor import Executor
        from repro.sim.parallel import CaptureTask, SimPool
        from repro.sim.trace_cache import TraceCache
        from repro.timing.engine import TimingEngine
        from repro.timing.replay_plan import ReplayPlan

        def on_capture(_args, result):
            self.count("capture.events", len(result.trace))

        def on_pack(args, blob):
            self.count("pack.events", len(args[0]))
            self.count("pack.bytes", len(blob))

        def on_plan(args, _plan):
            self.count("plan.events", len(args[-1]))  # args: (cls, trace)

        def on_rows(_args, bundle):
            # The memo returns the very bundle it built earlier; a
            # bundle whose report is still unset sends the replay loop
            # over every row.
            if id(bundle) in self._bundles:
                self.count("rows.memo_hits")
            else:
                self._bundles[id(bundle)] = bundle
                self.count("rows.rows", len(bundle.rows))
            if bundle.report is None:
                self.count("replay_loop.rows", len(bundle.rows))

        # One wrapper per builder, shared by every name it is reached
        # through: the two registries and table3's by-name import.
        traced = {}
        for table in (kernels.KERNELS, kernels.ZOO):
            for name, fn in list(table.items()):
                if fn not in traced:
                    traced[fn] = self.wrap("kernels.build", fn)
                self._replace(table, name, traced[fn])
        self._replace(table3, "build_fmatmul", traced[table3.build_fmatmul])
        self.patch(CaptureTask, "build", "kernels.build")
        self.patch(Executor, "run", "capture", on_capture)
        self.patch(trace_cache, "pack_trace", "pack", on_pack)
        self.patch(TraceCache, "put", "store.put")
        self.patch(TraceCache, "get", "store.get")
        self.patch(trace_cache, "unpack_trace", "unpack")
        self.patch(ReplayPlan, "from_trace", "plan", on_plan,
                   kind=classmethod)
        self.patch(ReplayPlan, "machine_rows", "rows", on_rows)
        self.patch(TimingEngine, "replay", "replay_loop")
        self.patch(SimPool, "run", "pool")
        for name in ("render_fig6", "render_fig7", "render_table1",
                     "render_table3"):
            self.patch(runner, name, "render")
        return self

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # -- reduction -----------------------------------------------------
    def layer_metrics(self) -> dict:
        """Self time per layer plus the per-unit rates, from the spans.

        Requires the root ``run`` span to be closed.
        """
        self_s = dict.fromkeys(LAYERS, 0.0)
        wall = 0.0
        other = 0.0
        for span in self.spans:
            own = (span.end - span.start) - span.child_s
            if span.name == "run":
                wall += span.end - span.start
                other += own
            else:
                self_s[span.name] += own
        c = self.counts
        out = {f"{layer}.s": self_s[layer] for layer in LAYERS}
        out["other.s"] = other
        out["traced_wall_s"] = wall
        for key in ("kernels.build.calls", "capture.calls", "capture.events",
                    "pack.bytes", "store.put.calls", "store.get.calls",
                    "plan.calls", "plan.events", "rows.calls", "rows.rows",
                    "rows.memo_hits", "replay_loop.calls"):
            out[key] = c[key]
        out["capture.ns_per_event"] = _per(self_s["capture"],
                                           c["capture.events"])
        out["pack.ns_per_event"] = _per(self_s["pack"], c["pack.events"])
        out["plan.ns_per_event"] = _per(self_s["plan"], c["plan.events"])
        out["replay_loop.ns_per_row"] = _per(self_s["replay_loop"],
                                             c["replay_loop.rows"])
        out["plan.replays_per_compile"] = (
            c["replay_loop.calls"] / c["plan.calls"]
            if c["plan.calls"] else 0.0)
        return out


def _per(seconds: float, units: float) -> float:
    """Nanoseconds per unit of work (0 when the layer did no work)."""
    return seconds * 1e9 / units if units else 0.0
