"""CVA6 frontend timing: scalar instruction costs and the D$ model.

The scalar core matters to the evaluation only through the *setup time* it
adds around vector instructions (Section IV-B: at 64 B/lane neither design
can hide "the latency of scalar loads-stores through the data-cache").
We model an in-order single-issue pipeline: one cycle per ALU op, a
load-to-use latency through a direct-mapped D$, a taken-branch penalty,
and a pipelined scalar FPU.

The D$ model (:class:`DirectMappedCache`) lives here, next to its only
user.  Only its hit/miss behaviour reaches a rendered number, so it is
tag-only: no data storage, no write-back traffic.
"""

from __future__ import annotations

from ..functional.trace import ScalarEvent
from ..params import ScalarCoreConfig

__all__ = ["ScalarFrontend", "DirectMappedCache"]


class DirectMappedCache:
    """Tag-only direct-mapped cache (hit/miss timing, no data)."""

    def __init__(self, size_bytes: int, line_bytes: int) -> None:
        self.line_bytes = line_bytes
        self.num_lines = max(1, size_bytes // line_bytes)
        self._tags: list[int | None] = [None] * self.num_lines
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit and fills on miss."""
        line = addr // self.line_bytes
        index = line % self.num_lines
        if self._tags[index] == line:
            self.hits += 1
            return True
        self._tags[index] = line
        self.misses += 1
        return False


class ScalarFrontend:
    """Accumulates CVA6 cycles over the scalar event stream."""

    def __init__(self, config: ScalarCoreConfig, l2_latency: int) -> None:
        self.config = config
        self.l2_latency = l2_latency
        self.dcache = DirectMappedCache(config.dcache_bytes,
                                        config.dcache_line_bytes)
        self.cycles_by_kind: dict[str, float] = {}
        #: State-independent per-kind costs (everything except the D$-
        #: dependent loads/stores).  The replay hot loop reads this table
        #: directly and bypasses :meth:`cost` for these kinds, so
        #: ``cycles_by_kind`` only accumulates loads/stores there.
        #: FP charges half the pipelined latency as the average exposure
        #: (dependent scalar FP chains are rare in the kernels).
        self.fixed_costs: dict[str, float] = {
            "alu": float(config.alu_latency),
            "mul": 2.0,
            "div": 10.0,
            "fp": max(1.0, config.fpu_latency / 2),
            "branch": 1.0,
            "branch_taken": 1.0 + config.branch_penalty,
        }

    def cost(self, event: ScalarEvent) -> float:
        cfg = self.config
        kind = event.kind
        fixed = self.fixed_costs.get(kind)
        if fixed is not None:
            cycles = fixed
        elif kind == "load":
            hit = self.dcache.access(event.addr or 0)
            cycles = float(cfg.dcache_hit_latency)
            if not hit:
                cycles += cfg.dcache_miss_penalty + self.l2_latency
        elif kind == "store":
            # Write-through store buffer: a cycle unless the line misses.
            hit = self.dcache.access(event.addr or 0)
            cycles = 1.0 if hit else 2.0
        else:
            cycles = 1.0
        self.cycles_by_kind[kind] = self.cycles_by_kind.get(kind, 0.0) + cycles
        return cycles
