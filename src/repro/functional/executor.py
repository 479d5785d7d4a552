"""Functional interpreter: runs a program to completion, writing a trace.

The executor walks the instruction list with a program counter, delegating
scalar semantics to :class:`~repro.functional.scalar.ScalarUnit` and vector
semantics to :class:`~repro.functional.vector.VectorUnit`.  It owns the
``vsetvli`` behaviour because that instruction couples scalar state (rd,
rs1) with vector configuration state (vl, vtype).

The hot loop runs over the program's pre-decoded
:class:`~repro.functional.plan.InstrPlan` tuple (built once per program,
cached on the program object): dispatch is an integer tag compare, branch
targets are pre-resolved instruction indices, and scalar handlers are
pre-bound callables — no per-retirement string or dict lookups.  Each
retired instruction goes straight into the trace's columns through a
:class:`~repro.functional.trace_pack.TraceWriter`, with the program
counter as the vector rows' instruction index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError
from ..isa.program import Program
from ..isa.vtype import vsetvl_result
from .memory import FunctionalMemory
from .plan import K_HALT, K_SCALAR, K_VECTOR, K_VSETVLI, plans_for
from .scalar import ScalarUnit
from .state import ArchState
from .trace_pack import ColumnTrace, TraceWriter
from .vector import VectorUnit

#: Hard cap on retired instructions so a buggy kernel cannot hang a test
#: run; the largest paper workload retires well under this.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


@dataclass
class ExecResult:
    """Outcome of a functional run."""

    state: ArchState
    trace: ColumnTrace
    retired: int
    program: Program
    halted: bool = True
    extra: dict = field(default_factory=dict)


class Executor:
    """Drives a :class:`Program` against fresh or provided machine state."""

    def __init__(self, vlen_bits: int, mem: FunctionalMemory | None = None,
                 state: ArchState | None = None) -> None:
        self.mem = mem if mem is not None else FunctionalMemory()
        self.state = state if state is not None else ArchState(vlen_bits)
        if self.state.vlen_bits != vlen_bits:
            raise ExecutionError(
                f"state VLEN {self.state.vlen_bits} != requested {vlen_bits}"
            )
        self._scalar = ScalarUnit(self.state, self.mem)
        self._vector = VectorUnit(self.state, self.mem)

    # ------------------------------------------------------------------
    def run(self, program: Program,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> ExecResult:
        """Execute until ``halt`` or the end of the program."""
        writer = TraceWriter(program)
        write_scalar = writer.scalar
        write_vector = writer.vector
        plans = plans_for(program)
        scalar_unit = self._scalar
        vector_exec = self._vector.execute_plan
        pc = 0
        retired = 0
        n = len(plans)
        while pc < n:
            if retired >= max_instructions:
                raise ExecutionError(
                    f"exceeded {max_instructions} retired instructions "
                    f"(runaway loop in {program.name}?)"
                )
            p = plans[pc]
            kind = p.kind
            if kind == K_VECTOR:
                retired += 1
                write_vector(pc, *vector_exec(p))
                pc += 1
            elif kind == K_SCALAR:
                retired += 1
                taken, event = p.scalar_fn(scalar_unit, p)
                write_scalar(event)
                pc = p.target_idx if taken else pc + 1
            elif kind == K_VSETVLI:
                retired += 1
                writer.vsetvl(*self._vsetvli(p))
                pc += 1
            elif kind == K_HALT:
                retired += 1
                return ExecResult(self.state, writer.finish(), retired,
                                  program, halted=True)
            else:  # pragma: no cover - labels aren't emitted
                pc += 1
        return ExecResult(self.state, writer.finish(), retired, program,
                          halted=False)

    # ------------------------------------------------------------------
    def _vsetvli(self, p) -> tuple[int, int, int]:
        """Apply a ``vsetvli``; returns the new ``(vl, sew, lmul)``."""
        state = self.state
        vtype, sew_i, lmul_i = p.aux
        vlmax = state.vlen_bits * lmul_i // sew_i
        if p.rs1 == 0:
            # rs1=x0: rd!=x0 requests VLMAX; rd==x0 keeps vl (vtype change).
            new_vl = vlmax if p.rd != 0 else min(state.vl, vlmax)
        else:
            avl = state.x.read_unsigned(p.rs1)
            new_vl = vsetvl_result(avl, vtype, state.vlen_bits)
        state.vtype = vtype
        state.vl = new_vl
        state.x.write(p.rd, new_vl)
        return new_vl, sew_i, lmul_i
