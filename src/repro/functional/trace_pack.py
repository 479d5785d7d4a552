"""Columnar (struct-of-arrays) traces: the one trace form and its blob.

A capture retires 10^3-10^5 instructions.  Instead of one Python object
per retired instruction, the interpreter appends each one straight into
per-kind column lists through a :class:`TraceWriter`, and the finished
trace is a :class:`ColumnTrace` of numpy columns ("struct of arrays"):

* a ``tags`` byte per event (scalar / vsetvl / vector / fallback) keeps
  the original interleaving, so the stream order -- which the timing
  engine replays sequentially -- survives exactly;
* per-kind columns (opcode ids, operand program indices, ``vl`` /
  ``sew`` / ``lmul``, memory base/stride/count, element widths) hold the
  payload;
* the rare event that does not fit a column (an out-of-range field such
  as a 64-bit unsigned base address, a foreign event class, an
  instruction that is not part of the program) is kept whole in a
  ``fallback`` map keyed by event index; its tag marks the position.

Vector events reference their :class:`~repro.isa.instructions
.Instruction` by *index into the program's instruction tuple* -- during
capture that is simply the program counter.

:func:`pack_trace` turns the columns into the v6 envelope payload: raw
little-endian array bytes behind a small pickled header (the fallback
map is pickled into it), which :func:`unpack_trace` wraps again as a
:class:`ColumnTrace` of :func:`numpy.frombuffer` views -- zero-copy over
the envelope's decompressed payload bytes.  The replay-plan compiler
(:mod:`repro.timing.replay_plan`) reads the columns directly; event
objects (:mod:`repro.functional.trace`) are built lazily, on first use
of :attr:`ColumnTrace.events`, only for consumers that genuinely need
them (the reference replay, tests, the fuzz properties).  Hand-built event
lists become a trace through :meth:`ColumnTrace.from_events`, which
feeds the same writer.
"""

from __future__ import annotations

import pickle
import struct
from typing import Iterator

import numpy as np

from ..isa.instructions import MemPattern
from ..isa.program import Program
from .trace import MemAccess, ScalarEvent, VectorEvent, VsetvlEvent

__all__ = ["PACK_VERSION", "ColumnTrace", "TraceWriter", "pack_trace",
           "unpack_trace"]

#: Version of the column layout inside the blob (independent of the
#: envelope's ``DISK_FORMAT_VERSION``, which gates the file as a whole).
PACK_VERSION = 1

#: Leading magic of every packed-trace blob.
MAGIC = b"RVT6"

#: Event tags (one byte per event, preserving stream order).
TAG_SCALAR, TAG_VSETVL, TAG_VECTOR, TAG_FALLBACK = 0, 1, 2, 3

#: Fixed pattern vocabulary: index in this tuple is the on-disk code.
PATTERNS = (MemPattern.NONE, MemPattern.UNIT, MemPattern.STRIDED,
             MemPattern.INDEXED, MemPattern.MASK)
PATTERN_CODE = {p: i for i, p in enumerate(PATTERNS)}

#: Column table: ``(name, dtype, count group, delta-coded)``.  The
#: count group keys how many rows a column has — ``t``: one per event,
#: ``s``: one per packed scalar, ``w``: one per packed vsetvl, ``v``:
#: one per packed vector event (memory rows are zero for events
#: without a MemAccess; ``v_flags`` bit 0 says whether one is present,
#: bit 1 whether it is a store).  Because dtypes and order are static,
#: the blob header only carries the four group counts; offsets are
#: recomputed by :func:`_layout` on both sides.  Wide integer columns
#: are *delta-coded* (first value kept, successive differences after
#: it, exact under two's-complement wraparound): traces are dominated
#: by near-constant or striding sequences — ``vl``, strides, unit-
#: stride addresses — which become zero/constant runs the envelope's
#: zlib pass collapses.
_COLUMNS = (
    ("tags", "u1", "t", False),
    ("s_kind", "u2", "s", False),
    ("s_addr", "i8", "s", True),
    ("s_nbytes", "i8", "s", True),
    ("w_vl", "i8", "w", True),
    ("w_sew", "u1", "w", False),
    ("w_lmul", "u1", "w", False),
    ("v_instr", "i4", "v", True),
    ("v_vl", "i8", "v", True),
    ("v_sew", "u1", "v", False),
    ("v_lmul", "u1", "v", False),
    ("v_slide", "i8", "v", True),
    ("v_flags", "u1", "v", False),
    ("m_base", "i8", "v", True),
    ("m_stride", "i8", "v", True),
    ("m_count", "i8", "v", True),
    ("m_ew", "u1", "v", False),
    ("m_pattern", "u1", "v", False),
)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _ints(*values) -> bool:
    return all(isinstance(value, int) for value in values)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _layout(counts: dict) -> tuple[dict, int]:
    """Column table ``{name: (dtype, offset, count)}`` plus total bytes,
    computed from the static schema and the four group counts — the
    same arithmetic on the pack and unpack side, so the header never
    has to spell the table out."""
    table: dict[str, tuple] = {}
    offset = 0
    for name, dtype, group, _ in _COLUMNS:
        dt = np.dtype(dtype)
        offset = _align8(offset)
        count = counts[group]
        table[name] = (dt, offset, count)
        offset += dt.itemsize * count
    return table, offset


def _delta_encode(arr: np.ndarray) -> np.ndarray:
    """First value, then successive differences.  Two's-complement
    wraparound makes :func:`_delta_decode` an exact inverse even at the
    i64 boundaries."""
    out = arr.copy()
    out[1:] -= arr[:-1]
    return out


def _delta_decode(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr, dtype=arr.dtype)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
class TraceWriter:
    """Column builders for one trace, plus its aggregate counters.

    The interpreter drives it once per retired instruction
    (:meth:`scalar`, :meth:`vsetvl`, :meth:`vector`) with Python ints,
    the only values its state holds (:meth:`ColumnTrace.from_events`
    checks the types of hand-built events first).  The writer checks
    the ranges: an event whose fields do not fit the column schema --
    such as a 64-bit unsigned base address -- is kept whole in the
    fallback map instead.  :meth:`finish` hands the columns over as a
    :class:`ColumnTrace`.
    """

    __slots__ = tuple(name for name, _, _, _ in _COLUMNS) + (
        "program", "kinds", "fallback", "scalar_count", "vector_count",
        "total_flops", "_kind_code", "_flops")

    def __init__(self, program: Program) -> None:
        for name, _, _, _ in _COLUMNS:
            setattr(self, name, [])
        self.program = program
        self.kinds: list[str] = []
        self.fallback: dict[int, object] = {}
        self.scalar_count = 0
        self.vector_count = 0
        self.total_flops = 0.0
        self._kind_code: dict[str, int] = {}
        self._flops = [instr.spec.flops for instr in program.instructions]

    def _fall_back(self, event) -> None:
        self.fallback[len(self.tags)] = event
        self.tags.append(TAG_FALLBACK)

    def scalar(self, event: ScalarEvent) -> None:
        """Append a retired scalar instruction."""
        self.scalar_count += 1
        kind, addr, nbytes = event.kind, event.addr, event.nbytes
        if not (_I64_MIN <= nbytes <= _I64_MAX
                and (addr is None or 0 <= addr <= _I64_MAX)):
            self._fall_back(event)
            return
        code = self._kind_code.get(kind)
        if code is None:
            code = self._kind_code[kind] = len(self.kinds)
            if code > 0xFFFF:
                raise ValueError("scalar kind vocabulary overflow")
            self.kinds.append(kind)
        self.tags.append(TAG_SCALAR)
        self.s_kind.append(code)
        self.s_addr.append(-1 if addr is None else addr)
        self.s_nbytes.append(nbytes)

    def vsetvl(self, vl: int, sew: int, lmul: int) -> None:
        """Append a retired ``vsetvli``."""
        self.scalar_count += 1
        if not (_I64_MIN <= vl <= _I64_MAX and 0 <= sew <= 255
                and 0 <= lmul <= 255):
            self._fall_back(VsetvlEvent(vl, sew, lmul))
            return
        self.tags.append(TAG_VSETVL)
        self.w_vl.append(vl)
        self.w_sew.append(sew)
        self.w_lmul.append(lmul)

    def vector(self, index: int, vl: int, sew: int, lmul: int, mem,
               slide: int) -> None:
        """Append a retired vector instruction: ``program.instructions
        [index]`` at ``vl``/``sew``/``lmul``; ``mem`` is ``None`` or the
        :class:`~repro.functional.trace.MemAccess` fields as a tuple."""
        self.vector_count += 1
        self.total_flops += self._flops[index] * vl
        flat = (_I64_MIN <= vl <= _I64_MAX and 0 <= sew <= 255
                and 0 <= lmul <= 255 and _I64_MIN <= slide <= _I64_MAX)
        if flat and mem is not None:
            base, stride, count, ew_bytes, pattern, is_store = mem
            flat = (_I64_MIN <= base <= _I64_MAX
                    and _I64_MIN <= stride <= _I64_MAX
                    and _I64_MIN <= count <= _I64_MAX
                    and 0 <= ew_bytes <= 255 and pattern in PATTERN_CODE)
        if not flat:
            self._fall_back(VectorEvent(
                self.program.instructions[index], vl, sew, lmul,
                None if mem is None else MemAccess(*mem), slide))
            return
        self.tags.append(TAG_VECTOR)
        self.v_instr.append(index)
        self.v_vl.append(vl)
        self.v_sew.append(sew)
        self.v_lmul.append(lmul)
        self.v_slide.append(slide)
        if mem is None:
            self.v_flags.append(0)
            self.m_base.append(0)
            self.m_stride.append(0)
            self.m_count.append(0)
            self.m_ew.append(0)
            self.m_pattern.append(0)
        else:
            self.v_flags.append(3 if is_store else 1)
            self.m_base.append(base)
            self.m_stride.append(stride)
            self.m_count.append(count)
            self.m_ew.append(ew_bytes)
            self.m_pattern.append(PATTERN_CODE[pattern])

    def other(self, event) -> None:
        """Append an event object that is kept whole (fallback)."""
        ecls = event.__class__
        if ecls is VectorEvent:
            self.vector_count += 1
            # Not ``event.flops``: that cached property would grow the
            # event's pickled state.
            self.total_flops += event.instr.spec.flops * event.vl
        elif ecls is ScalarEvent or ecls is VsetvlEvent:
            self.scalar_count += 1
        self._fall_back(event)

    def finish(self) -> "ColumnTrace":
        """The written trace (the writer must not be used afterwards)."""
        columns = {}
        for name, dtype, _, _ in _COLUMNS:
            values = getattr(self, name)
            columns[name] = np.fromiter(values, dtype=dtype,
                                        count=len(values))
        fallback = (pickle.dumps(self.fallback,
                                 protocol=pickle.HIGHEST_PROTOCOL)
                    if self.fallback else b"")
        return ColumnTrace(self.program, columns, tuple(self.kinds),
                           fallback, self.scalar_count, self.vector_count,
                           self.total_flops)


# ----------------------------------------------------------------------
# The trace
# ----------------------------------------------------------------------
class ColumnTrace:
    """A dynamic trace as v6 columns plus its aggregate counters.

    ``columns`` maps every :data:`_COLUMNS` name to a plain (not
    delta-coded) array, ``kinds`` is the scalar-kind vocabulary the
    ``s_kind`` column indexes, and ``fallback_bytes`` the pickled
    ``{event index: event}`` map of events kept whole (``b""`` when
    there are none; pickled once, so what the events view or a replay
    caches on those objects never leaks back into the trace).  ``blob``
    is the packed form when the trace came from one (so re-packing is
    free), else ``None``.
    ``_plan`` caches the timing engine's compiled replay plan (see
    :mod:`repro.timing.replay_plan`) across the many machine models one
    capture is replayed against; ``_events`` caches :attr:`events`.
    Neither is pickled: a trace pickles as its blob.  A trace is never
    mutated after it is written.
    """

    __slots__ = ("program", "columns", "kinds", "fallback_bytes",
                 "scalar_count", "vector_count", "total_flops", "blob",
                 "_events", "_plan")

    def __init__(self, program: Program, columns: dict, kinds: tuple,
                 fallback_bytes: bytes, scalar_count: int,
                 vector_count: int, total_flops: float,
                 blob: bytes | None = None) -> None:
        self.program = program
        self.columns = columns
        self.kinds = kinds
        self.fallback_bytes = fallback_bytes
        self.scalar_count = scalar_count
        self.vector_count = vector_count
        self.total_flops = total_flops
        self.blob = blob
        self._events = None
        self._plan = None

    @classmethod
    def from_events(cls, events, program: Program) -> "ColumnTrace":
        """Write a hand-built event stream against ``program``.

        An event is kept whole when a field the columns hold is not an
        int (or a scalar kind not a string), when a vector event's
        instruction is not (by identity) one of the program's or its
        ``mem`` is not a plain ``MemAccess``, and when its class is
        foreign.
        """
        writer = TraceWriter(program)
        index = {id(instr): i for i, instr in enumerate(program.instructions)}
        for event in events:
            ecls = event.__class__
            if ecls is ScalarEvent:
                if isinstance(event.kind, str) and _ints(event.nbytes) \
                        and (event.addr is None or _ints(event.addr)):
                    writer.scalar(event)
                    continue
            elif ecls is VsetvlEvent:
                if _ints(event.vl, event.sew, event.lmul):
                    writer.vsetvl(event.vl, event.sew, event.lmul)
                    continue
            elif ecls is VectorEvent:
                mem = event.mem
                if ((mem is None or (type(mem) is MemAccess
                                     and _ints(mem.base, mem.stride,
                                               mem.count, mem.ew_bytes)))
                        and id(event.instr) in index
                        and _ints(event.vl, event.sew, event.lmul,
                                  event.slide_amount)):
                    if mem is not None:
                        mem = (mem.base, mem.stride, mem.count,
                               mem.ew_bytes, mem.pattern, mem.is_store)
                    writer.vector(index[id(event.instr)], event.vl,
                                  event.sew, event.lmul, mem,
                                  event.slide_amount)
                    continue
            writer.other(event)
        return writer.finish()

    def __reduce__(self):
        return unpack_trace, (pack_trace(self, self.program), self.program)

    def __len__(self) -> int:
        return len(self.columns["tags"])

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def fallback_events(self) -> dict:
        """The ``{event index: event}`` map of events kept whole,
        unpickled afresh on every call."""
        if not self.fallback_bytes:
            return {}
        return pickle.loads(self.fallback_bytes)

    @property
    def events(self) -> list:
        """Event objects in stream order (built on first access, cached)."""
        events = self._events
        if events is None:
            events = self._events = _build_events(self)
        return events


def _build_events(trace: ColumnTrace) -> list:
    cols = {name: arr.tolist() for name, arr in trace.columns.items()}
    kinds = trace.kinds
    instructions = trace.program.instructions
    fallback = trace.fallback_events()
    scalars = zip(cols["s_kind"], cols["s_addr"], cols["s_nbytes"])
    vsetvls = zip(cols["w_vl"], cols["w_sew"], cols["w_lmul"])
    vectors = zip(*(cols[name] for name, _, group, _ in _COLUMNS
                    if group == "v"))
    events: list = []
    append = events.append
    for index, tag in enumerate(cols["tags"]):
        if tag == TAG_SCALAR:
            kind, addr, nbytes = next(scalars)
            append(ScalarEvent(kinds[kind], None if addr < 0 else addr,
                               nbytes))
        elif tag == TAG_VSETVL:
            append(VsetvlEvent(*next(vsetvls)))
        elif tag == TAG_VECTOR:
            (instr, vl, sew, lmul, slide, flags, base, stride, count, ew,
             pattern) = next(vectors)
            mem = None
            if flags & 1:
                mem = MemAccess(base, stride, count, ew, PATTERNS[pattern],
                                bool(flags & 2))
            append(VectorEvent(instructions[instr], vl, sew, lmul, mem,
                               slide))
        else:
            append(fallback[index])
    return events


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def pack_trace(trace: ColumnTrace, program: Program) -> bytes:
    """The v6 blob of ``trace``: columns behind a pickled header.

    Vector rows index ``program``'s instruction tuple, so it must be
    the program the trace was written against.  A trace unpacked from a
    blob returns that blob unchanged.  The result round-trips through
    :func:`unpack_trace` to a trace with identical columns, counters
    and events.
    """
    if program is not trace.program:
        raise ValueError("the trace indexes a different program")
    if trace.blob is not None:
        return bytes(trace.blob)
    cols = trace.columns
    counts = {"t": len(cols["tags"]), "s": len(cols["s_kind"]),
              "w": len(cols["w_vl"]), "v": len(cols["v_instr"])}
    table, _ = _layout(counts)
    header = {
        "pack": PACK_VERSION,
        "counts": (counts["t"], counts["s"], counts["w"], counts["v"]),
        "scalar_count": trace.scalar_count,
        "vector_count": trace.vector_count,
        "total_flops": trace.total_flops,
        "kinds": trace.kinds,
        "fallback": trace.fallback_bytes,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    region = _align8(len(MAGIC) + 4 + len(header_bytes))
    parts = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes,
             b"\x00" * (region - len(MAGIC) - 4 - len(header_bytes))]
    cursor = 0
    for name, _, _, delta in _COLUMNS:
        _, off, _ = table[name]
        arr = cols[name]
        if delta and len(arr) > 1:
            arr = _delta_encode(arr)
        if off > cursor:
            parts.append(b"\x00" * (off - cursor))
            cursor = off
        parts.append(arr.tobytes())
        cursor += arr.nbytes
    return b"".join(parts)


# ----------------------------------------------------------------------
# Unpacking
# ----------------------------------------------------------------------
def unpack_trace(blob: bytes, program: Program) -> ColumnTrace:
    """Wrap a packed blob as a :class:`ColumnTrace` of column views.

    Validates the magic, layout version, column table and tag column;
    raises ``ValueError`` for anything that is not a well-formed v6
    blob (the disk tier treats that as a corrupt entry and purges it).
    """
    if bytes(blob[:4]) != MAGIC:
        raise ValueError("not a packed-trace blob (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + header_len > len(blob):
        raise ValueError("packed-trace header overruns the blob")
    header = pickle.loads(bytes(blob[8:8 + header_len]))
    if not isinstance(header, dict) or header.get("pack") != PACK_VERSION:
        raise ValueError("unsupported packed-trace layout version")
    region = _align8(8 + header_len)
    raw_counts = header.get("counts")
    if (not isinstance(raw_counts, tuple) or len(raw_counts) != 4
            or any((not isinstance(c, int)) or c < 0 for c in raw_counts)):
        raise ValueError("packed-trace header has malformed counts")
    counts = dict(zip("tswv", raw_counts))
    table, total = _layout(counts)
    if region + total > len(blob):
        raise ValueError("packed-trace columns overrun the blob")
    columns: dict[str, np.ndarray] = {}
    for name, _, _, delta in _COLUMNS:
        dt, off, count = table[name]
        arr = np.frombuffer(blob, dtype=dt, count=count,
                            offset=region + off)
        if delta and count > 1:
            arr = _delta_decode(arr)
        columns[name] = arr
    tally = np.bincount(columns["tags"], minlength=TAG_FALLBACK + 1)
    if (tally.size > TAG_FALLBACK + 1
            or tuple(tally[:TAG_FALLBACK].tolist())
            != (counts["s"], counts["w"], counts["v"])):
        raise ValueError("packed-trace tag column disagrees with the "
                         "header counts")
    return ColumnTrace(program, columns, header["kinds"], header["fallback"],
                       int(header["scalar_count"]),
                       int(header["vector_count"]), header["total_flops"],
                       blob)
