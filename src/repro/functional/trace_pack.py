"""Columnar (struct-of-arrays) trace packing: the v6 envelope payload.

A captured :class:`~repro.functional.trace.DynamicTrace` is a list of
small Python objects — perfect for capture, terrible for a disk tier:
pickling builds (and unpickling rebuilds) one heap object per retired
instruction, which dominates warm-path latency once traces reach 10^5
events.  This module flattens the event stream into per-kind numpy
columns ("struct of arrays"):

* a ``tags`` byte per event (scalar / vsetvl / vector / fallback) keeps
  the original interleaving, so the stream order — which the timing
  engine replays sequentially — survives exactly;
* per-kind columns (opcode ids, operand program indices, ``vl`` /
  ``sew`` / ``lmul``, memory base/stride/count, element widths) hold the
  payload as raw little-endian array bytes;
* a small pickled header maps each column name to its ``(dtype, offset,
  count)`` slice of the blob, so readers materialize views with
  :func:`numpy.frombuffer` — zero-copy over the envelope's decompressed
  payload bytes;
* the rare event that does not flatten (an unknown subclass, an
  out-of-range field, an instruction that is not part of the program)
  is pickled whole into a ``fallback`` map keyed by event index; its
  tag marks the position, so mixed traces round-trip losslessly.

Vector events reference their :class:`~repro.isa.instructions
.Instruction` by *index into the program's instruction tuple* — the
program ships alongside the blob in the envelope payload, so unpacking
re-links events to the very instruction objects the replay decode
caches key on.

:class:`PackedTrace` is the lazy reader: aggregate counters and column
views are available without materializing a single event object, and
:meth:`PackedTrace.events` rebuilds the plain event list on first use
for consumers that genuinely need objects (``iter()``, golden checks,
the reference replay).

The timing engine's replay-plan compiler (:mod:`repro.timing
.replay_plan`) reads columns only: a :class:`PackedTrace` hands over its
own column views (no event object is ever built), and an object-form
:class:`~repro.functional.trace.DynamicTrace` is first reduced by
:func:`trace_columns` — the same column pass :func:`pack_trace` runs
before it assembles the blob.
"""

from __future__ import annotations

import pickle
import struct
from typing import Iterator

import numpy as np

from ..isa.instructions import MemPattern
from ..isa.program import Program
from .trace import (DynamicTrace, MemAccess, ScalarEvent, VectorEvent,
                    VsetvlEvent)

__all__ = ["PACK_VERSION", "PackedTrace", "pack_trace", "trace_columns",
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


def _i64(value) -> bool:
    return isinstance(value, int) and _I64_MIN <= value <= _I64_MAX


def _u8(value) -> bool:
    return isinstance(value, int) and 0 <= value <= 255


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
# Packing
# ----------------------------------------------------------------------
def trace_columns(trace, program: Program | None = None) -> tuple:
    """Column pass: reduce an event stream to the v6 columns.

    Returns ``(columns, kinds, fallback, instructions)``: a
    ``{name: ndarray}`` map over the :data:`_COLUMNS` schema (plain
    values, not delta-coded), the scalar-kind vocabulary, the
    ``{event index: event}`` map of events that do not fit a column
    (tagged :data:`TAG_FALLBACK`), and the instruction table the
    ``v_instr`` column indexes.  With a ``program`` the table is
    ``program.instructions`` and an instruction outside it takes the
    fallback path; without one the table is built from the trace in
    first-appearance order.
    """
    if program is None:
        table: list = []
        instr_index: dict[int, int] = {}
    else:
        table = program.instructions
        instr_index = {id(instr): i for i, instr in enumerate(table)}
    tags: list[int] = []
    s_kind: list[int] = []
    s_addr: list[int] = []
    s_nbytes: list[int] = []
    w_vl: list[int] = []
    w_sew: list[int] = []
    w_lmul: list[int] = []
    v_instr: list[int] = []
    v_vl: list[int] = []
    v_sew: list[int] = []
    v_lmul: list[int] = []
    v_slide: list[int] = []
    v_flags: list[int] = []
    m_base: list[int] = []
    m_stride: list[int] = []
    m_count: list[int] = []
    m_ew: list[int] = []
    m_pattern: list[int] = []
    kinds: list[str] = []
    kind_code: dict[str, int] = {}
    fallback: dict[int, object] = {}

    for index, event in enumerate(trace):
        cls = event.__class__
        if cls is ScalarEvent:
            kind, addr, nbytes = event.kind, event.addr, event.nbytes
            if (isinstance(kind, str) and _i64(nbytes)
                    and (addr is None
                         or (isinstance(addr, int)
                             and 0 <= addr <= _I64_MAX))):
                code = kind_code.get(kind)
                if code is None:
                    code = kind_code[kind] = len(kinds)
                    kinds.append(kind)
                    if code > 0xFFFF:
                        raise ValueError("scalar kind vocabulary overflow")
                tags.append(TAG_SCALAR)
                s_kind.append(code)
                s_addr.append(-1 if addr is None else addr)
                s_nbytes.append(nbytes)
                continue
        elif cls is VsetvlEvent:
            if _i64(event.vl) and _u8(event.sew) and _u8(event.lmul):
                tags.append(TAG_VSETVL)
                w_vl.append(event.vl)
                w_sew.append(event.sew)
                w_lmul.append(event.lmul)
                continue
        elif cls is VectorEvent:
            instr = event.instr
            iidx = instr_index.get(id(instr))
            if iidx is None and program is None:
                iidx = instr_index[id(instr)] = len(table)
                table.append(instr)
            mem = event.mem
            flat = (iidx is not None and iidx <= 0x7FFFFFFF
                    and _i64(event.vl) and _u8(event.sew)
                    and _u8(event.lmul) and _i64(event.slide_amount))
            if flat and mem is not None:
                flat = (type(mem) is MemAccess and _i64(mem.base)
                        and _i64(mem.stride) and _i64(mem.count)
                        and _u8(mem.ew_bytes)
                        and mem.pattern in PATTERN_CODE)
            if flat:
                tags.append(TAG_VECTOR)
                v_instr.append(iidx)
                v_vl.append(event.vl)
                v_sew.append(event.sew)
                v_lmul.append(event.lmul)
                v_slide.append(event.slide_amount)
                if mem is None:
                    v_flags.append(0)
                    m_base.append(0)
                    m_stride.append(0)
                    m_count.append(0)
                    m_ew.append(0)
                    m_pattern.append(0)
                else:
                    v_flags.append(1 | (2 if mem.is_store else 0))
                    m_base.append(mem.base)
                    m_stride.append(mem.stride)
                    m_count.append(mem.count)
                    m_ew.append(mem.ew_bytes)
                    m_pattern.append(PATTERN_CODE[mem.pattern])
                continue
        tags.append(TAG_FALLBACK)
        fallback[index] = event

    values = {"tags": tags, "s_kind": s_kind, "s_addr": s_addr,
              "s_nbytes": s_nbytes, "w_vl": w_vl, "w_sew": w_sew,
              "w_lmul": w_lmul, "v_instr": v_instr, "v_vl": v_vl,
              "v_sew": v_sew, "v_lmul": v_lmul, "v_slide": v_slide,
              "v_flags": v_flags, "m_base": m_base, "m_stride": m_stride,
              "m_count": m_count, "m_ew": m_ew, "m_pattern": m_pattern}
    columns = {name: np.asarray(values[name], dtype=dtype)
               for name, dtype, _, _ in _COLUMNS}
    return columns, tuple(kinds), fallback, tuple(table)


def pack_trace(trace, program: Program) -> bytes:
    """Flatten ``trace`` into a self-describing columnar blob.

    Every event that fits the column schema is encoded as array rows;
    anything else (foreign event classes, out-of-range fields,
    instructions absent from ``program``) is pickled whole into the
    fallback map.  The result round-trips through
    :func:`unpack_trace` to an event stream with identical contents.
    """
    cols, kinds, fallback, _ = trace_columns(trace, program)

    # -- assemble the blob --------------------------------------------
    counts = {"t": len(cols["tags"]), "s": len(cols["s_kind"]),
              "w": len(cols["w_vl"]), "v": len(cols["v_instr"])}
    table, _ = _layout(counts)
    header = {
        "pack": PACK_VERSION,
        "counts": (counts["t"], counts["s"], counts["w"], counts["v"]),
        "scalar_count": trace.scalar_count,
        "vector_count": trace.vector_count,
        "total_flops": trace.total_flops,
        "kinds": kinds,
        "fallback": (pickle.dumps(fallback,
                                  protocol=pickle.HIGHEST_PROTOCOL)
                     if fallback else b""),
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
def unpack_trace(blob: bytes, program: Program) -> "PackedTrace":
    """Wrap a packed blob as a lazy :class:`PackedTrace`.

    Validates the magic, layout version, and column table; raises
    ``ValueError`` for anything that is not a well-formed v6 blob (the
    disk tier treats that as a corrupt entry and purges it).
    """
    packed = PackedTrace.__new__(PackedTrace)
    _parse_into(packed, blob, program)
    return packed


def _parse_into(packed: "PackedTrace", blob, program: Program) -> None:
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
    packed.blob = blob
    packed.program = program
    packed.n_events = counts["t"]
    packed.scalar_count = int(header["scalar_count"])
    packed.vector_count = int(header["vector_count"])
    packed.total_flops = header["total_flops"]
    packed.kinds = header["kinds"]
    packed.columns = columns
    packed.fallback_bytes = header["fallback"]
    packed._events = None
    packed._plan = None


class PackedTrace:
    """Lazy columnar view of a packed trace.

    Quacks like :class:`~repro.functional.trace.DynamicTrace` for the
    consumers that matter (aggregate counters, ``len``, iteration,
    ``vector_events``) while keeping the payload as flat numpy column
    views over the blob bytes until someone genuinely needs event
    objects.  ``_plan`` caches the timing engine's compiled replay plan
    exactly like ``DynamicTrace._plan`` does.
    """

    __slots__ = ("blob", "program", "n_events", "scalar_count",
                 "vector_count", "total_flops", "kinds", "columns",
                 "fallback_bytes", "_events", "_plan")

    def __init__(self, blob: bytes, program: Program) -> None:
        _parse_into(self, blob, program)

    # -- pickling: ship the blob, re-derive the views ------------------
    def __getstate__(self):
        return (bytes(self.blob), self.program)

    def __setstate__(self, state):
        blob, program = state
        _parse_into(self, blob, program)

    # -- DynamicTrace-compatible surface -------------------------------
    def __len__(self) -> int:
        return self.n_events

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def vector_events(self) -> Iterator[VectorEvent]:
        return (e for e in self.events if isinstance(e, VectorEvent))

    @property
    def events(self) -> list:
        """Materialized event objects (built on first access, cached)."""
        events = self._events
        if events is None:
            events = self._events = _build_events(self)
        return events

    def fallback_events(self) -> dict:
        """The ``{event index: event}`` map of events that did not fit
        a column, unpickled afresh on every call."""
        if not self.fallback_bytes:
            return {}
        return pickle.loads(self.fallback_bytes)

    @property
    def nbytes(self) -> int:
        """Size of the packed blob in bytes."""
        return len(self.blob)

    def to_trace(self) -> DynamicTrace:
        """Rebuild a plain :class:`DynamicTrace` with equal contents."""
        return DynamicTrace(events=list(self.events),
                            scalar_count=self.scalar_count,
                            vector_count=self.vector_count,
                            total_flops=self.total_flops)


def _build_events(packed: PackedTrace) -> list:
    cols = packed.columns
    kinds = packed.kinds
    instructions = packed.program.instructions
    fallback = packed.fallback_events()
    tags = cols["tags"].tolist()
    s_kind = cols["s_kind"].tolist()
    s_addr = cols["s_addr"].tolist()
    s_nbytes = cols["s_nbytes"].tolist()
    w_vl = cols["w_vl"].tolist()
    w_sew = cols["w_sew"].tolist()
    w_lmul = cols["w_lmul"].tolist()
    v_instr = cols["v_instr"].tolist()
    v_vl = cols["v_vl"].tolist()
    v_sew = cols["v_sew"].tolist()
    v_lmul = cols["v_lmul"].tolist()
    v_slide = cols["v_slide"].tolist()
    v_flags = cols["v_flags"].tolist()
    m_base = cols["m_base"].tolist()
    m_stride = cols["m_stride"].tolist()
    m_count = cols["m_count"].tolist()
    m_ew = cols["m_ew"].tolist()
    m_pattern = cols["m_pattern"].tolist()

    events: list = []
    append = events.append
    si = wi = vi = 0
    for index, tag in enumerate(tags):
        if tag == TAG_SCALAR:
            addr = s_addr[si]
            append(ScalarEvent(kinds[s_kind[si]],
                               None if addr < 0 else addr, s_nbytes[si]))
            si += 1
        elif tag == TAG_VSETVL:
            append(VsetvlEvent(w_vl[wi], w_sew[wi], w_lmul[wi]))
            wi += 1
        elif tag == TAG_VECTOR:
            flags = v_flags[vi]
            mem = None
            if flags & 1:
                mem = MemAccess(base=m_base[vi], stride=m_stride[vi],
                                count=m_count[vi], ew_bytes=m_ew[vi],
                                pattern=PATTERNS[m_pattern[vi]],
                                is_store=bool(flags & 2))
            append(VectorEvent(instructions[v_instr[vi]], v_vl[vi],
                               v_sew[vi], v_lmul[vi], mem, v_slide[vi]))
            vi += 1
        else:
            append(fallback[index])
    return events
