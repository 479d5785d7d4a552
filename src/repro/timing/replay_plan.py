"""Compiled replay plans: decode a trace once, replay it as columns.

The reference replay loop (:meth:`repro.timing.engine.TimingEngine
.replay_reference`) dispatches per event object: every event pays
attribute loads, a memoized decode lookup, stream-object construction
and several function calls.  That cost is replay-invariant — none of it
depends on the machine model — so this module hoists it into a
:class:`ReplayPlan` built once per trace (cached on the trace's
``_plan`` slot) and shared across every machine the trace is replayed
against:

* **static rows** — one entry per issued instruction (vsetvl or vector)
  with its unit index, element counts, pre-resolved source/destination
  register index tuples, and the scalar-event cost segment preceding it;
* **numpy columns** — per-row ``vl``/SEW codes, throughputs, memory-key
  and slide-key indices.  For a given machine model the per-row rates,
  latencies and the stream-algebra constants of
  :func:`repro.timing.stream.batch_stream_params` are produced by a
  handful of vectorized array operations instead of per-event Python —
  each element is the *same single* IEEE-754 operation the reference
  performs, so replay output is bit-identical;
* **scalar segments** — the in-order scalar cost list (including the
  stateful D$ walk) memoized per ``(scalar config, L2 latency)``, which
  all machines sharing a frontend configuration reuse;
* **report memo** — replay is a pure function of (trace, model), so the
  fused per-machine row bundle remembers the finished
  :class:`~repro.timing.report.TimingReport`; replay-many of one trace
  against one model is a dict hit plus a defensive copy.

The compiler reads the v6 trace columns of a
:class:`~repro.functional.trace_pack.ColumnTrace`, never event objects
(events kept whole in the trace's fallback map are first spliced back
into the columns by :func:`_fold_fallback`).  Tag masks split the
stream into issue rows and scalar segments; vector rows are grouped by
their distinct ``(instruction, vl, sew, lmul)`` key, and each key is
decoded *once*, through :meth:`TimingEngine._event_info` on a
representative event — so its per-instruction ``_tinfo_by_cfg`` memo,
including the first-event ``mem`` byte-accounting semantics, is shared
with the reference loop and the plan can never drift from the reference
decode.  The per-key results reach every row through the group index;
the few per-row fields (MASK-pattern counts, unit-stride misalignment,
memory and slide keys) come straight from the columns.
"""

from __future__ import annotations

import numpy as np

from ..errors import TimingError
from ..functional.trace import MemAccess, ScalarEvent, VectorEvent, VsetvlEvent
from ..functional.trace_pack import (PATTERN_CODE, PATTERNS, TAG_SCALAR,
                                     TAG_VECTOR, TAG_VSETVL, ColumnTrace)
from ..isa.instructions import MemPattern
from .frontend import ScalarFrontend
from .stream import batch_stream_params

__all__ = ["ReplayPlan"]

#: Row kinds in the fused issue stream.
ROW_VSETVL, ROW_VECTOR, ROW_REDUCTION = 0, 1, 2

#: SEW -> index into the per-machine (8, 16, 32, 64) rate vectors.
_SEW_CODE = {8: 0, 16: 1, 32: 2, 64: 3}
_SEWS = (8, 16, 32, 64)

_UNIT_CODE = PATTERN_CODE[MemPattern.UNIT]
_MASK_CODE = PATTERN_CODE[MemPattern.MASK]

#: Decode of the vsetvl pseudo-key, in per-key order: row kind, unit,
#: n, source and destination register tuples, scalar destination,
#: category, SEW code, throughput, FPU flag, mask-logical flag, flops,
#: memory direction (0: no MemAccess, 1: read, 2: write), memory bytes.
_VSETVL_KEY = (ROW_VSETVL, 0, 1, (), (), False, -1, 0, 1.0, False, False,
               0.0, 0, 0)

#: The vector columns the compiler reads, in representative-event order.
_VECTOR_COLUMNS = ("v_instr", "v_vl", "v_sew", "v_lmul", "v_slide",
                   "v_flags", "m_base", "m_stride", "m_count", "m_ew",
                   "m_pattern")


def _regs(base: int, emul: int) -> tuple:
    """Register group -> explicit member-index tuple (scoreboard order)."""
    return tuple(range(base, min(32, base + emul) if emul > 1 else base + 1))


def _first_appearance(*keys: np.ndarray) -> tuple:
    """Group rows by the tuple of their values in ``keys``.

    Returns ``(group, first)``: each row's group id, groups numbered in
    order of first appearance, and the row at which each group first
    appears (ascending).  A stable ``lexsort`` plus a boundary diff —
    ``np.unique(axis=0)`` would sort void views, several times slower.
    """
    n = keys[0].size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort(keys)
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for key in keys:
        ordered = key[order]
        boundary[1:] |= np.asarray(ordered[1:] != ordered[:-1], dtype=bool)
    first = order[boundary]  # stable sort: the group's earliest row
    rank = np.argsort(first, kind="stable")
    renumber = np.empty(rank.size, dtype=np.int64)
    renumber[rank] = np.arange(rank.size)
    group = np.empty(n, dtype=np.int64)
    group[order] = renumber[np.cumsum(boundary) - 1]
    return group, first[rank]


def _stream_sum(values: np.ndarray) -> float:
    """``0.0 + v0 + v1 + ...`` left to right, the rounding of a Python
    accumulation loop (``np.sum`` would add pairwise)."""
    acc = np.empty(values.size + 1, dtype=np.float64)
    acc[0] = 0.0
    acc[1:] = values
    return float(np.cumsum(acc)[-1])


def _objects(values) -> np.ndarray:
    """1-D object array holding ``values`` as elements (tuples too)."""
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = value
    return out


def _addresses(s_addr: np.ndarray) -> list:
    """Scalar addresses as Python values; the column's -1 means None."""
    if s_addr.dtype == object or not s_addr.size or s_addr.min() >= 0:
        return s_addr.tolist()
    out = s_addr.astype(object)
    out[s_addr < 0] = None
    return out.tolist()


def _fold_fallback(cols: dict, kinds: tuple, instructions: tuple,
                   fallback: dict) -> tuple:
    """Splice fallback events back into the columns they did not fit.

    Each event is re-tagged with its class and inserted into its kind's
    columns at its stream position.  ``s_addr`` becomes an object column
    (``None`` for an absent address) and, when a vector event is folded
    in, so do the vector columns — out-of-range values stay exact Python
    ints.  An instruction outside the table is appended to it.  Raises
    :class:`TimingError` for an event class the timing engine does not
    know.
    """
    tags = cols["tags"].copy()
    scalars_before = np.cumsum(tags == TAG_SCALAR)
    vectors_before = np.cumsum(tags == TAG_VECTOR)
    kinds = list(kinds)
    kind_code = {kind: i for i, kind in enumerate(kinds)}
    instructions = list(instructions)
    instr_index = {id(instr): i for i, instr in enumerate(instructions)}
    s_at: list = []
    s_rows: list = []
    v_at: list = []
    v_rows: list = []
    for index in sorted(fallback):
        event = fallback[index]
        ecls = event.__class__
        if ecls is ScalarEvent:
            tags[index] = TAG_SCALAR
            code = kind_code.get(event.kind)
            if code is None:
                code = kind_code[event.kind] = len(kinds)
                kinds.append(event.kind)
            s_at.append(int(scalars_before[index]))
            s_rows.append((code, event.addr))
        elif ecls is VsetvlEvent:
            tags[index] = TAG_VSETVL
        elif ecls is VectorEvent:
            tags[index] = TAG_VECTOR
            iidx = instr_index.get(id(event.instr))
            if iidx is None:
                iidx = instr_index[id(event.instr)] = len(instructions)
                instructions.append(event.instr)
            mem = event.mem
            if mem is None:
                mem_row = (0, 0, 0, 0, 0, 0)
            else:
                mem_row = (1 | (2 if mem.is_store else 0), mem.base,
                           mem.stride, mem.count, mem.ew_bytes,
                           PATTERN_CODE[mem.pattern])
            v_at.append(int(vectors_before[index]))
            v_rows.append((iidx, event.vl, event.sew, event.lmul,
                           event.slide_amount) + mem_row)
        else:
            raise TimingError(f"unknown trace event {event!r}")

    out = dict(cols)
    out["tags"] = tags
    out["s_addr"] = _objects(_addresses(cols["s_addr"]))
    if s_rows:
        codes, addrs = zip(*s_rows)
        out["s_kind"] = np.insert(cols["s_kind"], s_at, codes)
        out["s_addr"] = np.insert(out["s_addr"], s_at, _objects(addrs))
    if v_rows:
        for name, values in zip(_VECTOR_COLUMNS, zip(*v_rows)):
            out[name] = np.insert(cols[name].astype(object), v_at,
                                  _objects(values))
    return out, tuple(kinds), tuple(instructions)


class _MachineRows:
    """Per-(plan, machine) fused row bundle plus the replay-report memo."""

    __slots__ = ("rows", "tail_seg", "dcache_hits", "dcache_misses",
                 "report")

    def __init__(self, rows: list, tail_seg: tuple,
                 dcache_hits: int, dcache_misses: int) -> None:
        self.rows = rows
        self.tail_seg = tail_seg
        self.dcache_hits = dcache_hits
        self.dcache_misses = dcache_misses
        self.report = None


class ReplayPlan:
    """Machine-independent compilation of one dynamic trace."""

    __slots__ = ("scalar_count", "vector_count", "total_flops",
                 "bytes_read", "bytes_written", "first_vec_unit",
                 "kind_vocab", "segs", "row_kind", "row_unit", "row_cn",
                 "row_n", "row_srcs", "row_dest", "row_dscal",
                 "mem_keys", "slide_pairs",
                 "_cnt_f", "_sew_code", "_thr", "_is_fpu", "_mlog",
                 "_mem_ix", "_align", "_is_store", "_slide_ix",
                 "_ix_mem", "_ix_red", "_ix_slide", "_ix_masku",
                 "_ix_arith", "_seg_memo", "_machine_memo")

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: ColumnTrace) -> "ReplayPlan":
        """Compile ``trace`` from its columns."""
        # Deferred import: engine.py imports this module at load time.
        from .engine import (LOAD, MASKU, SLDU, STORE, TimingEngine, VALU,
                             VMFPU)
        unit_index = {VMFPU: 0, VALU: 1, SLDU: 2, MASKU: 3,
                      LOAD: 4, STORE: 5}
        cat_mem = TimingEngine._CAT_MEM
        cat_red = TimingEngine._CAT_RED
        cat_slide = TimingEngine._CAT_SLIDE
        cat_masku = TimingEngine._CAT_MASKU
        cat_arith = TimingEngine._CAT_ARITH
        event_info = TimingEngine._event_info

        cols, kinds = trace.columns, trace.kinds
        instructions = trace.program.instructions
        fallback = trace.fallback_events()
        if fallback:
            cols, kinds, instructions = _fold_fallback(
                cols, kinds, instructions, fallback)
        tags = cols["tags"]

        # -- stream skeleton: issue rows, scalar segments between them --
        is_scalar = tags == TAG_SCALAR
        is_row = ~is_scalar
        row_vec = tags[is_row] == TAG_VECTOR
        n_rows = row_vec.size
        pairs = list(zip(cols["s_kind"].tolist(),
                         _addresses(cols["s_addr"])))
        edges = [0] + np.cumsum(is_scalar)[is_row].tolist() + [len(pairs)]
        segs = [tuple(pairs[a:b]) for a, b in zip(edges, edges[1:])]

        # -- decode once per distinct (instruction, vl, sew, lmul) -------
        v_instr, v_vl, v_flags = cols["v_instr"], cols["v_vl"], cols["v_flags"]
        group, first = _first_appearance(v_instr, v_vl, cols["v_sew"],
                                         cols["v_lmul"])
        (r_instr, r_vl, r_sew, r_lmul, r_slide, r_flags, r_base, r_stride,
         r_count, r_ew, r_pattern) = (cols[name][first].tolist()
                                      for name in _VECTOR_COLUMNS)
        keys: list = []
        for k in range(first.size):
            flags = r_flags[k]
            mem = None
            if flags & 1:
                mem = MemAccess(base=r_base[k], stride=r_stride[k],
                                count=r_count[k], ew_bytes=r_ew[k],
                                pattern=PATTERNS[r_pattern[k]],
                                is_store=bool(flags & 2))
            sew = r_sew[k]
            (unit_name, n, sources, dest, dest_scalar, cat, extra,
             ev_flops, mem_info) = event_info(VectorEvent(
                 instructions[r_instr[k]], r_vl[k], sew, r_lmul[k], mem,
                 r_slide[k]))
            kind = ROW_VECTOR
            th = 1.0
            fp = False
            ml = False
            if cat == cat_mem:
                sc = _SEW_CODE.get(sew, 0)  # rate is SEW-independent
            elif cat == cat_red:
                kind = ROW_REDUCTION
                sc = _SEW_CODE[sew]
            elif cat == cat_slide:
                sc = _SEW_CODE[sew]
                th = extra
            elif cat == cat_masku:
                ml = bool(extra)
                # Mask-logical ops run at the bit rate, never indexing
                # the per-SEW tables (mirrors the reference branch).
                sc = _SEW_CODE.get(sew, 0) if ml else _SEW_CODE[sew]
            else:
                th, fp = extra
                sc = _SEW_CODE[sew]
            mem_dir, mem_bytes = 0, 0
            if mem_info is not None:
                mem_dir, mem_bytes = (2 if mem_info[0] else 1), mem_info[1]
            keys.append((kind, unit_index[unit_name], n,
                         tuple(_regs(b, e) for b, e in sources),
                         _regs(*dest) if dest is not None else (),
                         dest_scalar, cat, sc, th, fp, ml, ev_flops,
                         mem_dir, mem_bytes))
        keys.append(_VSETVL_KEY)
        (k_kind, k_unit, k_n, k_srcs, k_dest, k_dscal, k_cat, k_sew, k_thr,
         k_fpu, k_mlog, k_flops, k_mem_dir, k_mem_bytes) = zip(*keys)
        first_vec_unit = k_unit[0] if first.size else None
        row_key = np.full(n_rows, first.size, dtype=np.int64)
        row_key[row_vec] = group
        cat_row = np.asarray(k_cat, dtype=np.int64)[row_key]
        cat_vec = cat_row[row_vec]

        # -- per-row fields straight from the columns ---------------------
        n_key = np.asarray(k_n)
        cnt_vec = n_key[group]
        n_vec = cnt_vec.size
        mem_ix = np.zeros(n_vec, dtype=np.int64)
        align = np.zeros(n_vec, dtype=np.float64)
        is_store = np.zeros(n_vec, dtype=bool)
        mem_keys: tuple = ()
        rows = np.nonzero(cat_vec == cat_mem)[0]
        if rows.size:
            flags = v_flags[rows]
            missing = np.nonzero(np.asarray((flags & 1) == 0, dtype=bool))[0]
            if missing.size:
                instr = instructions[int(v_instr[rows[missing[0]]])]
                raise TimingError(f"memory op {instr} lacks a MemAccess")
            pattern = cols["m_pattern"][rows]
            ew = cols["m_ew"][rows]
            store = np.asarray((flags & 2) != 0, dtype=bool)
            key_ix, key_first = _first_appearance(pattern, ew, store)
            mem_keys = tuple(
                (PATTERNS[code], width, st) for code, width, st in zip(
                    pattern[key_first].tolist(), ew[key_first].tolist(),
                    store[key_first].tolist()))
            mem_ix[rows] = key_ix
            is_mask = np.zeros(n_vec, dtype=bool)
            is_mask[rows] = np.asarray(pattern == _MASK_CODE, dtype=bool)
            cnt_vec = np.where(is_mask, cols["m_count"], cnt_vec)
            align[rows] = np.asarray(
                (pattern == _UNIT_CODE) & (cols["m_base"][rows] % 64 != 0),
                dtype=bool)
            is_store[rows] = store
        slide_ix = np.zeros(n_vec, dtype=np.int64)
        slide_pairs: tuple = ()
        rows = np.nonzero(cat_vec == cat_slide)[0]
        if rows.size:
            amount = cols["v_slide"][rows]
            vl = v_vl[rows]
            key_ix, key_first = _first_appearance(amount, vl)
            slide_pairs = tuple(zip(amount[key_first].tolist(),
                                    vl[key_first].tolist()))
            slide_ix[rows] = key_ix

        def scatter(vec: np.ndarray, default) -> np.ndarray:
            out = np.full(n_rows, default, dtype=vec.dtype)
            out[row_vec] = vec
            return out

        row_cn = scatter(cnt_vec, 1)
        flops = np.asarray(k_flops, dtype=np.float64)[group]
        mem_dir = np.asarray(k_mem_dir, dtype=np.int64)[group]
        mem_bytes = np.asarray(k_mem_bytes, dtype=np.float64)[group]

        plan = cls.__new__(cls)
        plan.vector_count = n_vec
        plan.scalar_count = tags.size - n_vec
        plan.total_flops = _stream_sum(flops)
        plan.bytes_read = _stream_sum(mem_bytes[mem_dir == 1])
        plan.bytes_written = _stream_sum(mem_bytes[mem_dir == 2])
        plan.first_vec_unit = first_vec_unit
        plan.kind_vocab = tuple(kinds)
        plan.segs = segs
        plan.row_kind = np.asarray(k_kind, dtype=np.int64)[row_key].tolist()
        plan.row_unit = np.asarray(k_unit, dtype=np.int64)[row_key].tolist()
        plan.row_cn = row_cn.tolist()
        plan.row_n = n_key[row_key].tolist()
        plan.row_srcs = _objects(k_srcs)[row_key].tolist()
        plan.row_dest = _objects(k_dest)[row_key].tolist()
        plan.row_dscal = _objects(k_dscal)[row_key].tolist()
        plan.mem_keys = mem_keys
        plan.slide_pairs = slide_pairs
        plan._cnt_f = row_cn.astype(np.float64)
        plan._sew_code = np.asarray(k_sew, dtype=np.int64)[row_key]
        plan._thr = np.asarray(k_thr, dtype=np.float64)[row_key]
        plan._is_fpu = np.asarray(k_fpu, dtype=bool)[row_key]
        plan._mlog = np.asarray(k_mlog, dtype=bool)[row_key]
        plan._mem_ix = scatter(mem_ix, 0)
        plan._align = scatter(align, 0.0)
        plan._is_store = scatter(is_store, False)
        plan._slide_ix = scatter(slide_ix, 0)
        plan._ix_mem = np.nonzero(cat_row == cat_mem)[0]
        plan._ix_red = np.nonzero(cat_row == cat_red)[0]
        plan._ix_slide = np.nonzero(cat_row == cat_slide)[0]
        plan._ix_masku = np.nonzero(cat_row == cat_masku)[0]
        plan._ix_arith = np.nonzero(cat_row == cat_arith)[0]
        plan._seg_memo = {}
        plan._machine_memo = {}
        return plan

    # ------------------------------------------------------------------
    def scalar_costs(self, scalar_cfg, l2_latency) -> tuple:
        """Per-segment scalar cost tuples for one frontend configuration.

        Replays the scalar event stream — in original order, D$ state
        included — through a fresh :class:`ScalarFrontend` once, then
        memoizes ``(segment cost lists, dcache hits, dcache misses)``:
        every machine model sharing the scalar config reuses the walk.
        """
        key = (scalar_cfg, l2_latency)
        hit = self._seg_memo.get(key)
        if hit is None:
            frontend = ScalarFrontend(scalar_cfg, l2_latency)
            fixed_cost = frontend.fixed_costs.get
            cost = frontend.cost
            vocab = self.kind_vocab
            out = []
            for seg in self.segs:
                costs = []
                for kid, addr in seg:
                    kind = vocab[kid]
                    cycles = fixed_cost(kind)
                    if cycles is None:
                        cycles = cost(ScalarEvent(kind, addr))
                    costs.append(cycles)
                out.append(tuple(costs))
            hit = (out, frontend.dcache.hits, frontend.dcache.misses)
            self._seg_memo[key] = hit
        return hit

    # ------------------------------------------------------------------
    def _columns_for(self, model) -> tuple:
        """Vectorized per-row machine columns: latency, 1/rate,
        ``(n-1)/rate``, busy cycles, reduction tail."""
        n_rows = len(self.row_kind)
        rate = np.ones(n_rows, dtype=np.float64)
        lat = np.zeros(n_rows, dtype=np.float64)
        tail = np.zeros(n_rows, dtype=np.float64)
        vfu = None
        ix = self._ix_arith
        if ix.size:
            vfu = np.asarray([model.vfu_rate(s) for s in _SEWS])
            rate[ix] = vfu[self._sew_code[ix]] * self._thr[ix]
            lat[ix] = np.where(self._is_fpu[ix], model.fpu_latency,
                               model.valu_latency)
        ix = self._ix_red
        if ix.size:
            if vfu is None:
                vfu = np.asarray([model.vfu_rate(s) for s in _SEWS])
            sc = self._sew_code[ix]
            rate[ix] = vfu[sc]
            tail[ix] = np.asarray([model.reduction_tail_cycles(s)
                                   for s in _SEWS])[sc]
        ix = self._ix_slide
        if ix.size:
            sldu = np.asarray([model.sldu_rate(s) for s in _SEWS])
            rate[ix] = sldu[self._sew_code[ix]] * self._thr[ix]
            slide_lat = np.asarray(
                [model.slide_extra_cycles(amount, vl)
                 for amount, vl in self.slide_pairs], dtype=np.float64)
            lat[ix] = slide_lat[self._slide_ix[ix]]
        ix = self._ix_masku
        if ix.size:
            if vfu is None:
                vfu = np.asarray([model.vfu_rate(s) for s in _SEWS])
            rate[ix] = np.where(self._mlog[ix], model.masku_bit_rate(),
                                vfu[self._sew_code[ix]])
            lat[ix] = model.masku_latency
        ix = self._ix_mem
        if ix.size:
            mem_rate = np.asarray(
                [model.mem_rate(pattern, max(1, ew), store)
                 for pattern, ew, store in self.mem_keys],
                dtype=np.float64)
            rate[ix] = mem_rate[self._mem_ix[ix]]
            lat[ix] = np.where(self._is_store[ix],
                               model.store_pipe_latency,
                               model.load_first_data_latency) \
                + self._align[ix]
        q1, rinv, busy = batch_stream_params(self._cnt_f, rate)
        return (lat.tolist(), rinv.tolist(), q1.tolist(), busy.tolist(),
                tail.tolist())

    # ------------------------------------------------------------------
    def machine_rows(self, model) -> _MachineRows:
        """Fused per-machine row bundle (memoized per model identity)."""
        cfg = model.config
        key = None
        bundle = None
        try:
            key = (type(model).__name__, model.name, cfg)
            bundle = self._machine_memo.get(key)
        except TypeError:
            key = None  # unhashable custom config: rebuild per replay
        if bundle is None:
            seg_costs, dcache_hits, dcache_misses = self.scalar_costs(
                cfg.scalar, cfg.memory.l2_latency_cycles)
            lat, rinv, q1, busy, tail = self._columns_for(model)
            rows = list(zip(seg_costs[:-1], self.row_kind, self.row_unit,
                            self.row_cn, self.row_n, self.row_srcs,
                            self.row_dest, self.row_dscal,
                            lat, rinv, q1, busy, tail))
            bundle = _MachineRows(rows, seg_costs[-1],
                                  dcache_hits, dcache_misses)
            if key is not None:
                self._machine_memo[key] = bundle
        return bundle
