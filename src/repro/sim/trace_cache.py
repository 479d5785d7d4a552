"""Trace cache: capture a functional execution once, replay it everywhere.

The dynamic trace of a program depends only on (a) the program itself,
(b) the initial architectural/memory state its setup placed, and (c) the
machine's VLEN — never on the timing model.  The paper's evaluation is a
large cross-product of kernels x problem sizes x machine/timing configs,
so re-running the functional interpreter per timing point wastes almost
all of its work.  :class:`TraceCache` keys captured
:class:`~repro.functional.executor.ExecResult` objects by

    (program fingerprint, vlen_bits, setup identity)

where the *program fingerprint* is the content hash from
:attr:`repro.isa.program.Program.fingerprint` and the *setup identity*
names the initial data (for kernels: the kernel name plus its problem
dictionary, which seeds the deterministic input RNG).  Two operating
points with equal keys are guaranteed to produce identical traces, so a
replay against any machine model yields a bit-identical
:class:`~repro.timing.report.TimingReport` to a fresh end-to-end run.

One class serves every use: an in-memory LRU plus an optional disk
directory (``disk_dir``; ``None`` means memory-only).  With a directory
the cache is a *shared store* — every benchmark,
:func:`~repro.eval.runner.run_experiment`, the ``python -m repro.eval``
CLI and every :class:`~repro.sim.parallel.SimPool` worker can attach
to one directory, so a capture paid by one sweep is a disk hit for the
next — and carries the lifecycle a long-lived store needs
(:meth:`TraceCache.gc`, :meth:`TraceCache.manifest`,
:attr:`TraceCache.store_stats`).  Callers resolve the directory at the
edges with :func:`resolve_store_dir` (explicit path >
``$REPRO_TRACE_STORE`` > the suite default ``benchmarks/out/trace_cache``)
or :func:`attach_store`; the GC byte budget resolves the same way
through :func:`resolve_store_bytes`.

Disk format
-----------
Disk entries are written for *concurrent* readers and writers sharing one
``disk_dir``:

* **Payload pruning** — entries drop the functional memory image (large,
  only needed by golden checks, which run at capture time) and decoded
  plan caches (which hold lambdas); a disk-rehydrated capture is
  replay-only and safe to ship across process boundaries.
* **Columnar trace payload (v6)** — the payload is a small dict of
  ``ExecResult`` fields in which the trace travels as its packed
  struct-of-arrays blob (:func:`repro.functional.trace_pack
  .pack_trace`).  Rehydration wraps the blob as a
  :class:`~repro.functional.trace_pack.ColumnTrace` of column views
  (``np.frombuffer``, no per-event heap objects), which the timing
  engine's vectorized replay consumes directly.  Events that do not
  fit a column (out-of-range fields, foreign classes) ride in the
  blob's pickled fallback map, so any trace round-trips losslessly.
* **Atomic writes** — every file (entry or sidecar) is written to a
  ``tempfile`` inside ``disk_dir`` and moved into place with
  :func:`os.replace` (:func:`_write_atomic`, the one writer), so a
  concurrent reader sees either the old complete file or the new
  complete file, never an interleaved or truncated one, and a crashed
  writer leaves at worst an orphaned ``*.tmp``.
* **Versioned envelope** — the pickle is a dict
  ``{"format": DISK_FORMAT_VERSION, "schema": <ExecResult field names>,
  "hits_served": <int>, "crc32": <payload checksum>, "payload": <the
  pruned ExecResult, pickled then zlib-compressed>}``.  A stale file
  from an older code revision (wrong version, drifted ``ExecResult``
  fields, or a pre-envelope bare pickle) is treated as a plain miss —
  the caller recaptures and the subsequent :meth:`TraceCache.put`
  overwrites the stale file in place.  Nesting the payload as bytes
  lets envelope *validation* (:meth:`TraceCache.probe`, the GC's stale
  purge) check the tags without deserializing — or decompressing —
  the trace itself.
* **Payload checksum** — ``crc32`` (optional-within-v4, like
  ``hits_served``) covers the compressed payload bytes and is verified
  on every disk read and :meth:`TraceCache.probe`.  A mismatch means
  the bytes on disk are not what the writer produced (bit rot, a
  partial foreign write, injected corruption); the entry is unlinked
  and counted in ``corrupt_purged`` rather than left to shadow the
  budget, and the caller sees a plain miss.  Pre-checksum v4 entries
  (no ``crc32`` field) are accepted unverified.
* **Write-failure degradation** — a ``put`` whose disk write raises
  ``ENOSPC`` flips the cache to memory-only (one-shot
  ``RuntimeWarning``; later puts skip the disk layer entirely); any
  other transient ``OSError`` is retried once (``io_retries``) and
  then abandoned for that entry (``put_errors``) — the in-memory layer
  still holds it, so correctness never depends on the disk write
  landing.
* **Popularity counter** — ``hits_served`` counts how many times the
  entry's disk layer served a whole trace.  One rule decides it: a
  :meth:`TraceCache.get` that counts a ``disk_hits`` bumps the counter
  and freshens the entry's ``mtime`` (the GC's LRU signal), on every
  instance with a directory, pool workers included.  Nothing else
  bumps it: adopting a worker's capture (:meth:`TraceCache
  .ingest_remote`) counts only in ``remote_puts``, and a probe reads
  tags only.  The live count rides in a tiny ``<entry>.hits``
  *sidecar* file (see :func:`sidecar_path`) so a warm hit writes a few
  bytes, never the whole envelope; the envelope's ``hits_served``
  field is the base the sidecar adds to (always 0 for entries this
  revision writes).  A (re)capture unlinks the sidecar — new payload
  bytes, new popularity life.
* **Compressed payload** — the nested payload bytes are
  zlib-compressed (v4).  Trace pickles are dominated by repetitive
  event records, so compression cuts entries by roughly an order of
  magnitude, which multiplies how many operating points fit in the
  store's GC budget and shrinks what capture/replay workers write.
  An uncompressed v3 file reads as a plain miss via the format tag,
  never as a decode error.

Statistics distinguish the layers: ``hits`` counts in-memory LRU hits
only, ``disk_hits`` counts rehydrations from disk, and ``hit_rate`` is
the true in-memory rate ``hits / (hits + disk_hits + misses)``.
``remote_puts`` counts entries adopted via :meth:`TraceCache
.ingest_remote` — captures paid by a worker process of a
:class:`~repro.sim.parallel.SimPool` rather than by this process —
so warm disk hits served by an *earlier* run stay distinguishable from
captures this very sweep fanned out.

Store layout and lifecycle
--------------------------
``disk_dir`` is flat: one ``trace_<sha256(key)[:32]>.pkl`` per entry
(see :func:`disk_path`), its optional ``.hits`` sidecar, plus transient
``<name>.<random>.tmp`` files while an atomic write is in flight.  One
:meth:`TraceCache.gc` pass, safe to run while other processes read and
write the same directory:

* **orphan reaping** — a ``*.tmp`` file older than
  :data:`TMP_MAX_AGE_S` by the cache's clock belongs to a crashed
  writer and is deleted;
* **stale and corrupt purge** — entries whose envelope no longer
  validates, or whose payload fails its checksum, would never satisfy
  a ``get()`` again and are unlinked rather than left to shadow the
  budget;
* **size cap** — while the store exceeds its byte budget, the
  oldest-``mtime`` entries are evicted first; since every disk hit
  freshens ``mtime``, that is an LRU over *use*, not a FIFO over
  writes;
* **sidecar hygiene** — an entry's sidecar goes with it
  (:func:`_unlink_entry`, the one way an entry is deleted), and a
  sidecar whose entry vanished is reaped.

Every deletion tolerates the file vanishing underneath it; losing a
race costs at worst one re-capture, never corruption.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import pickle
import tempfile
import time
import warnings
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional, Union

from ..env import ENV_STORE_BYTES, ENV_STORE_DIR, read_env
from ..functional.executor import ExecResult
from ..functional.trace_pack import pack_trace, unpack_trace
from ..isa.program import Program
from .faults import FaultPlan

TraceKey = tuple

#: Default number of captured traces kept in memory.  Sweeps revisit a
#: key only within one inner machine loop, so a modest window suffices.
DEFAULT_CAPACITY = 32

#: Version of the on-disk envelope.  Bump when the disk representation
#: itself changes shape; ``ExecResult`` field drift is caught separately
#: by the schema tag so unrelated refactors invalidate entries without a
#: manual bump.  v3: the payload is nested as pickled bytes so envelope
#: validation need not deserialize the trace.  v4: the payload bytes are
#: zlib-compressed (a v3 file fails the format check and reads as a
#: plain miss, never as a decompression error).  v5: trace classes
#: (``MemAccess`` and the then object-list trace) grew ``__slots__``,
#: changing their pickled state shape — a v4 payload would fail
#: mid-unpickle and be miscounted as *corrupt*; the bump makes it a
#: plain stale miss.  v6:
#: the payload is a field dict whose trace is a columnar
#: :func:`~repro.functional.trace_pack.pack_trace` blob instead of a
#: per-event object pickle; a v5 payload (a pickled ``ExecResult``)
#: would unwrap to the wrong shape, so the bump again makes it a plain
#: stale miss that the store GC purges.
DISK_FORMAT_VERSION = 6

#: zlib level for the payload bytes.  The default (6) already reaches
#: within a few percent of level 9 on trace pickles at a fraction of the
#: CPU; level 1 would halve the ratio for little time saved relative to
#: the pickling itself.
COMPRESS_LEVEL = 6

#: Suite-default store location: ``benchmarks/out/trace_cache`` (kept
#: under the gitignored bench output directory, so a checkout never
#: tracks cache files), anchored to the source checkout rather than the
#: caller's working directory — :func:`resolve_store_dir` from any cwd
#: resolves to the same suite-wide store.
DEFAULT_STORE_DIR = (Path(__file__).resolve().parents[3]
                     / "benchmarks" / "out" / "trace_cache")

#: Default GC byte budget.  A captured trace entry for the reduced-scale
#: sweeps is a few hundred KiB; 256 MiB comfortably holds the whole
#: suite's cross-product several times over.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A ``*.tmp`` file older than this is a crashed writer's orphan (a live
#: writer's tempfile is seconds old, never an hour).
TMP_MAX_AGE_S = 3600.0

#: Glob of live store entries (matches :func:`disk_path` naming).
_ENTRY_GLOB = "trace_*.pkl"

#: Glob of hit-counter sidecars (see :func:`sidecar_path`).
_SIDECAR_GLOB = "trace_*.pkl.hits"


def trace_key(program: Program, vlen_bits: int, setup_id: str) -> TraceKey:
    """Build the canonical cache key for one operating point."""
    return (program.fingerprint, int(vlen_bits), setup_id)


def disk_path(disk_dir: str | Path, key: TraceKey) -> Path:
    """On-disk location of one cache entry inside ``disk_dir``."""
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
    return Path(disk_dir) / f"trace_{digest}.pkl"


def sidecar_path(path: Path) -> Path:
    """Hit-counter sidecar of one disk entry (``<entry>.hits``).

    Kept outside the envelope so a warm serve persists its popularity
    bump by writing a few counter bytes, not the whole entry (see
    :meth:`TraceCache._bump_hits`).
    """
    return path.with_name(path.name + ".hits")


def resolve_store_dir(explicit: Union[str, Path, None] = None,
                      default: Union[str, Path] = DEFAULT_STORE_DIR) -> Path:
    """Store directory: explicit arg > $REPRO_TRACE_STORE > default."""
    if explicit is not None:
        return Path(explicit)
    env = read_env(ENV_STORE_DIR)
    if env:
        return Path(env)
    return Path(default)


def resolve_store_bytes(explicit: Optional[int] = None) -> int:
    """GC byte budget: explicit arg > $REPRO_TRACE_STORE_BYTES > default."""
    if explicit is not None:
        return int(explicit)
    env = read_env(ENV_STORE_BYTES)
    if env:
        return int(env)
    return DEFAULT_MAX_BYTES


def _disk_payload(er: ExecResult) -> ExecResult:
    """Replay-only pruned capture: drop the functional memory image
    (large, and only needed by golden checks, which run at capture
    time).  Decoded plan caches (which hold lambdas) are excluded by
    ``Program`` / ``Instruction.__getstate__`` without touching the
    live objects.  This is what capture workers ship over pipes (its
    trace pickles as the packed blob); the disk tier stores the same
    fields as a dict via :func:`_pack_payload`."""
    return ExecResult(state=er.state, trace=er.trace, retired=er.retired,
                      program=er.program, halted=er.halted, extra={})


def _pack_payload(er: ExecResult) -> dict:
    """v6 disk payload: pruned ``ExecResult`` fields with the trace as
    a columnar blob.  A trace rehydrated from a blob packs to that blob
    unchanged, so re-persisting a disk-served entry never re-packs."""
    return {"state": er.state, "program": er.program,
            "retired": er.retired, "halted": er.halted,
            "trace_blob": pack_trace(er.trace, er.program)}


def _payload_schema() -> tuple:
    """Fingerprint of the ``ExecResult`` shape baked into disk entries."""
    return tuple(sorted(f.name for f in dataclasses.fields(ExecResult)))


def _validate_envelope(obj: object) -> bool:
    """Envelope tags are current.  Never deserializes the payload, so
    stale-entry scans (e.g. the store GC) stay cheap."""
    return (isinstance(obj, dict)
            and obj.get("format") == DISK_FORMAT_VERSION
            and obj.get("schema") == _payload_schema()
            and isinstance(obj.get("payload"), bytes))


def _read_entry(path: Path) -> object:
    """Unpickled contents of one entry file: the one entry reader.

    Raises :class:`OSError` when the file cannot be opened or read —
    typically it is absent, or vanished under a concurrent eviction —
    so each caller decides what a missing file means.  Bytes that do
    not unpickle (truncation, a foreign file) return ``None``, which no
    envelope check accepts.
    """
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except (OSError, KeyboardInterrupt, SystemExit):
        raise
    # repro-lint: disable=RL201  unpickling foreign files raises any type
    except Exception:
        return None


def _write_atomic(path: Path, data: bytes,
                  clock: Optional[Callable[[], float]] = None) -> None:
    """Atomically (re)write ``data`` at ``path``: the one disk writer.

    The bytes go to a private tempfile beside ``path`` and are renamed
    over it; concurrent writers race only on the final
    :func:`os.replace`, which is atomic, so the file is always one
    writer's complete output.

    ``clock`` (when given) stamps the tempfile's mtime before the
    rename, so a cache using an injected clock judges in-flight
    tempfile age with the *same* clock its GC reaps orphans by — the
    invariant that keeps a live writer's tempfile unreapable however
    slow the write is (see :meth:`TraceCache.gc`).
    """
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if clock is not None:
            stamp = clock()
            os.utime(tmp_name, (stamp, stamp))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _unlink_quiet(path: Path) -> bool:
    """Best-effort unlink; True when this call removed the file."""
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _unlink_entry(path: Path) -> bool:
    """Delete one entry and its sidecar: the one way an entry goes.

    True when the entry is gone — removed here, or already removed by a
    concurrent process (its bytes are reclaimed either way).  An entry
    that cannot be deleted keeps its sidecar and returns False.
    """
    try:
        path.unlink(missing_ok=True)
    except OSError:
        return False
    _unlink_quiet(sidecar_path(path))
    return True


def _read_hits(side: Path) -> int:
    """Count persisted in a sidecar: 0 for absent, torn or foreign bytes.

    The counter is advisory (a lost or garbled sidecar costs popularity
    accuracy, never correctness), so every failure mode degrades to
    "never served" rather than an error.
    """
    try:
        return int(side.read_bytes())
    except (OSError, ValueError):
        return 0


def _crc_ok(obj: dict) -> bool:
    """Payload bytes match the envelope's checksum (absent = accepted).

    Cheap relative to decompression — a CRC32 pass over compressed
    bytes — so reads and probes can verify integrity without paying
    for a decode attempt on garbage.
    """
    crc = obj.get("crc32")
    if crc is None:
        return True  # pre-checksum v4 entry: accepted unverified
    return crc == (zlib.crc32(obj["payload"]) & 0xFFFFFFFF)


def _unwrap_envelope(obj: object) -> Optional[ExecResult]:
    """Payload of a disk envelope, or None for any stale/foreign shape.

    Rehydrates the v6 field dict into a replay-only ``ExecResult``
    whose trace is a :class:`~repro.functional.trace_pack.ColumnTrace`
    over the payload's columnar blob — no per-event objects are built
    here.
    """
    if not _validate_envelope(obj):
        return None  # older revision, drifted schema, or foreign shape
    try:
        payload = pickle.loads(zlib.decompress(obj["payload"]))
    # repro-lint: disable=RL201  unpickling corrupt bytes can raise any type
    except Exception:
        return None  # corrupt compressed bytes or inner pickle: a miss
    if not isinstance(payload, dict):
        return None  # foreign checksummed object: a miss
    try:
        trace = unpack_trace(payload["trace_blob"], payload["program"])
        return ExecResult(state=payload["state"], trace=trace,
                          retired=payload["retired"],
                          program=payload["program"],
                          halted=payload["halted"], extra={})
    # repro-lint: disable=RL201  a foreign checksummed dict can carry an
    # arbitrarily malformed blob; any parse failure is just a miss
    except Exception:
        return None


class TraceCache:
    """LRU cache of captured functional executions, keyed by
    ``(program fingerprint, vlen_bits, setup identity)``, with an
    optional disk directory and that directory's lifecycle (GC,
    manifest, store stats)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: str | Path | None = None,
                 fault_plan: Optional[FaultPlan] = None,
                 clock: Optional[Callable[[], float]] = None,
                 max_bytes: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("trace cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        #: Injectable time source; every age judgement (GC orphan
        #: reaping, manifest ages) and tempfile stamp uses this one
        #: clock so they can never disagree.  ``None`` = wall clock.
        self.clock = clock
        #: GC byte budget (see :func:`resolve_store_bytes`).
        self.max_bytes = resolve_store_bytes(max_bytes)
        self._entries: OrderedDict[TraceKey, ExecResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.remote_puts = 0
        #: Entries whose payload failed its checksum and were unlinked.
        self.corrupt_purged = 0
        #: Disk writes retried once after a transient ``OSError``.
        self.io_retries = 0
        #: Disk writes abandoned after the retry also failed.
        self.put_errors = 0
        #: Set once ``ENOSPC`` demoted this cache to memory-only.
        self.memory_only = False
        #: Total sidecar bytes written persisting disk-hit bumps.
        self.serve_write_bytes = 0
        #: Bumps abandoned on a non-ENOSPC ``OSError`` (entry raced away).
        self.serve_note_errors = 0
        self._write_counts: dict[str, int] = {}  # fault-roll attempt nos
        self._last_lookup: str | None = None  # "memory" | "disk" | "miss"

    def _now(self) -> float:
        """Current time per the injected clock (wall clock by default)."""
        # repro-lint: disable=RL101  injected-clock default: feeds only
        # GC age judgements and manifest ages, never a rendered table
        return time.time() if self.clock is None else self.clock()

    # ------------------------------------------------------------------
    @staticmethod
    def key(program: Program, vlen_bits: int, setup_id: str) -> TraceKey:
        return trace_key(program, vlen_bits, setup_id)

    def _disk_path(self, key: TraceKey) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return disk_path(self.disk_dir, key)

    # ------------------------------------------------------------------
    def get(self, key: TraceKey) -> Optional[ExecResult]:
        """Captured execution for ``key``, or None (counts hit/miss).

        The only read that counts a ``disk_hits`` — and so the only
        read that bumps the entry's persisted ``hits_served``.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self._last_lookup = "memory"
            return entry
        path = self._disk_path(key)
        entry = self._load_from_disk(path)
        if entry is not None:
            self._remember(key, entry)
            self.disk_hits += 1
            self._bump_hits(path)
            self._last_lookup = "disk"
            return entry
        self.misses += 1
        self._last_lookup = "miss"
        return None

    def _load_from_disk(self, path: Optional[Path]) -> Optional[ExecResult]:
        """Rehydrate the entry at ``path`` (None = no disk layer).

        Counts no lookup and bumps nothing; an entry whose tags are
        current but whose payload fails integrity is purged (and
        counted in ``corrupt_purged``).
        """
        if path is None:
            return None
        try:
            obj = _read_entry(path)
        except OSError:
            return None  # absent, or vanished under a concurrent evict
        if not _validate_envelope(obj):
            return None  # stale tags, garbage bytes: a plain miss
        entry = _unwrap_envelope(obj) if _crc_ok(obj) else None
        if entry is None:
            # Tags are current but the payload is not what the writer
            # produced: purge it so the broken bytes can't shadow the
            # store budget or fail again on the next read.
            self._purge_corrupt(path)
        return entry

    def _purge_corrupt(self, path: Path) -> bool:
        """Count and delete an entry whose payload failed integrity;
        True when the entry is gone."""
        self.corrupt_purged += 1
        return _unlink_entry(path)

    def _roll_write(self, token: str) -> int:
        """Number one write attempt of ``token`` and let the fault plan
        veto it (raises ``OSError``); returns the attempt number."""
        attempt = self._write_counts.get(token, 0)
        self._write_counts[token] = attempt + 1
        self.fault_plan.check_write(token, attempt)
        return attempt

    def _bump_hits(self, path: Path) -> None:
        """Persist one disk serve of the entry at ``path``.

        The bump lands in the entry's tiny ``.hits`` sidecar — a warm
        hit writes O(counter) bytes, never the multi-KiB envelope it
        just read.  The entry's own ``mtime`` is then freshened so the
        GC's eviction order stays an LRU over *use* rather than a FIFO
        over writes.  The counter is advisory: concurrent readers race
        last-writer-wins (a lost bump costs accuracy, never
        correctness).

        Failure handling mirrors :meth:`put`: ``ENOSPC`` demotes the
        cache to memory-only (one-shot warning — and once demoted,
        later serves skip the write entirely); any other ``OSError``
        means the entry or its directory raced away and the bump is
        dropped (counted in ``serve_note_errors``).
        """
        if self.memory_only:
            return
        side = sidecar_path(path)
        data = b"%d" % (_read_hits(side) + 1)
        try:
            if self.fault_plan is not None:
                self._roll_write(side.name)
            _write_atomic(side, data, clock=self.clock)
            stamp = self._now()
            os.utime(path, (stamp, stamp))
        except OSError as exc:
            if getattr(exc, "errno", None) == errno.ENOSPC:
                self._degrade_memory_only(exc)
                return
            self.serve_note_errors += 1
            return
        self.serve_write_bytes += len(data)

    def put(self, key: TraceKey, captured: ExecResult) -> None:
        # A put invalidates the "last lookup" context: a demote_last_hit()
        # issued after it must be a no-op, not a re-demotion of an older
        # get() (which would corrupt — even negate — the counters).
        self._last_lookup = None
        self._remember(key, captured)
        path = self._disk_path(key)
        if path is not None and not self.memory_only:
            self._put_disk(path, captured)

    def _put_disk(self, path: Path, captured: ExecResult) -> None:
        """Disk half of :meth:`put`, with bounded failure handling.

        ``ENOSPC`` demotes the whole cache to memory-only (one-shot
        warning; the entry and all later ones stay in the LRU only);
        any other ``OSError`` is retried once, then abandoned for this
        entry.  Neither ever propagates: the in-memory layer already
        holds the capture, so a failed disk write costs sharing, not
        correctness.
        """
        for retry in (False, True):
            try:
                self._write_disk(path, captured)
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except OSError as exc:
                if getattr(exc, "errno", None) == errno.ENOSPC:
                    self._degrade_memory_only(exc)
                    return
                if not retry:
                    self.io_retries += 1
                    continue
                self.put_errors += 1
                return

    def _degrade_memory_only(self, exc: OSError) -> None:
        """Flip to memory-only after ``ENOSPC`` (warn exactly once)."""
        if not self.memory_only:
            self.memory_only = True
            warnings.warn(
                f"trace store disk write failed ({exc}); continuing "
                f"memory-only — captures will not be shared on disk",
                RuntimeWarning, stacklevel=4)

    def _write_disk(self, path: Path, captured: ExecResult) -> None:
        """Atomically (re)write one disk entry.

        A (re)capture starts the entry's ``hits_served`` life over at
        zero — the payload is new bytes, so inherited popularity would
        claim service the new trace never rendered — which includes
        unlinking any hit-counter sidecar left beside the old entry.
        The payload checksum is computed over the exact compressed
        bytes handed to the envelope; an active
        :class:`~repro.sim.faults.FaultPlan` may then corrupt those
        bytes or veto the write with an ``OSError``, deliberately
        *after* the checksum, so injected corruption is exactly what
        the read-side CRC check catches.
        """
        payload = zlib.compress(
            pickle.dumps(_pack_payload(captured),
                         protocol=pickle.HIGHEST_PROTOCOL),
            COMPRESS_LEVEL)
        envelope = {"format": DISK_FORMAT_VERSION,
                    "schema": _payload_schema(),
                    "hits_served": 0,
                    "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
                    "payload": payload}
        if self.fault_plan is not None:
            attempt = self._roll_write(path.name)
            envelope["payload"] = self.fault_plan.corrupted(
                path.name, attempt, payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, pickle.dumps(envelope,
                                         protocol=pickle.HIGHEST_PROTOCOL),
                      clock=self.clock)
        _unlink_quiet(sidecar_path(path))  # new payload, new life

    def ingest_remote(self, key: TraceKey,
                      payload: Optional[ExecResult] = None
                      ) -> Optional[ExecResult]:
        """Adopt an entry a capture worker produced for this cache.

        A :class:`~repro.sim.parallel.SimPool` capture worker either wrote
        the entry to the shared disk directory (``payload=None`` — it is
        rehydrated here) or shipped the pruned payload back over the
        pipe.  Either way the capture was *paid elsewhere*: the adoption
        is counted in ``remote_puts`` only — not as a hit, disk hit or
        miss, and it does not bump ``hits_served`` — so the counters
        keep attributing functional work to whoever did it.  Returns
        the adopted entry, or ``None`` when a disk-routed entry vanished
        before adoption (e.g. the store's GC evicted it mid-capture) —
        the caller must then recapture locally.
        """
        captured = payload
        if captured is None:
            captured = self._load_from_disk(self._disk_path(key))
        if captured is None:
            return None
        self._remember(key, captured)
        self.remote_puts += 1
        self._last_lookup = None  # see put(): no stale demotion context
        return captured

    def _remember(self, key: TraceKey, captured: ExecResult) -> None:
        self._entries[key] = captured
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def demote_last_hit(self) -> None:
        """Recount the immediately preceding :meth:`get` hit as a miss.

        Used by callers that looked an entry up but could not use it —
        e.g. a verified capture request served a replay-only disk payload
        — so the statistics reflect that no functional work was saved.
        A no-op unless the cache's most recent operation was a
        :meth:`get` that hit: an intervening :meth:`put` or
        :meth:`clear` clears the lookup context, and a second call after
        a demotion changes nothing.
        """
        if self._last_lookup == "memory":
            self.hits -= 1
        elif self._last_lookup == "disk":
            self.disk_hits -= 1
        else:
            return
        self.misses += 1
        self._last_lookup = None  # consumed: a repeat call must not stack

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()
        self._last_lookup = None  # see put(): no stale demotion context

    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, key: TraceKey) -> bool:
        """Cheap membership hint: tags and checksum, never the payload.

        A disk probe validates the envelope's format/schema tags and
        payload CRC without decompressing or unpickling the trace
        itself, and counts nothing, so callers that will immediately
        :meth:`get` on a positive answer (e.g. :class:`~repro.sim
        .parallel.SimPool` classifying warm keys) don't deserialize
        every entry twice.  The CRC check means byte-level corruption
        probes False (and the pipeline recaptures cold); the residual
        price is that an entry whose checksummed bytes decode to a
        *foreign* object can still probe True and miss on the ``get`` —
        callers must treat a positive probe as a hint, not a guarantee.
        """
        if key in self._entries:
            return True
        path = self._disk_path(key)
        if path is None:
            return False
        try:
            obj = _read_entry(path)
        except OSError:
            return False
        return _validate_envelope(obj) and _crc_ok(obj)

    @property
    def stats(self) -> dict:
        lookups = self.hits + self.disk_hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "remote_puts": self.remote_puts,
            "lookups": lookups,
            "entries": len(self._entries),
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "corrupt_purged": self.corrupt_purged,
            "io_retries": self.io_retries,
            "put_errors": self.put_errors,
            "memory_only": self.memory_only,
        }

    # -- store lifecycle -----------------------------------------------
    def gc(self, max_bytes: Optional[int] = None) -> dict:
        """Run one lifecycle pass over the disk directory.

        Reaps crashed-writer ``*.tmp`` orphans, purges entries whose
        envelope no longer validates or whose payload fails its
        checksum, then evicts oldest-``mtime`` entries until the store
        fits ``max_bytes`` (default: the cache's configured budget).
        Safe to run concurrently with readers and writers in other
        processes.  Returns a summary dict; a memory-only cache has
        nothing to collect.

        Orphan ages are judged by the cache's *injected* clock
        (``self._now()``), the same clock :func:`_write_atomic` stamps
        tempfiles with — so a live writer's tempfile can never look
        :data:`TMP_MAX_AGE_S` old to its own cache's GC, however slowly
        the write progresses (e.g. under fault-injected slow I/O).
        Mixing the wall clock here with a synthetic write clock would
        reap in-flight writes.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        summary = {"reaped_tmp": 0, "purged_stale": 0, "purged_corrupt": 0,
                   "evicted": 0, "reaped_sidecars": 0, "entries": 0,
                   "bytes_before": 0, "bytes_after": 0}
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return summary
        now = self._now()

        for tmp in self.disk_dir.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= TMP_MAX_AGE_S:
                    tmp.unlink()
                    summary["reaped_tmp"] += 1
            except OSError:
                continue  # vanished or finished mid-scan: not an orphan

        live: list[tuple[float, int, Path]] = []
        for path in sorted(self.disk_dir.glob(_ENTRY_GLOB)):
            try:
                stat = path.stat()
                obj = _read_entry(path)
            except OSError:
                continue  # concurrently evicted: nothing to manage
            # Tag-only validation, then a CRC pass over the packed
            # payload bytes: a full-store scan never deserializes a
            # single trace.  Corrupt entries are counted separately so a
            # corruption burst is visible in the summary.
            if not _validate_envelope(obj):
                if _unlink_entry(path):
                    summary["purged_stale"] += 1
            elif not _crc_ok(obj):
                if self._purge_corrupt(path):
                    summary["purged_corrupt"] += 1
            else:
                live.append((stat.st_mtime, stat.st_size, path))

        total = sum(size for _, size, _ in live)
        summary["bytes_before"] = total
        live.sort(key=lambda item: (item[0], item[2].name))  # oldest first
        survivors = len(live)
        for _, size, path in live:
            if total <= budget:
                break
            if not _unlink_entry(path):
                continue  # undeletable: it still counts against the budget
            total -= size
            survivors -= 1
            summary["evicted"] += 1
        summary["bytes_after"] = total
        summary["entries"] = survivors

        # Sidecars never outlive their entry: one orphaned by a crash
        # between an eviction and its sidecar unlink (or by a foreign
        # process's eviction) is reaped here.
        for side in self.disk_dir.glob(_SIDECAR_GLOB):
            entry = side.with_name(side.name[:-len(".hits")])
            if not entry.exists() and _unlink_quiet(side):
                summary["reaped_sidecars"] += 1
        return summary

    def manifest(self) -> list[dict]:
        """Per-entry view: file name, size, age, and hits served.

        ``hits_served`` is the envelope's base count plus the ``.hits``
        sidecar's serves-since-write (the payload stays packed — a
        manifest pass never decompresses a trace); an unreadable
        envelope or absent sidecar contributes 0.  The ``corrupt`` flag
        marks entries whose payload fails its checksum (or whose
        envelope cannot be read at all) — candidates the next
        :meth:`gc` pass will purge.
        """
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        now = self._now()
        rows = []
        for path in sorted(self.disk_dir.glob(_ENTRY_GLOB)):
            try:
                stat = path.stat()
            except OSError:
                continue
            try:
                obj = _read_entry(path)
            except OSError:
                obj = None  # vanished since the stat: unreadable
            base = obj.get("hits_served", 0) if isinstance(obj, dict) else 0
            rows.append({"file": path.name, "bytes": stat.st_size,
                         "age_s": max(0.0, now - stat.st_mtime),
                         "hits_served": (_read_hits(sidecar_path(path))
                                         + (base if isinstance(base, int)
                                            else 0)),
                         "corrupt": obj is None or (_validate_envelope(obj)
                                                    and not _crc_ok(obj))})
        return rows

    @property
    def store_stats(self) -> dict:
        """Aggregate disk-side view plus the in-memory cache counters."""
        manifest = self.manifest()
        ages = [row["age_s"] for row in manifest]
        stats = dict(self.stats)
        stats.update({
            "dir": str(self.disk_dir),
            "disk_entries": len(manifest),
            "disk_bytes": sum(row["bytes"] for row in manifest),
            "oldest_age_s": max(ages) if ages else 0.0,
            "newest_age_s": min(ages) if ages else 0.0,
            "hits_served": sum(row["hits_served"] for row in manifest),
            "corrupt_entries": sum(1 for row in manifest if row["corrupt"]),
            "max_bytes": self.max_bytes,
            "serve_write_bytes": self.serve_write_bytes,
            "serve_note_errors": self.serve_note_errors,
        })
        return stats


def attach_store(disk_dir: Union[str, Path, None] = None,
                 max_bytes: Optional[int] = None) -> Optional[TraceCache]:
    """The shared store a run attaches to, or ``None`` for none.

    An explicit ``disk_dir`` wins; else ``$REPRO_TRACE_STORE`` names the
    store; with neither there is no shared store and the caller keeps a
    private cache.  ``max_bytes`` is the GC budget
    (:func:`resolve_store_bytes` resolves ``None``).
    """
    if disk_dir is None and not read_env(ENV_STORE_DIR):
        return None
    return TraceCache(disk_dir=resolve_store_dir(disk_dir),
                      max_bytes=max_bytes)
