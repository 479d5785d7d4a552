"""Shared trace store (a directory-backed ``TraceCache``): GC lifecycle,
the one hit-accounting rule, stats bugfixes, cross-sweep sharing."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import warnings

import pytest

from repro.env import ENV_STORE_BYTES, ENV_STORE_DIR
from repro.eval.fig6_scaling import run_fig6
from repro.eval.fig7_latency import render_fig7, run_fig7
from repro.eval.runner import (EXPERIMENTS, SIMULATION_EXPERIMENTS,
                               STATIC_EXPERIMENTS, run_experiment)
from repro.eval.table1_kernels import render_table1, run_table1
from repro.kernels import build_fmatmul
from repro.params import Ara2Config, AraXLConfig
from repro.sim import TraceCache, attach_store
from repro.sim.trace_cache import (TMP_MAX_AGE_S, _read_hits, disk_path,
                                   resolve_store_bytes, resolve_store_dir,
                                   sidecar_path)


def _capture_entry(store, k=16, lanes=4):
    """Capture one distinct fmatmul trace into ``store``; returns its key."""
    cfg = Ara2Config(lanes=lanes)
    run = build_fmatmul(cfg, 64, m=8, k=k)
    run.capture(cfg, cache=store, verify=False)
    return run.trace_key(cfg)


def _entry_file(store, key):
    return disk_path(store.disk_dir, key)


def _set_age(path, age_s):
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


# ----------------------------------------------------------------------
# GC policy
# ----------------------------------------------------------------------
class TestStoreGc:
    def test_size_cap_evicts_oldest_mtime_first(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        keys = [_capture_entry(store, k=k) for k in (16, 32, 48)]
        paths = [_entry_file(store, key) for key in keys]
        for path, age in zip(paths, (300, 200, 100)):  # [0] is oldest
            _set_age(path, age)

        budget = paths[1].stat().st_size + paths[2].stat().st_size
        summary = store.gc(max_bytes=budget)
        assert summary["evicted"] == 1
        assert not paths[0].exists()  # oldest went first
        assert paths[1].exists() and paths[2].exists()
        assert summary["bytes_after"] <= budget
        assert summary["entries"] == 2

    def test_disk_hit_freshens_mtime_so_gc_is_lru(self, tmp_path):
        writer = TraceCache(disk_dir=tmp_path)
        key_a = _capture_entry(writer, k=16)
        key_b = _capture_entry(writer, k=32)
        path_a, path_b = (_entry_file(writer, k) for k in (key_a, key_b))
        _set_age(path_a, 500)  # A written long ago...
        _set_age(path_b, 100)

        reader = TraceCache(disk_dir=tmp_path)
        assert reader.get(key_a) is not None  # ...but used just now

        reader.gc(max_bytes=path_a.stat().st_size)
        assert path_a.exists(), "recently-used entry must survive"
        assert not path_b.exists(), "least-recently-used entry evicted"

    def test_stale_envelope_files_are_purged(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        good = _entry_file(store, key)

        wrong_format = tmp_path / "trace_aaaa.pkl"
        with good.open("rb") as fh:
            envelope = pickle.load(fh)
        envelope["format"] = -1
        wrong_format.write_bytes(pickle.dumps(envelope))
        bare = tmp_path / "trace_bbbb.pkl"
        bare.write_bytes(pickle.dumps({"not": "an envelope"}))
        corrupt = tmp_path / "trace_cccc.pkl"
        corrupt.write_bytes(b"definitely not a pickle")

        summary = store.gc()
        assert summary["purged_stale"] == 3
        assert good.exists()
        assert not wrong_format.exists()
        assert not bare.exists() and not corrupt.exists()

    def test_orphaned_tmp_files_are_reaped(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        _capture_entry(store)
        crashed = tmp_path / "trace_dead.pkl.123.tmp"
        crashed.write_bytes(b"half-written")
        _set_age(crashed, 2 * TMP_MAX_AGE_S)
        in_flight = tmp_path / "trace_live.pkl.456.tmp"
        in_flight.write_bytes(b"being written right now")

        summary = store.gc()
        assert summary["reaped_tmp"] == 1
        assert not crashed.exists()
        assert in_flight.exists(), "a live writer's tempfile must survive"

    def test_tmp_reaping_follows_the_injected_clock(self, tmp_path):
        """GC judges tempfile age by the store's own clock, never the
        wall clock.  A store on an injected clock stamps its tempfiles
        with that clock, so to a wall-clock GC (the old bug) every
        in-flight write of a faked-time test looks ancient and gets
        reaped out from under its writer."""
        fake = [1_000_000.0]  # decades behind time.time()
        store = TraceCache(disk_dir=tmp_path, clock=lambda: fake[0])
        _capture_entry(store)
        in_flight = tmp_path / "trace_live.pkl.42.tmp"
        in_flight.write_bytes(b"being written right now")
        os.utime(in_flight, (fake[0], fake[0]))  # stamped "now" (fake)

        assert store.gc()["reaped_tmp"] == 0
        assert in_flight.exists(), \
            "a tempfile stamped 'now' by the store's clock is not an orphan"

        fake[0] += 2 * TMP_MAX_AGE_S
        assert store.gc()["reaped_tmp"] == 1
        assert not in_flight.exists()

    def test_gc_on_missing_dir_is_a_noop(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path / "never_created")
        summary = store.gc()
        assert summary == {"reaped_tmp": 0, "purged_stale": 0,
                           "purged_corrupt": 0, "evicted": 0,
                           "reaped_sidecars": 0, "entries": 0,
                           "bytes_before": 0, "bytes_after": 0}

    def test_manifest_and_store_stats(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path, max_bytes=12345)
        _capture_entry(store, k=16)
        _capture_entry(store, k=32)
        manifest = store.manifest()
        assert len(manifest) == 2
        assert all(row["bytes"] > 0 and row["age_s"] >= 0.0
                   for row in manifest)
        stats = store.store_stats
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] == sum(r["bytes"] for r in manifest)
        assert stats["max_bytes"] == 12345
        assert stats["dir"] == str(tmp_path)
        assert stats["misses"] == 2  # the two captures


def _hammer_store_puts(disk_dir: str, iterations: int) -> None:
    """Writer process: repeatedly re-put one entry while the parent GCs."""
    store = TraceCache(disk_dir=disk_dir)
    cfg = Ara2Config(lanes=4)
    run = build_fmatmul(cfg, 64, m=8, k=16)
    captured = run.capture(cfg, verify=False)
    key = run.trace_key(cfg)
    for _ in range(iterations):
        store.put(key, captured)


class TestGcConcurrency:
    def test_gc_races_writer_without_corruption(self, tmp_path):
        """An aggressive GC (budget 0: evict everything it sees) racing a
        writer must never corrupt the store or crash either side."""
        proc = multiprocessing.Process(target=_hammer_store_puts,
                                       args=(str(tmp_path), 40))
        proc.start()
        gcs = 0
        store = TraceCache(disk_dir=tmp_path)
        while proc.is_alive():
            store.gc(max_bytes=0)
            gcs += 1
        proc.join(timeout=120)
        assert proc.exitcode == 0
        assert gcs > 0
        # Whatever survived the race, the store still works end to end.
        key = _capture_entry(store)
        fresh = TraceCache(disk_dir=tmp_path)
        assert fresh.get(key) is not None
        assert fresh.stats["disk_hits"] == 1


# ----------------------------------------------------------------------
# Store resolution (env vars, attach semantics)
# ----------------------------------------------------------------------
class TestStoreResolution:
    def test_dir_priority_explicit_env_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_STORE_DIR, raising=False)
        # The suite default is anchored to the checkout, never the cwd.
        assert resolve_store_dir().is_absolute()
        assert resolve_store_dir().name == "trace_cache"
        assert resolve_store_dir(default=tmp_path / "d") == tmp_path / "d"
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "env"))
        assert resolve_store_dir(default=tmp_path / "d") == tmp_path / "env"
        assert resolve_store_dir(tmp_path / "x") == tmp_path / "x"

    def test_bytes_priority(self, monkeypatch):
        monkeypatch.delenv(ENV_STORE_BYTES, raising=False)
        assert resolve_store_bytes() == 256 * 1024 * 1024
        monkeypatch.setenv(ENV_STORE_BYTES, "1024")
        assert resolve_store_bytes() == 1024
        assert resolve_store_bytes(7) == 7

    def test_attach_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_STORE_DIR, raising=False)
        cache = TraceCache()
        assert attach_store(cache) is cache
        store = attach_store(tmp_path / "s")
        assert isinstance(store, TraceCache)
        assert store.disk_dir == tmp_path / "s"
        assert attach_store(None) is None
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "envstore"))
        via_env = attach_store(None)
        assert isinstance(via_env, TraceCache)
        assert via_env.disk_dir == tmp_path / "envstore"


# ----------------------------------------------------------------------
# TraceCache._last_lookup staleness bugfixes
# ----------------------------------------------------------------------
class TestDemoteLastHitStaleness:
    def _cache_with_entry(self, tmp_path=None):
        cache = TraceCache(disk_dir=tmp_path)
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        captured = run.capture(cfg, verify=False)
        key = run.trace_key(cfg)
        cache.put(key, captured)
        return cache, key, captured

    def test_demote_after_put_is_a_noop(self):
        cache, key, captured = self._cache_with_entry()
        assert cache.get(key) is not None  # memory hit
        cache.put(key, captured)  # intervening put clears lookup context
        before = dict(cache.stats)
        cache.demote_last_hit()
        assert dict(cache.stats) == before

    def test_demote_after_clear_is_a_noop(self):
        cache, key, _ = self._cache_with_entry()
        assert cache.get(key) is not None
        cache.clear()
        before = dict(cache.stats)
        cache.demote_last_hit()
        assert dict(cache.stats) == before

    def test_demote_twice_cannot_go_negative(self):
        cache, key, _ = self._cache_with_entry()
        assert cache.get(key) is not None
        cache.demote_last_hit()
        cache.demote_last_hit()  # second call must not stack
        stats = cache.stats
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["hits"] >= 0 and stats["disk_hits"] >= 0

    def test_demote_disk_hit_after_put_is_a_noop(self, tmp_path):
        writer, key, captured = self._cache_with_entry(tmp_path)
        reader = TraceCache(disk_dir=tmp_path)
        assert reader.get(key) is not None  # disk hit
        reader.put(key, captured)
        before = dict(reader.stats)
        reader.demote_last_hit()
        assert dict(reader.stats) == before
        assert reader.stats["disk_hits"] == 1

    def test_demote_still_works_right_after_get(self):
        cache, key, _ = self._cache_with_entry()
        assert cache.get(key) is not None
        cache.demote_last_hit()
        stats = cache.stats
        assert stats["hits"] == 0 and stats["misses"] == 1


# ----------------------------------------------------------------------
# Cross-sweep sharing and byte-identity
# ----------------------------------------------------------------------
class TestSharedStoreAcrossSweeps:
    _FIG7_KW = dict(kernels=("fmatmul",), bytes_per_lane=(64,), lanes=8,
                    scale="reduced")

    def test_two_sweeps_share_one_store(self, tmp_path):
        """A fig6 capture is a disk hit for a fig7 run over the same
        operating point — the whole point of the shared store."""
        store1 = TraceCache(disk_dir=tmp_path)
        run_fig6(kernels=("fmatmul",), bytes_per_lane=(64,),
                 machines=[Ara2Config(lanes=8)], scale="reduced",
                 trace_cache=store1)
        assert store1.stats["misses"] == 1  # fig6 paid the capture

        store2 = TraceCache(disk_dir=tmp_path)  # fresh attach, same disk
        points = run_fig7(**self._FIG7_KW, trace_cache=store2)
        assert store2.stats["misses"] == 0
        assert store2.stats["disk_hits"] >= 1  # served from fig6's capture
        private = run_fig7(**self._FIG7_KW)
        assert render_fig7(points) == render_fig7(private)

    def test_output_identical_cold_warm_and_gcd(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        cold = run_fig7(**self._FIG7_KW, trace_cache=store)
        warm = run_fig7(**self._FIG7_KW,
                        trace_cache=TraceCache(disk_dir=tmp_path))
        store.gc(max_bytes=0)  # evict everything mid-run
        assert store.manifest() == []
        gcd = run_fig7(**self._FIG7_KW,
                       trace_cache=TraceCache(disk_dir=tmp_path))
        assert render_fig7(cold) == render_fig7(warm) == render_fig7(gcd)

    def test_table1_reads_and_warms_the_store(self, tmp_path):
        cfg = AraXLConfig(lanes=8)
        kw = dict(config=cfg, bytes_per_lane=64, scale="reduced")
        store = TraceCache(disk_dir=tmp_path)
        first = run_table1(**kw, trace_cache=store)
        assert store.stats["misses"] > 0  # cold: capture phase ran
        assert len(store.manifest()) == store.stats["misses"]  # warmed disk

        again = TraceCache(disk_dir=tmp_path)
        second = run_table1(**kw, trace_cache=again)
        assert again.stats["misses"] == 0
        assert again.stats["disk_hits"] == store.stats["misses"]
        assert second == first


class TestTable1Workers:
    def test_parallel_matches_serial(self):
        kw = dict(config=AraXLConfig(lanes=8), bytes_per_lane=64,
                  scale="reduced")
        serial = run_table1(**kw, workers=1)
        parallel = run_table1(**kw, workers=2)
        assert parallel == serial
        assert render_table1(parallel) == render_table1(serial)


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_static_and_simulation_partition_the_registry(self):
        assert SIMULATION_EXPERIMENTS | STATIC_EXPERIMENTS == set(EXPERIMENTS)
        assert not SIMULATION_EXPERIMENTS & STATIC_EXPERIMENTS

    @pytest.mark.parametrize("name", sorted(STATIC_EXPERIMENTS))
    def test_static_experiments_ignore_all_args(self, name, tmp_path):
        plain = run_experiment(name)
        decorated = run_experiment(name, scale="reduced", workers=3,
                                   trace_store=tmp_path / "ignored")
        assert decorated == plain
        assert not (tmp_path / "ignored").exists()  # store never touched

    def test_run_experiment_threads_workers_and_store(self, tmp_path):
        store_dir = tmp_path / "store"
        kw = dict(scale="reduced", trace_store=store_dir)
        cold = run_experiment("table1", workers=2, **kw)
        assert any(store_dir.glob("trace_*.pkl"))  # experiment warmed it
        warm = run_experiment("table1", workers=1, **kw)
        assert warm == cold

    def test_run_experiment_attaches_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "envstore"))
        out = run_experiment("table1", scale="reduced")
        assert any((tmp_path / "envstore").glob("trace_*.pkl"))
        monkeypatch.delenv(ENV_STORE_DIR)
        assert out == run_experiment("table1", scale="reduced")


# ----------------------------------------------------------------------
# hits_served: the persisted per-entry popularity counter
# ----------------------------------------------------------------------
class TestHitsServed:
    def _envelope(self, path):
        with path.open("rb") as fh:
            return pickle.load(fh)

    def _hits(self, path):
        """Persisted serve count: envelope base + ``.hits`` sidecar."""
        return (self._envelope(path)["hits_served"]
                + _read_hits(sidecar_path(path)))

    def test_fresh_entry_starts_at_zero(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        assert self._hits(path) == 0
        assert not sidecar_path(path).exists()  # no serves, no sidecar
        assert store.manifest()[0]["hits_served"] == 0

    def test_disk_hit_bumps_and_persists(self, tmp_path):
        writer = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(writer)
        path = _entry_file(writer, key)

        reader = TraceCache(disk_dir=tmp_path)  # cold memory, warm disk
        assert reader.get(key) is not None  # disk hit -> bump
        assert self._hits(path) == 1
        assert reader.get(key) is not None  # memory hit -> no bump
        assert self._hits(path) == 1
        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        assert self._hits(path) == 2

    def test_bump_freshens_mtime_for_lru(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        _set_age(path, 1000)
        aged = path.stat().st_mtime
        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        assert path.stat().st_mtime > aged  # utime freshens, no rewrite

    def test_payload_survives_bumps(self, tmp_path):
        from repro.sim import replay_trace

        store = TraceCache(disk_dir=tmp_path)
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        run.capture(cfg, cache=store, verify=False)
        key = run.trace_key(cfg)
        for _ in range(3):
            entry = TraceCache(disk_dir=tmp_path).get(key)
            assert entry is not None
        assert replay_trace(cfg, entry).timing \
            == run.run(cfg, verify=False).timing

    def test_envelope_counter_field_is_the_base(self, tmp_path):
        """An envelope carrying a non-zero ``hits_served`` (e.g. a file a
        foreign revision wrote) adds to the sidecar's count."""
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        envelope = self._envelope(path)
        envelope["hits_served"] = 5
        path.write_bytes(pickle.dumps(envelope))

        assert store.manifest()[0]["hits_served"] == 5
        reader = TraceCache(disk_dir=tmp_path)
        assert reader.get(key) is not None
        assert self._hits(path) == 6
        assert reader.manifest()[0]["hits_served"] == 6

    def test_recapture_resets_counter(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        assert self._hits(path) == 1
        # A put (recapture) rewrites the payload and unlinks the
        # sidecar: new life, zero hits.
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        store.put(key, run.capture(cfg, verify=False))
        assert self._hits(path) == 0
        assert not sidecar_path(path).exists()

    def test_ingest_remote_does_not_bump(self, tmp_path):
        """Adopting a worker's disk-routed capture is a remote put, not a
        serve: it counts in ``remote_puts`` only and leaves the
        persisted counter alone."""
        writer = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(writer)
        path = _entry_file(writer, key)
        reader = TraceCache(disk_dir=tmp_path)
        assert reader.ingest_remote(key) is not None
        assert reader.stats["remote_puts"] == 1
        assert reader.stats["disk_hits"] == 0
        assert self._hits(path) == 0
        assert not sidecar_path(path).exists()

    def test_membership_does_not_bump(self, tmp_path):
        """Membership is ``probe``: tags and checksum, no counter, and a
        cache has no ``in`` operator that could decode or bump."""
        writer = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(writer)
        path = _entry_file(writer, key)
        reader = TraceCache(disk_dir=tmp_path)
        assert reader.probe(key)
        with pytest.raises(TypeError):
            key in reader
        assert reader.stats["lookups"] == 0
        assert self._hits(path) == 0

    def test_pool_worker_cache_bumps(self, tmp_path, monkeypatch):
        """A pool worker's directory-backed cache follows the one rule
        too: its disk-served get counts a disk hit and bumps."""
        from repro.sim import parallel

        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        monkeypatch.setattr(parallel, "_WORKER_CACHE", None)
        monkeypatch.setattr(parallel, "_WORKER_FAULTS", None)
        parallel._init_worker(str(tmp_path), store.capacity)
        worker = parallel._WORKER_CACHE
        assert worker.get(key) is not None
        assert worker.stats["disk_hits"] == 1
        assert self._hits(path) == 1
        assert worker.get(key) is not None  # memory hit: no bump
        assert self._hits(path) == 1

    def test_store_stats_totals_hits_served(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key_a = _capture_entry(store, k=16)
        key_b = _capture_entry(store, k=32)
        for _ in range(2):
            assert TraceCache(disk_dir=tmp_path).get(key_a) is not None
        assert TraceCache(disk_dir=tmp_path).get(key_b) is not None
        stats = store.store_stats
        assert stats["hits_served"] == 3
        by_file = {row["file"]: row["hits_served"]
                   for row in store.manifest()}
        assert sorted(by_file.values()) == [1, 2]

    def test_gc_still_validates_bumped_entries(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        summary = store.gc()
        assert summary["purged_stale"] == 0
        assert summary["entries"] == 1

    def test_gc_reaps_orphaned_sidecars(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        live_side = sidecar_path(path)
        assert live_side.exists()
        orphan = tmp_path / "trace_gone.pkl.hits"
        orphan.write_bytes(b"7")

        summary = store.gc()
        assert summary["reaped_sidecars"] == 1
        assert not orphan.exists()
        assert live_side.exists(), "a live entry keeps its sidecar"

    def test_eviction_takes_the_sidecar_along(self, tmp_path):
        store = TraceCache(disk_dir=tmp_path)
        key_a = _capture_entry(store, k=16)
        key_b = _capture_entry(store, k=32)
        path_a, path_b = (_entry_file(store, k) for k in (key_a, key_b))
        assert TraceCache(disk_dir=tmp_path).get(key_a) is not None
        _set_age(path_a, 500)  # bumped, then aged: first out

        store.gc(max_bytes=path_b.stat().st_size)
        assert not path_a.exists()
        assert not sidecar_path(path_a).exists()


# ----------------------------------------------------------------------
# Warm-serve write cost: the sidecar keeps a disk hit O(counter bytes)
# ----------------------------------------------------------------------
class TestWarmServeWriteCost:
    def test_warm_serve_writes_only_counter_bytes(self, tmp_path):
        writer = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(writer)
        path = _entry_file(writer, key)
        entry_bytes = path.read_bytes()

        reader = TraceCache(disk_dir=tmp_path)
        before = reader.serve_write_bytes
        assert reader.get(key) is not None  # warm disk hit
        written = reader.serve_write_bytes - before
        assert written > 0
        assert written == sidecar_path(path).stat().st_size
        # The acceptance bound: a warm hit writes strictly fewer bytes
        # than the entry's payload — and in fact only a tiny counter.
        assert written < path.stat().st_size
        assert written <= 20
        assert path.read_bytes() == entry_bytes, \
            "a warm serve must not rewrite the envelope"
        assert reader.serve_write_bytes == written

        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        assert path.read_bytes() == entry_bytes

    def test_enospc_on_serve_demotes_to_memory_only(self, tmp_path):
        """The sidecar write classifies failures like put(): ENOSPC
        demotes the store (one warning), it is never silently swallowed."""
        from repro.sim.faults import FaultPlan
        writer = TraceCache(disk_dir=tmp_path)
        key_a = _capture_entry(writer, k=16)
        key_b = _capture_entry(writer, k=32)

        reader = TraceCache(disk_dir=tmp_path,
                            fault_plan=FaultPlan(seed=3, enospc_rate=1.0))
        with pytest.warns(RuntimeWarning, match="memory-only"):
            assert reader.get(key_a) is not None  # trace still served
        assert reader.memory_only
        assert reader.serve_write_bytes == 0
        # Once demoted, later serves skip the disk write entirely (and
        # warn no second time); no sidecar ever lands.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.get(key_b) is not None
        assert not sidecar_path(_entry_file(reader, key_a)).exists()
        assert not sidecar_path(_entry_file(reader, key_b)).exists()

    def test_transient_io_error_on_serve_is_counted_not_fatal(self, tmp_path):
        from repro.sim.faults import FaultPlan

        writer = TraceCache(disk_dir=tmp_path)
        key = _capture_entry(writer)
        reader = TraceCache(disk_dir=tmp_path,
                            fault_plan=FaultPlan(seed=3, io_error_rate=1.0))
        assert reader.get(key) is not None  # serve survives the fault
        assert reader.serve_note_errors == 1
        assert not reader.memory_only
