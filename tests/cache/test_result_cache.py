"""Result-cache correctness: layers, invalidation, corruption, eviction."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache import DiskStore, LRUCache, ResultCache
from repro.cache import result_cache as rc_mod
from repro.simulator import get_profile, sweep_design_space

try:
    from hypothesis import given, settings, strategies as st

    def seeds(n_examples: int = 30, max_seed: int = 10**6):
        """Feed the test a shrinkable integer seed via hypothesis."""

        def deco(fn):
            return settings(max_examples=n_examples, deadline=None)(
                given(st.integers(0, max_seed))(fn)
            )

        return deco

except ImportError:  # pragma: no cover - exercised only without hypothesis

    def seeds(n_examples: int = 30, max_seed: int = 10**6):
        """Fallback: a fixed, seeded sweep of random example seeds."""
        picker = random.Random(20260808)
        chosen = [picker.randrange(max_seed + 1) for _ in range(n_examples)]

        def deco(fn):
            return pytest.mark.parametrize("seed", chosen)(fn)

        return deco


def _run_lru_workload(seed: int, n_ops: int = 400) -> None:
    """Mixed get/put/evict/clear stream, checking the contract every step.

    Residency never exceeds ``max_entries``; a key just ``put`` is gettable
    with its exact value; an evicted key is really gone; hits + misses
    equals the ``get`` calls, and evictions equals insertions minus
    residents (clears accounted separately).
    """
    rng = random.Random(seed)
    capacity = rng.randint(1, 12)
    lru = LRUCache(capacity)
    keys = [f"k{i}" for i in range(rng.randint(1, 30))]

    contents: dict[str, int] = {}   # mirror of what must be resident
    n_gets = n_insertions = n_cleared = 0
    for step in range(n_ops):
        op = rng.random()
        key = rng.choice(keys)
        if op < 0.45:
            n_gets += 1
            got = lru.get(key)
            if key in contents:
                assert got == contents[key]
        elif op < 0.85:
            if key not in lru:
                n_insertions += 1
            lru.put(key, step)
            contents[key] = step
            assert key in lru
            n_gets += 1
            assert lru.get(key) == step
        elif op < 0.95:
            victim = lru.evict()
            if victim is not None:
                assert victim not in lru
                contents.pop(victim, None)
        else:
            n_cleared += lru.clear()
            contents.clear()
            assert len(lru) == 0

        assert len(lru) <= capacity
        for k in [k for k in contents if k not in lru]:
            del contents[k]     # the cache chose these victims; mirror it
        assert len(contents) == len(lru)

    assert lru.hits + lru.misses == n_gets
    assert lru.evictions == n_insertions - len(lru) - n_cleared
    n = len(lru)
    for k, v in contents.items():
        assert lru.get(k) == v
    assert len(lru) == n        # reads never change residency


class TestLRUCache:
    def test_hit_miss_counters(self):
        lru = LRUCache(max_entries=4)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert "a" in lru and len(lru) == 1
        assert (lru.hits, lru.misses, lru.evictions) == (1, 1, 0)

    def test_size_never_exceeds_capacity(self):
        lru = LRUCache(max_entries=3)
        for i in range(20):
            lru.put(f"k{i}", i)
            assert len(lru) <= 3
        assert lru.evictions == 17

    def test_eviction_accounting_and_order(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")          # refresh "a" -> "b" becomes LRU
        lru.put("c", 3)       # evicts "b"
        assert "b" not in lru
        assert "a" in lru and "c" in lru
        assert lru.evictions == 1
        assert len(lru) == 2

    def test_put_refresh_does_not_evict(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)      # refresh via put, not get
        assert lru.evictions == 0
        lru.put("c", 3)
        assert "b" not in lru and lru.get("a") == 10

    def test_refresh_at_capacity_never_evicts(self):
        """Re-putting a resident key in a full cache is a value update, not
        an insert: no eviction, no eviction-counter bump."""
        lru = LRUCache(max_entries=3)
        for i in range(3):
            lru.put(f"k{i}", i)
        for i in range(3):
            lru.put(f"k{i}", i + 100)
        assert len(lru) == 3 and lru.evictions == 0
        for i in range(3):
            assert lru.get(f"k{i}") == i + 100

    def test_evicted_keys_are_really_gone(self):
        lru = LRUCache(max_entries=2)
        for i in range(10):
            lru.put(f"k{i}", i)
        assert [f"k{i}" for i in range(10) if f"k{i}" in lru] == ["k8", "k9"]
        for i in range(8):
            assert lru.get(f"k{i}") is None

    def test_explicit_evict_and_clear(self):
        lru = LRUCache(max_entries=4)
        for i in range(4):
            lru.put(f"k{i}", i)
        assert lru.evict() == "k0"    # the coldest entry
        assert "k0" not in lru and len(lru) == 3
        assert lru.clear() == 3
        assert len(lru) == 0
        assert lru.evict() is None
        assert lru.evictions == 1     # counters survive clear()

    def test_get_default_does_not_shadow_none_values(self):
        lru = LRUCache(max_entries=4)
        sentinel = object()
        assert lru.get("missing", sentinel) is sentinel
        lru.put("present", None)
        assert lru.get("present", sentinel) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            LRUCache(max_entries=0)

    @seeds()
    def test_invariants_under_random_workload(self, seed):
        _run_lru_workload(seed)

    @seeds(n_examples=10)
    def test_capacity_one_degenerate_cache(self, seed):
        rng = random.Random(seed)
        lru = LRUCache(max_entries=1)
        for step in range(100):
            key = f"k{rng.randrange(5)}"
            lru.put(key, step)
            assert len(lru) == 1
            assert lru.get(key) == step


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        value = {"cycles": np.arange(5.0)}
        store.put("ab" + "0" * 62, value)
        loaded = store.get("ab" + "0" * 62)
        assert np.array_equal(loaded["cycles"], value["cycles"])
        assert len(store) == 1
        assert store.size_bytes() > 0

    def test_missing_key_is_default(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get("cd" + "0" * 62, default="nope") == "nope"
        assert store.misses == 1

    @pytest.mark.parametrize("corruption", ["truncate", "flip", "garbage"])
    def test_corrupted_entry_recomputes_not_crashes(self, tmp_path, corruption):
        store = DiskStore(tmp_path)
        key = "ef" + "0" * 62
        store.put(key, [1, 2, 3])
        path = store._path(key)
        raw = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        elif corruption == "flip":
            raw = bytearray(raw)
            raw[-1] ^= 0xFF
            path.write_bytes(bytes(raw))
        else:
            path.write_bytes(b"not a cache entry at all")
        assert store.get(key, default="recompute") == "recompute"
        assert not path.exists(), "corrupt entry should be discarded"

    def test_clear(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(3):
            store.put(f"{i:02d}" + "0" * 62, i)
        assert store.clear() == 3
        assert len(store) == 0


class TestResultCache:
    def test_memory_then_disk_then_compute(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return 42

        cache = ResultCache(disk_root=tmp_path)
        assert cache.get_or_compute(("k",), compute) == 42
        assert cache.get_or_compute(("k",), compute) == 42
        assert len(calls) == 1
        assert cache.events == ["miss:result", "hit:memory:result"]

        fresh = ResultCache(disk_root=tmp_path)  # same disk, cold memory
        assert fresh.get_or_compute(("k",), compute) == 42
        assert len(calls) == 1
        assert fresh.events == ["hit:disk:result"]
        stats = fresh.stats()
        assert stats.disk_hits == 1 and stats.hits == 1 and stats.misses == 0

    def test_key_change_invalidates(self):
        cache = ResultCache()
        a = cache.get_or_compute(("config", 1), lambda: "one")
        b = cache.get_or_compute(("config", 2), lambda: "two")
        assert (a, b) == ("one", "two")
        assert cache.stats().hits == 0

    def test_code_version_part_invalidates(self, monkeypatch):
        """Simulates editing the simulator: the version part must miss."""
        from repro.cache import fingerprint as fp_mod

        cache = ResultCache()
        v1 = fp_mod.code_version()
        cache.get_or_compute(("cycles", v1), lambda: "old")
        monkeypatch.setattr(fp_mod, "code_version", lambda: "deadbeef")
        got = cache.get_or_compute(
            ("cycles", fp_mod.code_version()), lambda: "new")
        assert got == "new"

    def test_eviction_events(self):
        cache = ResultCache(max_entries=1)
        cache.get_or_compute(("a",), lambda: 1)
        cache.get_or_compute(("b",), lambda: 2)
        assert "evict:memory" in cache.events
        assert cache.stats().memory_evictions == 1

    def test_disabled_instance_always_computes(self):
        calls = []
        cache = ResultCache()
        cache.enabled = False
        for _ in range(2):
            cache.get_or_compute(("k",), lambda: calls.append(1))
        assert len(calls) == 2
        assert cache.events == []

    def test_global_disable(self):
        calls = []
        cache = ResultCache()
        rc_mod.set_enabled(False)
        try:
            for _ in range(2):
                cache.get_or_compute(("k",), lambda: calls.append(1))
        finally:
            rc_mod.set_enabled(True)
        assert len(calls) == 2

    def test_clear_reports_per_layer(self, tmp_path):
        cache = ResultCache(disk_root=tmp_path)
        cache.get_or_compute(("k",), lambda: 7)
        assert cache.clear() == {"memory": 1, "disk": 1}

    def test_stats_hit_rate(self):
        cache = ResultCache()
        cache.get_or_compute(("k",), lambda: 1)
        cache.get_or_compute(("k",), lambda: 1)
        cache.get_or_compute(("k",), lambda: 1)
        assert cache.stats().hit_rate == pytest.approx(2 / 3)

    def test_forced_eviction_keeps_sweep_results(self, design_space):
        profile = get_profile("gcc")
        chunks = [design_space[i:i + 8] for i in range(0, 64, 8)]
        store = ResultCache(max_entries=2)
        passes = [sum(float(sweep_design_space(chunk, profile).sum())
                      for chunk in chunks)]
        for _ in range(2):
            passes.append(sum(float(sweep_design_space(
                chunk, profile, cache=store).sum()) for chunk in chunks))
        assert store.stats().memory_evictions > 0
        assert len(set(passes)) == 1, "eviction must not change sweep results"


class TestNamespaceBreakdown:
    def test_by_namespace_counts(self):
        cache = ResultCache(namespace="tenant-a")
        cache.get_or_compute(("k",), lambda: 1)
        cache.get_or_compute(("k",), lambda: 1)
        assert cache.stats_by_namespace() == {
            "tenant-a": {"hits": 1, "misses": 1}}

    def test_default_namespace_bucket(self):
        cache = ResultCache()
        cache.get_or_compute(("k",), lambda: 1)
        assert cache.stats_by_namespace() == {
            "(default)": {"hits": 0, "misses": 1}}

    def test_snapshot_includes_namespaces(self):
        rc_mod.reset_default_cache()
        try:
            rc_mod.configure()
            cache = rc_mod.default_cache()
            cache.get_or_compute(("k",), lambda: 1)
            cache.get_or_compute(("k",), lambda: 1)
            snap = rc_mod.cache_snapshot()
            assert set(snap) == {"enabled", "result_cache", "by_namespace",
                                 "encoder_matrix_cache"}
            assert snap["by_namespace"] == {
                "(default)": {"hits": 1, "misses": 1}}
            assert snap["result_cache"]["memory_hits"] == 1
        finally:
            rc_mod.reset_default_cache()


class TestSweepCaching:
    """End-to-end: sweep results identical with caching off, cold, and warm."""

    def test_sweep_cache_bit_identity(self, design_space, tmp_path):
        profile = get_profile("parser")
        subset = design_space[:96]
        off = sweep_design_space(subset, profile)
        store = ResultCache(disk_root=tmp_path)
        cold = sweep_design_space(subset, profile, cache=store)
        warm = sweep_design_space(subset, profile, cache=store)
        assert np.array_equal(off, cold)
        assert np.array_equal(off, warm)
        assert store.stats().hits == 1

    def test_different_profile_misses(self, design_space):
        store = ResultCache()
        subset = design_space[:8]
        sweep_design_space(subset, get_profile("gcc"), cache=store)
        sweep_design_space(subset, get_profile("mcf"), cache=store)
        assert store.stats().hits == 0

    def test_cached_result_immune_to_caller_mutation(self, design_space):
        store = ResultCache()
        subset = design_space[:8]
        first = sweep_design_space(subset, profile := get_profile("gcc"), cache=store)
        first[:] = -1.0
        second = sweep_design_space(subset, profile, cache=store)
        assert not np.array_equal(first, second)
        assert (second > 0).all()


class TestRateSweepCachingEquivalence:
    """End-to-end acceptance: run_rate_sweep is identical on/off/warm."""

    def test_rate_sweep_identical_on_off_warm(self, space_dataset):
        from repro.core import model_builders, run_rate_sweep
        from repro.ml.preprocess import raw_matrix_cache

        space = space_dataset("gzip")
        builders = model_builders(("LR-B", "LR-E"), seed=0)

        def sweep():
            return run_rate_sweep(space, builders, [0.01, 0.02],
                                  np.random.default_rng(0), n_cv_reps=2)

        rc_mod.set_enabled(False)
        try:
            off = sweep()
        finally:
            rc_mod.set_enabled(True)
        raw_matrix_cache().clear()
        cold = sweep()
        hits_before = raw_matrix_cache().hits
        warm = sweep()
        assert raw_matrix_cache().hits > hits_before, "warm rerun must hit"

        for a, b in zip(off, cold):
            assert a.true_errors() == b.true_errors()
            assert a.estimated_errors() == b.estimated_errors()
        for a, b in zip(cold, warm):
            assert a.true_errors() == b.true_errors()
            assert a.estimated_errors() == b.estimated_errors()
