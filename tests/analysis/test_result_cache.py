"""Tests for the on-disk result cache (hit/miss/invalidation/exactness,
entry checksums, corruption quarantine, verify/gc)."""

import dataclasses
import json

from repro.analysis.cache import (
    CODE_VERSION,
    QUARANTINE_DIR,
    ResultCache,
    config_key,
    payload_checksum,
    result_from_dict,
    result_to_dict,
)
from repro.service import SweepService
from repro.sim.config import ndp_config
from repro.sim.runner import run_once


def tiny_config(**overrides):
    overrides.setdefault("workload", "rnd")
    overrides.setdefault("refs_per_core", 300)
    overrides.setdefault("scale", 1 / 64)
    return ndp_config(**overrides)


class TestConfigKey:
    def test_equal_configs_hash_equal(self):
        assert config_key(tiny_config()) == config_key(tiny_config())

    def test_any_field_changes_key(self):
        base = config_key(tiny_config())
        assert config_key(tiny_config(seed=43)) != base
        assert config_key(tiny_config(mechanism="ndpage")) != base
        assert config_key(tiny_config(refs_per_core=301)) != base

    def test_code_version_changes_key(self):
        cfg = tiny_config()
        assert config_key(cfg, "sim-v1") != config_key(cfg, "sim-v2")

    def test_key_is_hex_filename_safe(self):
        key = config_key(tiny_config())
        assert len(key) == 40
        assert set(key) <= set("0123456789abcdef")


class TestResultRoundTrip:
    def test_bit_exact_through_json(self):
        result = run_once(tiny_config())
        wire = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(wire)
        assert dataclasses.asdict(restored) == \
            dataclasses.asdict(result)
        assert restored.config == result.config


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        assert cache.load(cfg) is None
        assert cfg not in cache

        result = run_once(cfg)
        cache.store(cfg, result)
        assert cfg in cache
        cached = cache.load(cfg)
        assert dataclasses.asdict(cached) == dataclasses.asdict(result)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.store(cfg, run_once(cfg))
        assert cache.load(tiny_config(seed=99)) is None

    def test_code_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, code_version="sim-v1")
        cfg = tiny_config()
        old.store(cfg, run_once(cfg))

        new = ResultCache(tmp_path, code_version="sim-v2")
        assert new.load(cfg) is None

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        """Truncated JSON: miss, and the file moves to quarantine/ so
        it is not re-parsed (and re-failed) on every future run."""
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.store(cfg, run_once(cfg))
        cache.path(cfg).write_text("{ truncated")
        assert cache.load(cfg) is None
        assert cache.stats.corrupt == 1
        assert not cache.path(cfg).exists()
        quarantined = tmp_path / QUARANTINE_DIR / cache.path(cfg).name
        assert quarantined.exists()
        # The slot is free: a re-store then hits again.
        cache.store(cfg, run_once(cfg))
        assert cache.load(cfg) is not None

    def test_stale_entry_shape_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.path(cfg).write_text(json.dumps({"format": 999}))
        assert cache.load(cfg) is None

    def test_outdated_result_fields_are_a_miss(self, tmp_path):
        """An entry written before a RunResult field rename/addition
        must degrade to a miss, not crash the sweep."""
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.store(cfg, run_once(cfg))
        entry = json.loads(cache.path(cfg).read_text())
        entry["result"]["bogus_old_field"] = 1          # unexpected kw
        del entry["result"]["cycles"]                   # missing kw
        entry["sha256"] = payload_checksum(entry["result"])
        cache.path(cfg).write_text(json.dumps(entry))
        assert cache.load(cfg) is None                  # wrong shape

        cache.store(cfg, run_once(cfg))
        entry = json.loads(cache.path(cfg).read_text())
        del entry["result"]
        cache.path(cfg).write_text(json.dumps(entry))
        assert cache.load(cfg) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3):
            cfg = tiny_config(seed=seed)
            cache.store(cfg, run_once(cfg))
        assert len(cache) == 3
        # clear() also sweeps up tmp orphans from a mid-write kill.
        orphan = tmp_path / "deadbeef.tmp.12345"
        orphan.write_text("partial")
        assert cache.clear() == 3
        assert len(cache) == 0
        assert not orphan.exists()

    def test_default_code_version_used(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.code_version == CODE_VERSION

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.load(cfg)
        cache.store(cfg, run_once(cfg))
        cache.load(cfg)
        assert cache.stats.hit_rate == 0.5


class TestEntryIntegrity:
    def test_store_writes_v2_with_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.store(cfg, run_once(cfg))
        entry = json.loads(cache.path(cfg).read_text())
        assert entry["format"] == 2
        assert entry["code_version"] == CODE_VERSION
        assert entry["sha256"] == payload_checksum(entry["result"])

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        """A bit flip that keeps the JSON valid must not be served."""
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        cache.store(cfg, run_once(cfg))
        entry = json.loads(cache.path(cfg).read_text())
        entry["result"]["cycles"] += 1.0        # plausible but wrong
        cache.path(cfg).write_text(json.dumps(entry))
        assert cache.load(cfg) is None
        assert cache.stats.corrupt == 1
        assert (tmp_path / QUARANTINE_DIR / cache.path(cfg).name).exists()

    def test_stale_code_version_not_quarantined(self, tmp_path):
        """Another code version is a miss, not corruption: the bytes
        are fine and gc (not load) decides their fate."""
        old = ResultCache(tmp_path, code_version="sim-v1")
        cfg = tiny_config()
        old.store(cfg, run_once(cfg))
        new = ResultCache(tmp_path, code_version="sim-v2")
        assert new.load(cfg) is None
        assert new.stats.corrupt == 0
        assert old.path(cfg).exists()

    def test_v1_entry_readable_and_migrated(self, tmp_path):
        """A pre-checksum (format 1) entry decodes as corrupt, like a
        truncated entry: it is quarantined as a one-time miss, and the
        re-simulated cell migrates the slot to a v2 entry."""
        cache = ResultCache(tmp_path)
        cfg = tiny_config()
        result = run_once(cfg)
        v1 = {
            "format": 1,
            "code_version": CODE_VERSION,
            "result": result_to_dict(result),
        }
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(cfg).write_text(json.dumps(v1) + "\n")

        assert cache.load(cfg) is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        assert not cache.path(cfg).exists()
        assert (tmp_path / QUARANTINE_DIR / cache.path(cfg).name).exists()

        service = SweepService(cache=cache)
        (rerun,) = service.run([cfg])
        assert service.last_stats.simulated == 1
        assert dataclasses.asdict(rerun) == dataclasses.asdict(result)
        migrated = json.loads(cache.path(cfg).read_text())
        assert migrated["format"] == 2
        assert migrated["sha256"] == payload_checksum(migrated["result"])
        # The v2 entry is served bit-identically from now on.
        again = cache.load(cfg)
        assert dataclasses.asdict(again) == dataclasses.asdict(result)

        # verify() classifies a format-1 entry as corrupt too.
        other = tiny_config(seed=99)
        cache.path(other).write_text(json.dumps(v1) + "\n")
        report = cache.verify()
        assert report.corrupt == 1
        assert report.ok == 1


class TestVerifyAndGc:
    def _populate(self, tmp_path):
        """3 good entries, 1 checksum-corrupt, 1 stale, 1 tmp orphan."""
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3, 4):
            cfg = tiny_config(seed=seed)
            cache.store(cfg, run_once(cfg))
        bad = cache.path(tiny_config(seed=4))
        entry = json.loads(bad.read_text())
        entry["result"]["cycles"] += 1.0
        bad.write_text(json.dumps(entry))

        stale = ResultCache(tmp_path, code_version="sim-v0")
        cfg = tiny_config(seed=9)
        stale.store(cfg, run_once(cfg))
        (tmp_path / "deadbeef.tmp.999").write_text("partial")
        return cache

    def test_verify_reports_and_quarantines(self, tmp_path):
        cache = self._populate(tmp_path)
        report = cache.verify()
        assert report.checked == 5
        assert report.ok == 3
        assert report.corrupt == 1
        assert report.stale == 1
        assert report.tmp_orphans == 1
        assert report.quarantined_total == 1
        assert "3 ok" in report.summary()
        # Idempotent: a second pass finds nothing new to quarantine.
        second = cache.verify()
        assert second.corrupt == 0
        assert second.ok == 3
        assert second.quarantined_total == 1

    def test_gc_removes_waste_keeps_live_entries(self, tmp_path):
        cache = self._populate(tmp_path)
        cache.verify()   # corrupt entry -> quarantine/
        removed = cache.gc()
        assert removed == {"tmp_orphans": 1, "stale": 1, "corrupt": 0,
                           "quarantined": 1}
        assert len(cache) == 3
        for seed in (1, 2, 3):
            assert cache.load(tiny_config(seed=seed)) is not None

    def test_gc_without_verify_removes_corrupt_directly(self, tmp_path):
        cache = self._populate(tmp_path)
        removed = cache.gc()
        assert removed["corrupt"] == 1
        assert removed["stale"] == 1
        assert len(cache) == 3

    def test_verify_empty_cache(self, tmp_path):
        report = ResultCache(tmp_path / "never-written").verify()
        assert report.checked == 0
        assert report.quarantined_total == 0


class TestConcurrentClear:
    def test_clear_tolerates_concurrent_deletion(self, tmp_path):
        """A second process clearing the same directory must not make
        ours crash with FileNotFoundError mid-iteration."""
        cache = ResultCache(tmp_path)
        paths = []
        for seed in (1, 2, 3):
            cfg = tiny_config(seed=seed)
            cache.store(cfg, run_once(cfg))
            paths.append(cache.path(cfg))

        class RacingPath:
            """Delegates to the real root but deletes one listed entry
            before glob() returns — a stale directory listing."""

            def __init__(self, real, victim):
                self._real, self._victim = real, victim

            def glob(self, pattern):
                listing = list(self._real.glob(pattern))
                if self._victim in listing:
                    self._victim.unlink()
                return listing

            def __truediv__(self, other):
                return self._real / other

            def __getattr__(self, name):
                return getattr(self._real, name)

        cache.root = RacingPath(tmp_path, paths[1])
        assert cache.clear() == 2       # the race winner isn't counted
        assert not any(p.exists() for p in paths)
