"""Tests for cache replacement policies."""

import pytest

from repro.mem.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    SrripPolicy,
    make_policy,
)


def filled_set(tags):
    return {tag: f"line{tag}" for tag in tags}


class TestLru:
    def test_victim_is_oldest(self):
        policy = LruPolicy()
        cache_set = filled_set([1, 2, 3])
        assert policy.victim(cache_set) == 1

    def test_hit_refreshes(self):
        policy = LruPolicy()
        cache_set = filled_set([1, 2, 3])
        policy.on_hit(cache_set, 1)
        assert policy.victim(cache_set) == 2

    def test_repeated_hits_keep_line_young(self):
        policy = LruPolicy()
        cache_set = filled_set([1, 2, 3])
        for _ in range(5):
            policy.on_hit(cache_set, 1)
        assert policy.victim(cache_set) == 2


class TestFifo:
    def test_victim_is_first_in(self):
        policy = FifoPolicy()
        cache_set = filled_set([4, 5, 6])
        assert policy.victim(cache_set) == 4

    def test_hits_do_not_refresh(self):
        policy = FifoPolicy()
        cache_set = filled_set([4, 5, 6])
        policy.on_hit(cache_set, 4)
        assert policy.victim(cache_set) == 4


class TestRandom:
    def test_victim_member_of_set(self):
        policy = RandomPolicy(seed=1)
        cache_set = filled_set([7, 8, 9])
        assert policy.victim(cache_set) in cache_set

    def test_deterministic_under_seed(self):
        a = RandomPolicy(seed=5)
        b = RandomPolicy(seed=5)
        cache_set = filled_set(range(16))
        assert [a.victim(cache_set) for _ in range(10)] \
            == [b.victim(cache_set) for _ in range(10)]


class TestSrrip:
    def test_insert_then_evictable(self):
        policy = SrripPolicy()
        cache_set = filled_set([1])
        policy.on_insert(cache_set, 1)
        assert policy.victim(cache_set) == 1

    def test_hit_protects_line(self):
        policy = SrripPolicy()
        cache_set = filled_set([1, 2])
        policy.on_insert(cache_set, 1)
        policy.on_insert(cache_set, 2)
        policy.on_hit(cache_set, 1)
        assert policy.victim(cache_set) == 2

    def test_aging_terminates(self):
        policy = SrripPolicy()
        cache_set = filled_set([1, 2, 3])
        for tag in cache_set:
            policy.on_insert(cache_set, tag)
            policy.on_hit(cache_set, tag)
        assert policy.victim(cache_set) in cache_set


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LruPolicy), ("fifo", FifoPolicy),
        ("random", RandomPolicy), ("srrip", SrripPolicy),
        ("LRU", LruPolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("belady")


class TestEvictionHooks:
    """on_evict/on_clear keep stateful policies from leaking entries."""

    def test_srrip_victim_state_cleaned_on_evict(self):
        policy = SrripPolicy()
        cache_set = filled_set([1, 2])
        policy.on_insert(cache_set, 1)
        policy.on_insert(cache_set, 2)
        victim = policy.victim(cache_set)
        del cache_set[victim]
        policy.on_evict(cache_set, victim)
        assert victim not in policy._rrpv

    def test_srrip_on_clear_empties_state(self):
        policy = SrripPolicy()
        cache_set = filled_set([1, 2, 3])
        for tag in cache_set:
            policy.on_insert(cache_set, tag)
        policy.on_clear()
        assert policy._rrpv == {}

    def test_default_hooks_are_noops(self):
        policy = LruPolicy()
        cache_set = filled_set([1])
        policy.on_evict(cache_set, 1)  # must not raise
        policy.on_clear()

    def test_cache_invalidate_informs_policy(self):
        from repro.mem.cache import Cache
        from repro.mem.request import KIND_DATA

        cache = Cache("srrip", 1024, 2, 1, replacement="srrip")
        cache.access_fast(0, KIND_DATA, 0)
        line = cache.line_addr(0)
        assert line in cache._policy._rrpv
        cache.invalidate(0)
        assert line not in cache._policy._rrpv

    def test_cache_flush_informs_policy(self):
        from repro.mem.cache import Cache
        from repro.mem.request import KIND_DATA

        cache = Cache("srrip", 1024, 2, 1, replacement="srrip")
        for i in range(8):
            cache.access_fast(i * 64, KIND_DATA, 0)
        cache.flush()
        assert cache._policy._rrpv == {}

    def test_srrip_no_leak_across_fills(self):
        """Fill-driven evictions must not leave RRPV entries behind —
        the leak that skewed later victim picks before the hooks."""
        from repro.mem.cache import Cache
        from repro.mem.request import KIND_DATA

        cache = Cache("srrip", 1024, 2, 1, replacement="srrip")
        for i in range(200):
            cache.access_fast(i * 64, KIND_DATA, 0)
        assert len(cache._policy._rrpv) <= cache.resident_lines
