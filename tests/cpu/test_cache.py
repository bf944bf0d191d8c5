"""Cache model: residency, LRU, flushes, and the probe interface."""

import pytest

from repro.cpu import Machine
from repro.cpu.cache import Cache, CacheHierarchy
from repro.cpu.model import all_cpus


def make_cache(size=4096, ways=4, line=64):
    return Cache(size, ways, line)


def test_size_must_be_multiple_of_way_times_line():
    with pytest.raises(ValueError):
        Cache(1000, 3, 64)


def test_cold_access_misses_then_hits():
    cache = make_cache()
    assert cache.access(0x1000) is False
    assert cache.access(0x1000) is True


def test_same_line_different_offsets_share_residency():
    cache = make_cache()
    cache.access(0x1000)
    assert cache.access(0x1004) is True
    assert cache.access(0x103F) is True
    assert cache.access(0x1040) is False  # next line


def test_probe_does_not_fill():
    cache = make_cache()
    assert cache.probe(0x2000) is False
    assert cache.probe(0x2000) is False  # still cold: probe is passive
    cache.access(0x2000)
    assert cache.probe(0x2000) is True


def test_probe_does_not_touch_lru():
    cache = Cache(4 * 64, 4, 64)  # one set, 4 ways
    sets = cache.num_sets
    assert sets == 1
    for i in range(4):
        cache.access(i * 64 * sets)
    # Probing the oldest line must not rejuvenate it.
    cache.probe(0)
    cache.access(4 * 64 * sets)  # evicts the true LRU: line 0
    assert cache.probe(0) is False


def test_lru_eviction_order():
    cache = Cache(4 * 64, 4, 64)
    for addr in (0, 64, 128, 192):
        cache.access(addr)
    cache.access(0)        # rejuvenate line 0
    cache.access(256)      # evicts line 64 (the LRU), not line 0
    assert cache.probe(0) is True
    assert cache.probe(64) is False


def test_flush_line():
    cache = make_cache()
    cache.access(0x3000)
    cache.flush_line(0x3000)
    assert cache.probe(0x3000) is False


def test_flush_all_reports_evictions():
    cache = make_cache()
    for i in range(10):
        cache.access(i * 64)
    assert cache.flush_all() == 10
    assert cache.resident_lines() == 0


def test_contains_dunder():
    cache = make_cache()
    cache.access(0x5000)
    assert 0x5000 in cache
    assert 0x9000 not in cache


def test_capacity_respected():
    cache = Cache(8 * 64, 8, 64)  # 8 lines capacity
    for i in range(100):
        cache.access(i * 64)
    assert cache.resident_lines() <= 8


class TestHierarchy:
    def make(self):
        return CacheHierarchy(Cache(4096, 4), Cache(16384, 4))

    def test_miss_fills_both_levels(self):
        h = self.make()
        assert h.access(0x1000) == 0  # memory
        assert h.access(0x1000) == 1  # now L1

    def test_l1_eviction_falls_back_to_l2(self):
        h = CacheHierarchy(Cache(4 * 64, 4, 64), Cache(64 * 64, 8, 64))
        for i in range(8):  # overflow the 4-line L1
            h.access(i * 64 * h.l1.num_sets)
        level = h.access(0)
        assert level == 2  # evicted from L1, still in L2

    def test_flush_l1_keeps_l2(self):
        h = self.make()
        h.access(0x2000)
        h.flush_l1()
        assert not h.probe_l1(0x2000)
        assert h.access(0x2000) == 2

    def test_flush_line_removes_from_both(self):
        h = self.make()
        h.access(0x2000)
        h.flush_line(0x2000)
        assert h.access(0x2000) == 0


class TestLazySets:
    """Sets are allocated on first fill and kept: a fresh machine builds
    none, and flushes clear sets in place so the block engine's memos,
    which bind predicates to set objects, stay live."""

    @pytest.mark.parametrize("cpu", all_cpus(), ids=lambda c: c.key)
    def test_fresh_machine_allocates_no_sets(self, cpu):
        caches = Machine(cpu).caches
        assert len(caches.l1._sets) == 0
        assert len(caches.l2._sets) == 0

    def test_one_access_allocates_one_set_per_level_reached(self):
        h = CacheHierarchy(Cache(4096, 4), Cache(16384, 4))
        assert h.probe_l1(0x1000) is False
        h.flush_line(0x1000)
        assert (len(h.l1._sets), len(h.l2._sets)) == (0, 0)
        assert h.access(0x1000) == 0  # memory: fills L1 and L2
        assert (len(h.l1._sets), len(h.l2._sets)) == (1, 1)
        assert h.access(0x1000) == 1  # L1 hit: L2 is not reached
        h.access(0x1000 + 16 * 64)  # same L1 set, new L2 set
        assert (len(h.l1._sets), len(h.l2._sets)) == (1, 2)

    def test_flush_l1_counts_lines_and_keeps_set_objects(self):
        h = CacheHierarchy(Cache(4096, 4), Cache(16384, 4))
        for i in range(10):
            h.access(i * 64)
        before = dict(h.l1._sets)
        assert h.flush_l1() == 10
        assert h.l1.resident_lines() == 0
        assert h.l1._sets.keys() == before.keys()
        assert all(h.l1._sets[i] is s for i, s in before.items())
