"""Hypothesis properties of the cache model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import Cache, CacheHierarchy

addresses = st.integers(min_value=0, max_value=1 << 40)


@given(st.lists(addresses, max_size=200))
@settings(max_examples=50)
def test_capacity_never_exceeded(addrs):
    cache = Cache(16 * 64, 4, 64)
    for addr in addrs:
        cache.access(addr)
    assert cache.resident_lines() <= 16


@given(addresses)
def test_access_is_idempotent_for_residency(addr):
    cache = Cache(4096, 4)
    cache.access(addr)
    assert cache.probe(addr)
    cache.access(addr)
    assert cache.probe(addr)


@given(st.lists(addresses, max_size=100), addresses)
@settings(max_examples=50)
def test_flush_line_always_evicts(addrs, victim):
    cache = Cache(4096, 8)
    for addr in addrs:
        cache.access(addr)
    cache.flush_line(victim)
    assert not cache.probe(victim)


@given(st.lists(addresses, min_size=1, max_size=100))
@settings(max_examples=50)
def test_flush_all_leaves_nothing(addrs):
    cache = Cache(4096, 8)
    for addr in addrs:
        cache.access(addr)
    cache.flush_all()
    assert cache.resident_lines() == 0
    assert all(not cache.probe(a) for a in addrs)


@given(st.lists(addresses, max_size=100))
@settings(max_examples=50)
def test_most_recent_access_always_resident(addrs):
    """The line you just touched can never have been evicted."""
    cache = Cache(16 * 64, 2, 64)
    for addr in addrs:
        cache.access(addr)
        assert cache.probe(addr)


@given(st.lists(addresses, max_size=60))
@settings(max_examples=50)
def test_probe_never_changes_resident_count(addrs):
    cache = Cache(4096, 4)
    for addr in addrs:
        cache.access(addr)
    before = cache.resident_lines()
    for addr in addrs:
        cache.probe(addr)
    assert cache.resident_lines() == before


def _contents(cache):
    """Set index -> resident lines in LRU order (oldest first)."""
    return {index: list(lines) for index, lines in cache._sets.items()}


near = st.integers(min_value=0, max_value=1 << 14)
hierarchy_ops = st.lists(st.one_of(
    st.tuples(st.just("access"), st.one_of(near, addresses)),
    st.tuples(st.just("flush_line"), near),
    st.tuples(st.just("flush_l1"), st.just(0)),
), max_size=300)


@given(hierarchy_ops)
@settings(max_examples=100)
def test_hierarchy_access_matches_two_cache_accesses(ops):
    """CacheHierarchy.access probes L1 inline; it must return the level
    and leave the LRU state that L1-then-L2 Cache.access calls do."""
    hierarchy = CacheHierarchy(Cache(4 * 2 * 64, 2), Cache(16 * 4 * 64, 4))
    l1, l2 = Cache(4 * 2 * 64, 2), Cache(16 * 4 * 64, 4)
    for op, addr in ops:
        if op == "access":
            expected = 1 if l1.access(addr) else 2 if l2.access(addr) else 0
            assert hierarchy.access(addr) == expected
        elif op == "flush_line":
            hierarchy.flush_line(addr)
            l1.flush_line(addr)
            l2.flush_line(addr)
        else:
            assert hierarchy.flush_l1() == l1.flush_all()
        assert _contents(hierarchy.l1) == _contents(l1)
        assert _contents(hierarchy.l2) == _contents(l2)
