"""Set-associative cache model.

A deliberately small but mechanistic cache: enough to make cache-timing
side channels (the *transmit* half of every Spectre gadget), the L1TF
flush-on-VM-entry cost, and warm/cold timing differences real, without
simulating full coherence.

Latency accounting is done by the machine: a load that hits L1 costs the
CPU's ``load_l1`` cycles, an L1 miss that hits L2 costs ``load_l2``, and a
full miss costs ``load_mem``.  The cache itself only answers "hit or miss"
and tracks line residency with LRU replacement.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import DefaultDict


class Cache:
    """One level of set-associative cache with LRU replacement.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    ways:
        Associativity.
    line_bytes:
        Cache line size (64 on every CPU we model).
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64) -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must be a multiple of ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        # Set index -> OrderedDict mapping line tag -> True, in LRU order
        # (oldest first).  OrderedDict.move_to_end gives O(1) LRU updates.
        # A set is allocated on its first fill and then kept (flushes clear
        # it in place), so a machine that touches few sets builds few, and
        # the block engine's memos can bind predicates to set objects.
        self._sets: DefaultDict[int, "OrderedDict[int, bool]"] = defaultdict(
            OrderedDict)

    def access(self, address: int) -> bool:
        """Access one address; return True on hit.  Misses fill the line."""
        line = address // self.line_bytes
        current = self._sets[line % self.num_sets]
        if line in current:
            current.move_to_end(line)
            return True
        current[line] = True
        if len(current) > self.ways:
            current.popitem(last=False)
        return False

    def probe(self, address: int) -> bool:
        """Check residency without disturbing LRU state or filling.

        This is what a flush+reload attacker's timing measurement observes.
        """
        line = address // self.line_bytes
        current = self._sets.get(line % self.num_sets)
        return current is not None and line in current

    def flush_line(self, address: int) -> None:
        """``clflush`` one line."""
        line = address // self.line_bytes
        current = self._sets.get(line % self.num_sets)
        if current is not None:
            current.pop(line, None)

    def flush_all(self) -> int:
        """Flush the whole cache; returns the number of lines evicted.

        Used by the L1TF mitigation (``IA32_FLUSH_CMD``) before VM entry.
        The eviction count lets the machine charge a realistic refill cost.
        """
        count = 0
        for s in self._sets.values():
            count += len(s)
            s.clear()
        return count

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets.values())

    def __contains__(self, address: int) -> bool:
        return self.probe(address)


class CacheHierarchy:
    """A two-level private cache hierarchy (L1D + L2).

    ``access`` returns the level that satisfied the access: ``1``, ``2`` or
    ``0`` for memory.  Lines are filled inclusively into both levels, which
    is close enough to the Intel/AMD designs for timing purposes.
    """

    def __init__(self, l1: Cache, l2: Cache) -> None:
        self.l1 = l1
        self.l2 = l2

    def access(self, address: int) -> int:
        # Cache.access on L1, inline: most loads and stores hit L1, and
        # this is the simulator's hottest call.
        l1 = self.l1
        line = address // l1.line_bytes
        current = l1._sets[line % l1.num_sets]
        if line in current:
            current.move_to_end(line)
            return 1
        current[line] = True
        if len(current) > l1.ways:
            current.popitem(last=False)
        return 2 if self.l2.access(address) else 0

    def probe_l1(self, address: int) -> bool:
        return self.l1.probe(address)

    def flush_line(self, address: int) -> None:
        self.l1.flush_line(address)
        self.l2.flush_line(address)

    def flush_l1(self) -> int:
        return self.l1.flush_all()
