"""TLB model with PCID (process-context identifier) tagging.

Page table isolation (the Meltdown mitigation) switches the root page table
on every user/kernel crossing.  Without PCIDs each ``mov %cr3`` would flush
the TLB, adding large indirect costs.  The paper (section 5.1) notes that
both Meltdown-vulnerable CPUs it studies support PCIDs, which "allow many
TLB flushes to be avoided, and makes TLB impacts marginal compared to the
direct cost of switching the root page table pointer".  Our model lets us
reproduce that claim (and ablate it: ``benchmarks/bench_ablate_pcid.py``).

Entries are tagged ``(pcid, virtual page)``.  A cr3 write with the NOFLUSH
bit (the PCID-preserving form Linux uses) keeps entries alive; a legacy
write wipes everything except global entries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Set, Tuple

PAGE_SIZE = 4096


class TLB:
    """A finite, fully associative, LRU, PCID-tagged TLB."""

    def __init__(self, entries: int = 1536, supports_pcid: bool = True) -> None:
        self.capacity = entries
        self.supports_pcid = supports_pcid
        self._entries: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self._global_pages: Set[int] = set()
        self.current_pcid = 0

    # -- lookups -------------------------------------------------------------

    def access(self, address: int) -> bool:
        """Translate one address; returns True on TLB hit, filling on miss."""
        page = address >> 12  # == address // PAGE_SIZE for every int
        if page in self._global_pages:
            return True
        key = (self.current_pcid if self.supports_pcid else 0, page)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return True
        entries[key] = True
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return False

    def insert_global(self, address: int) -> None:
        """Mark a page global (kernel text/data without KPTI)."""
        self._global_pages.add(address >> 12)

    # -- cr3 switching --------------------------------------------------------

    def switch_context(self, pcid: int, preserve: Optional[bool] = None) -> int:
        """Model a ``mov %cr3`` to a page table tagged with ``pcid``.

        Returns the number of entries invalidated (zero when PCIDs preserve
        them).  ``preserve`` defaults to whether the hardware supports
        PCIDs, mirroring Linux: it sets the NOFLUSH bit whenever it can.
        """
        if preserve is None:
            preserve = self.supports_pcid
        self.current_pcid = pcid if self.supports_pcid else 0
        if preserve and self.supports_pcid:
            return 0
        invalidated = len(self._entries)
        self._entries.clear()
        return invalidated

    def flush_all(self, include_global: bool = False) -> int:
        """Full TLB shootdown."""
        invalidated = len(self._entries)
        self._entries.clear()
        if include_global:
            invalidated += len(self._global_pages)
            self._global_pages.clear()
        return invalidated

    def resident(self) -> int:
        return len(self._entries)
