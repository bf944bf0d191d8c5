"""Store buffer with store-to-load forwarding and Speculative Store Bypass.

Speculative Store Bypass (SSB, "Spectre V4") exploits the memory
disambiguation predictor: a load may speculatively execute *before* an
older store to the same address has resolved, observing the stale value.
The only mitigation is Speculative Store Bypass Disable (SSBD), a processor
mode that forces loads to wait for all older store addresses — which also
disables the store-to-load fast path that ordinary code depends on, hence
the large slowdowns of the paper's Figure 5.

The model keeps a window of recently retired-but-not-drained stores.  A
load against a matching address:

* with SSBD **off**: forwards from the buffer (cheap, counts as a
  forwarding hit) and — the attack surface — *may bypass* a not-yet-
  resolved store, observing stale data when executed speculatively;
* with SSBD **on**: stalls for the CPU-specific penalty while the store
  addresses resolve; no bypass is possible.

The per-CPU penalty grows on newer parts (paper 5.5: the slowdown is
"trending worse over time", up to 34% on Zen 3), which we encode in the
CPU model's ``ssbd_load_penalty``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class StoreBuffer:
    """A bounded window of pending stores keyed by 64-byte line.

    A line is ``address >> 6``, which equals ``address // 64`` for every
    int.
    """

    def __init__(self, depth: int = 56) -> None:
        self.depth = depth
        # line address -> value written (model payload; identity only)
        self._pending: "OrderedDict[int, int]" = OrderedDict()
        #: The leakage tracer (``repro.obs.leakage``) receiving hooks, set by
        #: ``Machine.attach``; None when detached.
        self.observer = None

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, address: int, value: int = 0) -> None:
        """Retire a store into the buffer; oldest entries drain to memory."""
        pending = self._pending
        line = address >> 6
        if line in pending:
            pending.move_to_end(line)
        pending[line] = value
        if len(pending) > self.depth:
            pending.popitem(last=False)
        if self.observer is not None:
            self.observer.sb_push(address, value)

    def push_many(self, stores) -> None:
        """Retire a run of stores in order (the block engine's batched
        replay of recorded pushes; semantics identical to N push calls)."""
        pending = self._pending
        depth = self.depth
        move = pending.move_to_end
        pop = pending.popitem
        observer = self.observer
        for address, value in stores:
            line = address >> 6
            if line in pending:
                move(line)
            pending[line] = value
            if len(pending) > depth:
                pop(last=False)
            if observer is not None:
                observer.sb_push(address, value)

    def match(self, address: int) -> bool:
        """Is there a pending store the load at ``address`` would hit?"""
        return (address >> 6) in self._pending

    def forward(self, address: int) -> Optional[int]:
        """Store-to-load forwarding: value of the youngest matching store."""
        return self._pending.get(address >> 6)

    def speculative_bypass_possible(self, address: int, ssbd: bool) -> bool:
        """Could a speculative load bypass a pending store here?

        This is the SSB attack predicate: True means a transient load can
        observe the *stale* (pre-store) value.  SSBD forecloses it.
        """
        possible = not ssbd and self.match(address)
        if self.observer is not None:
            self.observer.sb_bypass(address, possible)
        return possible

    def drain(self) -> int:
        """Drain everything to memory (e.g. at a serializing instruction)."""
        count = len(self._pending)
        self._pending.clear()
        if self.observer is not None:
            self.observer.sb_drain()
        return count
