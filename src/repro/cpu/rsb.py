"""Return Stack Buffer (RSB) model.

The RSB predicts ``ret`` targets by mirroring the call stack in hardware.
Two mitigations interact with it:

* **Generic retpolines** deliberately capture speculation with a
  ``call``/``ret`` pair, relying on the RSB to steer transient execution
  into a safe pause loop (paper Figure 4).
* **RSB stuffing** fills the buffer with harmless entries on context
  switches so that an interrupted user-space retpoline can never consume a
  stale entry, and as a defence against SpectreRSB (paper section 5.3,
  Table 7).

On RSB underflow (more returns than calls), pre-Skylake parts simply stall,
while Skylake-and-later Intel parts fall back to the BTB — the behaviour
that makes SpectreRSB and RSB-underflow attacks interesting.  The machine
consults :attr:`underflow_falls_back_to_btb` to decide.
"""

from __future__ import annotations

from typing import List, Optional

#: Harmless target used by the stuffing sequence (no code lives at 0).
BENIGN_ENTRY = 0


class ReturnStackBuffer:
    """A fixed-depth hardware return address stack."""

    def __init__(self, depth: int = 32, underflow_falls_back_to_btb: bool = False) -> None:
        self.depth = depth
        self.underflow_falls_back_to_btb = underflow_falls_back_to_btb
        self._stack: List[int] = []
        self.underflows = 0
        #: The leakage tracer (``repro.obs.leakage``) receiving hooks, set by
        #: ``Machine.attach``; None when detached.
        self.observer = None

    def __len__(self) -> int:
        return len(self._stack)

    def push(self, return_address: int) -> None:
        """Record a ``call``'s return address; oldest entries fall off."""
        self._stack.append(return_address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)
        if self.observer is not None:
            self.observer.rsb_push(return_address)

    def pop(self) -> Optional[int]:
        """Predict a ``ret``'s target; None signals underflow."""
        if self.observer is not None:
            self.observer.rsb_pop()
        if self._stack:
            return self._stack.pop()
        self.underflows += 1
        return None

    def stuff(self) -> int:
        """Fill the whole buffer with benign entries (RSB stuffing).

        Returns the number of entries written, i.e. the buffer depth; the
        per-CPU cycle cost of this sequence is Table 7 of the paper.
        """
        if self.observer is not None:
            self.observer.rsb_stuff()
        self._stack = [BENIGN_ENTRY] * self.depth
        return self.depth

    def clear(self) -> None:
        self._stack.clear()
        if self.observer is not None:
            self.observer.rsb_clear()
