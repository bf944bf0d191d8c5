"""Conditional branch predictor: 2-bit saturating counters per PC.

Spectre V1's opening move is *mistraining a conditional branch* — run the
bounds check in-bounds many times so the predictor learns "taken", then
present the out-of-bounds index and the body runs transiently.  The
mitigations modules demonstrate that end state directly via
``Machine.speculate``; this predictor supplies the front half, so the
training loop itself can be executed and observed (and so conditional
branches have honest dynamic costs).

Standard Smith predictor: each branch PC indexes a 2-bit counter
(0,1 = predict not-taken; 2,3 = predict taken), incremented on taken,
decremented on not-taken, saturating at both ends.
"""

from __future__ import annotations

from typing import Dict

STRONG_NOT_TAKEN = 0
WEAK_NOT_TAKEN = 1
WEAK_TAKEN = 2
STRONG_TAKEN = 3


class ConditionalPredictor:
    """Per-PC 2-bit saturating counter table."""

    def __init__(self, initial: int = WEAK_NOT_TAKEN) -> None:
        if not STRONG_NOT_TAKEN <= initial <= STRONG_TAKEN:
            raise ValueError("initial state must be a 2-bit counter value")
        self._initial = initial
        self._counters: Dict[int, int] = {}

    def state(self, pc: int) -> int:
        return self._counters.get(pc, self._initial)

    def predict(self, pc: int) -> bool:
        """True = predict taken."""
        return self.state(pc) >= WEAK_TAKEN

    def update(self, pc: int, taken: bool) -> bool:
        """Train ``pc`` on its outcome; returns the prediction it replaced
        (what :meth:`predict` said just before), so a branch costs one
        table lookup."""
        counters = self._counters
        state = counters.get(pc, self._initial)
        predicted = state >= WEAK_TAKEN
        if taken:
            if state < STRONG_TAKEN:
                state += 1
        elif state > STRONG_NOT_TAKEN:
            state -= 1
        counters[pc] = state
        return predicted

    def flush(self) -> None:
        self._counters.clear()

    def __len__(self) -> int:
        return len(self._counters)
