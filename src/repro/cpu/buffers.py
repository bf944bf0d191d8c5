"""Microarchitectural Data Sampling (MDS) buffer model.

MDS attacks (RIDL, ZombieLoad, Fallout — paper section 3.3) leak stale data
from small internal CPU buffers: the line fill buffers, the store buffer,
and the load ports.  Unlike Spectre/Meltdown, the attacker cannot choose an
address — it samples whatever the victim left behind.

The mitigation is to clear these buffers on every privilege-domain
crossing with the microcode-extended ``verw`` instruction (Table 4 of the
paper: ~500 cycles on vulnerable parts), or to disable SMT so no sibling
thread can sample concurrently.

We model each buffer class as "the last value that passed through it,
tagged with the privilege mode that produced it": a ``(value, mode)``
residue tuple.  That is exactly the property MDS exploits and ``verw``
erases; the data values themselves are model payloads used by the
attack-demonstration tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .modes import Mode

FILL_BUFFER = "fill_buffer"
STORE_BUFFER = "store_buffer"
LOAD_PORT = "load_port"

_ALL = (FILL_BUFFER, STORE_BUFFER, LOAD_PORT)


class MicroarchBuffers:
    """The MDS-leakable buffer set of one physical core.

    ``vulnerable`` mirrors the CPU's MDS errata status: on immune parts
    (``MDS_NO``) sampling never returns foreign data, regardless of
    clearing, because the forwarding paths were fixed in hardware.
    """

    def __init__(self, vulnerable: bool) -> None:
        self.vulnerable = vulnerable
        self._residue: Dict[str, Optional[Tuple[int, Mode]]] = {
            name: None for name in _ALL}
        #: The leakage tracer (``repro.obs.leakage``) receiving hooks, set by
        #: ``Machine.attach``; None when detached.
        self.observer = None

    # -- victim side ---------------------------------------------------------

    def deposit_load(self, value: int, mode: Mode) -> None:
        """A load passed through a fill buffer and a load port."""
        residue = self._residue
        residue[FILL_BUFFER] = residue[LOAD_PORT] = (value, mode)
        if self.observer is not None:
            self.observer.residue_load(value, mode)

    def deposit_store(self, value: int, mode: Mode) -> None:
        """A store left its data in the store buffer (Fallout surface)."""
        self._residue[STORE_BUFFER] = (value, mode)
        if self.observer is not None:
            self.observer.residue_store(value, mode)

    # -- mitigation side -------------------------------------------------------

    def clear(self) -> None:
        """The microcode-extended ``verw``: overwrite all buffers."""
        for name in _ALL:
            self._residue[name] = None
        if self.observer is not None:
            self.observer.residue_clear()

    # -- attacker side -----------------------------------------------------------

    def sample(self, attacker_mode: Mode) -> Dict[str, int]:
        """Attempt an MDS sample from ``attacker_mode``.

        Returns a mapping of buffer name to leaked value for every buffer
        that still holds data deposited by a *different* privilege mode.
        Empty when the part is immune, the buffers were cleared, or the
        residue belongs to the attacker's own domain (no boundary crossed).
        """
        if not self.vulnerable:
            return {}
        leaked: Dict[str, int] = {}
        for name in _ALL:
            residue = self._residue[name]
            if residue is not None and residue[1] is not attacker_mode:
                leaked[name] = residue[0]
        return leaked

    def holds_foreign_data(self, attacker_mode: Mode) -> bool:
        """Convenience predicate used by tests and the attack demos."""
        return bool(self.sample(attacker_mode))
