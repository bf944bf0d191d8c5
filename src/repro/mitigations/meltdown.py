"""Meltdown and its mitigation, kernel page table isolation (PTI/KAISER).

Meltdown (paper section 3.1) lets a user process transiently read any
kernel memory mapped into its address space: vulnerable parts translate
and forward the data before the permission fault squashes the access, and
a cache side channel exfiltrates it.

PTI mitigates this by giving user mode a page table with (almost) no
kernel mappings, at the cost of a ``mov %cr3`` on *every* user/kernel
crossing — the dominant LEBench overhead on Broadwell/Skylake (Figure 2,
Table 3).
"""

from __future__ import annotations

import functools

from typing import List, Optional, Tuple

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine
from .base import PROBE_STRIDE, flush_probe, reload_probe

#: Virtual address layout constants for the demonstration.
KERNEL_SECRET_ADDRESS = 0xFFFF_8880_0000_1000
PROBE_ARRAY_BASE = 0x7F00_0000_0000

#: PCID values Linux reserves for the two KPTI page table halves.
KERNEL_PCID = 0
USER_PCID = 0x80


@functools.lru_cache(maxsize=None)
def kpti_entry_sequence() -> Tuple[Instruction, ...]:
    """Instructions added to kernel entry when PTI is on: switch to the
    kernel page table root.  Cached for stable block-engine identity."""
    return (isa.mov_cr3(pcid=KERNEL_PCID, mitigation="pti",
                        primitive="mov_cr3"),)


@functools.lru_cache(maxsize=None)
def kpti_exit_sequence() -> Tuple[Instruction, ...]:
    """Instructions added to kernel exit: switch back to the user table."""
    return (isa.mov_cr3(pcid=USER_PCID, mitigation="pti",
                        primitive="mov_cr3"),)


def attempt_meltdown(machine: Machine, secret_byte: int) -> Optional[int]:
    """Run the classic Meltdown sequence against ``machine``.

    ``secret_byte`` stands in for the value at the kernel address; the
    simulator does not move data through registers, so the demonstration
    constructs the dependent probe access itself, gated on whether the
    transient kernel read was architecturally possible — exactly the
    predicate PTI changes.

    Returns the recovered byte, or None when the attack fails (immune
    part, or PTI unmapped the kernel from user page tables).
    """
    if not 0 <= secret_byte <= 0xFF:
        raise ValueError("secret_byte must be one byte")

    # 1. Flush the probe array (flush half of flush+reload).
    flush_probe(machine, PROBE_ARRAY_BASE)

    # 2. Transiently read the kernel byte.  The machine only lets this
    #    through when the part is Meltdown-vulnerable AND the kernel is
    #    mapped in the user page table (KPTI off).
    machine.transient_loads.clear()
    machine.speculate([isa.load(KERNEL_SECRET_ADDRESS, kernel=True)])
    leaked = KERNEL_SECRET_ADDRESS in machine.transient_loads
    if leaked:
        # 3. Dependent access: encode the secret in the cache.
        machine.speculate(
            [isa.load(PROBE_ARRAY_BASE + secret_byte * PROBE_STRIDE)]
        )

    # 4. Reload: time each probe line; the warm one names the secret.
    return reload_probe(machine, PROBE_ARRAY_BASE)
