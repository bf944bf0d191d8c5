"""Speculative Store Bypass (Spectre V4) and SSBD.

The memory disambiguator may let a load execute before an older store to
the same address has resolved, transiently observing the stale value
(paper section 3.2).  The only mitigation, Speculative Store Bypass
Disable (SSBD), forces loads to wait — at "severe negative performance
impact" because it also defeats routine store-to-load forwarding.

Linux's compromise (paper 3.2 / 5.5): SSBD is off by default and enabled
per process via ``prctl``; on kernels before 5.16 it was also implied by
``seccomp`` — which is why Firefox (a seccomp user) paid the cost in the
paper's Figure 3.
"""

from __future__ import annotations

import functools

from typing import List, Optional, Tuple

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine
from ..cpu.msr import IA32_SPEC_CTRL, SPEC_CTRL_SSBD
from .base import PROBE_STRIDE, SSBDMode, flush_probe, reload_probe

#: Demonstration addresses.
STALE_ADDRESS = 0x5000_0000
PROBE_BASE = 0x7C00_0000_0000


@functools.lru_cache(maxsize=None)
def ssbd_enable_sequence() -> Tuple[Instruction, ...]:
    """MSR write enabling SSBD (the scheduler issues this when switching
    to an opted-in process).  Cached for stable block-engine identity."""
    return (isa.wrmsr(IA32_SPEC_CTRL, SPEC_CTRL_SSBD),)


@functools.lru_cache(maxsize=None)
def ssbd_disable_sequence() -> Tuple[Instruction, ...]:
    return (isa.wrmsr(IA32_SPEC_CTRL, 0),)


def process_wants_ssbd(mode: SSBDMode, opted_in_prctl: bool, uses_seccomp: bool) -> bool:
    """Linux's per-process SSBD decision under each policy mode.

    This is the exact policy change between kernel 5.14 and 5.16 that the
    paper highlights: under ``SECCOMP`` policy, merely using seccomp turns
    SSBD on (Firefox's situation); under ``PRCTL`` only explicit opt-in
    does.
    """
    if mode is SSBDMode.OFF:
        return False
    if mode is SSBDMode.FORCE_ON:
        return True
    if mode is SSBDMode.SECCOMP:
        return opted_in_prctl or uses_seccomp
    return opted_in_prctl  # PRCTL


def attempt_store_bypass(machine: Machine, stale_secret: int) -> Optional[int]:
    """Demonstrate the V4 read-of-stale-data primitive.

    A store to ``STALE_ADDRESS`` is sitting unresolved in the store buffer;
    a speculative load to the same address may bypass it and observe the
    *previous* (stale) value, transmitting it through the cache.  Returns
    the recovered stale byte, or None when SSBD (or an immune part —
    though per the paper none exist) forecloses the bypass.
    """
    if not machine.cpu.vulns.ssb:
        return None
    # The victim's store is pending.
    machine.execute(isa.store(STALE_ADDRESS, value=0xAA))
    flush_probe(machine, PROBE_BASE)
    bypassed = machine.store_buffer.speculative_bypass_possible(
        STALE_ADDRESS, ssbd=machine.msr.ssbd_enabled
    )
    if bypassed:
        # The transient load saw the stale value; encode it in the cache.
        machine.speculate([isa.load(PROBE_BASE + stale_secret * PROBE_STRIDE)])
    return reload_probe(machine, PROBE_BASE)
