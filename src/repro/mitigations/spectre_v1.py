"""Spectre V1 (bounds check bypass) and its software mitigations.

The gadget (paper Figure 1): a bounds-checked array read feeds a second,
attacker-observable array read.  Mistrain the conditional branch and the
body runs transiently with an out-of-bounds index.

Kernel-side mitigations modelled here:

* ``lfence`` after bounds checks and after ``swapgs`` — serializes, so the
  transient window never reaches the gadget (Table 8 gives the lfence cost).
* index masking (``array_index_nospec``) — a data dependency (cmov/and)
  that forces out-of-range indices to zero without serializing.

The JavaScript-engine versions of these (SpiderMonkey's index masking and
object guards) live in :mod:`repro.jsengine.jit`; they are the same idea
applied by a JIT to every generated array/object access.
"""

from __future__ import annotations

import functools

from typing import List, Optional, Tuple

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine
from .base import PROBE_STRIDE, flush_probe, reload_probe

#: Demonstration address layout.
ARRAY_BASE = 0x1000_0000
ARRAY_LENGTH = 16          # in-bounds indices are 0..15
SECRET_OFFSET = 0x4242     # the out-of-bounds index the attacker wants
PROBE_BASE = 0x7E00_0000_0000


@functools.lru_cache(maxsize=None)
def lfence_after_swapgs_sequence() -> Tuple[Instruction, ...]:
    """The kernel-entry V1 hardening: swapgs is followed by an lfence so
    speculation cannot run kernel code with a user GS base.  Cached for
    stable block-engine identity."""
    return (isa.lfence(mitigation="spectre_v1", primitive="lfence_swapgs"),)


def build_gadget(
    index: int,
    secret_byte: int,
    lfence_hardened: bool = False,
    masked: bool = False,
) -> List[Instruction]:
    """Construct the Figure-1 gadget for a given (possibly OOB) ``index``.

    ``masked`` applies index masking: the simulator has no register file,
    so the mask's architectural effect — out-of-range indices become 0 —
    is applied when building the dependent access, plus the cmov the
    hardware would execute.
    """
    block: List[Instruction] = []
    if lfence_hardened:
        block.append(isa.lfence())  # placed right after the bounds check
    effective = index
    if masked:
        block.append(isa.cmov())
        if not 0 <= index < ARRAY_LENGTH:
            effective = 0
    # First load: array[index] — the (possibly out-of-bounds) read.
    block.append(isa.load(ARRAY_BASE + effective))
    # Second load: probe[x * stride] — transmits through the cache.
    in_bounds = 0 <= effective < ARRAY_LENGTH
    transmitted = 0 if in_bounds else secret_byte
    block.append(isa.load(PROBE_BASE + transmitted * PROBE_STRIDE))
    return block


#: The bounds-check branch site for the trained variant.
BOUNDS_CHECK_PC = 0x4E_1000
GADGET_BODY = 0x4E_2000


def attempt_bounds_bypass_trained(
    machine: Machine,
    secret_byte: int,
    lfence_hardened: bool = False,
    masked: bool = False,
    training_rounds: int = 8,
) -> Optional[int]:
    """The full V1 sequence, including the mistraining phase.

    Unlike :func:`attempt_bounds_bypass` (which injects the transient
    window directly), this variant drives the machine's 2-bit conditional
    predictor: execute the bounds check in-bounds (taken) until the
    predictor saturates, then present the out-of-bounds index — the
    check architecturally falls through, but the *predicted* taken body
    runs transiently.  Returns the recovered byte or None.
    """
    if not machine.cpu.vulns.spectre_v1:
        return None
    flush_probe(machine, PROBE_BASE)

    # Register the gadget body as the branch's taken path.
    machine.register_code(GADGET_BODY, build_gadget(
        SECRET_OFFSET, secret_byte,
        lfence_hardened=lfence_hardened, masked=masked))

    # Training: in-bounds accesses, branch taken.
    for _ in range(training_rounds):
        machine.execute(isa.branch_cond(target=GADGET_BODY,
                                        pc=BOUNDS_CHECK_PC, taken=True))
        machine.execute(isa.load(ARRAY_BASE))  # the in-bounds body

    # Attack: out-of-bounds index, branch architecturally NOT taken —
    # but the saturated predictor says taken, so the body runs wrong-path.
    machine.execute(isa.branch_cond(target=GADGET_BODY,
                                    pc=BOUNDS_CHECK_PC, taken=False))
    return reload_probe(machine, PROBE_BASE, first=1)


def attempt_bounds_bypass(
    machine: Machine,
    secret_byte: int,
    lfence_hardened: bool = False,
    masked: bool = False,
) -> Optional[int]:
    """Run a mistrained V1 gadget transiently and try to recover the secret.

    Returns the recovered byte or None.  With either mitigation applied the
    recovery fails: lfence ends the transient window before the gadget;
    masking redirects the first load in-bounds so only index 0's (public)
    value transmits.
    """
    if not machine.cpu.vulns.spectre_v1:
        return None
    flush_probe(machine, PROBE_BASE)
    gadget = build_gadget(
        SECRET_OFFSET, secret_byte, lfence_hardened=lfence_hardened, masked=masked
    )
    machine.speculate(gadget)
    return reload_probe(machine, PROBE_BASE, first=1)
