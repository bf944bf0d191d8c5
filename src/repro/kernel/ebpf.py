"""The eBPF/kernel boundary: the one the paper names but doesn't study.

Section 1's limitations: "We consider several security boundaries but not
all (e.g., we don't study the eBPF/kernel boundary)."  This module builds
that boundary so the study can be extended to it:

* a :class:`BPFProgram` is untrusted code admitted *into* the kernel —
  the inverse of every other boundary here, which is why its mitigations
  are compile-time;
* the :class:`Verifier` models the two relevant Linux defences: rejecting
  unverifiable programs (size/loop limits) and **Spectre sanitation** —
  the verifier's ``array_index_nospec``-style masking of every map access
  (on by default for unprivileged programs, the direct analogue of the
  JIT's index masking);
* the :class:`BPFJit` lowers a program to an instruction stream; tail
  calls become indirect branches, so they are retpolined under the same
  kernel V2 strategy as the rest of kernel text;
* :func:`attempt_bpf_v1` demonstrates the attack the sanitation exists
  for: an attacker-controlled out-of-bounds map index read transiently,
  exfiltrated through the cache.

Costs attach to the kernel events programs hook: a program with hooks on
the syscall path adds its per-invocation cost to every syscall, which is
how this boundary would have shown up in a Figure 2-style study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine, steady_state
from ..errors import ConfigurationError
from ..mitigations.base import (PROBE_STRIDE, MitigationConfig, flush_probe,
                                reload_probe)

#: Linux's verifier complexity budget (we model the instruction cap).
MAX_PROGRAM_INSNS = 4096

#: Demonstration layout.
MAP_BASE = 0xFFFF_8881_0000_0000
PROBE_BASE = 0x7600_0000_0000


@dataclass(frozen=True)
class BPFMap:
    """An array map: the bounds the verifier reasons about."""

    name: str
    entries: int
    value_size: int = 8

    def address_of(self, index: int) -> int:
        return MAP_BASE + 8 * index  # model layout: dense 8-byte slots


@dataclass(frozen=True)
class BPFProgram:
    """One program's per-invocation behaviour."""

    name: str
    insns: int                      # verifier-visible instruction count
    map_accesses: int = 4           # bounds-checked map reads
    helper_calls: int = 2           # direct calls into kernel helpers
    tail_calls: int = 0             # indirect: the retpoline surface
    has_unbounded_loop: bool = False
    map: BPFMap = field(default_factory=lambda: BPFMap("values", 64))


@dataclass(frozen=True)
class VerifierPolicy:
    """The kernel's admission policy for this program's loader."""

    unprivileged: bool = True
    #: Spectre sanitation: mask map indices.  Linux forces this on for
    #: unprivileged loaders; privileged ones may opt out (bpf_token etc.).
    sanitize_v1: bool = True


class Verifier:
    """Admission control plus Spectre sanitation."""

    def __init__(self, policy: VerifierPolicy) -> None:
        self.policy = policy

    def check(self, program: BPFProgram) -> None:
        """Reject programs Linux's verifier would reject."""
        if program.insns > MAX_PROGRAM_INSNS:
            raise ConfigurationError(
                f"program {program.name!r} exceeds the verifier's "
                f"{MAX_PROGRAM_INSNS}-instruction budget")
        if program.has_unbounded_loop:
            raise ConfigurationError(
                f"program {program.name!r} has an unverifiable loop")

    @property
    def sanitizes(self) -> bool:
        return self.policy.sanitize_v1 or self.policy.unprivileged


#: Per-BPF-instruction interpretation/JIT cost (cycles).
INSN_CYCLES = 1
HELPER_CALL_CYCLES = 30


class BPFJit:
    """Lowers a verified program under the kernel's mitigation config."""

    def __init__(self, machine: Machine, config: MitigationConfig,
                 verifier: Verifier) -> None:
        self.machine = machine
        self.config = config
        self.verifier = verifier

    def compile(self, program: BPFProgram) -> List[Instruction]:
        self.verifier.check(program)
        block: List[Instruction] = [
            isa.work(program.insns * INSN_CYCLES
                     + program.helper_calls * HELPER_CALL_CYCLES)
        ]
        for i in range(program.map_accesses):
            if self.verifier.sanitizes:
                block.append(isa.cmov())  # the index mask
            block.append(isa.load(program.map.address_of(i % program.map.entries),
                                  kernel=True))
        for i in range(program.tail_calls):
            pc = 0x4B_0000 + 16 * i
            target = 0x4B_8000 + 16 * i
            block.append(isa.branch_indirect(
                target, pc=pc, retpoline=self.config.uses_retpolines))
        return block

    def invocation_cost(self, program: BPFProgram, runs: int = 12,
                        warmup: int = 4) -> float:
        """Steady-state cycles per invocation (run in kernel mode)."""
        from ..cpu.modes import Mode
        block = self.compile(program)
        saved = self.machine.mode
        self.machine.mode = Mode.KERNEL
        cost = steady_state(lambda: self.machine.run(block), runs, warmup)
        self.machine.mode = saved
        return cost


def attempt_bpf_v1(machine: Machine, verifier: Verifier,
                   secret_byte: int, map_: Optional[BPFMap] = None) -> Optional[int]:
    """Spectre V1 through an eBPF map access.

    The attacker loads a program whose map index it controls; the bounds
    check mispredicts and the out-of-bounds read (into kernel memory
    beyond the map) feeds a second, cache-transmitting access.  Verifier
    sanitation masks the index on the speculative path too, killing it.

    Returns the recovered byte or None.
    """
    map_ = map_ or BPFMap("victim", entries=16)
    oob_index = map_.entries + 512  # reaches past the map into the kernel

    flush_probe(machine, PROBE_BASE)

    gadget: List[Instruction] = []
    effective = oob_index
    if verifier.sanitizes:
        gadget.append(isa.cmov())
        effective = 0  # masked in-bounds
    gadget.append(isa.load(map_.address_of(effective), kernel=True))
    in_bounds = effective < map_.entries and verifier.sanitizes
    transmitted = 0 if in_bounds else secret_byte
    gadget.append(isa.load(PROBE_BASE + transmitted * PROBE_STRIDE))

    # BPF executes in kernel mode: privileged loads are legal, and the
    # mispredicted bounds check runs the body transiently.
    from ..cpu.modes import Mode
    saved = machine.mode
    machine.mode = Mode.KERNEL
    machine.speculate(gadget)
    machine.mode = saved
    return reload_probe(machine, PROBE_BASE, first=1)
