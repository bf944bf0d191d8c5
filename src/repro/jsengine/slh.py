"""Speculative Load Hardening: the blunt compiler alternative.

Paper section 2: "Compiler techniques like Speculative Load Hardening
[Carruth] ensure binaries are completely immune to Spectre, albeit at
considerable overhead."  SLH threads a misprediction predicate through
every basic block and masks *every* load's address (or value) with it,
so no load can transmit down a wrong path — any load, not just the
bounds-checked array accesses the targeted JIT mitigations cover.

We model SLH as an alternative compilation mode: each load-bearing
operation pays the mask's data dependency (a cmov-class stall), plus one
ALU op per conditional branch to maintain the predicate.  Comparing this
against the targeted index-masking/object-guard strategy quantifies why
production JITs chose the targeted route (the ablation bench does this
per CPU).
"""

from __future__ import annotations

from typing import List

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine
from .jit import (
    ARRAY_ACCESS_CYCLES,
    CALL_CYCLES,
    GUARD_EXTRA_CYCLES,
    MASK_STALL_CYCLES,
    OBJECT_ACCESS_CYCLES,
    OpMix,
    PAIR_LINES,
    POINTER_DEREF_CYCLES,
)

#: Conditional branches per iteration whose predicate SLH must maintain,
#: expressed as a fraction of total ops (loop and guard branches).
PREDICATE_BRANCH_RATIO = 0.15


class SLHCompiler:
    """Compiles an :class:`OpMix` with every load hardened."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def mask_extra_per_load(self) -> int:
        """Every load pays the predicate mask's dependency stall."""
        return self.machine.costs.cmov + MASK_STALL_CYCLES

    def compile_iteration(self, mix: OpMix, heap_base: int,
                          cursor: int = 0) -> List[Instruction]:
        """One iteration under SLH: all load classes masked, plus the
        predicate bookkeeping on every branch."""
        per_load = self.mask_extra_per_load()
        loads = (mix.array_accesses + mix.object_accesses
                 + mix.pointer_derefs + mix.store_load_pairs)
        total_ops = loads + mix.calls
        predicate_branches = int(total_ops * PREDICATE_BRANCH_RATIO)

        cycles = mix.arith_cycles
        cycles += mix.array_accesses * ARRAY_ACCESS_CYCLES
        cycles += mix.object_accesses * OBJECT_ACCESS_CYCLES
        cycles += mix.pointer_derefs * POINTER_DEREF_CYCLES
        cycles += mix.calls * CALL_CYCLES
        cycles += loads * per_load                      # the SLH tax
        cycles += predicate_branches * self.machine.costs.alu

        block: List[Instruction] = [isa.work(cycles)]
        block += isa.run_window(isa.store_load, heap_base, PAIR_LINES, cursor,
                                mix.store_load_pairs)
        return block


def slh_blocks_all_v1_variants(machine: Machine, secret: int = 0x42) -> bool:
    """SLH's security claim, mechanically: with the address masked by the
    misprediction predicate, the speculative dependent load never issues
    (equivalent to the masked gadget, but applied to *every* load)."""
    from ..mitigations.spectre_v1 import attempt_bounds_bypass
    return attempt_bounds_bypass(machine, secret, masked=True) is None
