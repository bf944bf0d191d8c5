"""The model JIT: lowers JS workload op-mixes to instruction streams,
inserting Spectre hardening exactly where SpiderMonkey does.

Paper section 4.3: "All JavaScript mitigations are implemented by the JIT
engine inserting extra instructions into the generated instruction
stream."  We reproduce that structure:

* **index masking** — a ``cmov`` before every array access that clamps
  out-of-range indices to 0.  Architecturally free on the committed path,
  but it serializes the access on the array length, which we price as the
  cmov plus a small dependent-load stall (the paper measures ~4% across
  Octane);
* **object guards** — the same idea for shape checks (~6%);
* **other hardening** (``js_other``) — pointer poisoning on every boxed
  pointer dereference plus call-site hardening.

Bulk arithmetic is carried as compressed WORK instructions; the
store-to-load forwarding traffic (what SSBD penalizes — Firefox paid it
through the seccomp policy, Figure 3) is emitted as store->load pair runs
(``isa.store_load``), which execute against the machine's store buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine
from ..mitigations.base import MitigationConfig

#: Dependent-load stall charged per masked access: the load cannot issue
#: until the clamped index (hence the array length) resolves.
MASK_STALL_CYCLES = 2

#: Object guards also re-check the shape pointer: one extra cycle.
GUARD_EXTRA_CYCLES = 1


@dataclass(frozen=True)
class OpMix:
    """Per-iteration operation counts of one JS workload."""

    arith_cycles: int          # bulk compute (cycles)
    array_accesses: int        # bounds-checked element reads/writes
    object_accesses: int       # shape-guarded field accesses
    pointer_derefs: int        # boxed-pointer chases (poisoning surface)
    store_load_pairs: int      # write-then-read traffic (SSBD surface)
    calls: int                 # JS-to-JS calls


#: Average cycles per un-hardened access (cache-warm JIT code).
ARRAY_ACCESS_CYCLES = 4
OBJECT_ACCESS_CYCLES = 5
POINTER_DEREF_CYCLES = 2
CALL_CYCLES = 6

#: Heap lines the store/load pairs rotate through.
PAIR_LINES = 512


class JITCompiler:
    """Compiles an :class:`OpMix` under a mitigation config for a machine."""

    def __init__(self, machine: Machine, config: MitigationConfig) -> None:
        self.machine = machine
        self.config = config

    def mask_extra_per_access(self) -> int:
        """Extra cycles index masking adds to one array access."""
        return self.machine.costs.cmov + MASK_STALL_CYCLES

    def guard_extra_per_access(self) -> int:
        """Extra cycles an object guard adds to one field access."""
        return self.machine.costs.cmov + MASK_STALL_CYCLES + GUARD_EXTRA_CYCLES

    def poison_extra_per_deref(self) -> int:
        """Pointer poisoning: one xor to poison, one to unpoison — but the
        unpoison folds into addressing on x86, so one ALU op net."""
        return self.machine.costs.alu

    def compile_iteration(self, mix: OpMix, heap_base: int,
                          cursor: int = 0) -> List[Instruction]:
        """One workload iteration as an instruction stream.

        The bulk op population is carried as WORK (sum of per-access
        costs), with hardening priced per access from this machine's cost
        table; the forwarding-sensitive traffic is store->load pair runs.
        """
        config = self.config
        cycles = mix.arith_cycles
        cycles += mix.array_accesses * ARRAY_ACCESS_CYCLES
        cycles += mix.object_accesses * OBJECT_ACCESS_CYCLES
        cycles += mix.pointer_derefs * POINTER_DEREF_CYCLES
        cycles += mix.calls * CALL_CYCLES

        # Hardening cost is emitted as separately tagged WORK so the cycle
        # ledger can attribute it (jsengine/spectre_v1/index_mask etc.);
        # the total charged per iteration is unchanged.
        block: List[Instruction] = [isa.work(cycles)]
        if config.js_index_masking and mix.array_accesses:
            block.append(isa.work(
                mix.array_accesses * self.mask_extra_per_access(),
                mitigation="spectre_v1", primitive="index_mask"))
        if config.js_object_guards and mix.object_accesses:
            block.append(isa.work(
                mix.object_accesses * self.guard_extra_per_access(),
                mitigation="spectre_v1", primitive="object_guard"))
        if config.js_other:
            extra = mix.pointer_derefs * self.poison_extra_per_deref()
            extra += mix.calls * self.machine.costs.alu  # call hardening
            if extra:
                block.append(isa.work(extra, mitigation="spectre_v1",
                                      primitive="pointer_poison"))
        block += isa.run_window(isa.store_load, heap_base, PAIR_LINES, cursor,
                                mix.store_load_pairs)
        return block
