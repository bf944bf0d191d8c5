"""Syscall handler profiles and their compilation to instruction streams.

A :class:`HandlerProfile` describes what a kernel code path does in terms
the simulator prices: bulk straight-line work, loads/stores over a working
set, and indirect branches (the things retpolines/IBRS make expensive —
the kernel is full of indirect calls through file_operations and friends).

Compilation happens once per (profile, mitigation config) pair and is
cached by the :class:`~repro.kernel.kernel.Kernel`: the mitigation config
determines whether indirect branch sites become retpolines, exactly like
building a kernel with ``CONFIG_RETPOLINE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..cpu import isa
from ..cpu.isa import Instruction
from ..mitigations.base import MitigationConfig

#: Kernel virtual address region handler working sets live in.
KERNEL_HEAP_BASE = 0xFFFF_8880_1000_0000

#: Spacing between per-profile working sets (keeps them disjoint).
PROFILE_REGION = 1 << 20

#: Code address region for handler indirect-branch sites.
KERNEL_TEXT_BASE = 0xFFFF_FFFF_8100_0000

#: Compiled blocks interned by (profile, compile-relevant config bits,
#: region).  Handing every caller the *same* tuple object — across Kernel
#: instances and whole benchmark runs — lets the block engine's per-machine
#: cache (keyed by sequence identity) keep its compiled blocks and memos
#: warm instead of starting cold each time a kernel is rebuilt.
_COMPILE_CACHE: Dict[tuple, Tuple[Instruction, ...]] = {}


@dataclass(frozen=True)
class HandlerProfile:
    """Work done by one kernel code path (per invocation).

    ``work_cycles`` is bulk straight-line computation; ``loads``/``stores``
    sweep this profile's working set, one run of consecutive lines each
    (so they warm up across iterations like real kernel data structures);
    ``indirect_branches`` are indirect call sites (priced per the V2
    strategy); ``copy_bytes`` models a user/kernel copy at one load+store
    per 64-byte line.
    """

    name: str
    work_cycles: int = 100
    loads: int = 4
    stores: int = 2
    indirect_branches: int = 2
    copy_bytes: int = 0

    @property
    def span_name(self) -> str:
        """Span this handler's cycles are attributed to when tracing."""
        return f"kernel.handler.{self.name}"

    def compile(self, config: MitigationConfig,
                region_index: int) -> Tuple[Instruction, ...]:
        """Lower this profile to an instruction stream under ``config``.

        The user-copy path gets one ``array_index_nospec``-style masking
        cmov per transfer when the V1 usercopy hardening is on — the
        kernel-side analogue of the JIT's index masking.  Its cost is a
        single dependent op per copy, which is why the paper found kernel
        V1 mitigations had "no measurable impact on LEBench" (4.6).

        The result is an interned immutable tuple: identical inputs return
        the identical object so block-engine state survives kernel churn.
        """
        key = (self, config.uses_retpolines,
               bool(self.copy_bytes) and config.v1_usercopy_masking,
               region_index)
        cached = _COMPILE_CACHE.get(key)
        if cached is not None:
            return cached
        base = KERNEL_HEAP_BASE + region_index * PROFILE_REGION
        text = KERNEL_TEXT_BASE + region_index * PROFILE_REGION
        retpoline = config.uses_retpolines
        block: List[Instruction] = []
        if self.work_cycles:
            block.append(isa.work(self.work_cycles))
        if self.loads:
            block.append(isa.load_run(base, self.loads, kernel=True))
        if self.stores:
            block.append(isa.store_run(base + 32768, self.stores, kernel=True))
        for i in range(self.indirect_branches):
            pc = text + 16 * i
            target = text + 0x8000 + 16 * i
            block.append(isa.branch_indirect(target, pc=pc, retpoline=retpoline))
        lines, remainder = divmod(self.copy_bytes, 64)
        lines += 1 if remainder else 0
        if lines and config.v1_usercopy_masking:
            # mask the user-supplied bound once
            block.append(isa.cmov(mitigation="spectre_v1",
                                  primitive="usercopy_mask"))
        for i in range(lines):
            block.append(isa.load(base + 65536 + 64 * i, kernel=True))
            block.append(isa.store(base + 131072 + 64 * i, kernel=True))
        result = tuple(block)
        _COMPILE_CACHE[key] = result
        return result


#: A tiny reference handler (getpid-style) used in tests and examples.
GETPID = HandlerProfile("getpid", work_cycles=30, loads=2, stores=0,
                        indirect_branches=1)
