"""PARSEC compute benchmarks: swaptions, facesim, bodytrack (paper 4.5/5.5).

These are single-process, compute-intensive workloads with essentially no
boundary crossings, chosen by the paper to isolate the cost of "always on"
mitigations.  Two paper findings to reproduce:

* with the **default** mitigation set, overhead is in the noise (±0.5%,
  never above 2%) — our model's only boundary crossings are rare timer
  ticks, so this emerges naturally;
* with **SSBD force-enabled**, slowdowns reach ~34% and are *worse on
  newer parts* (Figure 5) — this emerges from each workload's
  store-to-load forwarding density multiplied by the per-CPU SSBD load
  penalty.

The three workloads differ in working set (facesim's misses dilute the
SSBD penalty; swaptions' cache-resident inner loops concentrate it) and in
forwarding density, mirroring their real memory behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..cpu import isa
from ..cpu.isa import Instruction
from ..cpu.machine import Machine, steady_state
from ..kernel import HandlerProfile, Kernel, Process
from ..mitigations.base import MitigationConfig

#: User-space heap where workload working sets live.
HEAP_BASE = 0x2000_0000

#: Timer tick: one kernel crossing every this many iterations.
TIMER_PERIOD = 100

#: Minimal timer-interrupt handler.
TIMER_PROFILE = HandlerProfile("timer_tick", work_cycles=500, loads=6,
                               stores=2, indirect_branches=2)


@dataclass(frozen=True)
class PARSECWorkload:
    """One PARSEC benchmark's per-iteration behaviour.

    ``store_load_pairs`` is the number of store-then-dependent-load events
    per iteration — the store-to-load forwarding traffic SSBD penalizes.
    ``working_set_kb`` controls how much of the load stream misses cache.
    """

    name: str
    work_cycles: int
    store_load_pairs: int
    plain_loads: int
    working_set_kb: int
    uses_fpu: bool = True

    def stride_count(self) -> int:
        return max(1, (self.working_set_kb * 1024) // 64)


#: The paper's three benchmarks.  Densities/working sets are chosen to
#: reproduce Figure 5's ordering (swaptions > bodytrack > facesim) and
#: magnitude (~10% Broadwell up to ~34% Zen 3 for swaptions).
SWAPTIONS = PARSECWorkload("swaptions", work_cycles=10500,
                           store_load_pairs=110, plain_loads=24,
                           working_set_kb=24)
BODYTRACK = PARSECWorkload("bodytrack", work_cycles=11000,
                           store_load_pairs=80, plain_loads=48,
                           working_set_kb=256)
FACESIM = PARSECWorkload("facesim", work_cycles=9000,
                         store_load_pairs=70, plain_loads=64,
                         working_set_kb=4096)

SUITE: Tuple[PARSECWorkload, ...] = (SWAPTIONS, FACESIM, BODYTRACK)


def get_workload(name: str) -> PARSECWorkload:
    for workload in SUITE:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown PARSEC workload {name!r}")


class PARSECRunner:
    """Executes one PARSEC workload on one booted kernel."""

    def __init__(self, kernel: Kernel, workload: PARSECWorkload,
                 ssbd_process: bool = False) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.workload = workload
        self._iteration = 0
        self._cursor = 0
        process = Process(f"parsec-{workload.name}", uses_fpu=workload.uses_fpu,
                          ssbd_prctl=ssbd_process)
        kernel.context_switch(process)

    def iteration_block(self) -> List[Instruction]:
        """The next outer-loop iteration's instructions, in order: the
        work, the store->load pairs, then the streaming loads."""
        w = self.workload
        strides = w.stride_count()
        base = HEAP_BASE
        block = [isa.work(w.work_cycles)]
        # Store-to-load forwarding traffic: write a slot, read it right
        # back (accumulator/array-update patterns).
        block += isa.run_window(isa.store_load, base, strides, self._cursor,
                                w.store_load_pairs)
        # Streaming loads over the working set (misses when it exceeds L2).
        block += isa.run_window(isa.load_run, base + (1 << 24), strides,
                                self._cursor * w.plain_loads, w.plain_loads)
        self._cursor += w.plain_loads
        return block

    def run_iteration(self) -> int:
        """One outer-loop iteration, run as one block; returns cycles."""
        cycles = self.machine.run(self.iteration_block())
        self._iteration += 1
        if self._iteration % TIMER_PERIOD == 0:
            cycles += self.kernel.page_fault(TIMER_PROFILE)
        return cycles

    def measure(self, iterations: int = 40, warmup: int = 8) -> float:
        """Average cycles per iteration, steady state."""
        return steady_state(self.run_iteration, iterations, warmup)


def run_workload(
    machine: Machine,
    config: MitigationConfig,
    workload: PARSECWorkload,
    force_ssbd: bool = False,
    iterations: int = 40,
    warmup: int = 8,
) -> float:
    """Cycles per iteration of ``workload`` under ``config``.

    ``force_ssbd`` models the paper's section 5.5 experiment: the process
    opts into SSBD via prctl (the policy must allow it, i.e. not OFF).
    """
    kernel = Kernel(machine, config)
    runner = PARSECRunner(kernel, workload, ssbd_process=force_ssbd)
    return runner.measure(iterations, warmup)
