"""Build-your-own workloads: the user-facing composition API.

The paper's workloads cover four boundary profiles (OS-heavy, JS sandbox,
VM, pure compute).  Downstream users of this library usually want a
fifth: *their* application.  :class:`WorkloadBuilder` lets them compose
one from the same primitives the bundled workloads use — user compute,
syscalls with a chosen kernel-work profile, page faults, context
switches, store->load traffic — and measure it under any mitigation
configuration with one call.

Example::

    profile = (WorkloadBuilder("webserver")
               .user_work(3000)
               .syscall(recv_profile)
               .syscall(send_profile)
               .store_load_pairs(10)
               .context_switch_every(50))
    cycles = profile.measure(get_cpu("zen3"), linux_default(cpu))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..cpu import isa
from ..cpu.machine import Machine, steady_state
from ..cpu.model import CPUModel
from ..errors import WorkloadError
from ..jsengine.jit import store_load_pairs
from ..kernel import HandlerProfile, Kernel, Process
from ..mitigations.base import MitigationConfig

#: Heap region for custom workloads' memory traffic.
CUSTOM_HEAP = 0x5500_0000


@dataclass(frozen=True)
class _Step:
    kind: str            # 'user_work' | 'syscall' | 'fault' | 'stl' | 'loads'
    amount: int = 0
    profile: Optional[HandlerProfile] = None


class WorkloadBuilder:
    """Fluent builder for a custom per-iteration operation sequence."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._steps: List[_Step] = []
        self._ctx_period = 0
        self._process_kwargs = {}

    # -- composition ------------------------------------------------------ #

    def user_work(self, cycles: int) -> "WorkloadBuilder":
        """Straight-line user-mode compute."""
        if cycles < 0:
            raise WorkloadError("user_work cycles must be non-negative")
        self._steps.append(_Step("user_work", cycles))
        return self

    def syscall(self, profile: HandlerProfile) -> "WorkloadBuilder":
        """One kernel round trip running ``profile``."""
        self._steps.append(_Step("syscall", profile=profile))
        return self

    def page_fault(self, profile: HandlerProfile) -> "WorkloadBuilder":
        """One exception-path crossing."""
        self._steps.append(_Step("fault", profile=profile))
        return self

    def store_load_pairs(self, count: int) -> "WorkloadBuilder":
        """Forwarding-sensitive traffic (what SSBD penalizes)."""
        self._steps.append(_Step("stl", count))
        return self

    def streaming_loads(self, count: int) -> "WorkloadBuilder":
        """Plain loads over a rotating working set."""
        self._steps.append(_Step("loads", count))
        return self

    def context_switch_every(self, iterations: int) -> "WorkloadBuilder":
        """Ping-pong with a sibling process every N iterations."""
        if iterations < 1:
            raise WorkloadError("context switch period must be >= 1")
        self._ctx_period = iterations
        return self

    def process(self, **kwargs) -> "WorkloadBuilder":
        """Attributes of the process running the workload (``uses_fpu``,
        ``uses_seccomp``, ``ssbd_prctl`` ...)."""
        self._process_kwargs.update(kwargs)
        return self

    # -- execution ---------------------------------------------------------- #

    def build_runner(self, machine: Machine,
                     config: MitigationConfig) -> "CustomRunner":
        if not self._steps:
            raise WorkloadError(f"workload {self.name!r} has no steps")
        return CustomRunner(self, machine, config)

    def measure(self, cpu: CPUModel, config: MitigationConfig,
                iterations: int = 20, warmup: int = 5,
                seed: int = 1) -> float:
        """Average cycles per iteration on a fresh machine."""
        runner = self.build_runner(Machine(cpu, seed=seed), config)
        return runner.measure(iterations, warmup)

    def overhead_percent(self, cpu: CPUModel, config: MitigationConfig,
                         iterations: int = 20, warmup: int = 5) -> float:
        """Slowdown of ``config`` relative to all-off, in percent."""
        mitigated = self.measure(cpu, config, iterations, warmup)
        baseline = self.measure(cpu, MitigationConfig.all_off(),
                                iterations, warmup)
        return 100.0 * (mitigated / baseline - 1.0)


class CustomRunner:
    """Executes a built workload on one kernel."""

    def __init__(self, builder: WorkloadBuilder, machine: Machine,
                 config: MitigationConfig) -> None:
        self.builder = builder
        self.machine = machine
        self.kernel = Kernel(machine, config)
        self.main_process = Process(builder.name, **builder._process_kwargs)
        self.sibling = Process(f"{builder.name}-peer")
        self.kernel.context_switch(self.main_process)
        self._iteration = 0
        self._cursor = 0

    def run_iteration(self) -> int:
        machine = self.machine
        cycles = 0
        for step in self.builder._steps:
            if step.kind == "user_work":
                cycles += machine.execute(isa.work(step.amount))
            elif step.kind == "syscall":
                cycles += self.kernel.syscall(step.profile)
            elif step.kind == "fault":
                cycles += self.kernel.page_fault(step.profile)
            elif step.kind == "stl":
                cycles += machine.run(store_load_pairs(
                    CUSTOM_HEAP, self._cursor, step.amount))
                self._cursor += step.amount
            elif step.kind == "loads":
                for i in range(step.amount):
                    addr = CUSTOM_HEAP + (1 << 22) + \
                        64 * ((self._cursor + i) % 4096)
                    cycles += machine.execute(isa.load(addr))
                self._cursor += step.amount
        self._iteration += 1
        period = self.builder._ctx_period
        if period and self._iteration % period == 0:
            cycles += self.kernel.context_switch(self.sibling)
            cycles += self.kernel.context_switch(self.main_process)
        return cycles

    def measure(self, iterations: int = 20, warmup: int = 5) -> float:
        return steady_state(self.run_iteration, iterations, warmup)
