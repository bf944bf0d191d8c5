"""LEBench inside a virtual machine (paper section 4.4, first workload).

"The performance of running LEBench inside of a virtual machine with and
without host mitigations enabled mirrors running a customer application on
a cloud provider.  Execution primarily (but not exclusively) stays within
the VM so we would expect host mitigations to have limited impact."

The guest runs the LEBench suite through its own kernel; the only host
involvement is the periodic timer/external-interrupt exit.  Host
mitigation work therefore lands on a few exits per thousand guest
operations, and the measured overhead stays within the paper's ±3% band.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..cpu.machine import Machine, steady_state
from ..cpu.modes import Mode
from ..hypervisor import GuestContext, Hypervisor
from ..mitigations.base import MitigationConfig
from .lebench import FAULT, LEBenchCase, SUITE, SYSCALL

#: One timer exit per this many guest operations (models a kHz-scale tick
#: against ~100k guest ops/second, compressed so short measurement runs
#: still see a representative number of exits).
TIMER_EXIT_PERIOD = 50

#: Host-side work for a timer exit: inject the interrupt, update clocks.
TIMER_EXIT_HANDLER_CYCLES = 2000


class GuestLEBenchRunner:
    """Runs LEBench cases in a guest, with periodic host timer exits."""

    def __init__(self, machine: Machine, host_config: MitigationConfig,
                 guest_config: MitigationConfig) -> None:
        self.hypervisor = Hypervisor(machine, host_config, guest_config)
        self.guest = self.hypervisor.create_guest()
        self._op_counter = 0

    def run_op(self, case: LEBenchCase) -> int:
        """One guest-side operation (syscall/fault cases only: the guest
        scheduler behaves identically with or without *host* mitigations,
        so cross-process cases add nothing to this comparison)."""
        machine = self.guest.machine
        saved = machine.mode
        machine.mode = Mode.GUEST_USER
        if case.kind == FAULT:
            cycles = self.guest.kernel.page_fault(case.profile)
        else:
            cycles = self.guest.kernel.syscall(case.profile)
        machine.mode = saved

        self._op_counter += 1
        if self._op_counter % TIMER_EXIT_PERIOD == 0:
            cycles += self.hypervisor.vm_exit(TIMER_EXIT_HANDLER_CYCLES)
        return cycles

    def measure_case(self, case: LEBenchCase, iterations: int = 24,
                     warmup: int = 6) -> float:
        return steady_state(lambda: self.run_op(case), iterations, warmup)


def run_suite(
    machine: Machine,
    host_config: MitigationConfig,
    guest_config: Optional[MitigationConfig] = None,
    iterations: int = 24,
    warmup: int = 6,
    cases: Optional[Tuple[LEBenchCase, ...]] = None,
) -> Dict[str, float]:
    """Guest LEBench cycles/op per case under the given *host* config."""
    if guest_config is None:
        guest_config = MitigationConfig.all_off()
    runner = GuestLEBenchRunner(machine, host_config, guest_config)
    selected = cases or tuple(c for c in SUITE if c.kind in (SYSCALL, FAULT))
    return {
        case.name: runner.measure_case(case, iterations, warmup)
        for case in selected
    }
