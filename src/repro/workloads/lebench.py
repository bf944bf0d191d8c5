"""LEBench: microbenchmarks of core OS operations (paper section 4.2).

The paper uses the WARD-distributed variant of LEBench [Ren et al., SOSP
'19] and reports the geometric mean across the suite.  Our substitute
keeps the same structure: one benchmark per core kernel operation, each an
operation loop whose per-op cycle cost we average, with the suite-level
score being the geometric mean of per-benchmark ratios.

Each case is characterized by a :class:`~repro.kernel.syscalls
.HandlerProfile` (how much kernel work the op does) plus a crossing kind:

* ``syscall`` ops enter via the syscall path;
* ``fault`` ops enter via the exception path (page faults);
* ``ctx`` ops are the classic pipe ping-pong: two syscalls plus two
  context switches between different processes, so the per-process
  mitigations (IBPB, RSB stuffing, FPU strategy) are exercised;
* ``spawn`` ops (fork/thread-create) include one switch to the child.

Handler sizes are scaled so that mitigation-free op costs span the same
range as LEBench's real operations (hundreds of cycles for getpid up to
tens of thousands for big fork), which is what makes the suite geomean
land in the paper's observed bands rather than being dominated by any
single tiny syscall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cpu import isa
from ..cpu.machine import Machine, steady_state
from ..kernel import HandlerProfile, Kernel, Process
from ..mitigations.base import MitigationConfig

SYSCALL = "syscall"
FAULT = "fault"
CTX = "ctx"
SPAWN = "spawn"


@dataclass(frozen=True)
class LEBenchCase:
    """One LEBench microbenchmark."""

    name: str
    kind: str
    profile: HandlerProfile
    user_work: int = 60  # user-mode cycles per operation (loop body)

    def __post_init__(self) -> None:
        if self.kind not in (SYSCALL, FAULT, CTX, SPAWN):
            raise ValueError(f"unknown LEBench case kind {self.kind!r}")


def _case(name: str, kind: str = SYSCALL, *, work: int, loads: int = 4,
          stores: int = 2, branches: int = 2, copy: int = 0,
          user_work: int = 60) -> LEBenchCase:
    profile = HandlerProfile(
        name=name,
        work_cycles=work,
        loads=loads,
        stores=stores,
        indirect_branches=branches,
        copy_bytes=copy,
    )
    return LEBenchCase(name=name, kind=kind, profile=profile, user_work=user_work)


#: The suite, ordered roughly smallest to largest operation.
SUITE: Tuple[LEBenchCase, ...] = (
    _case("getpid", work=250, loads=6, stores=0, branches=1),
    _case("context_switch", CTX, work=360, loads=6, stores=2, branches=3),
    _case("small_read", work=1100, loads=12, stores=4, branches=4, copy=64),
    _case("big_read", work=5000, loads=32, stores=4, branches=4, copy=512),
    _case("small_write", work=1100, loads=10, stores=6, branches=4, copy=64),
    _case("big_write", work=5000, loads=8, stores=32, branches=4, copy=512),
    _case("mmap", work=4300, loads=8, stores=16, branches=5),
    _case("munmap", work=3300, loads=8, stores=8, branches=5),
    _case("small_page_fault", FAULT, work=2400, loads=8, stores=8, branches=3),
    _case("big_page_fault", FAULT, work=8800, loads=16, stores=32, branches=5),
    _case("fork", SPAWN, work=26000, loads=32, stores=48, branches=10),
    _case("big_fork", SPAWN, work=52000, loads=48, stores=64, branches=12),
    _case("thread_create", SPAWN, work=8500, loads=16, stores=16, branches=8),
    _case("send", work=2300, loads=8, stores=8, branches=8, copy=256),
    _case("recv", work=2300, loads=12, stores=4, branches=8, copy=256),
    _case("select", work=3100, loads=24, stores=4, branches=10),
    _case("poll", work=3100, loads=24, stores=4, branches=10),
    _case("epoll", work=1900, loads=8, stores=4, branches=6),
)

CASE_NAMES: Tuple[str, ...] = tuple(case.name for case in SUITE)


def get_case(name: str) -> LEBenchCase:
    for case in SUITE:
        if case.name == name:
            return case
    raise KeyError(f"unknown LEBench case {name!r}; known: {CASE_NAMES}")


class LEBenchRunner:
    """Executes LEBench cases against one booted kernel."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        # The ping-pong pair for context switch benchmarks; distinct mms so
        # the IBPB fires, like the real pipe benchmark's two processes.
        self.proc_a = Process("lebench-a")
        self.proc_b = Process("lebench-b")
        # fork/thread targets
        self.child = Process("lebench-child")
        self.thread = self.proc_a.thread("lebench-thread")
        self.kernel.context_switch(self.proc_a)

    def run_op(self, case: LEBenchCase) -> int:
        """One operation of ``case``; returns cycles."""
        machine = self.machine
        cycles = machine.execute(isa.work(case.user_work))
        if case.kind == SYSCALL:
            cycles += self.kernel.syscall(case.profile)
        elif case.kind == FAULT:
            cycles += self.kernel.page_fault(case.profile)
        elif case.kind == CTX:
            # write -> switch to B -> read -> switch back to A
            cycles += self.kernel.syscall(case.profile)
            cycles += self.kernel.context_switch(self.proc_b)
            cycles += self.kernel.syscall(case.profile)
            cycles += self.kernel.context_switch(self.proc_a)
        elif case.kind == SPAWN:
            cycles += self.kernel.syscall(case.profile)
            target = self.thread if "thread" in case.name else self.child
            cycles += self.kernel.context_switch(target)
            cycles += self.kernel.context_switch(self.proc_a)
        return cycles

    def measure_case(self, case: LEBenchCase, iterations: int = 24,
                     warmup: int = 6) -> float:
        """Average cycles per operation in the steady state."""
        with self.machine.obs.span(f"lebench.case.{case.name}",
                                   kind=case.kind, iterations=iterations,
                                   warmup=warmup):
            return steady_state(lambda: self.run_op(case), iterations,
                                warmup)


def run_suite(
    machine: Machine,
    config: MitigationConfig,
    iterations: int = 24,
    warmup: int = 6,
    cases: Optional[Tuple[LEBenchCase, ...]] = None,
) -> Dict[str, float]:
    """Run the (sub)suite under ``config``; returns cycles/op per case."""
    with machine.obs.span("lebench.suite", cpu=machine.cpu.key):
        kernel = Kernel(machine, config)
        runner = LEBenchRunner(kernel)
        results: Dict[str, float] = {}
        for case in cases or SUITE:
            results[case.name] = runner.measure_case(case, iterations, warmup)
    return results
