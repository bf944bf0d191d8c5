"""Table 3: syscall / sysret / swap-cr3 cycles; times the syscall loop.

The table's cells are the ``table3/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import Machine, get_cpu


def bench_syscall_timed_loop(benchmark):
    """Time the rdtsc-bracketed syscall loop on Broadwell."""
    machine = Machine(get_cpu("broadwell"))
    benchmark(lambda: mb.measure_syscall(machine, iterations=200))
