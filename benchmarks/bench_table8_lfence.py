"""Table 8: lfence cycles; times the lfence loop.

The table's cells and its trend are the ``table8/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import Machine, get_cpu


def bench_lfence(benchmark):
    machine = Machine(get_cpu("zen"))
    benchmark(lambda: mb.measure_lfence(machine, iterations=200))
