"""Table 6: IBPB cycles; times the IBPB loop.

The table's cells and its trend are the ``table6/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import Machine, get_cpu


def bench_ibpb(benchmark):
    machine = Machine(get_cpu("zen"))
    benchmark(lambda: mb.measure_ibpb(machine, iterations=50))
