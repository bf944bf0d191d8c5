"""Table 7: RSB stuffing cycles; times the RSB fill loop.

The table's cells, and stuffing's share of a context switch, are the
``table7/...`` claims in ``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import Machine, get_cpu


def bench_rsb_fill(benchmark):
    machine = Machine(get_cpu("broadwell"))
    benchmark(lambda: mb.measure_rsb_fill(machine, iterations=200))
