"""Table 4: verw buffer-clear cycles; times the verw loop.

The table's cells are the ``table4/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import Machine, get_cpu


def bench_verw_loop(benchmark):
    machine = Machine(get_cpu("skylake_client"))
    benchmark(lambda: mb.measure_verw(machine, iterations=200))
