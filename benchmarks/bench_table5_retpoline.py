"""Table 5: indirect branch cost under baseline/IBRS/retpoline variants;
times one indirect branch measurement.

The table's cells are the ``table5/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import Machine, get_cpu


def bench_indirect_branch_measurement(benchmark):
    machine = Machine(get_cpu("ice_lake_server"))
    benchmark(lambda: mb.measure_indirect_branch(machine, "baseline", 200))
