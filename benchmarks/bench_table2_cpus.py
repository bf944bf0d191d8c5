"""Table 2: the CPU catalog; times machine construction.

The table's cells are the ``table2/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, all_cpus


def bench_machine_construction(benchmark):
    """Time bringing up one full machine (all microarchitectural state)."""
    benchmark(lambda: [Machine(cpu) for cpu in all_cpus()])
