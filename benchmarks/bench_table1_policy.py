"""Table 1: default mitigations per CPU; times the policy engine.

The table's cells are the ``table1/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import all_cpus
from repro.mitigations import linux_default


def bench_policy_engine(benchmark):
    """Time computing the full default policy for all eight CPUs."""
    benchmark(lambda: [linux_default(cpu) for cpu in all_cpus()])
