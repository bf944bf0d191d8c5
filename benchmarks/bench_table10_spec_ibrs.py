"""Table 10: speculation matrix with IBRS enabled; times the probe under
IBRS.

The table's cells are the ``table10/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core.probe import POLICY_IBRS, leakage_report
from repro.cpu import get_cpu


def bench_probe_with_ibrs(benchmark):
    benchmark(lambda: leakage_report((get_cpu("cascade_lake"),), POLICY_IBRS,
                                     trials=3))
