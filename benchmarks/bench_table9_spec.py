"""Table 9: speculation matrix with IBRS disabled; times the section 6
probe.

The table's cells are the ``table9/...`` claims in
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core.probe import POLICY_OFF, leakage_report
from repro.cpu import get_cpu


def bench_probe_full_row(benchmark):
    """Time running all five probe scenarios on one CPU."""
    benchmark(lambda: leakage_report((get_cpu("broadwell"),), POLICY_OFF,
                                     trials=3))
