"""Section 6.2.2: the bimodal eIBRS kernel-entry latency; times the
entry latency collection.

The section's claims are the ``s6.2.2/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.core import microbench as mb
from repro.cpu import get_cpu


def bench_entry_latency_collection(benchmark):
    cpu = get_cpu("cascade_lake")
    benchmark(lambda: mb.kernel_entry_latencies(cpu, entries=500, eibrs=True))
