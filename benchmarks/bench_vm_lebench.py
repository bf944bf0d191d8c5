"""Section 4.4a: LEBench inside a VM; times one guest LEBench pass.

The section's claims are the ``s4.4/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, get_cpu
from repro.mitigations import MitigationConfig
from repro.workloads import vm_lebench


def bench_guest_lebench_suite(benchmark):
    cpu = get_cpu("cascade_lake")
    benchmark.pedantic(
        lambda: vm_lebench.run_suite(Machine(cpu, seed=1),
                                     MitigationConfig.all_off(),
                                     iterations=8, warmup=2),
        rounds=3, iterations=1)
