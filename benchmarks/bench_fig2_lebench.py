"""Figure 2: LEBench mitigation overhead; times one LEBench suite pass.

The figure's claims are the ``fig2/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, get_cpu
from repro.mitigations import MitigationConfig
from repro.workloads import lebench


def bench_lebench_suite_one_config(benchmark):
    """Time one full LEBench suite pass (the Figure 2 inner loop)."""
    cpu = get_cpu("broadwell")
    benchmark.pedantic(
        lambda: lebench.run_suite(Machine(cpu, seed=1),
                                  MitigationConfig.all_off(),
                                  iterations=8, warmup=2),
        rounds=3, iterations=1)
