"""Figure 3: Octane 2 slowdown; times one Octane suite pass.

The figure's claims are the ``fig3/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, get_cpu
from repro.jsengine import octane
from repro.mitigations import MitigationConfig


def bench_octane_suite_one_config(benchmark):
    cpu = get_cpu("zen3")
    benchmark.pedantic(
        lambda: octane.run_suite(Machine(cpu, seed=1),
                                 MitigationConfig.all_off(),
                                 iterations=6, warmup=2),
        rounds=3, iterations=1)
