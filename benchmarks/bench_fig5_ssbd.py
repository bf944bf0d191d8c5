"""Figure 5: SSBD slowdown on PARSEC; times one swaptions pair.

The figure's claims are the ``fig5/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, get_cpu
from repro.mitigations import linux_default
from repro.workloads import parsec


def bench_parsec_ssbd_pair(benchmark):
    cpu = get_cpu("zen3")
    config = linux_default(cpu)

    def pair():
        base = parsec.run_workload(Machine(cpu, seed=1), config,
                                   parsec.SWAPTIONS, iterations=8, warmup=2)
        ssbd = parsec.run_workload(Machine(cpu, seed=1), config,
                                   parsec.SWAPTIONS, force_ssbd=True,
                                   iterations=8, warmup=2)
        return ssbd / base

    benchmark.pedantic(pair, rounds=3, iterations=1)
