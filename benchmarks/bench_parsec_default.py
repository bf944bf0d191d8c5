"""Section 4.5: PARSEC with default mitigations; times swaptions
iterations.

The section's claims are the ``s4.5/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, get_cpu
from repro.kernel import Kernel
from repro.mitigations import MitigationConfig
from repro.workloads import parsec


def bench_parsec_swaptions_iterations(benchmark):
    kernel = Kernel(Machine(get_cpu("zen2")), MitigationConfig.all_off())
    runner = parsec.PARSECRunner(kernel, parsec.SWAPTIONS)
    benchmark(runner.run_iteration)
