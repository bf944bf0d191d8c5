"""Section 4.4b: LFS against the emulated disk; times one smallfile
iteration.

The section's claims are the ``s4.4/...`` rows of
``tests/paper/claims.py``, checked in tier-1.
"""

from repro.cpu import Machine, get_cpu
from repro.mitigations import MitigationConfig
from repro.workloads import lfs


def bench_lfs_smallfile_iteration(benchmark):
    runner = lfs.LFSRunner(Machine(get_cpu("broadwell")),
                           MitigationConfig.all_off(),
                           MitigationConfig.all_off())
    benchmark(lambda: runner.run_iteration(lfs.SMALLFILE))
