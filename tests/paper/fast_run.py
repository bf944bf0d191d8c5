"""What ``spectresim all --fast`` computes: the ``fast_run`` fixture."""

from __future__ import annotations

from types import SimpleNamespace

from repro.cli import main
from repro.core import microbench, study
from repro.core.executor import StudyExecutor
from repro.core.probe import POLICY_IBRS, POLICY_OFF, leakage_report
from repro.core.stats import geometric_mean
from repro.core.summary import summarize
from repro.cpu import Machine, all_cpus, get_cpu
from repro.kernel import Kernel, Process
from repro.mitigations import MitigationConfig, linux_default
from repro.workloads import lfs, vm_lebench


def _guest_over_host(settings) -> float:
    """Broadwell's default mitigations on guest LEBench: their cost inside
    the guest minus their cost on the host, in percentage points."""
    cpu = get_cpu("broadwell")
    off, full = MitigationConfig.all_off(), linux_default(cpu)

    def geomean(host, guest):
        return geometric_mean(vm_lebench.run_suite(
            Machine(cpu, seed=1), host, guest_config=guest,
            iterations=settings.iterations, warmup=settings.warmup).values())

    bare = geomean(off, off)
    return 100.0 * (geomean(off, full) - geomean(full, off)) / bare


def _cycles_per_exit(settings) -> float:
    """Cascade Lake's LFS smallfile: simulated cycles between VM exits, over
    the iterations an ``lfs`` cell runs at ``settings``."""
    off = MitigationConfig.all_off()
    runner = lfs.LFSRunner(Machine(get_cpu("cascade_lake")), off, off)
    iterations = max(4, settings.iterations // 3)
    cycles = sum(runner.run_iteration(lfs.SMALLFILE) for _ in range(iterations))
    return cycles / runner.hypervisor.stats.exits


def _context_switch(cpu) -> int:
    """Cycles of one switch between two processes, mitigations off."""
    kernel = Kernel(Machine(cpu), MitigationConfig.all_off())
    kernel.context_switch(Process("a"))
    return kernel.context_switch(Process("b"))


def build(root) -> SimpleNamespace:
    """Run ``all --fast`` under the directory ``root`` and return its
    results, plus the few extra runs, at its settings, that claims about
    values ``all`` does not print need.

    The command runs as a user runs it, into a fresh cell cache; the study
    drivers' results are read back from that cache (no cell runs twice),
    and the deterministic tables, which ``all`` prints as text, are taken
    again at its iteration counts.
    """
    cache = str(root / "cache")
    main(["--no-history", "all", "--fast", "--outdir", str(root / "results"),
          "--cache-dir", cache])
    settings = study.Settings.fast()
    executor = StudyExecutor(cache_dir=cache)
    studies = {}
    for name in study.DRIVERS:
        studies[name] = study.sweep(name, settings=settings, executor=executor)
        assert executor.stats.executed == 0, name
    cpus = all_cpus()
    iterations = microbench.DEFAULT_ITERATIONS
    return SimpleNamespace(
        outdir=root / "results",
        table3={cpu.key: microbench.table3_row(cpu, iterations) for cpu in cpus},
        table4={cpu.key: microbench.table4_value(cpu, iterations) for cpu in cpus},
        table5={cpu.key: microbench.table5_row(cpu, iterations) for cpu in cpus},
        table6={cpu.key: microbench.table6_value(cpu, min(iterations, 200))
                for cpu in cpus},
        table7={cpu.key: microbench.table7_value(cpu, iterations) for cpu in cpus},
        table8={cpu.key: microbench.table8_value(cpu, iterations) for cpu in cpus},
        table9=leakage_report(cpus, POLICY_OFF, max_events=0)["matrix"],
        table10=leakage_report(cpus, POLICY_IBRS, max_events=0)["matrix"],
        studies=studies,
        summary=summarize(studies["figure2"], studies["figure3"]),
        entries={(cpu.key, eibrs): microbench.kernel_entry_latencies(
                     cpu, eibrs=eibrs)
                 for cpu in cpus if cpu.predictor.supports_eibrs
                 for eibrs in (True, False)},
        context_switch={cpu.key: _context_switch(cpu) for cpu in cpus},
        guest_over_host=_guest_over_host(settings),
        cycles_per_exit=_cycles_per_exit(settings),
    )
