"""Bit-for-bit reproducibility: rerunning any experiment with the same
seeds produces identical results — the property EXPERIMENTS.md's numbers
rely on."""

import json

import pytest

from repro.core import study
from repro.core.executor import ATTRIBUTION, PAIRED, encode_result
from repro.core.probe import POLICY_IBRS, leakage_report
from repro.core.study import Settings
from repro.cpu import Machine, get_cpu
from repro.mitigations import MitigationConfig, linux_default
from repro.workloads import lebench

SETTINGS = Settings.fast()


def test_machine_streams_are_identical():
    from repro.cpu import isa
    cpu = get_cpu("cascade_lake")
    def run():
        machine = Machine(cpu, seed=9)
        machine.msr.set_ibrs(True)
        return [machine.execute(isa.syscall_instr()) for _ in range(100)]
    assert run() == run()  # includes the seeded eIBRS scrub schedule


def test_lebench_suite_is_deterministic():
    cpu = get_cpu("broadwell")
    a = lebench.run_suite(Machine(cpu, seed=3), linux_default(cpu),
                          iterations=8, warmup=2)
    b = lebench.run_suite(Machine(cpu, seed=3), linux_default(cpu),
                          iterations=8, warmup=2)
    assert a == b


def _encoded(kind, results):
    """The lossless result codec as JSON text: equal text means every
    measurement and percentage is bit-identical."""
    return json.dumps([encode_result(kind, result) for result in results])


def test_figure2_export_is_stable_across_runs():
    cpus = [get_cpu("zen2")]
    first = _encoded(ATTRIBUTION, study.figure2(cpus, SETTINGS))
    second = _encoded(ATTRIBUTION, study.figure2(cpus, SETTINGS))
    assert first == second


def test_figure5_export_is_stable_across_runs():
    cpus = [get_cpu("zen3")]
    first = _encoded(PAIRED, study.figure5(cpus, settings=SETTINGS))
    second = _encoded(PAIRED, study.figure5(cpus, settings=SETTINGS))
    assert first == second


def test_speculation_matrices_are_stable():
    cpus = (get_cpu("cascade_lake"), get_cpu("zen3"))
    assert leakage_report(cpus, POLICY_IBRS) == \
        leakage_report(cpus, POLICY_IBRS)


def test_different_seeds_differ_only_in_noise():
    """Changing the seed moves measurements within the noise band but
    never changes behavioural outcomes."""
    cpu = get_cpu("broadwell")
    results = [study.figure2([cpu], Settings(iterations=8, warmup=2,
                                             max_samples=20, rel_tol=0.01,
                                             seed=s))[0]
               for s in (1, 2)]
    a, b = (r.total_overhead_percent for r in results)
    assert a == pytest.approx(b, abs=4.0)
    assert a != b  # noise genuinely differs


def test_noise_seed_does_not_affect_attack_outcomes():
    from repro.mitigations.meltdown import attempt_meltdown
    for seed in (0, 1, 42):
        machine = Machine(get_cpu("broadwell"), seed=seed)
        assert attempt_meltdown(machine, 0x2A) == 0x2A
