"""The speculation probe reproduces Tables 9 and 10 cell-for-cell."""

import pytest

from repro.cpu import CPU_ORDER, Instruction, Machine, Mode, Op, all_cpus, get_cpu
from repro.cpu import counters as ctr
from repro.core.probe import (
    BRANCH_PC,
    KERNEL_TO_USER,
    NOP_TARGET,
    POLICY_DEFAULT,
    POLICY_IBRS,
    POLICY_OFF,
    SCENARIOS,
    TRAIN_ROUNDS,
    VICTIM_TARGET,
    SpeculationProbe,
    _policy_machine,
    cell_supported,
    leakage_report,
    probe_cell,
)
from repro.obs import use_observers
from repro.obs.leakage import LeakageTracer

from ..paper.claims import TABLE9, TABLE10


def row_tuple(row):
    return None if row is None else tuple(row[s.label]["speculated"]
                                          for s in SCENARIOS)


def test_table9_matches_paper_exactly():
    matrix = leakage_report(all_cpus(), POLICY_OFF)["matrix"]
    for key in CPU_ORDER:
        assert row_tuple(matrix[key]) == TABLE9[key], key


def test_table10_matches_paper_exactly():
    matrix = leakage_report(all_cpus(), POLICY_IBRS)["matrix"]
    for key in CPU_ORDER:
        assert row_tuple(matrix[key]) == TABLE10[key], key


def test_kernel_to_user_mirrors_user_to_kernel():
    """The paper's prose finding: parts vulnerable user->kernel are also
    vulnerable kernel->user (not a realistic attack, but symmetric)."""
    for key in ("broadwell", "zen2"):
        mirrored, _ = probe_cell(get_cpu(key), POLICY_OFF, KERNEL_TO_USER)
        direct, _ = probe_cell(get_cpu(key), POLICY_OFF, SCENARIOS[0])
        assert mirrored.speculated == direct.speculated


def test_scenario_labels_are_descriptive():
    assert SCENARIOS[0].label == "user->kernel (syscall)"
    assert SCENARIOS[4].label == "kernel->kernel (direct)"


def test_probe_is_deterministic_given_seed():
    cpus = (get_cpu("cascade_lake"),)
    a = leakage_report(cpus, POLICY_IBRS, seed=5)
    b = leakage_report(cpus, POLICY_IBRS, seed=5)
    assert a == b


def test_single_trial_detects_on_broadwell():
    verdict, _ = probe_cell(get_cpu("broadwell"), POLICY_OFF, SCENARIOS[0],
                            trials=1)
    assert verdict.speculated is True


def test_probe_cell_runs_its_prelude_under_the_tracer_in_scope():
    """The cell keeps the tracer in scope and hands the prelude the
    machine with that tracer attached, plus the policy's retpoline bit."""
    tracer = LeakageTracer(policy=POLICY_DEFAULT)
    seen = []
    with use_observers(tracer):
        verdict, used = probe_cell(
            get_cpu("broadwell"), POLICY_DEFAULT, SCENARIOS[0],
            prelude=lambda machine, retpoline: seen.append(
                (machine.hooks, retpoline)))
    assert used is tracer and seen == [(tracer, True)]
    assert not verdict.leaked
    assert verdict.blocked_by == ("spectre_v2/retpoline",)


def test_leakage_report_runs_each_cell_under_its_own_tracer():
    """A leakage tracer in the caller's scope gets the grid's aggregate
    once; the report equals an unscoped one (no cell merges another's
    running totals)."""
    broadwell = get_cpu("broadwell")
    plain = leakage_report([broadwell], POLICY_OFF)
    tracer = LeakageTracer(policy=POLICY_OFF)
    with use_observers(tracer):
        scoped = leakage_report([broadwell], POLICY_OFF)
    assert scoped == plain
    assert tracer.state() == scoped["state"]


def test_divider_counter_is_the_signal():
    """The probe sees the divide's counter delta, not timing."""
    machine = Machine(get_cpu("broadwell"))
    probe = SpeculationProbe(machine)
    before = machine.counters.read(ctr.DIVIDER_ACTIVE)
    probe.probe_both_counters(SCENARIOS[0])
    assert machine.counters.read(ctr.DIVIDER_ACTIVE) > before


class TestBothCounters:
    """Section 6.1's counter-disagreement observation."""

    def test_counters_agree_on_a_clean_poisoning(self):
        machine = Machine(get_cpu("broadwell"))
        probe = SpeculationProbe(machine)
        mispredicted, divider = probe.probe_both_counters(SCENARIOS[0])
        assert mispredicted and divider

    def test_ibpb_makes_the_counters_disagree(self):
        """After a barrier the branch still counts as mispredicted (the
        harmless-gadget rewrite) but the divider never runs — the exact
        observation that made the paper prefer the divider counter."""
        from repro.cpu import isa as _isa
        from repro.cpu import msr as msrdef
        from repro.cpu import counters as ctr
        from repro.core.probe import BRANCH_PC, NOP_TARGET

        machine = Machine(get_cpu("broadwell"))
        probe = SpeculationProbe(machine)
        probe.train(Mode.USER)
        machine.execute(_isa.wrmsr(msrdef.IA32_PRED_CMD,
                                   msrdef.PRED_CMD_IBPB))
        div_before = machine.counters.read(ctr.DIVIDER_ACTIVE)
        misp_before = machine.counters.read(ctr.MISPREDICTED_INDIRECT)
        machine.execute(_isa.branch_indirect(NOP_TARGET, pc=BRANCH_PC))
        assert machine.counters.read(
            ctr.MISPREDICTED_INDIRECT) > misp_before
        assert machine.counters.read(ctr.DIVIDER_ACTIVE) == div_before


# --------------------------------------------------------------------------- #
# Reference: the probe's fixed blocks against the step-by-step protocol
# --------------------------------------------------------------------------- #

def _ref_transition(machine, scenario):
    syscall = Instruction(Op.SYSCALL)
    sysret = Instruction(Op.SYSRET)
    if scenario.train_mode is Mode.USER:
        machine.execute(syscall)
        if scenario.victim_mode is Mode.USER:
            machine.execute(sysret)
    else:
        machine.execute(sysret)
        if scenario.victim_mode is Mode.KERNEL:
            machine.execute(syscall)


def _ref_prepare(machine, scenario):
    """Train, cross modes, fill history, flush: fresh instructions, one
    ``execute`` each."""
    machine.mode = scenario.train_mode
    for _ in range(TRAIN_ROUNDS):
        machine.execute(Instruction(Op.BRANCH_INDIRECT,
                                    target=VICTIM_TARGET, pc=BRANCH_PC))
    if scenario.intervening_syscall:
        _ref_transition(machine, scenario)
    machine.mode = scenario.victim_mode
    for i in range(16):
        machine.execute(Instruction(Op.BRANCH_COND, pc=0x7000 + 4 * i))
    machine.execute(Instruction(Op.CLFLUSH, address=NOP_TARGET))


def _ref_victim(retpoline):
    return Instruction(Op.BRANCH_INDIRECT, target=NOP_TARGET, pc=BRANCH_PC,
                       retpoline=retpoline)


def _ref_probe_both_counters(machine, scenario, retpoline):
    _ref_prepare(machine, scenario)
    div_before = machine.counters.read(ctr.DIVIDER_ACTIVE)
    misp_before = machine.counters.read(ctr.MISPREDICTED_INDIRECT)
    machine.execute(_ref_victim(retpoline))
    return (machine.counters.read(ctr.MISPREDICTED_INDIRECT) > misp_before,
            machine.counters.read(ctr.DIVIDER_ACTIVE) > div_before)


def _probe_state(machine, tracer):
    state = (machine.read_tsc(), list(machine.counters.events.items()),
             list(machine.btb._table.items()), machine.bhb.value,
             list(machine.rsb._stack), machine.rsb.underflows,
             list(machine.cond_predictor._counters.items()), machine.mode)
    if tracer is None:
        return state
    return state + (list(tracer.counts.items()),
                    list(tracer.blocked.items()), tracer.total_events())


#: Every (cpu, policy) cell but Table 10's N/A row (IBRS on Zen).
PROBE_CELLS = [(key, policy) for key in CPU_ORDER
               for policy in (POLICY_OFF, POLICY_IBRS, POLICY_DEFAULT)
               if cell_supported(get_cpu(key), policy)]


@pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
@pytest.mark.parametrize("key,policy", PROBE_CELLS)
def test_probe_blocks_match_the_step_by_step_protocol(key, policy, traced):
    cpu = get_cpu(key)
    for scenario in SCENARIOS:
        twins = []
        for _ in range(2):
            machine, retpoline = _policy_machine(cpu, policy, seed=11)
            probe = SpeculationProbe(machine, retpoline=retpoline)
            tracer = None
            if traced:
                tracer = LeakageTracer(policy=policy)
                machine.attach(tracer)
                tracer.taint_code(VICTIM_TARGET)
            twins.append((probe, tracer))
        (probe, tracer), (ref, ref_tracer) = twins
        for round_ in range(2):
            got = probe.probe_both_counters(scenario)
            want = _ref_probe_both_counters(ref.machine, scenario, retpoline)
            assert got == want, (scenario.label, round_)
            assert (_probe_state(probe.machine, tracer)
                    == _probe_state(ref.machine, ref_tracer)), \
                (scenario.label, round_)
