"""The observer scope: every observer attaches through one path and none
perturbs the simulation, alone or together, in any attach order.

Each cell runs detached, under each observer alone, and under all three
together in two opposite orders.  Counters and TSC must be identical in
every run, and each observer must report the same thing whether it ran
alone or shared the machine with the others.
"""

import pytest

from repro.core.probe import POLICY_OFF, SCENARIOS, probe_cell
from repro.cpu import Machine, get_cpu
from repro.kernel import GETPID, Kernel
from repro.mitigations import linux_default
from repro.obs import (
    CycleLedger,
    LeakageTracer,
    SpanTracer,
    current_observers,
    use_observers,
)
from repro.workloads.lebench import SUITE, run_suite

CPU = "broadwell"
KINDS = ("tracer", "ledger", "leakage")


def _fresh():
    return {"tracer": SpanTracer(), "ledger": CycleLedger(),
            "leakage": LeakageTracer()}


def _table9_cell():
    """One Table 9 probe cell: user->user across a syscall, IBRS off."""
    machines = []
    verdict, _ = probe_cell(get_cpu(CPU), POLICY_OFF, SCENARIOS[1],
                            prelude=lambda machine, _: machines.append(machine))
    return machines[0], (verdict.speculated, verdict.leaked)


def _lebench_cell():
    """One LEBench cell under the Linux default mitigations."""
    cpu = get_cpu(CPU)
    case = next(case for case in SUITE if case.name == "small_read")
    machine = Machine(cpu, seed=7)
    results = run_suite(machine, linux_default(cpu), iterations=3, warmup=1,
                        cases=(case,))
    return machine, results


def _run(cell, observers):
    with use_observers(*observers):
        machine, outcome = cell()
    return machine, outcome


def _hook_slots(machine):
    return (machine.store_buffer, machine.btb, machine.rsb,
            machine.mds_buffers)


def _reports(observers):
    return {
        "ledger": observers["ledger"].paths(),
        "leakage": observers["leakage"].summary().to_dict(),
    }


@pytest.mark.parametrize("cell", [_table9_cell, _lebench_cell],
                         ids=["table9_probe", "lebench"])
def test_observers_alone_and_together_see_the_same_run(cell):
    detached, outcome = _run(cell, ())
    reference = (detached.read_tsc(), detached.counters.snapshot(), outcome)

    alone = {}
    for kind in KINDS:
        observers = _fresh()
        machine, outcome = _run(cell, [observers[kind]])
        assert (machine.read_tsc(), machine.counters.snapshot(),
                outcome) == reference, kind
        alone[kind] = observers[kind]
    alone_reports = _reports(alone)
    assert alone["ledger"].verify() > 0

    for order in (KINDS, tuple(reversed(KINDS))):
        observers = _fresh()
        machine, outcome = _run(cell, [observers[kind] for kind in order])
        assert (machine.read_tsc(), machine.counters.snapshot(),
                outcome) == reference, order
        assert machine.ledger is observers["ledger"]
        assert machine.obs is observers["tracer"]
        assert machine.hooks is observers["leakage"]
        assert all(structure.observer is observers["leakage"]
                   for structure in _hook_slots(machine))
        assert _reports(observers) == alone_reports, order
        assert observers["tracer"].total_cycles() \
            == alone["tracer"].total_cycles()


def test_probe_cell_leaks_so_the_leakage_report_is_not_vacuous():
    leakage = LeakageTracer()
    _, (speculated, leaked) = _run(_table9_cell, [leakage])
    assert speculated and leaked
    assert leakage.total_events() > 0


def test_nested_scopes_compose_and_an_inner_observer_replaces_its_type():
    tracer, outer, inner = SpanTracer(), CycleLedger(), CycleLedger()
    with use_observers(tracer, outer):
        with use_observers(inner):
            machine = Machine(get_cpu(CPU))
        assert current_observers() == (tracer, outer)
    assert current_observers() == ()
    assert machine.observers == (tracer, inner)
    assert machine.obs is tracer and machine.ledger is inner
    assert machine.hooks is None  # neither forces interpretation


def test_a_second_leakage_tracer_is_refused():
    first = LeakageTracer()
    with use_observers(first):
        machine = Machine(get_cpu(CPU))
    with pytest.raises(ValueError, match="already has a leakage tracer"):
        machine.attach(LeakageTracer())
    assert machine.hooks is first
    assert machine.observers == (first,)
    assert all(structure.observer is first
               for structure in _hook_slots(machine))


def test_ledger_attached_mid_run_accounts_from_the_attach():
    """A ledger attached to a warm machine files every later cycle, even
    where the block engine replays segments recorded before it came."""
    cpu = get_cpu(CPU)
    warm = Kernel(Machine(cpu), linux_default(cpu))
    reference = Kernel(Machine(cpu), linux_default(cpu))
    for _ in range(8):
        warm.syscall(GETPID)
        reference.syscall(GETPID)
    ledger = CycleLedger()
    warm.machine.attach(ledger)
    cycles = warm.syscall(GETPID)
    assert cycles == reference.syscall(GETPID)
    assert warm.machine.read_tsc() == reference.machine.read_tsc()
    assert ledger.verify() == cycles
    assert ledger.paths()["kernel.exit/mds/verw"] > 0
