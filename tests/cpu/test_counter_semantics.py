"""Transient-vs-retired counter semantics (the Figure 6 probe contract).

The speculation probe only works because ``ARITH.DIVIDER_ACTIVE`` is a
*occupancy* counter — the divider is busy even on a squashed wrong path —
while ``INST_RETIRED.ANY`` and the TSC only move at retirement.  These
tests pin that asymmetry down explicitly.
"""

from repro.cpu import Machine, get_cpu
from repro.cpu import counters as ctr
from repro.cpu import isa


def snapshot(machine):
    return (machine.read_tsc(),
            machine.counters.read(ctr.INSTRUCTIONS_RETIRED),
            machine.counters.read(ctr.DIVIDER_ACTIVE),
            machine.counters.read(ctr.TRANSIENT_INSTRUCTIONS))


def test_squashed_div_charges_divider_but_retires_nothing(machine):
    tsc0, retired0, divider0, transient0 = snapshot(machine)
    executed = machine.speculate([isa.div()])
    tsc1, retired1, divider1, transient1 = snapshot(machine)
    assert executed == 1
    # Occupancy counter: busy for the full divide latency on the wrong path.
    assert divider1 - divider0 == machine.costs.div
    assert transient1 - transient0 == 1
    # Retirement-gated state: untouched by squashed work.
    assert retired1 == retired0
    assert tsc1 == tsc0


def test_committed_div_charges_both_sides(machine):
    tsc0, retired0, divider0, _ = snapshot(machine)
    machine.execute(isa.div())
    tsc1, retired1, divider1, _ = snapshot(machine)
    assert divider1 - divider0 == machine.costs.div
    assert retired1 - retired0 == 1
    assert tsc1 - tsc0 == machine.costs.div


def test_divider_asymmetry_is_the_probe_signal(every_cpu):
    """Same gadget, both paths, on every catalog part: the divider count
    is identical whether the divide commits or squashes — that is what
    makes the counter a speculation oracle."""
    committed = Machine(every_cpu, seed=0)
    committed.execute(isa.div())
    squashed = Machine(every_cpu, seed=0)
    squashed.speculate([isa.div()])
    assert (committed.counters.read(ctr.DIVIDER_ACTIVE)
            == squashed.counters.read(ctr.DIVIDER_ACTIVE) > 0)
    assert squashed.counters.read(ctr.INSTRUCTIONS_RETIRED) == 0
    assert committed.counters.read(ctr.INSTRUCTIONS_RETIRED) == 1


def test_transient_work_never_reaches_an_attached_ledger(machine):
    """Squashed cycles are not wall-clock cycles: the ledger (fed only by
    ``add_cycles``) must not see them, or the sum-to-TSC invariant breaks."""
    from repro.obs.ledger import CycleLedger
    ledger = CycleLedger()
    machine.attach(ledger)
    machine.speculate([isa.div(), isa.load(0x7A00_0000)])
    assert ledger.total() == 0
    assert ledger.verify() == machine.read_tsc()


def test_lfence_squashes_the_divider_signal_too(machine):
    executed = machine.speculate([isa.lfence(), isa.div()])
    assert executed == 0
    assert machine.counters.read(ctr.DIVIDER_ACTIVE) == 0
    assert machine.counters.read(ctr.INSTRUCTIONS_RETIRED) == 0
