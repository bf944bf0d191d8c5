"""Cycle-attribution ledger: taxonomy, invariant, merge, integration."""

import pytest

from repro.core.executor import StudyExecutor
from repro.core.study import Settings, figure2
from repro.cpu import Machine, get_cpu
from repro.cpu import isa
from repro.errors import LedgerInvariantError
from repro.jsengine import octane
from repro.kernel import HandlerProfile, Kernel
from repro.mitigations import MitigationConfig
from repro.mitigations.policy import linux_default
from repro.obs.ledger import (
    BASE,
    OTHER,
    CycleLedger,
    join_path,
    ledger_scope,
    split_path,
)
from repro.obs.observers import current_observers, use_observers


# ---------------------------------------------------------------------- #
# Unit: charging, tags, layers, splits
# ---------------------------------------------------------------------- #

def test_untagged_charge_lands_in_cpu_base_other():
    ledger = CycleLedger()
    ledger.charge(7)
    assert ledger.paths() == {"cpu/base/other": 7}


def test_tagged_charge_and_clear():
    ledger = CycleLedger()
    ledger.set_tag("pti", "mov_cr3")
    ledger.charge(10)
    ledger.clear_tag()
    ledger.charge(3)
    assert ledger.paths() == {"cpu/pti/mov_cr3": 10, "cpu/base/other": 3}


def test_layer_scopes_nest_and_restore():
    ledger = CycleLedger()
    with ledger.layer("kernel.entry"):
        ledger.charge(4)
        with ledger.layer("jsengine"):
            ledger.charge(5)
        assert ledger.current_layer == "kernel.entry"
    ledger.charge(1)
    assert ledger.paths() == {
        "kernel.entry/base/other": 4,
        "jsengine/base/other": 5,
        "cpu/base/other": 1,
    }


def test_pop_past_root_raises():
    with pytest.raises(LedgerInvariantError):
        CycleLedger().pop_layer()


def test_split_redirects_part_of_the_next_charge():
    ledger = CycleLedger()
    ledger.add_split(6, "ssbd", "stlf_block")
    ledger.charge(10)
    assert ledger.paths() == {"cpu/ssbd/stlf_block": 6, "cpu/base/other": 4}


def test_split_is_capped_to_the_charged_amount():
    ledger = CycleLedger()
    ledger.add_split(100, "ssbd", "stlf_block")
    ledger.charge(10)
    assert ledger.paths() == {"cpu/ssbd/stlf_block": 10}
    # Consumed: the next charge is unaffected.
    ledger.charge(5)
    assert ledger.paths()["cpu/base/other"] == 5


def test_rollups_and_mitigation_cycles():
    ledger = CycleLedger()
    with ledger.layer("kernel.entry"):
        ledger.set_tag("pti", "mov_cr3")
        ledger.charge(10)
        ledger.clear_tag()
        ledger.charge(2)
    ledger.charge(3)
    assert ledger.rollup("layer") == {"kernel.entry": 12, "cpu": 3}
    assert ledger.rollup("mitigation") == {"pti": 10, BASE: 5}
    assert ledger.rollup("primitive") == {"mov_cr3": 10, OTHER: 5}
    assert ledger.mitigation_cycles() == {"pti": 10}
    with pytest.raises(ValueError):
        ledger.rollup("nonsense")


def test_path_join_split_round_trip():
    key = ("kernel.entry", "pti", "mov_cr3")
    assert split_path(join_path(*key)) == key
    with pytest.raises(LedgerInvariantError):
        split_path("only/two")


# ---------------------------------------------------------------------- #
# Unit: invariant and merge
# ---------------------------------------------------------------------- #

def test_verify_passes_when_all_charges_route_through_counters():
    ledger = CycleLedger()
    machine = Machine(get_cpu("broadwell"))
    machine.attach(ledger)
    counters = machine.counters
    counters.add_cycles(25)
    counters.add_cycles(17)
    assert ledger.verify() == 42


def test_verify_catches_a_bypassing_charge_site():
    ledger = CycleLedger()
    machine = Machine(get_cpu("broadwell"))
    machine.attach(ledger)
    counters = machine.counters
    counters.add_cycles(10)
    counters.tsc += 3  # a charge site that dodged add_cycles
    with pytest.raises(LedgerInvariantError):
        ledger.verify()


def test_merge_state_folds_workers_and_keeps_the_invariant():
    worker = CycleLedger()
    worker.set_tag("pti", "mov_cr3")
    worker.charge(10)
    worker.clear_tag()
    worker._merged_expected = 0
    state = worker.state()
    state["expected"] = 10  # as a worker with an attached machine reports

    parent = CycleLedger()
    parent.charge(5)
    parent.merge_state(state)
    assert parent.paths() == {"cpu/base/other": 5, "cpu/pti/mov_cr3": 10}
    # Parent has no attached counters for its own 5 cycles, so expected
    # covers only the merged worker; drop the local charge to verify.
    merged_only = CycleLedger()
    merged_only.merge_state(state)
    assert merged_only.verify() == 10


def test_renderers_mention_totals_and_paths():
    ledger = CycleLedger()
    ledger.set_tag("mds", "verw")
    ledger.charge(9)
    tree = ledger.render_tree()
    table = ledger.render_markdown()
    assert "9" in tree and "mds/verw" in tree
    assert "| cpu | mds | verw | 9 |" in table
    assert "100.00%" in table


def test_ambient_ledger_install_and_restore():
    assert current_observers() == ()
    ledger = CycleLedger()
    with use_observers(ledger):
        assert current_observers() == (ledger,)
        inner = CycleLedger()
        with use_observers(inner):  # an inner ledger replaces the outer
            assert current_observers() == (inner,)
        assert current_observers() == (ledger,)
    assert current_observers() == ()


def test_ledger_scope_is_free_without_a_ledger():
    with ledger_scope(None, "kernel.entry"):
        pass  # no-op scope: nothing to assert beyond not crashing
    ledger = CycleLedger()
    with ledger_scope(ledger, "kernel.entry"):
        ledger.charge(1)
    assert ledger.paths() == {"kernel.entry/base/other": 1}


# ---------------------------------------------------------------------- #
# Integration: machines, kernel, JS engine
# ---------------------------------------------------------------------- #

SYSCALL = HandlerProfile("test_call", work_cycles=400, loads=6, stores=4,
                         indirect_branches=2)


def test_machine_adopts_ambient_ledger_and_sums_to_tsc(broadwell):
    ledger = CycleLedger()
    with use_observers(ledger):
        machine = Machine(broadwell, seed=0)
        machine.run([isa.work(100), isa.load(0x1000), isa.store(0x2000)])
    assert ledger.verify() == machine.read_tsc()


def test_kernel_syscall_files_pti_under_entry_and_exit(broadwell):
    """The acceptance path: KPTI's CR3 swaps must appear as
    kernel.entry/pti/mov_cr3 and kernel.exit/pti/mov_cr3 on a
    Meltdown-vulnerable part running the Linux default config."""
    config = linux_default(broadwell)
    assert config.pti, "broadwell's default config must enable KPTI"
    ledger = CycleLedger()
    with use_observers(ledger):
        machine = Machine(broadwell, seed=0)
        kernel = Kernel(machine, config)
        kernel.syscall(SYSCALL)
    paths = ledger.paths()
    assert paths.get("kernel.entry/pti/mov_cr3", 0) > 0
    assert paths.get("kernel.exit/pti/mov_cr3", 0) > 0
    assert ledger.verify() == machine.read_tsc()


def test_untagged_syscall_work_lands_in_handler_base(broadwell):
    ledger = CycleLedger()
    with use_observers(ledger):
        machine = Machine(broadwell, seed=0)
        kernel = Kernel(machine, linux_default(broadwell))
        kernel.syscall(SYSCALL)
    assert ledger.paths().get("kernel.handler/base/work", 0) > 0


def test_js_hardening_is_attributed_to_spectre_v1_primitives(broadwell):
    config = MitigationConfig(js_index_masking=True, js_object_guards=True,
                              js_other=True)
    ledger = CycleLedger()
    with use_observers(ledger):
        machine = Machine(broadwell, seed=0)
        runner = octane.OctaneRunner(machine, config)
        runner.measure(octane.get_workload("richards"), iterations=3,
                       warmup=1)
    paths = ledger.paths()
    assert paths.get("jsengine/spectre_v1/index_mask", 0) > 0
    assert paths.get("jsengine/spectre_v1/object_guard", 0) > 0
    assert paths.get("jsengine/spectre_v1/pointer_poison", 0) > 0
    assert ledger.verify() == machine.read_tsc()


def test_ledger_off_by_default_and_harmless(broadwell):
    machine = Machine(broadwell, seed=0)
    assert machine.ledger is None
    machine.run([isa.work(10)])  # no ledger: plain TSC accounting
    assert machine.read_tsc() > 0


# ---------------------------------------------------------------------- #
# Integration: study executor, serial vs parallel
# ---------------------------------------------------------------------- #

def _figure2_ledger(jobs: int):
    ledger = CycleLedger()
    with use_observers(ledger):
        results = figure2([get_cpu("broadwell")], Settings.fast(),
                          executor=StudyExecutor(jobs=jobs, cache_dir=None))
    assert results
    return ledger


def test_study_cells_keep_the_invariant_serial_and_parallel():
    """Acceptance: the invariant holds for every study cell on the serial
    path and under ``--jobs N``, and the merged attribution matches."""
    serial = _figure2_ledger(jobs=1)
    serial.verify()
    parallel = _figure2_ledger(jobs=2)
    parallel.verify()
    assert serial.paths() == parallel.paths()
    assert serial.total() == parallel.total() > 0
