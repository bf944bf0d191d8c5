"""Linux default policy: the paper's Table 1, cell by cell."""

import pytest

from repro.cpu import CPU_ORDER, all_cpus, get_cpu
from repro.mitigations.base import SSBDMode, V2Strategy
from repro.mitigations.policy import (
    TABLE1_ROWS,
    default_v2_strategy,
    linux_default,
    table1_cell,
    table1_matrix,
)

from ..paper.claims import TABLE1


def _normalize(cell):
    return {"yes": "x", "": "", "!": "!"}[cell]


def test_table1_matches_paper_exactly():
    matrix = table1_matrix()
    assert set(matrix) == set(TABLE1)
    for row, cells in matrix.items():
        assert [_normalize(c) for c in cells] == TABLE1[row], row


def test_table1_rows_in_paper_order():
    assert TABLE1_ROWS == tuple(TABLE1)


def test_v2_strategy_eibrs_when_available():
    assert default_v2_strategy(get_cpu("cascade_lake")) is V2Strategy.EIBRS
    assert default_v2_strategy(get_cpu("ice_lake_server")) is V2Strategy.EIBRS


def test_v2_strategy_generic_retpoline_on_old_intel():
    assert default_v2_strategy(get_cpu("broadwell")) is \
        V2Strategy.RETPOLINE_GENERIC


def test_v2_strategy_amd_retpoline_then_generic_after_5_15():
    """The Linux 5.15.28 switch after Milburn et al. (section 5.3)."""
    zen2 = get_cpu("zen2")
    assert default_v2_strategy(zen2, kernel=(5, 14)) is V2Strategy.RETPOLINE_AMD
    assert default_v2_strategy(zen2, kernel=(5, 15)) is \
        V2Strategy.RETPOLINE_GENERIC


def test_ssbd_seccomp_before_5_16_prctl_after():
    """The Linux 5.16 default change (sections 4.3 and 7)."""
    cpu = get_cpu("broadwell")
    assert linux_default(cpu, kernel=(5, 14)).ssbd_mode is SSBDMode.SECCOMP
    assert linux_default(cpu, kernel=(5, 16)).ssbd_mode is SSBDMode.PRCTL


def test_pti_only_on_meltdown_vulnerable(every_cpu):
    config = linux_default(every_cpu)
    assert config.pti == every_cpu.vulns.meltdown


def test_verw_only_on_mds_vulnerable(every_cpu):
    config = linux_default(every_cpu)
    assert config.mds_verw == every_cpu.vulns.mds


def test_eager_fpu_always_on(every_cpu):
    assert linux_default(every_cpu).eager_fpu


def test_smt_stays_enabled_by_default(every_cpu):
    assert not linux_default(every_cpu).mds_smt_off


def test_default_config_validates_on_its_own_cpu(every_cpu):
    linux_default(every_cpu).validate_for(every_cpu)


def test_firefox_flag_controls_js_switches():
    cpu = get_cpu("zen3")
    assert linux_default(cpu, firefox=True).js_index_masking
    assert not linux_default(cpu, firefox=False).js_index_masking


def test_unknown_table1_row_raises():
    with pytest.raises(KeyError):
        table1_cell(get_cpu("zen"), "Meltdown", "Voodoo")
