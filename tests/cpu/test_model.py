"""CPU catalog: Table 2 identity data and calibration invariants."""

import pytest

from repro.cpu import CATALOG, CPU_ORDER, all_cpus, get_cpu
from repro.cpu import msr as msrdef
from repro.errors import UnknownCPUError

from ..paper.claims import (TABLE2, TABLE3, TABLE4, TABLE5, TABLE6, TABLE7,
                            TABLE8)


def test_catalog_has_eight_cpus():
    assert len(CATALOG) == 8
    assert len(CPU_ORDER) == 8


def test_order_is_intel_then_amd_oldest_first():
    cpus = all_cpus()
    vendors = [c.vendor for c in cpus]
    assert vendors == ["Intel"] * 5 + ["AMD"] * 3
    intel_years = [c.year for c in cpus[:5]]
    amd_years = [c.year for c in cpus[5:]]
    assert intel_years == sorted(intel_years)
    assert amd_years == sorted(amd_years)


def test_get_cpu_unknown_raises():
    with pytest.raises(UnknownCPUError):
        get_cpu("pentium3")


@pytest.mark.parametrize("key,model,power,clock,cores", [
    (key, model, power, clock, cores)
    for key, (_, model, _, _, power, clock, cores) in TABLE2.items()])
def test_table2_identity(key, model, power, clock, cores):
    cpu = get_cpu(key)
    assert cpu.model == model
    assert cpu.power_watts == power
    assert cpu.clock_ghz == pytest.approx(clock)
    assert cpu.cores == cores


def test_only_ryzen3_lacks_smt():
    for cpu in all_cpus():
        assert cpu.smt == (cpu.key != "zen")


def test_threads_property():
    assert get_cpu("zen").threads == 4
    assert get_cpu("zen2").threads == 64


def test_meltdown_only_on_old_intel():
    vulnerable = {c.key for c in all_cpus() if c.vulns.meltdown}
    assert vulnerable == {"broadwell", "skylake_client"}


def test_l1tf_matches_meltdown_set():
    assert {c.key for c in all_cpus() if c.vulns.l1tf} == \
        {"broadwell", "skylake_client"}


def test_mds_on_old_intel_including_cascade_lake():
    vulnerable = {c.key for c in all_cpus() if c.vulns.mds}
    assert vulnerable == {"broadwell", "skylake_client", "cascade_lake"}


def test_every_cpu_vulnerable_to_ssb_and_spectre(every_cpu):
    # Paper: no CPU sets SSB_NO; V1/V2 apply everywhere.
    assert every_cpu.vulns.ssb
    assert every_cpu.vulns.spectre_v1
    assert every_cpu.vulns.spectre_v2


def test_arch_capabilities_bits(every_cpu):
    caps = every_cpu.arch_capabilities
    assert bool(caps & msrdef.ARCH_CAP_RDCL_NO) == (not every_cpu.vulns.meltdown)
    assert bool(caps & msrdef.ARCH_CAP_MDS_NO) == (not every_cpu.vulns.mds)
    assert bool(caps & msrdef.ARCH_CAP_IBRS_ALL) == \
        every_cpu.predictor.supports_eibrs
    # No shipping CPU advertises SSB immunity (paper section 4.3).
    assert not caps & msrdef.ARCH_CAP_SSB_NO


def test_eibrs_only_on_cascade_and_ice_lake():
    eibrs = {c.key for c in all_cpus() if c.predictor.supports_eibrs}
    assert eibrs == {"cascade_lake", "ice_lake_client", "ice_lake_server"}


def test_zen_has_no_ibrs_support():
    assert not get_cpu("zen").predictor.supports_ibrs


def test_zen3_btb_is_opaque_only_there():
    opaque = {c.key for c in all_cpus() if c.predictor.btb_opaque_index}
    assert opaque == {"zen3"}


@pytest.mark.parametrize("key,syscall,sysret", [
    (key, *row[:2]) for key, row in TABLE3.items()])
def test_table3_calibration(key, syscall, sysret):
    costs = get_cpu(key).costs
    assert costs.syscall == syscall
    assert costs.sysret == sysret


@pytest.mark.parametrize("key,verw", [
    (key, verw) for key, verw in TABLE4.items() if verw is not None])
def test_table4_calibration(key, verw):
    assert get_cpu(key).costs.verw_clear == verw


def test_table4_na_on_immune_parts():
    for key, verw in TABLE4.items():
        if verw is None:
            assert get_cpu(key).costs.verw_clear is None


@pytest.mark.parametrize("key,base,ibrs,generic,amd", [
    (key, *row) for key, row in TABLE5.items()])
def test_table5_calibration(key, base, ibrs, generic, amd):
    costs = get_cpu(key).costs
    assert costs.indirect_base == base
    assert costs.ibrs_extra == ibrs
    assert costs.generic_retpoline_extra == generic
    assert costs.amd_retpoline_extra == amd


@pytest.mark.parametrize("key,ibpb", TABLE6.items())
def test_table6_calibration(key, ibpb):
    assert get_cpu(key).costs.ibpb == ibpb


@pytest.mark.parametrize("key,rsb", TABLE7.items())
def test_table7_calibration(key, rsb):
    assert get_cpu(key).costs.rsb_fill == rsb


@pytest.mark.parametrize("key,lfence", TABLE8.items())
def test_table8_calibration(key, lfence):
    assert get_cpu(key).costs.lfence == lfence


def test_ssbd_penalty_trends_worse_on_newer_parts():
    """The Figure 5 driver: newer generations pay more under SSBD."""
    intel = [get_cpu(k).ssbd_load_penalty for k in
             ("broadwell", "skylake_client", "cascade_lake",
              "ice_lake_client", "ice_lake_server")]
    assert intel == sorted(intel)
    amd = [get_cpu(k).ssbd_load_penalty for k in ("zen", "zen2", "zen3")]
    assert amd == sorted(amd)
    assert get_cpu("zen3").ssbd_load_penalty == max(
        c.ssbd_load_penalty for c in all_cpus())


def test_effective_verw_selects_clear_or_legacy():
    broadwell = get_cpu("broadwell").costs
    assert broadwell.effective_verw(True) == TABLE4["broadwell"]
    assert broadwell.effective_verw(True, microcode_patched=False) == \
        broadwell.verw_legacy
    zen3 = get_cpu("zen3").costs
    assert zen3.effective_verw(False) == zen3.verw_legacy
