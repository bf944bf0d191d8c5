"""Microbenchmarks recover the paper's Tables 3-8 through the timed-loop
measurement pipeline (not by reading the calibration back)."""

import pytest

from repro.cpu import Machine, all_cpus, get_cpu
from repro.core import microbench as mb
from repro.errors import UnsupportedFeatureError

from ..paper.claims import (CLAIMS, TABLE3, TABLE4, TABLE5, TABLE6, TABLE7,
                            TABLE8, paper)

ITER = 300


@pytest.mark.parametrize("key,syscall,sysret,cr3", [
    (key, *TABLE3[key]) for key in ("broadwell", "skylake_client", "zen3")])
def test_table3_measurements(key, syscall, sysret, cr3):
    row = mb.table3_row(get_cpu(key), iterations=ITER)
    assert row.syscall == pytest.approx(syscall, abs=1)
    assert row.sysret == pytest.approx(sysret, abs=1)
    if cr3 is None:
        assert row.swap_cr3 is None
    else:
        assert row.swap_cr3 == pytest.approx(cr3, abs=2)


def test_table4_measurements():
    assert mb.table4_value(get_cpu("cascade_lake"), ITER) == \
        pytest.approx(TABLE4["cascade_lake"], abs=1)
    assert mb.table4_value(get_cpu("zen2"), ITER) is None


@pytest.mark.parametrize("key,base,ibrs,generic,amd", [
    (key, *TABLE5[key]) for key in ("broadwell", "cascade_lake", "zen", "zen2")])
def test_table5_measurements(key, base, ibrs, generic, amd):
    row = mb.table5_row(get_cpu(key), iterations=ITER)
    assert row.baseline == pytest.approx(base, abs=1)
    if ibrs is None:
        assert row.ibrs_extra is None
    else:
        assert row.ibrs_extra == pytest.approx(ibrs, abs=1)
    assert row.generic_extra == pytest.approx(generic, abs=1)
    if amd is None:
        assert row.amd_extra is None
    else:
        assert row.amd_extra == pytest.approx(amd, abs=1)


def test_table6_measurements():
    for key in ("zen", "cascade_lake"):
        assert mb.table6_value(get_cpu(key), 50) == \
            pytest.approx(TABLE6[key], abs=5)


def test_table7_measurements():
    assert mb.table7_value(get_cpu("ice_lake_client"), ITER) == \
        pytest.approx(TABLE7["ice_lake_client"], abs=1)


def test_table8_measurements():
    for key in ("zen2", "zen"):
        assert mb.table8_value(get_cpu(key), ITER) == \
            pytest.approx(TABLE8[key], abs=1)


def test_indirect_branch_rejects_bogus_variant():
    with pytest.raises(ValueError):
        mb.measure_indirect_branch(Machine(get_cpu("zen")), "turbo")


def test_ibrs_measurement_rejected_on_zen():
    with pytest.raises(UnsupportedFeatureError):
        mb.measure_indirect_branch(Machine(get_cpu("zen")), "ibrs")


def test_ibpb_improvement_trend_matches_paper():
    """Table 6's headline: IBPB got enormously cheaper over generations."""
    values = {cpu.key: mb.table6_value(cpu, 30) for cpu in all_cpus()}
    assert values["broadwell"] > 10 * values["cascade_lake"]
    assert values["zen"] > 5 * values["zen3"]


class TestBimodalEntries:
    """Section 6.2.2: eIBRS kernel entries are bimodal."""

    def test_two_modes_with_eibrs(self):
        lat = mb.kernel_entry_latencies(get_cpu("cascade_lake"),
                                        entries=300, eibrs=True)
        values = sorted(set(lat))
        assert len(values) == paper("s6.2.2/cascade_lake/modes")
        # the extra scrub cost
        assert values[1] - values[0] == paper("s6.2.2/cascade_lake/scrub_extra")

    def test_slow_entry_rate_is_one_in_eight_to_twenty(self):
        lat = mb.kernel_entry_latencies(get_cpu("cascade_lake"),
                                        entries=2000, eibrs=True)
        slow = sum(1 for v in lat if v > min(lat))
        rate = len(lat) / slow
        assert CLAIMS["s6.2.2/cascade_lake/entries_per_slow"].holds(rate)

    def test_unimodal_without_eibrs(self):
        lat = mb.kernel_entry_latencies(get_cpu("cascade_lake"),
                                        entries=300, eibrs=False)
        assert len(set(lat)) == paper("s6.2.2/cascade_lake/modes_eibrs_off")

    def test_rejected_on_non_eibrs_part(self):
        with pytest.raises(UnsupportedFeatureError):
            mb.kernel_entry_latencies(get_cpu("broadwell"), eibrs=True)
