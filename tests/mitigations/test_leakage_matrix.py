"""Default-policy leakage matrix: taint-oracle agreement and Table 1 join.

Three layers of evidence that the leakage oracle is trustworthy:

* **oracle agreement** — on every Table 9/10 cell (all 8 CPUs, IBRS off
  and on) the taint tracer's ``leaked`` verdict equals the divider
  counter's ``speculated`` signal; the two detect the same physics
  through independent mechanisms;
* **default-policy matrix** — under each part's Linux-default Spectre V2
  strategy, the blocked/leaked cells match the paper's section 6 story
  (retpolines close everything; eIBRS parts keep same-mode training
  alive) with mechanistic blocked-by attribution;
* **Table 1 re-derivation** — the verdicts' blocked-by strings recover
  which V2 row of Table 1 is checked for each CPU, so the probe grid and
  the policy table cannot drift apart silently.
"""

import pytest

from repro.core.probe import (
    POLICY_DEFAULT,
    POLICY_IBRS,
    POLICY_OFF,
    SCENARIOS,
    leakage_report,
)
from repro.cpu import all_cpus, get_cpu
from repro.mitigations.base import V2Strategy
from repro.mitigations.policy import default_v2_strategy, table1_cell

CPU_KEYS = [cpu.key for cpu in all_cpus()]

#: Parts whose Linux default is a retpoline (every cell blocked by it).
RETPOLINE_PARTS = {"broadwell", "skylake_client", "zen", "zen2", "zen3"}
#: eIBRS parts where mode tags filter cross-mode training only.
MODE_TAG_PARTS = {"cascade_lake", "ice_lake_server"}
#: eIBRS part that additionally refuses prediction in kernel mode.
NO_PREDICT_PARTS = {"ice_lake_client"}


def _victim_is_kernel(scenario):
    return scenario.victim_mode.is_kernel


def _row(cpu, policy):
    """One CPU's probe-grid verdicts by scenario, or None for Table 10's
    N/A row."""
    row = leakage_report((cpu,), policy)["matrix"][cpu.key]
    return None if row is None else {s: row[s.label] for s in SCENARIOS}


# --------------------------------------------------------------------------- #
# Oracle agreement on the paper's own grids
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("ibrs", [False, True])
@pytest.mark.parametrize("key", CPU_KEYS)
def test_oracle_agrees_with_divider_signal(key, ibrs):
    cpu = get_cpu(key)
    row = _row(cpu, POLICY_IBRS if ibrs else POLICY_OFF)
    if row is None:
        assert ibrs and not (cpu.predictor.supports_ibrs
                             or cpu.predictor.supports_eibrs)
        return
    for scenario in SCENARIOS:
        verdict = row[scenario]
        assert verdict["leaked"] == verdict["speculated"], scenario.label


# --------------------------------------------------------------------------- #
# The default-policy blocked/leaked matrix (section 6 story)
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("key", CPU_KEYS)
def test_default_policy_matrix_shape(key):
    cpu = get_cpu(key)
    row = _row(cpu, POLICY_DEFAULT)
    assert row is not None
    for scenario in SCENARIOS:
        verdict = row[scenario]
        if key in RETPOLINE_PARTS:
            assert not verdict["leaked"], scenario.label
            assert "spectre_v2/retpoline" in verdict["blocked_by"]
        elif key in MODE_TAG_PARTS:
            # Mode tags only filter user-trained -> kernel-victim cells;
            # same-mode training rides straight through eIBRS.
            crosses = scenario.train_mode is not scenario.victim_mode
            if crosses:
                assert not verdict["leaked"], scenario.label
                assert "hardware/btb_isolation" in verdict["blocked_by"]
            else:
                assert verdict["leaked"], scenario.label
                assert verdict["events"] > 0
        elif key in NO_PREDICT_PARTS:
            if _victim_is_kernel(scenario):
                assert not verdict["leaked"], scenario.label
                assert "spectre_v2/ibrs_no_predict" in verdict["blocked_by"]
            else:
                assert verdict["leaked"], scenario.label
        else:  # pragma: no cover - a new CPU model needs a matrix entry
            pytest.fail(f"no expected matrix row for {key}")


def test_policy_off_leaks_everywhere_vulnerable():
    cpu = get_cpu("broadwell")
    row = _row(cpu, POLICY_OFF)
    for scenario in SCENARIOS:
        assert row[scenario]["leaked"], scenario.label


def test_ibrs_policy_matches_table10_semantics():
    row = _row(get_cpu("zen"), POLICY_IBRS)
    assert row is None  # no IBRS on Zen 1 - Table 10's N/A row
    # Legacy IBRS on Skylake closes every cell (Table 10 row: all blank).
    row = _row(get_cpu("skylake_client"), POLICY_IBRS)
    assert not any(row[s]["leaked"] for s in SCENARIOS)
    # eIBRS on Cascade Lake only filters cross-mode training (Table 10).
    row = _row(get_cpu("cascade_lake"), POLICY_IBRS)
    leaked = tuple(row[s]["leaked"] for s in SCENARIOS)
    assert leaked == (False, True, True, True, True)


# --------------------------------------------------------------------------- #
# Re-derive Table 1's Spectre V2 rows from the structured verdicts
# --------------------------------------------------------------------------- #

def _derived_v2_mitigation(cpu):
    """Which V2 mechanism the verdicts say defended this part."""
    row = _row(cpu, POLICY_DEFAULT)
    blocked = set()
    for verdict in row.values():
        blocked.update(verdict["blocked_by"])
    if "spectre_v2/retpoline" in blocked:
        return "retpoline"
    if blocked or any(not v["leaked"] for v in row.values()):
        return "eibrs"
    return "none"


@pytest.mark.parametrize("key", CPU_KEYS)
def test_table1_v2_rows_rederive_from_verdicts(key):
    cpu = get_cpu(key)
    derived = _derived_v2_mitigation(cpu)
    generic = table1_cell(cpu, "Spectre V2", "Generic Retpoline")
    amd = table1_cell(cpu, "Spectre V2", "AMD Retpoline")
    eibrs = table1_cell(cpu, "Spectre V2", "Enhanced IBRS")
    if derived == "retpoline":
        assert (generic == "yes") or (amd == "yes")
        assert eibrs == ""
        # ...and the probe ran the flavour the policy table says.
        strategy = default_v2_strategy(cpu)
        assert strategy in (V2Strategy.RETPOLINE_GENERIC,
                            V2Strategy.RETPOLINE_AMD)
        assert (strategy is V2Strategy.RETPOLINE_AMD) == (amd == "yes")
    elif derived == "eibrs":
        assert eibrs == "yes"
        assert generic == "" and amd == ""
        assert default_v2_strategy(cpu) is V2Strategy.EIBRS
    else:  # pragma: no cover - every modelled part mitigates v2
        pytest.fail(f"{key}: no v2 defence derived from the verdicts")
