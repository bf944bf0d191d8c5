"""Differential harness: oracles, promises, campaign determinism."""

import pytest

from repro.core.probe import (
    POLICY_DEFAULT,
    POLICY_IBRS,
    POLICY_OFF,
    SCENARIOS,
)
from repro.cpu import get_cpu
from repro.fuzz import (
    CampaignResult,
    FuzzConfig,
    blocked_promise,
    cell_supported,
    check_cell,
    fuzz_campaign,
    generate_corpus,
    generate_program,
    parity_fault,
    parse_program,
)


def _scenario(label):
    for scenario in SCENARIOS:
        if scenario.label == label:
            return scenario
    raise AssertionError(label)


def test_small_campaign_is_clean():
    config = FuzzConfig(seed=1, programs=3,
                        cpu_keys=("broadwell", "zen3"))
    result = fuzz_campaign(config)
    assert result.cells == 3 * 2 * 3
    assert result.skipped == 0
    assert result.violations == []


def test_unsupported_policy_cells_are_skipped():
    # zen has neither IBRS nor eIBRS: its POLICY_IBRS column is the
    # Table 10 N/A row, not a fuzzed cell.
    assert not cell_supported(get_cpu("zen"), POLICY_IBRS)
    assert cell_supported(get_cpu("zen"), POLICY_OFF)
    config = FuzzConfig(seed=2, programs=2, cpu_keys=("zen",))
    result = fuzz_campaign(config)
    assert result.skipped == 2
    assert result.cells == 2 * 2


def test_parallel_verdicts_match_serial():
    serial = fuzz_campaign(FuzzConfig(seed=3, programs=4,
                                      cpu_keys=("broadwell", "zen3"),
                                      jobs=1))
    parallel = fuzz_campaign(FuzzConfig(seed=3, programs=4,
                                        cpu_keys=("broadwell", "zen3"),
                                        jobs=4))
    assert serial.verdict_map() == parallel.verdict_map()
    assert [p.to_text() for p in serial.programs] \
        == [p.to_text() for p in parallel.programs]


def test_corpus_is_seed_deterministic():
    a = generate_corpus(FuzzConfig(seed=9, programs=5))
    b = generate_corpus(FuzzConfig(seed=9, programs=5))
    assert [p.to_text() for p in a] == [p.to_text() for p in b]
    c = generate_corpus(FuzzConfig(seed=10, programs=5))
    assert [p.to_text() for p in a] != [p.to_text() for p in c]


def test_clean_cell_has_no_violations():
    program = generate_program(11)
    violations = check_cell(program, get_cpu("cascade_lake"),
                            POLICY_DEFAULT, base_seed=1)
    assert violations == []


def test_parity_fault_is_caught():
    """The test-only fault hook must surface as an engine_parity
    violation — the harness's own end-to-end sanity check."""
    config = FuzzConfig(seed=3, programs=6, cpu_keys=("broadwell",),
                        policies=(POLICY_OFF,))
    with parity_fault("verw"):
        result = fuzz_campaign(config)
    assert result.violations
    assert all(v.oracle == "engine_parity" for v in result.violations)
    assert all("tsc" in v.detail for v in result.violations)


def test_a_program_parsed_once_checks_like_a_fresh_parse():
    """Cells of one program share a parse and its materialized streams;
    their verdicts must equal those of a fresh parse per cell."""
    text = generate_corpus(FuzzConfig(seed=1, programs=4))[3].to_text()
    shared = parse_program(text)
    cells = [(key, policy) for key in ("broadwell", "cascade_lake", "zen3")
             for policy in (POLICY_DEFAULT, POLICY_OFF, POLICY_IBRS)]
    with parity_fault("verw"):
        for key, policy in cells:
            cpu = get_cpu(key)
            reused = check_cell(shared, cpu, policy, base_seed=1)
            fresh = check_cell(parse_program(text), cpu, policy,
                               base_seed=1)
            assert reused == fresh, (key, policy)
            assert reused, (key, policy)


def test_parity_fault_travels_to_workers():
    config = FuzzConfig(seed=3, programs=6, cpu_keys=("broadwell",),
                        policies=(POLICY_OFF,), jobs=4)
    with parity_fault("verw"):
        parallel = fuzz_campaign(config)
    with parity_fault("verw"):
        serial = fuzz_campaign(FuzzConfig(seed=3, programs=6,
                                          cpu_keys=("broadwell",),
                                          policies=(POLICY_OFF,)))
    assert parallel.verdict_map() == serial.verdict_map()
    assert parallel.violations


class TestBlockedPromise:
    """Spot-checks of the Table 9/10 shape the leakage oracle enforces."""

    def test_retpoline_always_promises(self):
        scenario = _scenario(SCENARIOS[0].label)
        for key in ("broadwell", "zen3", "cascade_lake"):
            promises = blocked_promise(get_cpu(key), POLICY_OFF, scenario,
                                       retpoline=True)
            assert "spectre_v2/retpoline" in promises

    def test_classic_ibrs_blocks_all_prediction(self):
        for scenario in SCENARIOS:
            promises = blocked_promise(get_cpu("broadwell"), POLICY_IBRS,
                                       scenario, retpoline=False)
            assert "spectre_v2/ibrs_no_predict" in promises

    def test_off_policy_promises_nothing_on_broadwell(self):
        for scenario in SCENARIOS:
            assert blocked_promise(get_cpu("broadwell"), POLICY_OFF,
                                   scenario, retpoline=False) == ()

    def test_zen3_opaque_index_is_unconditional(self):
        for policy in (POLICY_OFF, POLICY_DEFAULT, POLICY_IBRS):
            for scenario in SCENARIOS:
                promises = blocked_promise(get_cpu("zen3"), policy,
                                           scenario, retpoline=False)
                assert "hardware/btb_isolation" in promises

    def test_eibrs_mode_tags_block_cross_mode_only(self):
        cpu = get_cpu("cascade_lake")
        for scenario in SCENARIOS:
            promises = blocked_promise(cpu, POLICY_OFF, scenario,
                                       retpoline=False)
            cross = scenario.train_mode is not scenario.victim_mode
            assert ("hardware/btb_isolation" in promises) == cross


def test_telemetry_is_numeric_and_complete():
    config = FuzzConfig(seed=4, programs=2, cpu_keys=("zen2",))
    result = fuzz_campaign(config)
    fuzz = result.telemetry()["fuzz"]
    assert set(fuzz) == {"seed", "programs", "cells", "skipped",
                         "violations"}
    assert all(isinstance(v, int) for v in fuzz.values())


def test_campaign_result_verdict_map_keys():
    config = FuzzConfig(seed=5, programs=1, cpu_keys=("skylake_client",))
    result = fuzz_campaign(config)
    assert isinstance(result, CampaignResult)
    name = result.programs[0].name
    assert set(result.verdict_map()) == {
        f"{name}/skylake_client/{policy}" for policy in config.policies}


# --------------------------------------------------------------------------- #
# Structured problems
# --------------------------------------------------------------------------- #

def _faulted_campaign():
    config = FuzzConfig(seed=3, programs=6, cpu_keys=("broadwell",),
                        policies=(POLICY_OFF,))
    with parity_fault("verw"):
        return fuzz_campaign(config)


def test_parity_violation_carries_structured_problems():
    result = _faulted_campaign()
    assert result.violations
    for violation in result.violations:
        kinds = [p["kind"] for p in violation.problems]
        assert "tsc" in kinds
        assert "injected_fault" in kinds
        assert all("detail" in p for p in violation.problems)
        # detail stays the rendered join of the structured problems.
        assert violation.detail == "; ".join(
            p["detail"] for p in violation.problems)
        payload = violation.to_dict()
        assert payload["problems"] == list(violation.problems)


def test_campaign_progress_callback_reports_each_cell():
    def run(jobs):
        seen = []
        config = FuzzConfig(seed=1, programs=2,
                            cpu_keys=("broadwell", "zen3"), jobs=jobs)
        fuzz_campaign(config, progress=lambda done, total:
                      seen.append((done, total)))
        return seen, config

    for jobs in (1, 2):
        seen, config = run(jobs)
        total = 2 * 2 * len(config.policies)
        assert [done for done, _ in seen] == list(range(1, total + 1))
        assert all(t == total for _, t in seen)
