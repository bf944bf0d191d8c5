"""CLI: every subcommand runs and emits its artifact."""

import os

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_cpus(capsys):
    out = run_cli(capsys, "cpus")
    assert "E5-2640v4" in out


@pytest.mark.parametrize("n,needle", [
    (1, "Page Table Isolation"),
    (2, "Broadwell"),
    (3, "swap cr3"),
    (4, "verw"),
    (5, "Generic"),
    (6, "IBPB"),
    (7, "RSB"),
    (8, "lfence"),
])
def test_tables(capsys, n, needle):
    out = run_cli(capsys, "table", str(n), "--iterations", "100")
    assert needle in out


def test_table9_and_10(capsys):
    out9 = run_cli(capsys, "table", "9")
    assert "Table 9" in out9
    out10 = run_cli(capsys, "table", "10")
    assert "N/A" in out10  # Zen has no IBRS


def test_unknown_table_exits(capsys):
    with pytest.raises(SystemExit):
        main(["table", "42"])


def test_figure2_fast_subset(capsys):
    out = run_cli(capsys, "figure", "2", "--fast", "--cpus", "zen2")
    assert "zen2" in out and "Figure 2" in out


def test_figure3_fast_subset(capsys):
    out = run_cli(capsys, "figure", "3", "--fast", "--cpus", "zen3")
    assert "Figure 3" in out


def test_figure5_fast_subset(capsys):
    out = run_cli(capsys, "figure", "5", "--fast", "--cpus", "broadwell")
    assert "swaptions" in out


def test_unknown_figure_exits():
    with pytest.raises(SystemExit):
        main(["figure", "4"])


def test_vm_fast(capsys):
    out = run_cli(capsys, "vm", "--fast", "--cpus", "zen")
    assert "LEBench in a VM" in out and "LFS" in out


def test_parsec_fast(capsys):
    out = run_cli(capsys, "parsec", "--fast", "--cpus", "zen")
    assert "PARSEC" in out


def test_bimodal(capsys):
    out = run_cli(capsys, "bimodal", "--cpu", "cascade_lake",
                  "--entries", "100")
    assert "cycles" in out


def test_attacks(capsys):
    out = run_cli(capsys, "attacks", "--cpu", "broadwell")
    assert "Meltdown, KPTI off : leaked byte 66" in out
    assert "Meltdown, KPTI on  : leaked byte None" in out
    assert "MDS, after verw    : sampled {}" in out


def test_attacks_on_immune_part(capsys):
    out = run_cli(capsys, "attacks", "--cpu", "zen3")
    assert "Meltdown, KPTI off : leaked byte None" in out


def test_attacks_includes_extended_battery(capsys):
    out = run_cli(capsys, "attacks", "--cpu", "cascade_lake")
    assert "SpectreRSB raw     : gadget ran = True" in out
    assert "BHI vs eIBRS       : gadget ran = True" in out
    assert "BHI vs retpolines  : gadget ran = False" in out
    assert "SMT V2, STIBP      : injected = False" in out


def test_attacks_skips_smt_section_on_zen(capsys):
    out = run_cli(capsys, "attacks", "--cpu", "zen")
    assert "SMT V2" not in out  # Ryzen 3 1200 has no hyperthreads


def test_sweep_opsize(capsys):
    out = run_cli(capsys, "sweep", "opsize", "--cpu", "broadwell")
    assert "overhead drops below" in out


def test_sweep_ssbd(capsys):
    out = run_cli(capsys, "sweep", "ssbd", "--cpu", "zen3")
    assert "slowdown" in out


def test_export_table9_is_valid_json(capsys):
    import json
    out = run_cli(capsys, "export", "table9", "--cpus", "zen3")
    payload = json.loads(out)
    assert payload["results"]["zen3"]["user->user (direct)"] is False
    assert payload["provenance"]["cpus"] == ["zen3"]


def test_export_figure5_is_valid_json(capsys):
    import json
    out = run_cli(capsys, "export", "figure5", "--fast", "--cpus", "zen")
    payload = json.loads(out)
    assert {entry["workload"] for entry in payload["results"]} == \
        {"swaptions", "facesim", "bodytrack"}
    prov = payload["provenance"]
    assert prov["command"] == "export figure5"
    assert prov["seed"] is not None
    assert "zen" in prov["config"]
    assert prov["version"]


def test_regress_command(capsys, tmp_path):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text('[{"cpu": "zen3", "workload": "swaptions", '
                   '"overhead_percent": 34.0, "significant": true}]')
    new.write_text('[{"cpu": "zen3", "workload": "swaptions", '
                   '"overhead_percent": 20.0, "significant": true}]')
    out = run_cli(capsys, "regress", str(old), str(new))
    assert "zen3/swaptions" in out
    out_same = run_cli(capsys, "regress", str(old), str(old))
    assert "no changes" in out_same


def test_all_writes_artifacts(capsys, tmp_path):
    out = run_cli(capsys, "all", "--fast", "--outdir", str(tmp_path))
    assert "wrote" in out
    assert (tmp_path / "table9.txt").exists()
    assert (tmp_path / "figure2.txt").exists()
    assert (tmp_path / "bimodal.txt").exists()


def test_summary_command(capsys):
    out = run_cli(capsys, "summary")
    assert "Q1:" in out and "Q2:" in out and "Q3:" in out
    assert "IBPB" in out


def test_profile_figure_writes_trace_artifacts(capsys, tmp_path):
    import json
    trace_path = tmp_path / "t.json"
    flame_path = tmp_path / "t.folded"
    metrics_path = tmp_path / "m.json"
    out = run_cli(capsys, "profile", "figure", "2", "--fast",
                  "--cpus", "broadwell",
                  "--trace-out", str(trace_path),
                  "--flame-out", str(flame_path),
                  "--metrics-out", str(metrics_path))
    assert "coverage:" in out and "Figure 2" in out
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)
    names = {e["name"] for e in events}
    assert "study.figure2.broadwell" in names
    assert "kernel.syscall" in names
    # The acceptance bar: >=95% of simulated cycles in named spans.
    assert trace["otherData"]["coverage"] >= 0.95
    prov = trace["otherData"]["provenance"]
    assert prov["seed"] is not None and prov["cpus"] == ["broadwell"]
    assert "kernel.syscall" in flame_path.read_text()
    assert json.loads(metrics_path.read_text())


def test_profile_table(capsys, tmp_path):
    import json
    trace_path = tmp_path / "t.json"
    out = run_cli(capsys, "profile", "table", "3", "--iterations", "50",
                  "--trace-out", str(trace_path))
    assert "table.3" in out
    trace = json.loads(trace_path.read_text())
    assert any(e["name"] == "table.3" for e in trace["traceEvents"])


def test_global_trace_flag(capsys, tmp_path):
    import json
    trace_path = tmp_path / "t.json"
    out = run_cli(capsys, "--trace", str(trace_path),
                  "figure", "5", "--fast", "--cpus", "broadwell")
    assert "[trace]" in out
    trace = json.loads(trace_path.read_text())
    names = {e["name"] for e in trace["traceEvents"]}
    assert "study.figure5.broadwell" in names


def test_profile_leaves_null_tracer_installed(capsys, tmp_path):
    from repro.obs import NULL_TRACER, current_tracer
    run_cli(capsys, "profile", "table", "1",
            "--trace-out", str(tmp_path / "t.json"))
    assert current_tracer() is NULL_TRACER


def test_bench_then_check_round_trip(capsys, tmp_path):
    bench_path = str(tmp_path / "BENCH_1.json")
    out = run_cli(capsys, "bench", "--fast", "--cpus", "broadwell",
                  "--drivers", "figure2", "--out", bench_path, "--no-cache")
    assert "bench:" in out and "BENCH_1.json" in out
    import json
    payload = json.load(open(bench_path))
    assert payload["kind"] == "spectresim-bench"
    assert payload["values"] and payload["ledger"]["broadwell"]["total"] > 0

    out = run_cli(capsys, "check", "--against", bench_path, "--no-cache")
    assert "0 regressions" in out and "OK" in out


def test_bench_numbers_into_dir(capsys, tmp_path):
    run_cli(capsys, "bench", "--fast", "--cpus", "broadwell",
            "--drivers", "figure2", "--dir", str(tmp_path), "--no-cache")
    assert (tmp_path / "BENCH_1.json").exists()
    run_cli(capsys, "bench", "--fast", "--cpus", "broadwell",
            "--drivers", "figure2", "--dir", str(tmp_path), "--no-cache")
    assert (tmp_path / "BENCH_2.json").exists()


def test_check_fails_on_a_doctored_baseline(capsys, tmp_path):
    import json
    bench_path = str(tmp_path / "BENCH_1.json")
    run_cli(capsys, "bench", "--fast", "--cpus", "broadwell",
            "--drivers", "figure2", "--out", bench_path, "--no-cache")
    payload = json.load(open(bench_path))
    key = "figure2/broadwell/lebench:pti"
    payload["values"][key]["value"] -= 50.0   # pretend pti used to be free
    with open(bench_path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--against", bench_path, "--no-cache"])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and key in out and "FAIL" in out


def test_profile_ledger_out(capsys, tmp_path):
    ledger_path = str(tmp_path / "run.ledger")
    out = run_cli(capsys, "profile", "figure", "2", "--fast",
                  "--cpus", "broadwell", "--ledger-out", ledger_path)
    assert "invariant verified" in out
    report = open(ledger_path).read()
    assert "cycle ledger" in report
    assert "pti/mov_cr3" in report  # broadwell's default config has KPTI


# --------------------------------------------------------------------------- #
# Run history
# --------------------------------------------------------------------------- #

def _bench_to(capsys, tmp_path, name, extra=()):
    path = str(tmp_path / name)
    # history flags are global, so they precede the subcommand
    run_cli(capsys, *extra, "bench", "--fast", "--cpus", "broadwell",
            "--drivers", "figure2", "--out", path, "--no-cache")
    return path


def test_bench_auto_records_into_history(capsys, tmp_path):
    db = os.environ["SPECTRESIM_HISTORY_DB"]  # hermetic per-test path
    _bench_to(capsys, tmp_path, "B1.json")
    out = run_cli(capsys, "history", "list")
    assert "bench" in out
    assert os.path.exists(db)


def test_no_history_suppresses_recording(capsys, tmp_path):
    _bench_to(capsys, tmp_path, "B1.json", extra=("--no-history",))
    out = run_cli(capsys, "history", "list")
    assert "0 run(s)" in out or "no runs" in out


def test_check_auto_records_even_on_failure(capsys, tmp_path):
    import json
    bench_path = _bench_to(capsys, tmp_path, "B1.json")
    payload = json.load(open(bench_path))
    payload["values"]["figure2/broadwell/lebench:pti"]["value"] -= 5.0
    with open(bench_path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(SystemExit):
        main(["check", "--against", bench_path, "--no-cache"])
    capsys.readouterr()
    out = run_cli(capsys, "history", "list")
    assert "check" in out


def test_history_record_diff_report_gc(capsys, tmp_path):
    bench_path = _bench_to(capsys, tmp_path, "B1.json", extra=("--no-history",))
    out = run_cli(capsys, "history", "record", bench_path)
    assert "recorded" in out
    run_cli(capsys, "history", "record", bench_path)

    out = run_cli(capsys, "history", "diff", "prev", "latest")
    assert "0 regressions" in out and "0 changed cells" in out

    html_path = str(tmp_path / "dash.html")
    out = run_cli(capsys, "history", "report", "--out", html_path)
    assert "dashboard" in out
    html = open(html_path).read()
    assert "<svg" in html and 'id="self-perf"' in html
    # byte-stable across invocations
    run_cli(capsys, "history", "report", "--out", html_path + ".2")
    assert open(html_path + ".2").read() == html

    out = run_cli(capsys, "history", "gc", "--keep", "1")
    assert "removed" in out
    out = run_cli(capsys, "history", "list")
    assert len(out.strip().splitlines()) == 2  # header + one surviving run


def test_history_diff_flags_regression_with_blame(capsys, tmp_path):
    import json
    bench_path = _bench_to(capsys, tmp_path, "B1.json", extra=("--no-history",))
    run_cli(capsys, "history", "record", bench_path)
    payload = json.load(open(bench_path))
    payload["values"]["figure2/broadwell/lebench:pti"]["value"] += 5.0
    for cell in payload["ledger"].values():
        bumped = {}
        for path, cycles in cell["entries"].items():
            if "/pti/" in path:
                cycles += 10_000
                cell["total"] += 10_000
            bumped[path] = cycles
        cell["entries"] = bumped
    doctored = str(tmp_path / "B2.json")
    with open(doctored, "w") as f:
        json.dump(payload, f)
    run_cli(capsys, "history", "record", doctored)

    with pytest.raises(SystemExit):
        main(["history", "diff", "prev", "latest"])
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "pti" in out
    assert "(exact)" in out


def test_history_record_refuses_stale_fingerprint(capsys, tmp_path):
    import json
    bench_path = _bench_to(capsys, tmp_path, "B1.json", extra=("--no-history",))
    payload = json.load(open(bench_path))
    payload["provenance"]["code_fingerprint"] = "0123456789abcdef"
    with open(bench_path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(SystemExit, match="history:"):
        main(["history", "record", bench_path])
    capsys.readouterr()
    out = run_cli(capsys, "history", "record", bench_path, "--allow-dirty")
    assert "dirty" in out


def test_history_db_flag_overrides_default(capsys, tmp_path):
    bench_path = _bench_to(capsys, tmp_path, "B1.json", extra=("--no-history",))
    alt = str(tmp_path / "alt.db")
    run_cli(capsys, "history", "--db", alt, "record", bench_path)
    assert os.path.exists(alt)
    assert not os.path.exists(os.environ["SPECTRESIM_HISTORY_DB"])
    out = run_cli(capsys, "history", "--db", alt, "list")
    assert "bench" in out


def test_profile_records_telemetry_run(capsys, tmp_path):
    run_cli(capsys, "profile", "table", "1", "--iterations", "20",
            "--trace-out", str(tmp_path / "t.json"))
    out = run_cli(capsys, "history", "list")
    assert "profile" in out


def test_jobs_rejected_at_parse_time(capsys):
    # A bad --jobs or --replicas is an argparse usage error (exit 2, one
    # line on stderr), not a ValueError traceback from the executor.
    for argv in (["figure", "2", "--jobs", "0"],
                 ["export", "figure2", "--jobs", "-3"],
                 ["fuzz", "--jobs", "x"],
                 ["figure", "2", "--fast", "--cpus", "broadwell",
                  "--replicas", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a positive integer" in err


def test_fuzz_campaign_smoke(capsys, tmp_path):
    out_dir = str(tmp_path / "fuzz-out")
    out = run_cli(capsys, "fuzz", "--seed", "1", "--programs", "2",
                  "--cpus", "broadwell", "--out", out_dir)
    assert "0 violation(s)" in out
    assert "2 cells" not in out  # 2 programs x 1 cpu x 3 policies = 6
    assert "6 cells" in out
    # The summary lands in --out even on a clean campaign (CI artifact).
    assert open(os.path.join(out_dir, "summary.txt")).read() == out


def test_fuzz_auto_records_into_history(capsys, tmp_path):
    run_cli(capsys, "fuzz", "--programs", "1", "--cpus", "zen2",
            "--out", str(tmp_path / "f"))
    out = run_cli(capsys, "history", "list")
    assert "fuzz" in out
    html_path = str(tmp_path / "dash.html")
    run_cli(capsys, "history", "report", "--out", html_path)
    html = open(html_path).read()
    assert "Differential fuzzing" in html and "clean" in html


def test_fuzz_replay_of_a_fixed_reproducer_is_clean(capsys, tmp_path):
    from repro.fuzz import (FuzzConfig, fuzz_campaign, parity_fault,
                            write_reproducer)
    from repro.core.probe import POLICY_OFF
    config = FuzzConfig(seed=3, programs=6, cpu_keys=("broadwell",),
                        policies=(POLICY_OFF,))
    with parity_fault("verw"):
        result = fuzz_campaign(config)
        violation = result.violations[0]
        program = next(p for p in result.programs
                       if p.name == violation.program)
        path = write_reproducer(str(tmp_path), program, violation,
                                base_seed=3)
    # The "bug" is gone outside the fault scope: replay exits 0.
    out = run_cli(capsys, "--no-history", "fuzz", "--replay", path)
    assert "no longer violates" in out


def test_fuzz_smoke_flag_runs_reduced_grid(capsys, tmp_path):
    out = run_cli(capsys, "--no-history", "fuzz", "--smoke",
                  "--out", str(tmp_path / "f"))
    assert "programs=6 cpus=3" in out
    assert "0 violation(s)" in out


def test_fuzz_violations_exit_nonzero_with_reproducers(capsys, tmp_path):
    from repro.fuzz import parity_fault
    out_dir = str(tmp_path / "f")
    with parity_fault("verw"):
        with pytest.raises(SystemExit) as exc:
            main(["--no-history", "fuzz", "--seed", "3", "--programs",
                  "6", "--cpus", "broadwell", "--out", out_dir])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert "engine_parity" in out
    assert "minimized to" in out
    progs = [f for f in os.listdir(out_dir) if f.endswith(".prog")]
    assert progs  # one minimized reproducer per violating cell
    assert "summary.txt" in os.listdir(out_dir)


# --------------------------------------------------------------------------- #
# First-divergence explainer
# --------------------------------------------------------------------------- #

def _faulted_reproducer(tmp_path):
    from repro.fuzz import (FuzzConfig, fuzz_campaign, parity_fault,
                            write_reproducer)
    from repro.core.probe import POLICY_OFF
    config = FuzzConfig(seed=3, programs=6, cpu_keys=("broadwell",),
                        policies=(POLICY_OFF,))
    with parity_fault("verw"):
        result = fuzz_campaign(config)
        violation = result.violations[0]
        program = next(p for p in result.programs
                       if p.name == violation.program)
        path = write_reproducer(str(tmp_path), program, violation,
                                base_seed=3)
    return path, violation


def test_explain_replay_pinpoints_the_injected_fault(capsys, tmp_path):
    path, violation = _faulted_reproducer(tmp_path)
    out = run_cli(capsys, "--no-history", "explain", "--replay", path)
    div = violation.divergence
    assert f"first divergence at event #{div['index']}" in out
    assert f"tsc={div['tsc']}" in out
    assert f"instr={div['instr']}" in out
    assert div["structure"] in out
    assert "faulted" in out


def test_explain_cell_json_and_trace(capsys, tmp_path):
    import json
    trace_path = str(tmp_path / "t.json")
    out = run_cli(capsys, "--no-history", "explain", "--cell",
                  "broadwell:off", "--seed", "1", "--program", "3",
                  "--fault", "verw", "--json", "--trace-out", trace_path)
    payload = json.loads(out)
    assert payload["divergence"] is not None
    assert payload["divergence"]["structure"] == "mds"
    assert payload["fault_op"] == "verw"
    assert payload["base"]["total"] > 0
    trace = json.load(open(trace_path))
    instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
    assert len(instants) == payload["base"]["held"]
    assert trace["otherData"]["timeline"]["total"] \
        == payload["base"]["total"]


def test_explain_clean_cell_agrees(capsys):
    out = run_cli(capsys, "--no-history", "explain", "--cell",
                  "broadwell:off")
    assert "agree" in out


def test_explain_requires_exactly_one_source(capsys):
    for argv in (["explain"],
                 ["explain", "--replay", "x.prog", "--cell",
                  "broadwell:off"]):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["--no-history"] + argv)
        capsys.readouterr()


def test_explain_records_and_compares_against_history(capsys):
    run_cli(capsys, "explain", "--cell", "broadwell:off", "--program", "3",
            "--fault", "verw")
    out = run_cli(capsys, "history", "list")
    assert "explain" in out
    # Same cell again: digests and counts must match the recorded run.
    out = run_cli(capsys, "explain", "--cell", "broadwell:off",
                  "--program", "3", "--fault", "verw",
                  "--against", "latest")
    assert "match" in out
    # A different program mismatches.
    out = run_cli(capsys, "--no-history", "explain", "--cell",
                  "broadwell:off", "--program", "0",
                  "--against", "latest")
    assert "mismatch" in out


def test_explain_against_non_explain_run_exits(capsys, tmp_path):
    bench_path = _bench_to(capsys, tmp_path, "B1.json")
    with pytest.raises(SystemExit, match="no\\s+timeline telemetry"):
        main(["explain", "--cell", "broadwell:off", "--against", "latest"])
    capsys.readouterr()


def test_fuzz_writes_machine_readable_summary(capsys, tmp_path):
    import json
    from repro.fuzz import parity_fault
    out_dir = str(tmp_path / "f")
    with parity_fault("verw"):
        with pytest.raises(SystemExit):
            main(["--no-history", "fuzz", "--seed", "3", "--programs",
                  "6", "--cpus", "broadwell", "--out", out_dir])
    capsys.readouterr()
    summary = json.load(open(os.path.join(out_dir, "summary.json")))
    assert summary["seed"] == 3
    assert summary["violations"]
    first = summary["violations"][0]
    assert first["problems"]
    assert {p["kind"] for p in first["problems"]} >= {"tsc",
                                                      "injected_fault"}
    assert first["divergence"]["structure"] == "mds"
    assert summary["reproducers"]


def test_history_gc_dry_run_does_not_mutate(capsys, tmp_path):
    bench_path = _bench_to(capsys, tmp_path, "B1.json")
    _bench_to(capsys, tmp_path, "B2.json")
    before = run_cli(capsys, "history", "list")
    out = run_cli(capsys, "history", "gc", "--keep", "1", "--dry-run")
    assert "would remove 1 run(s)" in out
    assert "keeping 1" in out
    assert run_cli(capsys, "history", "list") == before
    out = run_cli(capsys, "history", "gc", "--keep", "1")
    assert "removed 1 run(s)" in out


# --------------------------------------------------------------------------- #
# Bad input: a one-line error and a non-zero exit, never a traceback
# --------------------------------------------------------------------------- #

MALFORMED_REPRODUCER = """\
# cpu: broadwell
# policy: off
program fz_bad seed=1
block b0 pc=0x1000
load nowhere
"""


@pytest.mark.parametrize("command", ["fuzz", "explain"])
def test_replay_of_a_malformed_reproducer_names_the_line(capsys, tmp_path,
                                                          command):
    path = tmp_path / "bad.prog"
    path.write_text(MALFORMED_REPRODUCER)
    with pytest.raises(SystemExit) as exc:
        main(["--no-history", command, "--replay", str(path)])
    message = str(exc.value.code)
    assert message.startswith(f"{command}: {path}: line 5: ")
    assert "load nowhere" in message and "\n" not in message


def test_history_list_on_a_corrupt_db_is_a_one_line_error(tmp_path):
    db = tmp_path / "corrupt.db"
    db.write_bytes(b"not an sqlite database\n" * 64)
    with pytest.raises(SystemExit) as exc:
        main(["history", "--db", str(db), "list"])
    message = str(exc.value.code)
    assert message.startswith("history: ") and "unreadable" in message
    assert "\n" not in message


def test_check_against_a_non_json_baseline_is_a_one_line_error(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text("not json\n")
    with pytest.raises(SystemExit) as exc:
        main(["--no-history", "check", "--against", str(path)])
    message = str(exc.value.code)
    assert message.startswith("check: ") and "is not JSON" in message
    assert "\n" not in message
