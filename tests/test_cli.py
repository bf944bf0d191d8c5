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


@pytest.mark.parametrize("threshold, line", [
    (None, "overhead drops below 5% at ~26308-cycle operations"),
    # The label is the threshold as given, not rounded to a whole percent.
    ("2.5", "overhead drops below 2.5% at ~61879-cycle operations"),
    ("3.4", "overhead drops below 3.4% at ~37299-cycle operations"),
    # Broadwell's curve ends at 1.1%: no swept size crosses 0.5%.
    ("0.5", "overhead never drops below 0.5% over the swept sizes"),
], ids=["default", "2.5", "3.4", "0.5"])
def test_sweep_opsize(capsys, threshold, line):
    argv = ["sweep", "opsize", "--cpu", "broadwell"]
    if threshold is not None:
        argv += ["--threshold", threshold]
    out = run_cli(capsys, *argv)
    assert out.splitlines()[-1] == "  " + line


def test_sweep_ssbd(capsys):
    out = run_cli(capsys, "sweep", "ssbd", "--cpu", "zen3")
    assert "slowdown" in out


def test_export_table9_is_valid_json(capsys):
    import json
    out = run_cli(capsys, "export", "table9", "--cpus", "zen3")
    payload = json.loads(out)
    assert payload["kind"] == "spectresim-bench"
    assert payload["values"] == {} and payload["ledger"] == {}
    leakage = payload["leakage"]
    assert leakage["policy"] == "off" and "events" not in leakage
    assert leakage["matrix"]["zen3"]["user->user (direct)"]["speculated"] \
        is False
    assert payload["provenance"]["cpus"] == ["zen3"]


def test_export_table10_has_a_null_zen_row(capsys):
    import json
    payload = json.loads(run_cli(capsys, "export", "table10",
                                 "--cpus", "zen"))
    assert payload["leakage"]["policy"] == "ibrs"
    assert payload["leakage"]["matrix"] == {"zen": None}  # no IBRS on Zen


def _table_cells(text):
    """CPU key -> the stripped cells of a rendered table's data rows."""
    lines = text.splitlines()
    spans, start = [], 0
    for dashes in lines[2].split("  "):
        spans.append((start, start + len(dashes)))
        start += len(dashes) + 2
    return {line[:spans[0][1]].strip(): [line[a:b].strip()
                                         for a, b in spans[1:]]
            for line in lines[3:]}


@pytest.mark.parametrize("table,policy", [("9", "off"), ("10", "ibrs")])
def test_tables_export_and_leakage_matrix_read_one_grid(capsys, table,
                                                        policy):
    """Tables 9/10, ``export table9|table10`` and ``leakage matrix`` show
    one probe grid: the export's leakage block is the matrix's JSON, and
    each table mark is its cell's ``speculated`` bit."""
    import json
    from repro.core.probe import SCENARIOS
    cpus = ("--cpus", "zen3", "cascade_lake")
    exported = json.loads(run_cli(capsys, "export", f"table{table}", *cpus))
    matrix = json.loads(run_cli(capsys, "leakage", "matrix", "--json",
                                "--policy", policy, *cpus))
    assert exported["leakage"] == matrix
    rows = _table_cells(run_cli(capsys, "table", table))
    for cpu, cells in matrix["matrix"].items():
        assert rows[cpu] == ["x" if cells[s.label]["speculated"] else ""
                             for s in SCENARIOS], cpu
    assert any(any(row) for row in rows.values())


def test_export_figure5_is_valid_json(capsys, tmp_path):
    import json
    out = run_cli(capsys, "export", "figure5", "--fast", "--cpus", "zen",
                  "--no-cache")
    payload = json.loads(out)
    assert payload["kind"] == "spectresim-bench"
    assert sorted(payload["values"]) == [
        f"figure5/zen/{workload}:overhead"
        for workload in ("bodytrack", "facesim", "swaptions")]
    prov = payload["provenance"]
    assert prov["command"] == "export figure5"
    assert prov["seed"] is not None
    assert "zen" in prov["config"]
    assert prov["version"]
    # The same values, to the bit, that bench snapshots for this grid.
    bench_path = str(tmp_path / "BENCH_zen.json")
    run_cli(capsys, "--no-history", "bench", "--fast", "--cpus", "zen",
            "--drivers", "figure5", "--out", bench_path, "--no-cache")
    assert payload["values"] == json.load(open(bench_path))["values"]


#: Every file 'all --fast' writes, and the command that prints it.
ALL_ARTIFACTS = {
    **{f"table{n}.txt": ["table", str(n)] for n in range(1, 11)},
    **{f"figure{n}.txt": ["figure", str(n), "--fast"] for n in (2, 3, 5)},
    "vm.txt": ["vm", "--fast"],
    "parsec.txt": ["parsec", "--fast"],
    "bimodal.txt": ["bimodal"],
    "summary.txt": ["summary"],
}


def _count_cell_runs(monkeypatch):
    """Route every study driver's cell runner through a counter, via the
    driver table; returns the list of keys of the cells that ran here."""
    import dataclasses
    from repro.core import study
    calls = []
    for name, driver in list(study.DRIVERS.items()):
        def counted(spec, run_cell=driver.run_cell):
            calls.append(spec.key())
            return run_cell(spec)
        monkeypatch.setitem(study.DRIVERS, name,
                            dataclasses.replace(driver, run_cell=counted))
    return calls


def test_all_writes_artifacts(capsys, tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    out = run_cli(capsys, "all", "--fast", "--outdir", str(outdir))
    assert "wrote" in out
    assert (outdir / "table9.txt").exists()
    assert (outdir / "figure2.txt").exists()
    assert (outdir / "bimodal.txt").exists()
    # Each file holds what its own command prints.
    assert sorted(os.listdir(outdir)) == sorted(ALL_ARTIFACTS)
    for name, argv in ALL_ARTIFACTS.items():
        assert run_cli(capsys, *argv) == (outdir / name).read_text(), name

    # A warm rerun on the same cell cache runs no cell runner at all:
    # summary.txt reuses Figures 2 and 3 instead of simulating them again.
    calls = _count_cell_runs(monkeypatch)
    warm = tmp_path / "warm"
    run_cli(capsys, "all", "--fast", "--outdir", str(warm))
    assert calls == []
    for name in ALL_ARTIFACTS:
        assert (warm / name).read_text() == (outdir / name).read_text()


def test_summary_command(capsys, tmp_path, monkeypatch):
    cold = run_cli(capsys, "summary")
    assert "Q1:" in cold and "Q2:" in cold and "Q3:" in cold
    assert "IBPB" in cold
    # A warm rerun on the same cell cache runs no cell runner at all.
    calls = _count_cell_runs(monkeypatch)
    assert run_cli(capsys, "summary") == cold
    assert calls == []
    # Two workers filling a fresh cache print the same answers.
    assert main(["summary", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "fresh")]) == 0
    parallel = capsys.readouterr()
    assert parallel.out == cold and "jobs=2" in parallel.err


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
    assert f"metrics: wrote {metrics_path}" in out
    metrics = json.loads(metrics_path.read_text())
    # Self-cycles per name: kernel.syscall's own are covered by children.
    spans = metrics["spans"]
    assert "kernel.syscall" in spans and spans["kernel.entry"] > 0
    assert sum(spans.values()) == trace["otherData"]["attributed_cycles"]
    assert {"engine", "replicas"} <= set(metrics["telemetry"])


def test_profile_telemetry_counts_only_its_own_run(capsys, tmp_path):
    """Two profiles in one process report the same engine and replica
    counts: each counts its own run, not the process-wide totals."""
    import json
    runs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        out = run_cli(capsys, "profile", "figure", "5", "--fast",
                      "--cpus", "zen", "--metrics-out", str(path))
        telemetry = json.loads(path.read_text())["telemetry"]
        lines = [line for line in out.splitlines()
                 if line.startswith(("engine:", "replicas:"))]
        runs.append((telemetry["engine"], telemetry["replicas"], lines))
    assert runs[0] == runs[1]
    assert runs[0][1]["batches"] > 0 and len(runs[0][2]) == 2


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
    # The same manifest as profile's: per-CPU mitigation config included.
    prov = trace["otherData"]["provenance"]
    assert prov["seed"] is not None and prov["cpus"] == ["broadwell"]
    assert set(prov["config"]) == {"broadwell"} and prov["version"]


def test_global_trace_flag_on_profile_is_a_usage_error(capsys, tmp_path):
    trace_path = tmp_path / "t.json"
    with pytest.raises(SystemExit) as exc:
        main(["--trace", str(trace_path), "profile", "table", "1"])
    assert exc.value.code == 2
    assert "profile --trace-out" in capsys.readouterr().err
    assert not trace_path.exists()


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
    assert not os.path.exists(os.environ["SPECTRESIM_HISTORY_DB"])


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
    run_cli(capsys, "--history-db", alt, "history", "record", bench_path)
    assert os.path.exists(alt)
    assert not os.path.exists(os.environ["SPECTRESIM_HISTORY_DB"])
    out = run_cli(capsys, "--history-db", alt, "history", "list")
    assert "bench" in out


def test_history_records_into_the_cache_dir_by_default(capsys, tmp_path,
                                                       monkeypatch):
    # With no $SPECTRESIM_HISTORY_DB, a run records next to the cell
    # cache and writes nothing into the working directory.
    monkeypatch.delenv("SPECTRESIM_HISTORY_DB")
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "fuzz", "--programs", "1", "--cpus", "zen2",
            "--out", str(tmp_path / "f"))
    assert sorted(os.listdir(tmp_path)) == ["f", "spectresim-cache"]
    assert os.path.exists(os.path.join(os.environ["SPECTRESIM_CACHE_DIR"],
                                       "history.db"))
    assert "fuzz" in run_cli(capsys, "history", "list")


@pytest.mark.parametrize("argv", [
    "bench --fast --cpus broadwell --drivers figure5 --no-cache --out {tmp}/B.json",
    "fuzz --programs 1 --cpus zen2 --out {tmp}/f",
], ids=["bench", "fuzz"])
def test_an_unopenable_history_db_warns_and_keeps_the_result(capsys, tmp_path,
                                                             argv):
    # A directory is no database: the producing command warns on one
    # line, prints its result and exits 0.
    assert main(["--history-db", str(tmp_path),
                 *argv.format(tmp=tmp_path).split()]) == 0
    out, err = capsys.readouterr()
    assert out
    (warning,) = [line for line in err.splitlines()
                  if line.startswith("[history]")]
    assert warning.startswith(f"[history] not recorded: history db "
                              f"{str(tmp_path)!r} is unreadable: ")
    assert "Traceback" not in err


def test_profile_records_telemetry_run(capsys, tmp_path):
    run_cli(capsys, "profile", "table", "1", "--iterations", "20",
            "--trace-out", str(tmp_path / "t.json"))
    out = run_cli(capsys, "history", "list")
    assert "profile" in out


def test_jobs_rejected_at_parse_time(capsys):
    # A bad count (--jobs, --replicas, --trials, --iterations, --entries,
    # --max-events) is an argparse usage error (exit 2, one line on
    # stderr), not a traceback from deep inside a study or a silently
    # empty result.
    for argv in (["figure", "2", "--jobs", "0"],
                 ["export", "figure2", "--jobs", "-3"],
                 ["fuzz", "--jobs", "x"],
                 ["figure", "2", "--fast", "--cpus", "broadwell",
                  "--replicas", "0"],
                 ["leakage", "matrix", "--cpus", "cascade_lake",
                  "--trials", "0"],
                 ["leakage", "events", "--cpus", "cascade_lake",
                  "--trials", "-3"],
                 ["leakage", "events", "--max-events", "0"],
                 ["leakage", "events", "--cpus", "cascade_lake",
                  "--max-events", "-3"],
                 ["table", "5", "--iterations", "0"],
                 ["table", "5", "--iterations", "-2"],
                 ["profile", "table", "5", "--iterations", "0"],
                 ["bimodal", "--entries", "0"],
                 ["bimodal", "--entries", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a positive integer" in err
    # sweep --threshold is a finite positive percent, and only opsize has one.
    for argv, message in (
            (["sweep", "opsize", "--threshold", "0"], "finite positive number"),
            (["sweep", "opsize", "--threshold", "-1"], "finite positive number"),
            (["sweep", "opsize", "--threshold", "nan"], "finite positive number"),
            (["sweep", "opsize", "--threshold", "inf"], "finite positive number"),
            (["sweep", "ssbd", "--cpu", "zen3", "--threshold", "1e9"],
             "--threshold applies to sweep opsize only"),
            # The paper has Tables 1-10 and Figures 2, 3 and 5.
            (["table", "11"], "invalid choice: 11"),
            (["figure", "4"], "invalid choice: 4"),
            (["profile", "table", "0"], "invalid choice: 0 for profile table"),
            (["profile", "figure", "4"],
             "invalid choice: 4 for profile figure")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_leakage_matrix_has_no_max_events_flag(capsys):
    # The matrix never shows events, so it takes no cap on them.
    with pytest.raises(SystemExit) as exc:
        main(["leakage", "matrix", "--max-events", "5"])
    assert exc.value.code == 2
    assert "--max-events" in capsys.readouterr().err


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
    assert summary["reproducers"]


def _export_to(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_text(run_cli(capsys, "export", "figure5", "--fast",
                            "--cpus", "zen"))
    return path


def test_history_diff_of_two_identical_exports_is_clean(capsys, tmp_path):
    a = _export_to(capsys, tmp_path, "a.json")
    b = _export_to(capsys, tmp_path, "b.json")
    fresh_db = tmp_path / "fresh.db"
    out = run_cli(capsys, "--history-db", str(fresh_db),
                  "history", "diff", str(a), str(b))
    assert "0 regressions" in out and "-> OK" in out
    # A file-to-file diff never opens the database, so creates none.
    assert not fresh_db.exists()
    assert not os.path.exists(os.environ["SPECTRESIM_HISTORY_DB"])


def test_history_diff_between_files_names_a_raised_value(capsys, tmp_path):
    import json
    a = _export_to(capsys, tmp_path, "a.json")
    payload = json.loads(a.read_text())
    key = "figure5/zen/swaptions:overhead"
    payload["values"][key]["value"] += 5.0
    b = tmp_path / "b.json"
    b.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["history", "diff", str(a), str(b)])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert f"REGRESSION {key}" in out and "FAIL" in out


def test_history_diff_between_files_reports_a_missing_key(capsys, tmp_path):
    import json
    a = _export_to(capsys, tmp_path, "a.json")
    payload = json.loads(a.read_text())
    key = "figure5/zen/facesim:overhead"
    del payload["values"][key]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["history", "diff", str(a), str(b)])
    assert exc.value.code == 1
    assert f"MISSING {key}" in capsys.readouterr().out


def test_history_diff_compares_a_file_with_a_recorded_run(capsys, tmp_path):
    bench_path = _bench_to(capsys, tmp_path, "B1.json")  # auto-records
    out = run_cli(capsys, "history", "diff", bench_path, "latest")
    assert f"diff {bench_path} -> run 1" in out
    assert "0 regressions" in out and "-> OK" in out


def _table9_export_with_a_flip(capsys, tmp_path):
    """``export table9 --cpus zen3`` as a.json, and b.json with one cell's
    leaked/speculated bits flipped."""
    import json
    a = tmp_path / "a.json"
    a.write_text(run_cli(capsys, "export", "table9", "--cpus", "zen3"))
    payload = json.loads(a.read_text())
    cell = payload["leakage"]["matrix"]["zen3"]["kernel->kernel (direct)"]
    assert cell["leaked"] is False
    cell["leaked"] = cell["speculated"] = True
    b = tmp_path / "b.json"
    b.write_text(json.dumps(payload))
    return a, b


LEAKAGE_FLIP = "LEAKAGE zen3 kernel->kernel (direct): leaked false -> true"


def test_history_diff_between_files_names_a_flipped_leakage_cell(capsys,
                                                                 tmp_path):
    a, b = _table9_export_with_a_flip(capsys, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["history", "diff", str(a), str(b)])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert LEAKAGE_FLIP in out
    assert out.endswith("0 missing, 1 leakage flips in 5 cells -> FAIL\n")


def test_history_diff_finds_a_leakage_flip_against_a_recorded_run(capsys,
                                                                  tmp_path):
    a, b = _table9_export_with_a_flip(capsys, tmp_path)
    run_cli(capsys, "history", "record", str(a))
    with pytest.raises(SystemExit) as exc:
        main(["history", "diff", "latest", str(b)])
    assert exc.value.code == 1
    assert LEAKAGE_FLIP in capsys.readouterr().out


@pytest.mark.parametrize("table,cells", [("table9", 10), ("table10", 5)],
                         ids=["table9", "table10"])
def test_history_diff_of_identical_table_exports_is_clean(capsys, tmp_path,
                                                         table, cells):
    # Zen cannot run the ibrs policy: Table 10's zen row is null.
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        path.write_text(run_cli(capsys, "export", table,
                                "--cpus", "zen", "zen3"))
    out = run_cli(capsys, "history", "diff", str(a), str(b))
    assert out.endswith(f"0 missing, 0 leakage flips in {cells} cells "
                        f"-> OK\n")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_history_diff_of_each_committed_baseline_is_clean(capsys, n):
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "baselines", f"BENCH_{n}.json")
    out = run_cli(capsys, "history", "diff", path, path)
    assert "0 regressions" in out and out.endswith("-> OK\n")


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


@pytest.mark.parametrize("command", ["fuzz"])
def test_replay_of_a_malformed_reproducer_names_the_line(capsys, tmp_path,
                                                          command):
    path = tmp_path / "bad.prog"
    path.write_text(MALFORMED_REPRODUCER)
    with pytest.raises(SystemExit) as exc:
        main(["--no-history", command, "--replay", str(path)])
    message = str(exc.value.code)
    assert message.startswith(f"{command}: {path}: line 5: ")
    assert "load nowhere" in message and "\n" not in message
    # A file that cannot be read at all gets the same one-line shape.
    for unreadable, reason in ((tmp_path / "missing.prog",
                                "No such file or directory"),
                               (tmp_path, "Is a directory")):
        with pytest.raises(SystemExit) as exc:
            main(["--no-history", command, "--replay", str(unreadable)])
        assert exc.value.code == f"{command}: {unreadable}: {reason}"


@pytest.mark.parametrize("argv,bad", [
    ("figure 2 --fast --cpus nosuchcpu", "'nosuchcpu'"),
    ("bench --fast --cpus nosuchcpu", "'nosuchcpu'"),
    ("leakage matrix --cpus nosuchcpu", "'nosuchcpu'"),
    ("profile figure 2 --fast --cpus nosuchcpu", "'nosuchcpu'"),
    ("fuzz --programs 1 --cpus zen3 broadwel", "'broadwel'"),
    ("attacks --cpu nosuchcpu", "'nosuchcpu'"),
], ids=["figure", "bench", "leakage", "profile", "fuzz", "attacks"])
def test_unknown_cpu_or_policy_is_a_usage_error(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(["--no-history"] + argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = err.strip().splitlines()[-1]
    assert ": error: argument " in error and bad in error
    assert "known CPUs: broadwell, skylake_client" in error


@pytest.mark.parametrize("drivers", [["bogus"], ["figure2", "bogus"]],
                         ids=["alone", "after-a-known-driver"])
def test_bench_unknown_driver_is_a_one_line_error(tmp_path, monkeypatch,
                                                  drivers):
    # Every name is checked before any cell runs.
    from repro.core import study
    monkeypatch.setattr(study, "figure2", None)
    with pytest.raises(SystemExit) as exc:
        main(["--no-history", "bench", "--fast", "--cpus", "broadwell",
              "--out", str(tmp_path / "B.json"), "--drivers"] + drivers)
    assert exc.value.code == (
        "bench: unknown bench driver 'bogus' (known: figure2, figure3, "
        "figure5, parsec_default, vm_lebench)")
    assert not (tmp_path / "B.json").exists()


def test_bimodal_on_a_part_without_eibrs_is_a_one_line_error():
    with pytest.raises(SystemExit) as exc:
        main(["bimodal", "--cpu", "zen"])
    assert exc.value.code == "bimodal: zen has no enhanced IBRS"


_BASELINE_3 = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                           "baselines", "BENCH_3.json")


def test_history_report_into_a_missing_directory_creates_it(capsys,
                                                            tmp_path):
    from repro.obs.history import HistoryStore
    from repro.obs.report import render_report
    run_cli(capsys, "history", "record", _BASELINE_3, "--allow-dirty")
    out = tmp_path / "no" / "such" / "x.html"
    assert run_cli(capsys, "history", "report", "--out", str(out)) == (
        f"history: dashboard over 1 run(s) -> {out}\n")
    with HistoryStore(os.environ["SPECTRESIM_HISTORY_DB"]) as store:
        assert out.read_text() == render_report(store)


@pytest.mark.parametrize("argv", [
    "history list",
    "history diff 1 2",
    "history diff {baseline} latest",
    "history report --out {tmp}/dash.html",
    "history gc --keep 1",
], ids=["list", "diff", "diff-file-vs-run", "report", "gc"])
def test_read_only_history_commands_never_create_a_store(tmp_path, argv):
    db = tmp_path / "missing" / "h.db"
    with pytest.raises(SystemExit) as exc:
        main(["--history-db", str(db),
              *argv.format(tmp=tmp_path, baseline=_BASELINE_3).split()])
    assert exc.value.code == f"history: history db {str(db)!r} does not exist"
    assert sorted(os.listdir(tmp_path)) == []


#: Every output-file flag, on a cheap command; {path} is the file.
OUTPUT_FLAGS = {
    "trace": "--trace {path} cpus",
    "profile-trace-out": "profile table 3 --iterations 20 --trace-out {path}",
    "flame-out": "profile table 3 --iterations 20 --flame-out {path}",
    "metrics-out": "profile table 3 --iterations 20 --metrics-out {path}",
    "ledger-out": "profile table 3 --iterations 20 --ledger-out {path}",
    "leakage-trace-out": "leakage events --cpus zen --trace-out {path}",
    "history-report-out": "history report --out {path}",
    # Three that run study cells.
    "trace-figure": "--trace {path} figure 5 --fast --cpus zen3 --no-cache",
    "profile-figure-trace-out": "profile figure 5 --fast --cpus zen3 --trace-out {path}",
    "bench-out": "bench --fast --cpus zen3 --drivers figure5 --no-cache --out {path}",
}


@pytest.mark.parametrize("argv", list(OUTPUT_FLAGS.values()),
                         ids=list(OUTPUT_FLAGS))
def test_output_file_flags_share_one_writer(capsys, tmp_path, monkeypatch, argv):
    run_cli(capsys, "history", "record", _BASELINE_3, "--allow-dirty")
    # A missing parent directory is created.
    path = tmp_path / "no" / "such" / "out.txt"
    run_cli(capsys, *argv.format(path=path).split())
    assert path.read_text()
    # A directory given as the file is one line and exit 1, no traceback,
    # before any cell runs; no machine is built either (profile table and
    # leakage events simulate outside the study drivers).
    from repro.cpu import Machine
    calls = _count_cell_runs(monkeypatch)
    init = Machine.__init__

    def counted_init(machine, *args, **kwargs):
        calls.append("machine")
        init(machine, *args, **kwargs)
    monkeypatch.setattr(Machine, "__init__", counted_init)
    args = argv.format(path=tmp_path).split()
    with pytest.raises(SystemExit) as exc:
        main(args)
    command = args[2] if args[0] == "--trace" else args[0]
    assert exc.value.code == f"{command}: {tmp_path}: Is a directory"
    # So is a path under a file.
    path = tmp_path / "a-file" / "out.txt"
    path.parent.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(argv.format(path=path).split())
    assert exc.value.code == f"{command}: {path}: File exists"
    assert calls == []


def test_history_list_on_a_corrupt_db_is_a_one_line_error(tmp_path):
    db = tmp_path / "corrupt.db"
    db.write_bytes(b"not an sqlite database\n" * 64)
    with pytest.raises(SystemExit) as exc:
        main(["--history-db", str(db), "history", "list"])
    message = str(exc.value.code)
    assert message.startswith("history: ") and "unreadable" in message
    assert "\n" not in message


def test_history_list_on_a_directory_is_a_one_line_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--history-db", str(tmp_path), "history", "list"])
    assert exc.value.code == (f"history: history db {str(tmp_path)!r} is "
                              f"unreadable: unable to open database file")


@pytest.mark.parametrize("argv", [
    "history --db h.db list",
    "summary --fast",
    "all --fast --cpus zen3",
], ids=["history-db", "summary-fast", "all-cpus"])
def test_removed_flags_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    # --history-db is the one history path flag, summary is always fast,
    # and every file 'all' writes covers the full CPU grid.
    monkeypatch.chdir(tmp_path)  # a parse that wrongly succeeds writes here
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_summary_parses_as_fast():
    from repro.cli import build_parser
    assert build_parser().parse_args(["summary"]).fast is True


def test_check_against_a_non_json_baseline_is_a_one_line_error(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text("not json\n")
    with pytest.raises(SystemExit) as exc:
        main(["--no-history", "check", "--against", str(path)])
    message = str(exc.value.code)
    assert message.startswith("check: ") and "is not JSON" in message
    assert "\n" not in message


def _bench_text(**fields):
    import json
    return json.dumps({"kind": "spectresim-bench", "schema": 1, **fields})


@pytest.mark.parametrize("argv,content", [
    ("history record {}", None),
    ("history record {}", "not json {"),
    ("history record {}", "[]"),
    ("history diff {} {}", "[]"),
    ("check --against {}", "[]"),
    ("check --against {}", '{"kind": "spectresim-bench", "schema": 1}'),
    ("history diff {} {}", _bench_text(values={"k": {"uncertainty": 0.1}})),
    ("history record {}", _bench_text(values={"k": {"uncertainty": 0.1}})),
    ("history diff {} {}", _bench_text(values=[])),
    ("history record {}", _bench_text(values=[])),
    ("history record {}",
     _bench_text(ledger={"broadwell": {"entries": {"bad": 5}}})),
    ("history diff {} {}",
     _bench_text(leakage={"matrix": {"zen": [{"leaked": False}]}})),
    ("history record {}",
     _bench_text(leakage={"matrix": {"zen": [{"leaked": False}]}})),
    ("check --against {}",
     _bench_text(cpus=["broadwell"], settings={"bogus": 1})),
    ("check --against {}", _bench_text(cpus=["broadwell"], settings="fast")),
    ("check --against {}",
     _bench_text(cpus=["broadwell"], settings={"iterations": 2.5})),
    ("check --against {}", _bench_text(cpus=["nosuchcpu"], settings={})),
    ("history diff {} {}", _bench_text(provenance=[])),
    ("history record {}", _bench_text(provenance=[])),
    ("history diff {} {}", _bench_text(provenance={"code_fingerprint": 7})),
    ("history record {}", _bench_text(provenance={"created_at": []})),
    ("history record {}", _bench_text(provenance={"command": {}})),
    ("history record {}", _bench_text(provenance={"version": 2})),
    ("history record {}", _bench_text(provenance={"seed": "7"})),
    ("history record {}", _bench_text(provenance={"seed": 7.5})),
    ("history record {}", _bench_text(provenance={"wall_time_s": "1s"})),
    ("history record {}", _bench_text(provenance={"sim_cycles": [1]})),
    ("history diff {} {}", _bench_text(leakage={"policy": 3, "matrix": {}})),
    ("history record {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"events": "x"}}}})),
    ("history diff {} {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"events": "x"}}}})),
    ("history diff {} {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"leaked": "no"}}}})),
    ("history diff {} {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"speculated": 1}}}})),
    ("history diff {} {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"mispredicted": None}}}})),
    ("history record {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"blocked_by": "ibpb"}}}})),
    ("history record {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"blocked_by": [1]}}}})),
    ("history record {}",
     _bench_text(leakage={"matrix": {"zen": {"b": {"primitive": 5}}}})),
    ("history diff {} {}", _bench_text(tolerance=[1, 2])),
    ("history diff {} {}", _bench_text(tolerance={"sigma_multiplier": "x"})),
    ("check --against {}",
     _bench_text(cpus=["broadwell"], settings={}, drivers=5)),
], ids=["record-missing", "record-not-json", "record-list", "diff-list",
        "check-list", "check-no-grid", "diff-no-value", "record-no-value",
        "diff-values-list", "record-values-list", "record-ledger-path",
        "diff-leakage-row-list", "record-leakage-row-list",
        "check-unknown-setting", "check-settings-string",
        "check-float-iterations", "check-unknown-cpu",
        "diff-provenance-list", "record-provenance-list",
        "diff-fingerprint-number", "record-created-at-list",
        "record-command-object", "record-version-number",
        "record-seed-string", "record-seed-float",
        "record-wall-time-string", "record-sim-cycles-list",
        "diff-policy-number", "record-events-string", "diff-events-string",
        "diff-leaked-string", "diff-speculated-number",
        "diff-mispredicted-null", "record-blocked-by-string",
        "record-blocked-by-numbers", "record-primitive-number",
        "diff-tolerance-list", "diff-tolerance-string", "check-drivers-number"])
def test_bad_payload_file_is_a_one_line_error(tmp_path, argv, content):
    path = tmp_path / "payload.json"
    if content is not None:
        path.write_text(content)
    args = [str(path) if arg == "{}" else arg for arg in argv.split()]
    with pytest.raises(SystemExit) as exc:
        main(["--no-history"] + args)
    message = str(exc.value.code)
    assert message.startswith(f"{args[0]}: ") and "\n" not in message
    assert str(path) in message


def _declared_path_options():
    """``"<subcommands> <option>" -> type`` for every option that
    build_parser() declares with a path type (a file or a directory the
    command writes)."""
    import argparse
    from repro.cli import _PATH_CHECKS, build_parser
    found = {}

    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, prefix + [name])
            elif action.type in _PATH_CHECKS:
                key = " ".join(prefix + [action.option_strings[0]])
                found[key] = action.type
    walk(build_parser(), [])
    return found


#: A cheap base command line for every declared path option; {path} is
#: the option's value.  A new path option fails
#: test_every_path_option_has_a_base_command_line until it has a row.
PATH_OPTIONS = {
    "--trace": "--trace {path} cpus",
    "profile --trace-out": "profile table 3 --iterations 20 --trace-out {path}",
    "profile --flame-out": "profile table 3 --iterations 20 --flame-out {path}",
    "profile --metrics-out": "profile table 3 --iterations 20 --metrics-out {path}",
    "profile --ledger-out": "profile table 3 --iterations 20 --ledger-out {path}",
    "leakage events --trace-out": "leakage events --cpus zen --trace-out {path}",
    "history report --out": "history report --out {path}",
    "bench --out": "bench --fast --cpus zen3 --drivers figure5 --out {path}",
    "bench --dir": "bench --fast --cpus zen3 --drivers figure5 --dir {path}",
    "bench --cache-dir": "bench --fast --cpus zen3 --drivers figure5 --cache-dir {path}",
    "figure --cache-dir": "figure 5 --fast --cpus zen --cache-dir {path}",
    "vm --cache-dir": "vm --fast --cpus zen --cache-dir {path}",
    "parsec --cache-dir": "parsec --fast --cpus zen --cache-dir {path}",
    "export --cache-dir": "export figure5 --fast --cpus zen --cache-dir {path}",
    "summary --cache-dir": "summary --cache-dir {path}",
    "check --cache-dir": "check --against {baseline} --cache-dir {path}",
    "fuzz --out": "fuzz --programs 1 --cpus zen --out {path}",
    "all --outdir": "all --fast --outdir {path}",
    "all --cache-dir": "all --fast --cache-dir {path}",
}


def test_every_path_option_has_a_base_command_line():
    assert sorted(_declared_path_options()) == sorted(PATH_OPTIONS)


def _count_simulation(monkeypatch):
    """Count every study cell and every Machine built from here on."""
    from repro.cpu import Machine
    calls = _count_cell_runs(monkeypatch)
    init = Machine.__init__

    def counted_init(machine, *args, **kwargs):
        calls.append("machine")
        init(machine, *args, **kwargs)
    monkeypatch.setattr(Machine, "__init__", counted_init)
    return calls


@pytest.mark.parametrize("option", sorted(PATH_OPTIONS), ids=lambda option:
                         "-".join(option.replace("--", "").split()))
def test_a_bad_output_path_fails_before_the_run(tmp_path, monkeypatch,
                                                option):
    # A file option given a directory or a path under a file, and a
    # directory option given a file or a path under one: one line, exit
    # 1, before any cell runs or any machine is built.
    from repro import cli
    is_file = _declared_path_options()[option] is cli._OutputFile
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    if is_file:
        cases = {tmp_path: "Is a directory", a_file / "out": "File exists"}
    else:
        cases = {a_file: "Not a directory", a_file / "sub": "Not a directory"}

    def argv(path):
        return ["--no-history"] + PATH_OPTIONS[option].format(
            path=path, baseline=_BASELINE_3).split()
    command = cli.build_parser().parse_args(argv(tmp_path)).command
    calls = _count_simulation(monkeypatch)
    for path, reason in cases.items():
        with pytest.raises(SystemExit) as exc:
            main(argv(path))
        assert exc.value.code == f"{command}: {path}: {reason}"
    assert calls == []
    assert a_file.read_text() == ""
    # A path that does not exist yet passes: a file's missing parent is
    # created, and a directory is left for the command to make.
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: "")
    assert main(argv(tmp_path / "new" / "out")) == 0
    assert (tmp_path / "new").is_dir() == is_file


def test_a_cache_dir_variable_naming_a_file_fails_before_the_run(
        tmp_path, monkeypatch):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    monkeypatch.setenv("SPECTRESIM_CACHE_DIR", str(a_file))
    calls = _count_simulation(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["figure", "5", "--fast", "--cpus", "zen"])
    assert exc.value.code == f"figure: {a_file}: Not a directory"
    assert calls == []
    # --no-cache uses no cache directory, so none is checked.
    assert main(["figure", "5", "--fast", "--cpus", "zen", "--no-cache"]) == 0
    assert calls


@pytest.mark.parametrize("row", ["not json", "[1]"], ids=["not-json", "list"])
@pytest.mark.parametrize("argv", [
    "history list", "history report --out {tmp}/r.html",
    "history diff 1 latest",
], ids=["list", "report", "diff"])
def test_a_corrupt_history_row_is_a_one_line_error(capsys, tmp_path, row,
                                                   argv):
    import sqlite3
    db = tmp_path / "h.db"
    run_cli(capsys, "--history-db", str(db), "history", "record",
            _BASELINE_3, "--allow-dirty")
    conn = sqlite3.connect(str(db))
    conn.execute("UPDATE runs SET payload = ?", (row,))
    conn.commit()
    conn.close()
    with pytest.raises(SystemExit) as exc:
        main(["--history-db", str(db), *argv.format(tmp=tmp_path).split()])
    message = str(exc.value.code)
    assert message.startswith(f"history: history db {str(db)!r} run 1: ")
    assert "\n" not in message
