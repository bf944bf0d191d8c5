"""``spectresim`` command line interface.

Reproduce any paper artifact from a shell::

    spectresim cpus
    spectresim table 5
    spectresim table 9           # speculation matrix, IBRS off
    spectresim figure 2 --fast
    spectresim vm
    spectresim parsec
    spectresim bimodal --cpu cascade_lake
    spectresim attacks --cpu broadwell
    spectresim all --outdir results

Observability::

    spectresim profile figure 2 --fast --trace-out t.json --flame-out t.folded
    spectresim --trace t.json figure 3 --fast    # trace any command
    spectresim leakage matrix                    # taint-oracle leak surface
    spectresim leakage events --trace-out leaks.json
    spectresim fuzz --seed 1 --programs 25       # differential fuzzing
    spectresim fuzz --smoke                      # CI-sized campaign
    spectresim fuzz --replay fuzz-out/<case>.prog   # confirm a fix
    spectresim explain --replay fuzz-out/<case>.prog   # first divergence
    spectresim explain --cell broadwell:off --fault verw --json

Parallelism and caching (see ``docs/parallelism.md``)::

    spectresim figure 2 --jobs 8                 # fan cells over 8 processes
    spectresim figure 2 --jobs 8                 # rerun: 100% cache hits
    spectresim figure 3 --no-cache               # force fresh simulation
    spectresim all --outdir results --jobs 8 --cache-dir /tmp/sscache

Run history (``bench``/``check``/``profile`` auto-record; disable with
``--no-history``)::

    spectresim history list
    spectresim history diff 1 2                  # ledger blame waterfall
    spectresim history diff prev latest
    spectresim history report --out history.html
    spectresim history record BENCH_2.json --allow-dirty
    spectresim history gc --keep 50 --dry-run
    spectresim history gc --keep 50
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, Optional, Sequence

from . import obs
from .cpu import Machine, Mode, all_cpus, get_cpu
from .cpu import engine as blockengine
from .cpu import replicas as replicabatch
from .core import microbench, reporting, study
from .core.probe import DEFAULT_TRIALS, speculation_matrix
from .core.study import Settings
from .errors import BaselineError, ProgramParseError
from .mitigations import linux_default
from .mitigations.meltdown import attempt_meltdown
from .mitigations.mds import attempt_mds_sample, kernel_touched_secret
from .mitigations.spectre_v1 import attempt_bounds_bypass
from .mitigations.spectre_v2 import attempt_btb_injection
from .mitigations.ssb import attempt_store_bypass


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``-style counts: reject zero, negative,
    and non-integer values at parse time, so the user gets a one-line
    usage error instead of a traceback from deep inside the executor."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _settings(args: argparse.Namespace) -> Settings:
    import dataclasses as _dataclasses
    settings = Settings.fast() if getattr(args, "fast", False) else Settings()
    replicas = getattr(args, "replicas", None)
    if replicas is not None and replicas != settings.replicas:
        settings = _dataclasses.replace(settings, replicas=replicas)
    return settings


def _study_executor(args: argparse.Namespace) -> "StudyExecutor":
    """Build the execution engine from the command's ``--jobs``/cache
    flags; commands without those flags get the inline serial default."""
    from .core.executor import StudyExecutor, default_cache_dir
    if getattr(args, "no_cache", False):
        cache_dir = None
    else:
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir is None and hasattr(args, "jobs"):
            cache_dir = default_cache_dir()
    return StudyExecutor(jobs=getattr(args, "jobs", 1), cache_dir=cache_dir)


def _report_executor(label: str, executor: "StudyExecutor") -> None:
    """One status line per driver run, on stderr so artifact output on
    stdout stays byte-identical across serial/parallel/cached runs."""
    sys.stderr.write(f"[executor] {label}: {executor.stats.summary()}\n")


def _history_path(args: argparse.Namespace) -> str:
    """Resolve the history db: ``history --db``, global ``--history-db``,
    then ``$SPECTRESIM_HISTORY_DB`` / the committed fixture."""
    from .obs.history import default_history_db
    return (getattr(args, "db", None)
            or getattr(args, "history_db", None)
            or default_history_db())


def _history_autorecord(args: argparse.Namespace, payload: Dict,
                        kind: str) -> None:
    """Append a run to the history db; best-effort (a refused or failed
    record warns on stderr, never fails the producing command)."""
    if getattr(args, "no_history", False):
        return
    from .errors import HistoryError
    from .obs.history import HistoryStore
    path = _history_path(args)
    try:
        with HistoryStore(path) as store:
            run_id = store.record_payload(payload, kind=kind)
        sys.stderr.write(f"[history] recorded run {run_id} ({kind}) -> "
                         f"{path}\n")
    except HistoryError as exc:
        sys.stderr.write(f"[history] not recorded: {exc}\n")


def _selected_cpus(args: argparse.Namespace):
    keys = getattr(args, "cpus", None)
    if not keys:
        return list(all_cpus())
    return [get_cpu(key) for key in keys]


def cmd_cpus(args: argparse.Namespace) -> str:
    return reporting.render_table2()


def cmd_table(args: argparse.Namespace) -> str:
    n = args.number
    iters = args.iterations
    if n == 1:
        return reporting.render_table1()
    if n == 2:
        return reporting.render_table2()
    if n == 3:
        return reporting.render_table3(
            [microbench.table3_row(cpu, iters) for cpu in all_cpus()])
    if n == 4:
        return reporting.render_table4(
            {cpu.key: microbench.table4_value(cpu, iters) for cpu in all_cpus()})
    if n == 5:
        return reporting.render_table5(
            [microbench.table5_row(cpu, iters) for cpu in all_cpus()])
    if n == 6:
        return reporting.render_table6(
            {cpu.key: microbench.table6_value(cpu, min(iters, 200))
             for cpu in all_cpus()})
    if n == 7:
        return reporting.render_table7(
            {cpu.key: microbench.table7_value(cpu, iters) for cpu in all_cpus()})
    if n == 8:
        return reporting.render_table8(
            {cpu.key: microbench.table8_value(cpu, iters) for cpu in all_cpus()})
    if n in (9, 10):
        matrix = speculation_matrix(tuple(all_cpus()), ibrs=(n == 10))
        return reporting.render_speculation_matrix(matrix, ibrs=(n == 10))
    raise SystemExit(f"no table {n} in the paper's evaluation")


def cmd_figure(args: argparse.Namespace) -> str:
    settings = _settings(args)
    cpus = _selected_cpus(args)
    executor = _study_executor(args)
    try:
        if args.number == 2:
            return reporting.render_figure2(
                study.figure2(cpus, settings, executor=executor))
        if args.number == 3:
            return reporting.render_figure3(
                study.figure3(cpus, settings, executor=executor))
        if args.number == 5:
            return reporting.render_figure5(
                study.figure5(cpus, settings=settings, executor=executor))
    finally:
        if executor.stats.total:
            _report_executor(f"figure{args.number}", executor)
    raise SystemExit(f"no figure {args.number} to regenerate")


def cmd_vm(args: argparse.Namespace) -> str:
    settings = _settings(args)
    cpus = _selected_cpus(args)
    executor = _study_executor(args)
    out = reporting.render_paired(
        study.vm_lebench_overheads(cpus, settings, executor=executor),
        "Section 4.4: LEBench in a VM, host mitigations on vs off")
    _report_executor("vm_lebench", executor)
    out += reporting.render_paired(
        study.lfs_overheads(cpus, settings=settings, executor=executor),
        "Section 4.4: LFS against an emulated disk, host mitigations on vs off")
    _report_executor("lfs", executor)
    return out


def cmd_parsec(args: argparse.Namespace) -> str:
    settings = _settings(args)
    cpus = _selected_cpus(args)
    executor = _study_executor(args)
    out = reporting.render_paired(
        study.parsec_default_overheads(cpus, settings=settings,
                                       executor=executor),
        "Section 4.5: PARSEC with default mitigations vs none")
    _report_executor("parsec_default", executor)
    return out


def cmd_bimodal(args: argparse.Namespace) -> str:
    cpu = get_cpu(args.cpu)
    latencies = microbench.kernel_entry_latencies(cpu, entries=args.entries)
    return reporting.render_entry_distribution(cpu.key, latencies)


def cmd_attacks(args: argparse.Namespace) -> str:
    """Run every attack demo with and without its mitigation."""
    cpu = get_cpu(args.cpu)
    lines = [f"Attack demonstrations on {cpu.key}", ""]

    machine = Machine(cpu)
    lines.append(f"  Meltdown, KPTI off : leaked byte "
                 f"{attempt_meltdown(machine, 0x42)!r}")
    machine.kernel_mapped_in_user = False
    lines.append(f"  Meltdown, KPTI on  : leaked byte "
                 f"{attempt_meltdown(machine, 0x42)!r}")

    lines.append(f"  Spectre V1 raw     : leaked byte "
                 f"{attempt_bounds_bypass(Machine(cpu), 0x5A)!r}")
    lines.append(f"  Spectre V1 lfence  : leaked byte "
                 f"{attempt_bounds_bypass(Machine(cpu), 0x5A, lfence_hardened=True)!r}")
    lines.append(f"  Spectre V1 masking : leaked byte "
                 f"{attempt_bounds_bypass(Machine(cpu), 0x5A, masked=True)!r}")

    lines.append(f"  Spectre V2 raw     : injected = "
                 f"{attempt_btb_injection(Machine(cpu), Mode.USER, Mode.KERNEL)}")
    lines.append(f"  Spectre V2 + IBPB  : injected = "
                 f"{attempt_btb_injection(Machine(cpu), Mode.USER, Mode.KERNEL, ibpb_between=True)}")

    machine = Machine(cpu)
    lines.append(f"  SSB, SSBD off      : stale byte "
                 f"{attempt_store_bypass(machine, 0x77)!r}")
    machine = Machine(cpu)
    machine.msr.set_ssbd(True)
    lines.append(f"  SSB, SSBD on       : stale byte "
                 f"{attempt_store_bypass(machine, 0x77)!r}")

    machine = Machine(cpu)
    kernel_touched_secret(machine, 0xDEAD)
    lines.append(f"  MDS, no verw       : sampled "
                 f"{attempt_mds_sample(machine)!r}")
    from .cpu import isa as _isa
    machine.mode = Mode.KERNEL
    machine.execute(_isa.verw())
    machine.mode = Mode.USER
    lines.append(f"  MDS, after verw    : sampled "
                 f"{attempt_mds_sample(machine)!r}")

    from .mitigations.spectre_rsb import attempt_planted_return
    lines.append(f"  SpectreRSB raw     : gadget ran = "
                 f"{attempt_planted_return(Machine(cpu))}")
    lines.append(f"  SpectreRSB stuffed : gadget ran = "
                 f"{attempt_planted_return(Machine(cpu), stuffed=True)}")

    from .mitigations.bhi import attempt_bhi
    lines.append(f"  BHI vs eIBRS       : gadget ran = "
                 f"{attempt_bhi(Machine(cpu), eibrs=True)}")
    lines.append(f"  BHI vs retpolines  : gadget ran = "
                 f"{attempt_bhi(Machine(cpu), retpolines=True)}")

    if cpu.smt:
        from .cpu.smt import SMTCore
        from .mitigations.mds import attempt_cross_thread_mds
        from .mitigations.stibp import attempt_cross_thread_injection
        lines.append(f"  SMT V2, no STIBP   : injected = "
                     f"{attempt_cross_thread_injection(SMTCore(cpu))}")
        lines.append(f"  SMT V2, STIBP      : injected = "
                     f"{attempt_cross_thread_injection(SMTCore(cpu), stibp=True)}")
        lines.append(f"  SMT MDS sampling   : sampled "
                     f"{attempt_cross_thread_mds(SMTCore(cpu))!r}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> str:
    """Draw the overhead-vs-operation-size or SSBD-density curve."""
    from .core import sweeps
    cpu = get_cpu(args.cpu)
    if args.kind == "opsize":
        result = sweeps.overhead_vs_operation_size(cpu, linux_default(cpu))
        threshold = args.threshold
        crossing = result.first_below(threshold)
        lines = [f"Mitigation overhead vs kernel-work size on {cpu.key}:"]
        for x, y in zip(result.xs, result.ys):
            lines.append(f"  {int(x):>8d} cycles/op -> {y:7.1f}% overhead")
        if crossing is not None:
            lines.append(f"  overhead drops below {threshold:.0f}% at "
                         f"~{crossing:.0f}-cycle operations")
        return "\n".join(lines) + "\n"
    if args.kind == "ssbd":
        result = sweeps.ssbd_overhead_vs_forwarding_density(cpu)
        lines = [f"SSBD slowdown vs store->load density on {cpu.key}:"]
        for x, y in zip(result.xs, result.ys):
            lines.append(f"  {int(x):>4d} pairs/iter -> {y:6.1f}% slowdown")
        return "\n".join(lines) + "\n"
    raise SystemExit(f"unknown sweep kind {args.kind!r}")


def _run_manifest(command: str, settings: Optional[Settings],
                  cpus, **extra) -> obs.RunManifest:
    """Full provenance for a CLI run: seed, CPU list, and the default
    mitigation config each CPU would boot with."""
    config: Dict[str, object] = {
        cpu.key: obs.config_to_dict(linux_default(cpu)) for cpu in cpus
    }
    return obs.build_manifest(
        command=command,
        seed=settings.seed if settings is not None else None,
        cpus=[cpu.key for cpu in cpus],
        config=config,
        settings=settings,
        **extra,
    )


def cmd_export(args: argparse.Namespace) -> str:
    """Emit one experiment's results as JSON."""
    from .core import export
    settings = _settings(args)
    cpus = _selected_cpus(args)
    executor = _study_executor(args)
    manifest = _run_manifest(f"export {args.experiment}", settings, cpus)
    if args.experiment == "figure2":
        out = export.attributions_to_json(
            study.figure2(cpus, settings, executor=executor),
            provenance=manifest) + "\n"
        _report_executor("figure2", executor)
        return out
    if args.experiment == "figure3":
        out = export.attributions_to_json(
            study.figure3(cpus, settings, executor=executor),
            provenance=manifest) + "\n"
        _report_executor("figure3", executor)
        return out
    if args.experiment == "figure5":
        out = export.paired_to_json(
            study.figure5(cpus, settings=settings, executor=executor),
            provenance=manifest) + "\n"
        _report_executor("figure5", executor)
        return out
    if args.experiment == "table9":
        return export.speculation_matrix_to_json(
            speculation_matrix(tuple(cpus), ibrs=False),
            provenance=manifest) + "\n"
    if args.experiment == "table10":
        return export.speculation_matrix_to_json(
            speculation_matrix(tuple(cpus), ibrs=True),
            provenance=manifest) + "\n"
    raise SystemExit(f"unknown experiment {args.experiment!r}")


def cmd_summary(args: argparse.Namespace) -> str:
    """Recompute the paper's section-8 answers from the data."""
    from .core.summary import render_summary, summarize
    return render_summary(summarize(_settings(args)))


def cmd_regress(args: argparse.Namespace) -> str:
    """Diff two exported JSON result files."""
    from .core.regression import diff_results, render_diff
    with open(args.old) as f:
        old = f.read()
    with open(args.new) as f:
        new = f.read()
    return render_diff(diff_results(old, new, tolerance=args.tolerance))


def cmd_profile(args: argparse.Namespace) -> str:
    """Run one artifact under the span tracer; write trace/flame files."""
    settings = _settings(args)
    cpus = _selected_cpus(args)
    tracer = obs.SpanTracer()
    ledger = obs.CycleLedger() if args.ledger_out else None
    started = time.perf_counter()
    with obs.use_observers(tracer, ledger):
        if args.kind == "figure":
            rendered = cmd_figure(args)
        else:
            # Tables are microbenchmarks without deep instrumentation; a
            # coarse top-level span still times the whole render.
            with tracer.span(f"table.{args.number}"):
                rendered = cmd_table(args)
    wall = time.perf_counter() - started
    manifest = _run_manifest(
        f"profile {args.kind} {args.number}", settings, cpus,
        wall_time_s=round(wall, 3), sim_cycles=tracer.total_cycles())

    lines = [rendered.rstrip("\n"), ""]
    if args.trace_out:
        obs.write_chrome_trace(args.trace_out, tracer, provenance=manifest,
                               ledger=ledger)
        lines.append(f"trace: wrote {len(tracer.spans)} spans to "
                     f"{args.trace_out}")
    if args.flame_out:
        obs.write_flamegraph(args.flame_out, tracer)
        lines.append(f"flame: wrote collapsed stacks to {args.flame_out}")
    if ledger is not None:
        ledger.verify()
        with open(args.ledger_out, "w") as f:
            f.write(ledger.report())
        lines.append(f"ledger: {ledger.total():,} cycles attributed, "
                     f"invariant verified -> {args.ledger_out}")
    blockengine.publish_metrics(tracer.metrics)
    replicabatch.publish_metrics(tracer.metrics)
    if args.metrics_out:
        with open(args.metrics_out, "w") as f:
            f.write(tracer.metrics.to_json())
        lines.append(f"metrics: wrote registry to {args.metrics_out}")

    # Profile runs carry no study values, but their self-performance
    # telemetry (and ledger, when attributed) still belongs in the
    # longitudinal record.
    engine_stats = blockengine.STATS.as_dict()
    engine_stats["hit_rate"] = blockengine.STATS.hit_rate()
    replica_stats = replicabatch.STATS.as_dict()
    replica_stats["hit_rate"] = replicabatch.STATS.hit_rate()
    ledgers = {}
    if ledger is not None:
        ledgers["+".join(cpu.key for cpu in cpus)] = {
            "entries": ledger.paths(), "total": ledger.total()}
    _history_autorecord(args, {
        "values": {},
        "ledger": ledgers,
        "telemetry": {
            "wall_s": wall,
            "engine": engine_stats,
            "replicas": replica_stats,
            "replicas_per_s": (replica_stats["replicas"] / wall
                               if wall > 0 else 0.0),
            "coverage": tracer.coverage(),
        },
        "tolerance": {},
        "provenance": manifest.to_dict(),
    }, kind="profile")

    lines.append(f"coverage: {100.0 * tracer.coverage():.1f}% of "
                 f"{tracer.total_cycles()} simulated cycles attributed "
                 f"to named spans")
    lines.append(f"engine: {blockengine.default_engine()} — "
                 f"{blockengine.STATS.summary()}")
    lines.append(f"replicas: {replicabatch.STATS.summary()}")
    lines.append("")
    lines.append(tracer.report().rstrip("\n"))
    return "\n".join(lines) + "\n"


def cmd_bench(args: argparse.Namespace) -> str:
    """Snapshot the pinned study grid into a versioned BENCH_<n>.json."""
    from .obs import baseline
    executor = _study_executor(args)
    settings = _settings(args)
    cpus = args.cpus or list(baseline.DEFAULT_BENCH_CPUS)
    payload = baseline.collect(
        cpus=cpus, settings=settings,
        drivers=args.drivers or None, executor=executor, command="bench",
        report=lambda driver: _report_executor(f"bench {driver}", executor))
    path = args.out or baseline.next_bench_path(args.dir)
    baseline.write_bench(payload, path)
    _history_autorecord(args, payload, kind="bench")
    ledger_total = sum(roll["total"] for roll in payload["ledger"].values())
    return (f"bench: {len(payload['values'])} values, "
            f"{ledger_total:,} attributed ledger cycles across "
            f"{len(payload['ledger'])} CPUs -> {path}\n")


def cmd_check(args: argparse.Namespace) -> str:
    """Re-run a baseline's grid and gate on noise-aware regressions."""
    from .obs import baseline
    executor = _study_executor(args)
    try:
        diff, report = baseline.check_against(
            args.against, executor=executor,
            report=lambda driver: _report_executor(f"check {driver}",
                                                   executor),
            on_payload=lambda payload: _history_autorecord(args, payload,
                                                           kind="check"))
    except BaselineError as exc:
        raise SystemExit(f"check: {exc}")
    if diff.failed:
        # Print before exiting nonzero: main() only writes the returned
        # string on the success path.
        sys.stdout.write(report)
        raise SystemExit(1)
    return report


def cmd_history(args: argparse.Namespace) -> str:
    """Run-history store: record, list, diff, report, gc."""
    from .errors import HistoryError
    from .obs import history as hist
    from .obs import report as histreport
    path = _history_path(args)
    try:
        if args.history_command == "record":
            from .obs import baseline
            payload = baseline.load_bench(args.payload)
            with hist.HistoryStore(path) as store:
                run_id = store.record_payload(
                    payload, kind=args.kind, allow_dirty=args.allow_dirty)
                dirty = store.run_info(run_id).dirty
            flag = " (flagged dirty)" if dirty else ""
            return (f"history: recorded run {run_id} ({args.kind}){flag} "
                    f"-> {path}\n")
        if args.history_command == "list":
            with hist.HistoryStore(path) as store:
                runs = store.runs()
            if not runs:
                return f"history: no runs in {path}\n"
            lines = [f"{'id':>4}  {'kind':<8} {'recorded':<26} "
                     f"{'fingerprint':<17} {'dirty':<6} {'values':>6} "
                     f"{'ledger cycles':>14}  command"]
            for run in runs:
                lines.append(
                    f"{run.id:>4}  {run.kind:<8} {run.created_at:<26} "
                    f"{run.fingerprint or '-':<17} "
                    f"{'yes' if run.dirty else 'no':<6} {run.values:>6} "
                    f"{run.ledger_cycles:>14,}  {run.command}")
            return "\n".join(lines) + "\n"
        if args.history_command == "diff":
            with hist.HistoryStore(path) as store:
                id_a = store.resolve(args.run_a)
                id_b = store.resolve(args.run_b)
                diff = store.diff(id_a, id_b)
            rendered = hist.render_diff(diff, label_a=f"run {id_a}",
                                        label_b=f"run {id_b}")
            if diff.failed:
                # Same contract as 'spectresim check': print the report,
                # then exit nonzero so CI gates on it.
                sys.stdout.write(rendered)
                raise SystemExit(1)
            return rendered
        if args.history_command == "report":
            with hist.HistoryStore(path) as store:
                out = histreport.write_report(store, args.out,
                                              title=args.title)
                count = len(store)
            return f"history: dashboard over {count} run(s) -> {out}\n"
        if args.history_command == "gc":
            dry_run = getattr(args, "dry_run", False)
            with hist.HistoryStore(path) as store:
                removed = store.gc(args.keep, dry_run=dry_run)
                kept = len(store) - (len(removed) if dry_run else 0)
            if dry_run:
                doomed = ", ".join(str(i) for i in removed) or "none"
                return (f"history: would remove {len(removed)} run(s) "
                        f"[{doomed}], keeping {kept} -> {path}\n")
            return (f"history: removed {len(removed)} run(s), kept {kept} "
                    f"-> {path}\n")
    except HistoryError as exc:
        raise SystemExit(f"history: {exc}")
    raise SystemExit(f"unknown history action {args.history_command!r}")


def cmd_leakage(args: argparse.Namespace) -> str:
    """Taint-oracle leakage surface: per-CPU matrix or raw event log."""
    import json
    from .core.probe import leakage_report
    cpus = _selected_cpus(args)
    report = leakage_report(tuple(cpus), policy=args.policy,
                            trials=args.trials,
                            max_events=args.max_events)
    if args.leakage_command == "matrix":
        if args.json:
            slim = dict(report)
            slim.pop("events", None)
            return json.dumps(slim, indent=2, sort_keys=True) + "\n"
        lines = [f"Speculative-leakage matrix (taint oracle, policy: "
                 f"{args.policy})", ""]
        leaks = total = 0
        for cpu_key in sorted(report["matrix"]):
            row = report["matrix"][cpu_key]
            lines.append(f"{cpu_key}:")
            if row is None:
                lines.append("  (policy not supported on this part)")
                continue
            for boundary in sorted(row):
                cell = row[boundary]
                total += 1
                if cell["leaked"]:
                    leaks += 1
                    verdict = f"LEAK ({cell['events']} events)"
                else:
                    why = ", ".join(cell["blocked_by"]) or "no speculation"
                    verdict = f"blocked by {why}"
                lines.append(f"  {boundary:<24} {verdict}")
        lines.append("")
        lines.append(f"{leaks} leaking cell(s) out of {total}")
        return "\n".join(lines) + "\n"
    if args.leakage_command == "events":
        if args.trace_out:
            # Rehydrate the aggregate flight recorder so the Perfetto
            # export gets real LeakageEvent instants + merged state.
            tracer = obs.LeakageTracer(policy=args.policy)
            tracer.events = [obs.LeakageEvent(**e)
                             for e in report["events"]]
            tracer.merge_state(report["state"])
            obs.write_chrome_trace(args.trace_out, obs.SpanTracer(),
                                   leakage=tracer)
        if args.json:
            return json.dumps(report["events"], indent=2) + "\n"
        lines = [f"Leakage events (policy: {args.policy}, "
                 f"{len(report['events'])} shown)"]
        for e in report["events"]:
            lines.append(f"  tsc={e['tsc']:<8} {e['cpu']:<16} "
                         f"{e['primitive']:<12} {e['channel']:<14} "
                         f"{e['boundary']:<22} sink={e['sink']}")
        if args.trace_out:
            lines.append(f"trace: wrote {len(report['events'])} leakage "
                         f"instants to {args.trace_out}")
        return "\n".join(lines) + "\n"
    raise SystemExit(f"unknown leakage action {args.leakage_command!r}")


#: The --smoke grid: one part per predictor family (IBRS-classic,
#: eIBRS mode-tagged, Zen 3 opaque-index), sized for a CI gate.
_FUZZ_SMOKE_CPUS = ("broadwell", "cascade_lake", "zen3")
_FUZZ_SMOKE_PROGRAMS = 6
_FUZZ_DEFAULT_PROGRAMS = 25


def _fuzz_violation_lines(violations) -> list:
    lines = []
    for v in violations:
        where = f"{v.cpu} x {v.policy}"
        if v.scenario:
            where += f" x {v.scenario}"
        lines.append(f"  [{v.oracle}] {v.program} on {where}: {v.detail}")
    return lines


def cmd_fuzz(args: argparse.Namespace) -> str:
    """Differential scenario fuzzing: random programs swept over the
    CPU x policy grid against the engine-parity and leakage-contract
    oracles; violations are minimized into replayable reproducers."""
    import json
    from . import fuzz as fuzzmod
    from .obs.progress import ProgressLine
    if args.replay:
        try:
            violations = fuzzmod.replay_reproducer(args.replay)
        except ProgramParseError as exc:
            raise SystemExit(f"fuzz: {args.replay}: {exc}")
        if violations:
            lines = [f"fuzz: replay of {args.replay} still violates:"]
            lines.extend(_fuzz_violation_lines(violations))
            sys.stdout.write("\n".join(lines) + "\n")
            raise SystemExit(1)
        return f"fuzz: replay of {args.replay} no longer violates\n"

    programs = args.programs
    if programs is None:
        programs = (_FUZZ_SMOKE_PROGRAMS if args.smoke
                    else _FUZZ_DEFAULT_PROGRAMS)
    cpu_keys = tuple(args.cpus) if args.cpus else ()
    if args.smoke and not cpu_keys:
        cpu_keys = _FUZZ_SMOKE_CPUS
    config = fuzzmod.FuzzConfig(seed=args.seed, programs=programs,
                                cpu_keys=cpu_keys, trials=args.trials,
                                jobs=args.jobs)
    started = time.perf_counter()
    # TTY-gated live line on stderr; a no-op in CI and pipes, so stdout
    # and captured stderr stay byte-identical.
    meter = ProgressLine(0, label="fuzz cells")
    try:
        result = fuzzmod.fuzz_campaign(config, progress=meter.update)
    finally:
        meter.close()
    wall = round(time.perf_counter() - started, 3)

    summary = (f"fuzz: seed={config.seed} programs={len(result.programs)} "
               f"cpus={len(config.resolved_cpu_keys())} -> "
               f"{result.cells} cells ({result.skipped} skipped), "
               f"{len(result.violations)} violation(s) in {wall:.1f}s")
    lines = [summary]

    reproducers = []
    if result.violations:
        by_name = {p.name: p for p in result.programs}
        seen = set()
        for violation in result.violations:
            key = (violation.program, violation.cpu, violation.policy,
                   violation.oracle)
            if key in seen:
                continue
            seen.add(key)
            program = by_name[violation.program]
            try:
                minimized = fuzzmod.minimize_violation(
                    program, violation, config.seed)
            except ValueError:
                # The violation did not replay under the minimizer's
                # default repeats/trials; ship it unminimized.
                minimized = program
            path = fuzzmod.write_reproducer(args.out, minimized,
                                            violation, config.seed)
            reproducers.append(path)
            lines.extend(_fuzz_violation_lines([violation]))
            lines.append(f"    minimized to "
                         f"{minimized.instruction_count()} instruction(s) "
                         f"-> {path}")

    manifest = obs.build_manifest(
        command="fuzz", seed=config.seed,
        cpus=list(config.resolved_cpu_keys()),
        config={"programs": len(result.programs),
                "policies": list(config.policies),
                "trials": config.trials, "jobs": config.jobs},
        wall_time_s=wall)
    telemetry = dict(result.telemetry())
    telemetry["wall_s"] = wall
    _history_autorecord(args, {
        "values": {},
        "ledger": {},
        "telemetry": telemetry,
        "tolerance": {},
        "provenance": manifest.to_dict(),
    }, kind="fuzz")

    report = "\n".join(lines) + "\n"
    if args.out:
        # CI uploads --out as an artifact; always leave the summary
        # there so the directory exists even on a clean campaign.
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "summary.txt"), "w") as handle:
            handle.write(report)
        # Machine-readable twin: full violation records (problems dicts
        # and first-divergence data) plus the campaign shape.
        machine_summary = {
            "seed": config.seed,
            "programs": len(result.programs),
            "cpus": list(config.resolved_cpu_keys()),
            "policies": list(config.policies),
            "cells": result.cells,
            "skipped": result.skipped,
            "wall_s": wall,
            "violations": [v.to_dict() for v in result.violations],
            "reproducers": reproducers,
        }
        with open(os.path.join(args.out, "summary.json"), "w") as handle:
            json.dump(machine_summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if result.violations:
        sys.stdout.write(report)
        raise SystemExit(1)
    return report


def cmd_explain(args: argparse.Namespace) -> str:
    """First-divergence explainer: timeline-trace one parity cell and
    pinpoint the earliest microarchitectural event where two runs of the
    same cell disagree (structure, tsc, instruction index)."""
    import json
    from . import fuzz as fuzzmod
    from .core.stats import derive_seed
    if bool(args.replay) == bool(args.cell):
        raise SystemExit("explain: exactly one of --replay or --cell "
                         "is required")
    started = time.perf_counter()
    if args.replay:
        try:
            report = fuzzmod.explain_reproducer(args.replay)
        except ProgramParseError as exc:
            raise SystemExit(f"explain: {args.replay}: {exc}")
        source = args.replay
    else:
        cpu_key, sep, policy = args.cell.partition(":")
        if not sep or not policy:
            raise SystemExit("explain: --cell takes CPU:POLICY "
                             "(e.g. broadwell:off)")
        program = fuzzmod.generate_program(
            derive_seed(args.seed, "fuzz-program", str(args.program)))
        report = fuzzmod.explain_cell(program, get_cpu(cpu_key), policy,
                                      args.seed, fault_op=args.fault)
        source = f"{program.name} on {args.cell}"
    wall = round(time.perf_counter() - started, 3)

    current = report.telemetry()["timeline"]
    against = None
    if args.against:
        from .obs.history import HistoryStore
        with HistoryStore(_history_path(args)) as store:
            run_id = store.resolve(args.against)
            stored_all = store.load_run(run_id)["telemetry"]
        stored = {name[len("timeline."):]: value
                  for name, value in stored_all.items()
                  if name.startswith("timeline.")}
        if not stored:
            raise SystemExit(f"explain: run {run_id} carries no "
                             f"timeline telemetry (not an explain run?)")
        mismatches = {}
        for name in sorted(set(stored) | set(current)):
            ours = current.get(name)
            theirs = stored.get(name)
            if ours != theirs:
                mismatches[name] = {"current": ours, "recorded": theirs}
        against = {"run": run_id, "matches": not mismatches,
                   "mismatches": mismatches}

    if args.trace_out:
        obs.write_chrome_trace(args.trace_out, obs.SpanTracer(),
                               timeline=report.timeline_base)

    manifest = obs.build_manifest(
        command="explain", seed=args.seed, cpus=[report.cpu],
        config={"policy": report.policy, "source": source,
                "fault_op": report.fault_op},
        wall_time_s=wall)
    _history_autorecord(args, {
        "values": {},
        "ledger": {},
        "telemetry": report.telemetry(),
        "tolerance": {},
        "provenance": manifest.to_dict(),
    }, kind="explain")

    if args.json:
        payload = report.to_dict()
        payload["source"] = source
        payload["against"] = against
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    lines = [f"explain: {source}",
             report.render(window=args.window).rstrip("\n")]
    if against is not None:
        if against["matches"]:
            lines.append(f"against run {against['run']}: event digest and "
                         f"per-structure counts match")
        else:
            lines.append(f"against run {against['run']}: "
                         f"{len(against['mismatches'])} mismatch(es)")
            for name, pair in sorted(against["mismatches"].items()):
                lines.append(f"  {name}: current={pair['current']} "
                             f"recorded={pair['recorded']}")
    if args.trace_out:
        lines.append(f"trace: wrote {report.timeline_base.total} timeline "
                     f"instants to {args.trace_out}")
    return "\n".join(lines) + "\n"


def cmd_all(args: argparse.Namespace) -> str:
    """Run every experiment, writing one file per artifact to --outdir."""
    os.makedirs(args.outdir, exist_ok=True)
    settings = _settings(args)
    cpus = list(all_cpus())

    def run_driver(label, fn, **kwargs):
        executor = _study_executor(args)
        results = fn(executor=executor, **kwargs)
        _report_executor(label, executor)
        return results

    artifacts = {
        "table1.txt": reporting.render_table1(),
        "table2.txt": reporting.render_table2(),
        "table3.txt": reporting.render_table3(
            [microbench.table3_row(cpu) for cpu in cpus]),
        "table4.txt": reporting.render_table4(
            {cpu.key: microbench.table4_value(cpu) for cpu in cpus}),
        "table5.txt": reporting.render_table5(
            [microbench.table5_row(cpu) for cpu in cpus]),
        "table6.txt": reporting.render_table6(
            {cpu.key: microbench.table6_value(cpu) for cpu in cpus}),
        "table7.txt": reporting.render_table7(
            {cpu.key: microbench.table7_value(cpu) for cpu in cpus}),
        "table8.txt": reporting.render_table8(
            {cpu.key: microbench.table8_value(cpu) for cpu in cpus}),
        "table9.txt": reporting.render_speculation_matrix(
            speculation_matrix(tuple(cpus), ibrs=False), ibrs=False),
        "table10.txt": reporting.render_speculation_matrix(
            speculation_matrix(tuple(cpus), ibrs=True), ibrs=True),
        "figure2.txt": reporting.render_figure2(
            run_driver("figure2", study.figure2, cpus=cpus,
                       settings=settings)),
        "figure3.txt": reporting.render_figure3(
            run_driver("figure3", study.figure3, cpus=cpus,
                       settings=settings)),
        "figure5.txt": reporting.render_figure5(
            run_driver("figure5", study.figure5, cpus=cpus,
                       settings=settings)),
        "vm.txt": cmd_vm(args),
        "parsec.txt": cmd_parsec(args),
        "bimodal.txt": reporting.render_entry_distribution(
            "cascade_lake",
            microbench.kernel_entry_latencies(get_cpu("cascade_lake"))),
        "summary.txt": cmd_summary(args),
    }
    for name, content in artifacts.items():
        path = os.path.join(args.outdir, name)
        with open(path, "w") as f:
            f.write(content)
    return f"wrote {len(artifacts)} artifacts to {args.outdir}\n"


def _add_executor_flags(p: argparse.ArgumentParser) -> None:
    """Execution-engine knobs shared by every study-driving subcommand."""
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="fan sweep cells out over N worker processes "
                        "(results are bit-identical to --jobs 1)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent result cache location (default: "
                        "$SPECTRESIM_CACHE_DIR or ~/.cache/spectresim)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the persistent cell cache (a rerun then "
                        "simulates every cell again)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectresim",
        description="Reproduce the EuroSys '22 transient-execution "
                    "mitigation study on simulated CPUs.")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="run the command under the span tracer and write a Chrome "
             "trace-event JSON (load in Perfetto) to PATH")
    parser.add_argument(
        "--engine", choices=list(blockengine.ENGINE_MODES),
        default=blockengine.default_engine(),
        help="instruction execution engine: 'block' (default) compiles "
             "hot sequences into batched cycle/counter/ledger deltas, "
             "'interp' interprets every instruction; both are "
             "bit-identical (see docs/performance.md)")
    parser.add_argument(
        "--history-db", metavar="PATH", default=None,
        help="run-history database (default: $SPECTRESIM_HISTORY_DB or "
             "benchmarks/baselines/history.db)")
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not auto-record bench/check/profile runs into the "
             "run-history database")
    def _add_replicas_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--replicas", type=_positive_int, default=None, metavar="N",
            help="seeded machine replicas per cell, one simulation per "
                 "distinct eIBRS scrub schedule (default 1: the classic "
                 "single-run measurement)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cpus", help="list the modelled CPUs (Table 2)")

    p = sub.add_parser("table", help="render a paper table (1-10)")
    p.add_argument("number", type=int)
    p.add_argument("--iterations", type=int, default=1000)

    p = sub.add_parser("figure", help="regenerate a paper figure (2, 3, 5)")
    p.add_argument("number", type=int)
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*")
    _add_replicas_flag(p)
    _add_executor_flags(p)

    p = sub.add_parser("vm", help="section 4.4 VM experiments")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*")
    _add_replicas_flag(p)
    _add_executor_flags(p)

    p = sub.add_parser("parsec", help="section 4.5 compute experiment")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*")
    _add_replicas_flag(p)
    _add_executor_flags(p)

    p = sub.add_parser("bimodal", help="section 6.2.2 eIBRS entry latency")
    p.add_argument("--cpu", default="cascade_lake")
    p.add_argument("--entries", type=int, default=200)

    p = sub.add_parser("attacks", help="attack demos with/without mitigations")
    p.add_argument("--cpu", default="broadwell")

    p = sub.add_parser("sweep", help="overhead curves and crossovers")
    p.add_argument("kind", choices=["opsize", "ssbd"])
    p.add_argument("--cpu", default="broadwell")
    p.add_argument("--threshold", type=float, default=5.0)

    p = sub.add_parser("export", help="emit one experiment as JSON")
    p.add_argument("experiment",
                   choices=["figure2", "figure3", "figure5",
                            "table9", "table10"])
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*")
    _add_replicas_flag(p)
    _add_executor_flags(p)

    p = sub.add_parser("summary",
                       help="recompute the paper's section-8 answers")
    p.add_argument("--fast", action="store_true", default=True)

    p = sub.add_parser("regress", help="diff two exported JSON result files")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--tolerance", type=float, default=0.5)

    p = sub.add_parser(
        "profile",
        help="run a figure/table under the span tracer; export "
             "Perfetto trace, flamegraph, and metrics")
    p.add_argument("kind", choices=["figure", "table"])
    p.add_argument("number", type=int)
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*")
    p.add_argument("--iterations", type=int, default=1000,
                   help="iterations for table microbenchmarks")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write Chrome trace-event JSON here")
    p.add_argument("--flame-out", metavar="PATH", default=None,
                   help="write collapsed-stack flamegraph format here")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write the metrics registry as JSON here")
    p.add_argument("--ledger-out", metavar="PATH", default=None,
                   help="attribute every cycle with the ledger and write "
                        "the (layer, mitigation, primitive) report here")
    _add_replicas_flag(p)

    p = sub.add_parser(
        "bench",
        help="snapshot the study grid into a versioned BENCH_<n>.json "
             "(values + ledger rollups + provenance)")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*",
                   help="CPU keys to bench (default: pinned bench set)")
    p.add_argument("--drivers", nargs="*",
                   help="study drivers to snapshot (default: figure2 "
                        "figure3 figure5)")
    p.add_argument("--dir", default=os.path.join("benchmarks", "baselines"),
                   help="directory whose next free BENCH_<n>.json is used")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="explicit output path (overrides --dir numbering)")
    _add_replicas_flag(p)
    _add_executor_flags(p)

    p = sub.add_parser(
        "check",
        help="re-run a baseline's grid and fail on noise-aware "
             "regressions, with per-mitigation ledger blame")
    p.add_argument("--against", metavar="BENCH.json", required=True,
                   help="baseline produced by 'spectresim bench'")
    _add_executor_flags(p)

    p = sub.add_parser(
        "history",
        help="run-history store: record runs, diff any two with ledger "
             "blame, render the HTML dashboard")
    p.add_argument("--db", metavar="PATH", default=None,
                   help="history database (overrides --history-db)")
    hsub = p.add_subparsers(dest="history_command", required=True)
    hp = hsub.add_parser("record",
                         help="append a bench payload as a new run")
    hp.add_argument("payload", metavar="BENCH.json",
                    help="payload produced by 'spectresim bench'")
    hp.add_argument("--kind", default="bench",
                    choices=["bench", "check", "profile", "study",
                             "fuzz", "explain"])
    hp.add_argument("--allow-dirty", action="store_true",
                    help="record even when the payload's code fingerprint "
                         "does not match the running code; the row is "
                         "flagged and annotated in trend lines")
    hsub.add_parser("list", help="list recorded runs")
    hp = hsub.add_parser(
        "diff",
        help="diff two runs cell-by-cell with a per-mitigation ledger "
             "blame waterfall (deltas sum exactly to each cell's TSC "
             "delta)")
    hp.add_argument("run_a", help="run id, 'latest', or 'prev'")
    hp.add_argument("run_b", nargs="?", default="latest",
                    help="run id, 'latest' (default), or 'prev'")
    hp = hsub.add_parser(
        "report", help="render the self-contained HTML dashboard")
    hp.add_argument("--out", metavar="PATH", default="history.html")
    hp.add_argument("--title", default="spectresim run history")
    hp = hsub.add_parser("gc", help="drop the oldest runs beyond --keep")
    hp.add_argument("--keep", type=int, required=True, metavar="N",
                    help="number of newest runs to retain")
    hp.add_argument("--dry-run", action="store_true",
                    help="list the runs gc would remove without "
                         "touching the database")

    p = sub.add_parser(
        "leakage",
        help="taint-oracle leakage surface: blocked/leaked matrix per "
             "CPU model and mitigation policy, or the raw event log")
    lsub = p.add_subparsers(dest="leakage_command", required=True)

    def _add_leakage_flags(lp: argparse.ArgumentParser) -> None:
        lp.add_argument("--policy", default="default",
                        choices=["default", "off", "ibrs"],
                        help="mitigation policy the probe grid runs under "
                             "(default: each part's Linux-default strategy)")
        lp.add_argument("--cpus", nargs="*",
                        help="CPU keys to probe (default: all modelled CPUs)")
        lp.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="probe trials per (cpu, boundary) cell")
        lp.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
        lp.add_argument("--max-events", type=int, default=200,
                        help="cap on raw events carried in the report")

    lp = lsub.add_parser("matrix",
                         help="cpu x train->victim boundary verdicts with "
                              "blocked-by mitigation attribution")
    _add_leakage_flags(lp)
    lp = lsub.add_parser("events", help="the leakage event flight record")
    _add_leakage_flags(lp)
    lp.add_argument("--trace-out", metavar="PATH", default=None,
                    help="also write the events as Perfetto instant "
                         "events (Chrome trace-event JSON) here")

    p = sub.add_parser(
        "fuzz",
        help="differential scenario fuzzer: random programs vs the "
             "engine-parity and leakage-contract oracles, with "
             "minimized replayable reproducers on violation")
    p.add_argument("--seed", type=int, default=1,
                   help="campaign base seed (corpus and every cell's "
                        "noise stream derive from it)")
    p.add_argument("--programs", type=_positive_int, default=None,
                   metavar="N",
                   help="corpus size (default: 25, or 6 with --smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized campaign: 6 programs over one part "
                        "per predictor family")
    p.add_argument("--cpus", nargs="*",
                   help="CPU keys to sweep (default: all modelled CPUs)")
    p.add_argument("--trials", type=_positive_int, default=2, metavar="N",
                   help="probe trials per (cell, scenario); the contract "
                        "is one-sided so few trials stay sound")
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="fan cells out over N worker processes "
                        "(verdicts are bit-identical to --jobs 1)")
    p.add_argument("--out", metavar="DIR", default="fuzz-out",
                   help="directory for minimized reproducers and the "
                        "campaign summary")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="re-run a reproducer file's pinned cell instead "
                        "of a fresh campaign; exits 1 if it still "
                        "violates")

    p = sub.add_parser(
        "explain",
        help="first-divergence explainer: timeline-trace a parity cell "
             "and pinpoint the earliest divergent microarchitectural "
             "event (structure, tsc, instruction index)")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="reproducer file from 'spectresim fuzz'; a "
                        "'# fault:' directive re-applies the injected "
                        "parity fault on the second traced run")
    p.add_argument("--cell", metavar="CPU:POLICY", default=None,
                   help="explain a generated cell (e.g. broadwell:off) "
                        "instead of a reproducer file")
    p.add_argument("--seed", type=int, default=1,
                   help="base seed for --cell program generation")
    p.add_argument("--program", type=int, default=0, metavar="N",
                   help="fuzz-corpus index of the --cell program")
    p.add_argument("--fault", metavar="OP", default=None,
                   help="inject the deterministic parity fault on OP "
                        "in the second traced run (--cell only)")
    p.add_argument("--against", metavar="RUN", default=None,
                   help="compare event digest and per-structure counts "
                        "against a recorded explain run (id, 'latest', "
                        "or 'prev')")
    p.add_argument("--window", type=_positive_int, default=8, metavar="N",
                   help="events of context on each side of the "
                        "divergence (default: 8)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the recorded event stream as Perfetto "
                        "instant events (Chrome trace-event JSON) here")

    p = sub.add_parser("all", help="run everything, write artifacts")
    p.add_argument("--outdir", default="results")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--cpus", nargs="*")
    _add_executor_flags(p)

    return parser


_COMMANDS = {
    "cpus": cmd_cpus,
    "table": cmd_table,
    "figure": cmd_figure,
    "vm": cmd_vm,
    "parsec": cmd_parsec,
    "bimodal": cmd_bimodal,
    "attacks": cmd_attacks,
    "sweep": cmd_sweep,
    "export": cmd_export,
    "summary": cmd_summary,
    "regress": cmd_regress,
    "profile": cmd_profile,
    "bench": cmd_bench,
    "check": cmd_check,
    "history": cmd_history,
    "leakage": cmd_leakage,
    "fuzz": cmd_fuzz,
    "explain": cmd_explain,
    "all": cmd_all,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    blockengine.set_default_engine(args.engine)
    trace_path = getattr(args, "trace", None)
    if trace_path and args.command != "profile":
        tracer = obs.SpanTracer()
        started = time.perf_counter()
        with obs.use_observers(tracer):
            output = _COMMANDS[args.command](args)
        manifest = obs.build_manifest(
            command=args.command,
            settings=_settings(args)
            if hasattr(args, "fast") else None,
            cpus=[cpu.key for cpu in _selected_cpus(args)],
            wall_time_s=round(time.perf_counter() - started, 3),
            sim_cycles=tracer.total_cycles(),
        )
        obs.write_chrome_trace(trace_path, tracer, provenance=manifest)
        output += (f"[trace] {len(tracer.spans)} spans, "
                   f"{100.0 * tracer.coverage():.1f}% cycle coverage -> "
                   f"{trace_path}\n")
    else:
        output = _COMMANDS[args.command](args)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
