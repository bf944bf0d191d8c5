"""Differential harness: generated programs vs two machine-checkable
contracts.

Each generated program is swept across the full CPU catalogue under the
three mitigation policies the leakage grid knows (`default`, `off`,
`ibrs`), and every (program, cpu, policy) cell is checked against two
oracles:

* **engine parity** — the block-compilation engine must be bit-identical
  to the interpreter: same per-repeat cycles, same TSC, same value for
  every counter in ``ALL_COUNTERS``, same cycle-ledger paths/rollup, and
  the same store-buffer and TLB state in the same order.  The program is
  run several times so sequences compile and memos replay.

* **leakage contract** — the section 6 BTB probe, run after the program
  has perturbed every predictor/cache structure, must (a) keep the taint
  oracle and the divider-counter signal in agreement
  (``leaked == speculated``), and (b) never leak on a cell whose policy
  or hardware *promises* to block the BTB primitive (retpolines, IBRS
  prediction suppression, eIBRS mode tags, Zen 3's opaque index — the
  Table 9/10 shape).  The contract is deliberately one-sided: must-leak
  is never asserted, because the eIBRS periodic scrub consumes seeded
  randomness and generated-program syscalls shift it, making individual
  leaks seed-dependent (section 6.2.2).

Violations carry a printable reproducer (the program text) and enough
metadata to replay the exact cell; :mod:`repro.fuzz.minimize` shrinks
them.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.probe import (
    POLICIES,
    POLICY_DEFAULT,
    POLICY_IBRS,
    SCENARIOS,
    Scenario,
    _policy_machine,
    cell_supported,
    probe_cell,
)
from ..core.stats import derive_seed
from ..cpu import all_cpus, engine, get_cpu
from ..cpu.counters import ALL_COUNTERS
from ..cpu.machine import Machine
from ..cpu.model import CPUModel
from ..obs import ledger as obs_ledger
from ..obs.observers import use_observers
from .generator import Program, generate_program, parse_program

ORACLE_PARITY = "engine_parity"
ORACLE_LEAKAGE = "leakage_contract"

#: Block compilation triggers after a sequence is seen twice, so three
#: repeats guarantee at least one replay through the compiled path.
PARITY_REPEATS = 3

#: Probe trials per scenario.  The contract is one-sided, so fewer trials
#: than the Table 9/10 default (6) stay sound; 2 keeps the grid fast.
FUZZ_TRIALS = 2


@dataclass(frozen=True)
class Violation:
    """One oracle failure, addressable and replayable.

    ``problems`` is the machine-readable form: one dict per finding,
    each with a ``kind`` plus kind-specific fields and its rendered
    ``detail`` line; the flat ``detail`` string is the joined rendering
    kept for compatibility.
    """

    oracle: str
    program: str
    seed: int
    cpu: str
    policy: str
    detail: str
    scenario: str = ""
    problems: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "program": self.program,
            "seed": self.seed,
            "cpu": self.cpu,
            "policy": self.policy,
            "detail": self.detail,
            "scenario": self.scenario,
            "problems": [dict(problem) for problem in self.problems],
        }


# --------------------------------------------------------------------------- #
# Test-only parity-fault injection
# --------------------------------------------------------------------------- #

#: When set (op name, lower case), the block-engine side of the parity
#: check reports one extra TSC cycle per occurrence of that op in the
#: stream — a deliberate, deterministic parity bug that exercises the
#: violation -> minimize -> reproduce pipeline end to end without
#: touching engine code.  Never set outside tests.
_parity_fault_op: Optional[str] = None


@contextmanager
def parity_fault(op_name: str) -> Iterator[None]:
    """Scoped test hook: perturb the block-side TSC per ``op_name``."""
    global _parity_fault_op
    previous = _parity_fault_op
    _parity_fault_op = op_name.lower()
    try:
        yield
    finally:
        _parity_fault_op = previous


def _fault_delta(stream: Sequence[Any]) -> int:
    if _parity_fault_op is None:
        return 0
    return sum(1 for instr in stream
               if instr.op.name.lower() == _parity_fault_op)


# --------------------------------------------------------------------------- #
# Oracle (a): engine parity
# --------------------------------------------------------------------------- #

def _run_parity_side(program: Program, cpu: CPUModel, policy: str,
                     seed: int, mode: str, repeats: int):
    with engine.use_engine(mode):
        ledger = obs_ledger.CycleLedger()
        with use_observers(ledger):
            machine, retpoline = _policy_machine(cpu, policy, seed)
            program.install(machine, retpoline=retpoline)
            stream = program.instructions(retpoline=retpoline)
            cycles = [machine.run(stream) for _ in range(repeats)]
    return cycles, machine, ledger, stream


def _problem(kind: str, detail: str, **fields: Any) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"kind": kind, "detail": detail}
    entry.update(fields)
    return entry


def check_engine_parity(program: Program, cpu: CPUModel, policy: str,
                        seed: int,
                        repeats: int = PARITY_REPEATS) -> List[Violation]:
    """Block engine vs interpreter on one cell; empty list = parity."""
    blk_cycles, blk_machine, blk_ledger, stream = _run_parity_side(
        program, cpu, policy, seed, engine.ENGINE_BLOCK, repeats)
    int_cycles, int_machine, int_ledger, _ = _run_parity_side(
        program, cpu, policy, seed, engine.ENGINE_INTERP, repeats)

    problems: List[Dict[str, Any]] = []
    blk_tsc = blk_machine.read_tsc() + _fault_delta(stream)
    int_tsc = int_machine.read_tsc()
    if blk_tsc != int_tsc:
        problems.append(_problem(
            "tsc", f"tsc: block={blk_tsc} interp={int_tsc}",
            block=blk_tsc, interp=int_tsc))
    if blk_cycles != int_cycles:
        problems.append(_problem(
            "cycles",
            f"per-repeat cycles: block={blk_cycles} interp={int_cycles}",
            block=list(blk_cycles), interp=list(int_cycles)))
    for name in sorted(ALL_COUNTERS):
        blk = blk_machine.counters.events.get(name, 0)
        ref = int_machine.counters.events.get(name, 0)
        if blk != ref:
            problems.append(_problem(
                "counter", f"counter {name}: block={blk} interp={ref}",
                name=name, block=blk, interp=ref))
    if blk_ledger.paths() != int_ledger.paths():
        problems.append(_problem("ledger_paths", "ledger paths diverged"))
    if blk_ledger.rollup() != int_ledger.rollup():
        problems.append(_problem("ledger_rollup", "ledger rollup diverged"))
    if (list(blk_machine.store_buffer._pending.items())
            != list(int_machine.store_buffer._pending.items())):
        problems.append(_problem("store_buffer",
                                 "store-buffer state diverged"))
    if (list(blk_machine.tlb._entries.items())
            != list(int_machine.tlb._entries.items())):
        problems.append(_problem("tlb", "TLB state diverged"))
    if not problems:
        return []
    if _parity_fault_op is not None:
        problems.append(_problem(
            "injected_fault", f"injected_fault: op={_parity_fault_op}",
            op=_parity_fault_op))
    return [Violation(oracle=ORACLE_PARITY, program=program.name,
                      seed=program.seed, cpu=cpu.key, policy=policy,
                      detail="; ".join(p["detail"] for p in problems),
                      problems=tuple(problems))]


# --------------------------------------------------------------------------- #
# Oracle (b): leakage contract
# --------------------------------------------------------------------------- #

def blocked_promise(cpu: CPUModel, policy: str, scenario: Scenario,
                    retpoline: bool) -> Tuple[str, ...]:
    """Mechanisms that *promise* to block the BTB primitive on this cell.

    Mirrors ``Machine._indirect_prediction_allowed`` and the BTB's
    hardware filters; a non-empty promise means the cell must never
    leak, whatever program ran beforehand (the Table 9/10 shape).
    """
    pred = cpu.predictor
    promises: List[str] = []
    if retpoline:
        promises.append("spectre_v2/retpoline")
    ibrs_on = policy == POLICY_IBRS or (policy == POLICY_DEFAULT
                                        and not retpoline)
    if ibrs_on:
        if pred.ibrs_blocks_all_prediction and not pred.supports_eibrs:
            promises.append("spectre_v2/ibrs_no_predict")
        if (pred.supports_eibrs and pred.eibrs_blocks_kernel_prediction
                and scenario.victim_mode.is_kernel):
            promises.append("spectre_v2/ibrs_no_predict")
    if pred.btb_opaque_index:
        promises.append("hardware/btb_isolation")
    if pred.btb_mode_tagged and scenario.train_mode is not scenario.victim_mode:
        promises.append("hardware/btb_isolation")
    return tuple(promises)


def check_leakage_contract(program: Program, cpu: CPUModel, policy: str,
                           seed: int,
                           trials: int = FUZZ_TRIALS) -> List[Violation]:
    """The section 6 probe cell per scenario, the program as its prelude."""
    # The cell tells its prelude whether the policy compiles branches as
    # retpolines: the program installs that way, and the promise needs it.
    retpoline = False

    def run_program(machine: Machine, victim_retpoline: bool) -> None:
        nonlocal retpoline
        retpoline = victim_retpoline
        program.install(machine, retpoline=retpoline)
        data = program.data_addresses()
        if data:
            # Exercise the data-taint propagation paths (store-buffer,
            # caches, TLB, MDS residue) while the program runs.
            machine.hooks.taint_address(data[0])
        machine.run(program.instructions(retpoline=retpoline))

    violations: List[Violation] = []
    for scenario in SCENARIOS:
        verdict, _ = probe_cell(cpu, policy, scenario, trials, seed,
                                prelude=run_program)
        problems = []
        if verdict.leaked != verdict.speculated:
            problems.append(_problem(
                "oracle_disagreement",
                (f"oracle disagreement: leaked={verdict.leaked} "
                 f"speculated={verdict.speculated}"),
                leaked=verdict.leaked, speculated=verdict.speculated))
        promises = blocked_promise(cpu, policy, scenario, retpoline)
        if promises and verdict.leaked:
            problems.append(_problem(
                "promise_broken",
                (f"leak on a promised-blocked cell: "
                 f"{', '.join(promises)} promised, but "
                 f"{verdict.events} leakage event(s) fired"),
                promises=list(promises), events=verdict.events))
        violations.extend(Violation(
            oracle=ORACLE_LEAKAGE, program=program.name, seed=program.seed,
            cpu=cpu.key, policy=policy, scenario=scenario.label,
            detail=problem["detail"], problems=(problem,))
            for problem in problems)
    return violations


# --------------------------------------------------------------------------- #
# Cells and campaigns
# --------------------------------------------------------------------------- #

def check_cell(program: Program, cpu: CPUModel, policy: str,
               base_seed: int, repeats: int = PARITY_REPEATS,
               trials: int = FUZZ_TRIALS) -> List[Violation]:
    """Both oracles on one (program, cpu, policy) cell."""
    seed = derive_seed(base_seed, "fuzz", program.name, cpu.key, policy)
    violations = check_engine_parity(program, cpu, policy, seed,
                                     repeats=repeats)
    violations.extend(check_leakage_contract(program, cpu, policy, seed,
                                             trials=trials))
    return violations


@functools.lru_cache(maxsize=64)
def _parsed(text: str) -> Program:
    """One parse per program text per process: every cell of a program
    shares one :class:`Program`, and with it its materialized streams."""
    return parse_program(text)


def _cell_worker(args: Tuple[str, str, str, int, int, int, Optional[str]]
                 ) -> List[Violation]:
    """Module-level so ProcessPoolExecutor can pickle it; ships the
    parity-fault op explicitly so parallel runs match serial ones."""
    text, cpu_key, policy, base_seed, repeats, trials, fault = args
    program = _parsed(text)
    cpu = get_cpu(cpu_key)
    if fault is not None:
        with parity_fault(fault):
            return check_cell(program, cpu, policy, base_seed,
                              repeats=repeats, trials=trials)
    return check_cell(program, cpu, policy, base_seed,
                      repeats=repeats, trials=trials)


@dataclass
class FuzzConfig:
    """One campaign's knobs (all deterministic given ``seed``)."""

    seed: int = 1
    programs: int = 25
    cpu_keys: Tuple[str, ...] = ()
    policies: Tuple[str, ...] = POLICIES
    repeats: int = PARITY_REPEATS
    trials: int = FUZZ_TRIALS
    jobs: int = 1

    def resolved_cpu_keys(self) -> Tuple[str, ...]:
        if self.cpu_keys:
            return self.cpu_keys
        return tuple(cpu.key for cpu in all_cpus())


@dataclass
class CampaignResult:
    """Everything a campaign learned, serializable for the history DB."""

    config: FuzzConfig
    programs: List[Program] = field(default_factory=list)
    cells: int = 0
    skipped: int = 0
    violations: List[Violation] = field(default_factory=list)

    def verdict_map(self) -> Dict[str, str]:
        """cell key -> 'ok' | violation detail; the determinism witness."""
        verdicts: Dict[str, str] = {}
        for program in self.programs:
            for cpu_key in self.config.resolved_cpu_keys():
                for policy in self.config.policies:
                    key = f"{program.name}/{cpu_key}/{policy}"
                    if not cell_supported(get_cpu(cpu_key), policy):
                        verdicts[key] = "skipped"
                    else:
                        verdicts[key] = "ok"
        for violation in self.violations:
            key = (f"{violation.program}/{violation.cpu}/"
                   f"{violation.policy}")
            verdicts[key] = f"violation: {violation.detail}"
        return verdicts

    def telemetry(self) -> Dict[str, Any]:
        return {
            "fuzz": {
                "seed": self.config.seed,
                "programs": len(self.programs),
                "cells": self.cells,
                "skipped": self.skipped,
                "violations": len(self.violations),
            }
        }


def generate_corpus(config: FuzzConfig) -> List[Program]:
    """The campaign's programs; program i is seeded independently via
    ``derive_seed`` so corpora never correlate across base seeds."""
    return [generate_program(derive_seed(config.seed, "fuzz-program",
                                         str(i)))
            for i in range(config.programs)]


def fuzz_campaign(config: FuzzConfig,
                  programs: Optional[Sequence[Program]] = None,
                  progress: Optional[Any] = None,
                  ) -> CampaignResult:
    """Sweep the corpus over the CPU x policy grid, both oracles per
    cell.  ``jobs > 1`` fans cells out over processes; results are
    assembled in submission order, so parallel == serial bit for bit.

    ``progress``, when given, is called as ``progress(done, total)``
    after every completed cell (``pool.map`` yields results in order, so
    the parallel path reports incrementally too).
    """
    corpus = list(programs) if programs is not None \
        else generate_corpus(config)
    result = CampaignResult(config=config, programs=corpus)
    tasks: List[Tuple[str, str, str, int, int, int, Optional[str]]] = []
    for program in corpus:
        text = program.to_text()
        for cpu_key in config.resolved_cpu_keys():
            for policy in config.policies:
                if not cell_supported(get_cpu(cpu_key), policy):
                    result.skipped += 1
                    continue
                tasks.append((text, cpu_key, policy, config.seed,
                              config.repeats, config.trials,
                              _parity_fault_op))
    result.cells = len(tasks)
    done = 0
    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for cell_violations in pool.map(_cell_worker, tasks):
                result.violations.extend(cell_violations)
                done += 1
                if progress is not None:
                    progress(done, len(tasks))
    else:
        for task in tasks:
            result.violations.extend(_cell_worker(task))
            done += 1
            if progress is not None:
                progress(done, len(tasks))
    return result
