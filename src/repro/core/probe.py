"""The speculation probe: the paper's Figure 6 / section 6 methodology.

The probe determines whether a poisoned Branch Target Buffer entry can
steer *transient* execution to an attacker-chosen landing pad, using a
performance counter that the landing pad perturbs even on the wrong path:
``ARITH.DIVIDER_ACTIVE`` (a divide at the pad keeps the divider busy;
Bölük's technique).

Protocol, mirroring Figure 6:

1. register a ``victim_target`` landing pad containing a divide, and a
   ``nop_target`` pad containing nothing interesting;
2. **train**: in the attacker's mode, repeatedly execute the indirect
   branch at a fixed PC with ``victim_target`` as its real target;
3. optionally perform an intervening ``syscall``/``sysret`` (the paper's
   two column groups);
4. **probe**: in the victim's mode, fill the branch history, flush the
   target variable, read the divider counter, execute the same branch
   with ``nop_target`` as the real target, and re-read the counter.
   A counter delta means the poisoned prediction was consumed and the
   divide at ``victim_target`` executed transiently.

Tables 9 and 10 are this probe swept over five (attacker, victim,
intervening-syscall) scenarios with IBRS off and on respectively.

One function builds and runs a probe cell, :func:`probe_cell`: a
machine configured for a mitigation policy, the taint-tracking leakage
tracer (:mod:`repro.obs.leakage`) attached as the oracle, an optional
prelude, then the rounds.  Its :class:`ProbeVerdict` carries both the
divider-counter signal (``speculated``) and the tracer's view
(``leaked``, plus *blocked-by* attribution naming the mitigation that
cleared the taint).  The two signals derive from the same mechanistic
window, so they agree by construction — the oracle-agreement tests pin
that invariant.  :func:`leakage_report` sweeps the cell over CPUs and
scenarios; Tables 9/10, ``spectresim leakage``, the bench payload's
leakage block and the fuzzer's leakage contract all read those two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cpu import counters as ctr
from ..cpu import isa
from ..cpu.machine import AMD_RETPOLINE, Machine
from ..cpu.model import CPUModel
from ..cpu.modes import Mode
from ..obs import leakage as obs_leakage

#: Probe code layout: the shared branch site and the two landing pads.
BRANCH_PC = 0x60_0000
VICTIM_TARGET = 0x61_0000
NOP_TARGET = 0x62_0000

#: Training repetitions (the paper uses 1024; the model BTB trains in one,
#: but we keep several to exercise re-installation).
TRAIN_ROUNDS = 8

#: Independent probe trials; any success counts (the eIBRS periodic scrub
#: can eat individual trials on the syscall paths, cf. section 6.2.2).
DEFAULT_TRIALS = 6

# The protocol's fixed instruction blocks, built once: each step of a
# round is one ``Machine.run`` over an interned tuple.  The training
# branch stays plain (attackers do not compile their own code with
# retpolines); the victim branch is indexed by the probe's ``retpoline``.
_TRAINING = (isa.branch_indirect(VICTIM_TARGET, pc=BRANCH_PC),) * TRAIN_ROUNDS
_VICTIM_BRANCH = tuple(
    isa.branch_indirect(NOP_TARGET, pc=BRANCH_PC, retpoline=retpoline)
    for retpoline in (False, True))
#: divide_happened() from Figure 6: fill the branch history with 16
#: conditional branches, then flush the target variable from cache.
_HISTORY_FILL = tuple(isa.branch_cond(pc=0x7000 + 4 * i)
                      for i in range(16)) + (isa.clflush(NOP_TARGET),)


@dataclass(frozen=True)
class Scenario:
    """One Table 9/10 column: train mode -> victim mode, syscall or not."""

    train_mode: Mode
    victim_mode: Mode
    intervening_syscall: bool

    @property
    def label(self) -> str:
        arrow = f"{self.train_mode.value}->{self.victim_mode.value}"
        suffix = "syscall" if self.intervening_syscall else "direct"
        return f"{arrow} ({suffix})"


#: The five scenarios of Tables 9 and 10, in column order.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(Mode.USER, Mode.KERNEL, True),
    Scenario(Mode.USER, Mode.USER, True),
    Scenario(Mode.KERNEL, Mode.KERNEL, True),
    Scenario(Mode.USER, Mode.USER, False),
    Scenario(Mode.KERNEL, Mode.KERNEL, False),
)

#: The extra scenario the paper mentions in prose (kernel->user behaves
#: like user->kernel on vulnerable parts).
KERNEL_TO_USER = Scenario(Mode.KERNEL, Mode.USER, True)

#: Leakage-grid mitigation policies.
POLICY_OFF = "off"          # everything disabled (Table 9 conditions)
POLICY_IBRS = "ibrs"        # SPEC_CTRL.IBRS set (Table 10 conditions)
POLICY_DEFAULT = "default"  # the Linux default V2 strategy per CPU

#: Every leakage-grid policy, in sweep order (fuzz cell keys and history
#: records depend on it).
POLICIES: Tuple[str, ...] = (POLICY_DEFAULT, POLICY_OFF, POLICY_IBRS)


@dataclass(frozen=True)
class ProbeVerdict:
    """Structured outcome of probing one (CPU, scenario) cell.

    ``speculated`` is the divider-counter signal (a Table 9/10 check
    mark); ``leaked`` is the taint oracle's verdict (a ``port_timing``
    leakage event fired); ``blocked_by`` names the mitigation/primitive
    pairs that cleared or bypassed the tainted predictor state during the
    probe.
    """

    speculated: bool
    mispredicted: bool = False
    leaked: bool = False
    blocked_by: Tuple[str, ...] = ()
    events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """The payload form: ``blocked_by`` as a list, as JSON holds it."""
        return dict(vars(self), blocked_by=list(self.blocked_by))


class SpeculationProbe:
    """Drives the Figure 6 protocol on one machine.

    ``retpoline`` converts the *victim-side* probe branch into a
    retpoline (the attacker's training branches stay plain — attackers
    do not compile their own code with retpolines), modelling a kernel
    built with ``CONFIG_RETPOLINE``.
    """

    def __init__(self, machine: Machine, retpoline: bool = False) -> None:
        self.machine = machine
        self.retpoline = retpoline
        machine.register_code(VICTIM_TARGET, [isa.div()])
        machine.register_code(NOP_TARGET, [isa.nop()])

    # -- protocol steps ---------------------------------------------------- #

    def train(self, mode: Mode) -> None:
        """Poison the branch site toward the divide pad, in ``mode``."""
        self.machine.mode = mode
        self.machine.run(_TRAINING)

    def _intervening_transition(self, scenario: Scenario) -> None:
        """Cross modes with real syscall/sysret instructions."""
        machine = self.machine
        if scenario.train_mode is Mode.USER:
            machine.execute(isa.syscall_instr())      # user -> kernel
            if scenario.victim_mode is Mode.USER:
                machine.execute(isa.sysret_instr())   # back to user
        else:
            machine.execute(isa.sysret_instr())       # kernel -> user
            if scenario.victim_mode is Mode.KERNEL:
                machine.execute(isa.syscall_instr())  # back to kernel

    def _prepare_round(self, scenario: Scenario) -> None:
        """Everything a round does before the victim branch: train, cross
        modes, then fill the branch history and flush the target."""
        machine = self.machine
        self.train(scenario.train_mode)
        if scenario.intervening_syscall:
            self._intervening_transition(scenario)
        machine.mode = scenario.victim_mode
        machine.run(_HISTORY_FILL)

    def probe_both_counters(self, scenario: Scenario) -> Tuple[bool, bool]:
        """One train->probe round, reading *both* counters the paper
        discusses.

        Returns ``(mispredicted, divider_active)``.  The two can disagree:
        "we sometimes observed mispredicted indirect branches without any
        divide instructions being performed, which we interpret as the
        processor speculatively executing instructions at a different
        location" (section 6.1) — e.g. after an IBPB, when entries point
        at the harmless gadget.  This disagreement is exactly why the
        paper (and this probe) trusts the divider counter.
        """
        counters = self.machine.counters
        self._prepare_round(scenario)
        div_before = counters.read(ctr.DIVIDER_ACTIVE)
        misp_before = counters.read(ctr.MISPREDICTED_INDIRECT)
        self.machine.execute(_VICTIM_BRANCH[self.retpoline])
        mispredicted = counters.read(ctr.MISPREDICTED_INDIRECT) > misp_before
        divider = counters.read(ctr.DIVIDER_ACTIVE) > div_before
        return mispredicted, divider

    def probe(self, scenario: Scenario,
              trials: int = DEFAULT_TRIALS) -> ProbeVerdict:
        """Probe one scenario with the taint oracle engaged.

        Needs the leakage tracer attached to the machine (``machine.hooks``;
        :func:`probe_cell` attaches one).  Labels the victim landing pad as
        attacker-controlled code, runs ``trials`` rounds (any success
        counts), and folds both counter signals and the tracer's
        leakage/blocked-by deltas into a :class:`ProbeVerdict`.
        """
        tracer = self.machine.hooks
        tracer.taint_code(VICTIM_TARGET)
        port_before = tracer.count(obs_leakage.PORT_TIMING)
        events_before = tracer.total_events()
        blocked_before = dict(tracer.blocked)
        mispredicted = False
        speculated = False
        for _ in range(trials):
            misp, divider = self.probe_both_counters(scenario)
            mispredicted = mispredicted or misp
            speculated = speculated or divider
        return ProbeVerdict(
            speculated=speculated,
            mispredicted=mispredicted,
            leaked=tracer.count(obs_leakage.PORT_TIMING) > port_before,
            blocked_by=tuple(sorted(
                key for key, count in tracer.blocked.items()
                if count > blocked_before.get(key, 0))),
            events=tracer.total_events() - events_before,
        )


# --------------------------------------------------------------------------- #
# Probe cells and the leakage grid: the probe under mitigation policies
# --------------------------------------------------------------------------- #

def _policy_machine(cpu: CPUModel, policy: str, seed: int) -> Tuple[Machine, bool]:
    """A machine configured for ``policy``; returns (machine, retpoline)."""
    machine = Machine(cpu, seed=seed)
    if policy == POLICY_OFF:
        return machine, False
    if policy == POLICY_IBRS:
        machine.msr.set_ibrs(True)
        return machine, False
    if policy == POLICY_DEFAULT:
        from ..mitigations.base import V2Strategy
        from ..mitigations.policy import default_v2_strategy
        strategy = default_v2_strategy(cpu)
        if strategy is V2Strategy.EIBRS:
            machine.msr.set_ibrs(True)
            return machine, False
        if strategy is V2Strategy.RETPOLINE_AMD:
            machine.retpoline_variant = AMD_RETPOLINE
        return machine, True
    raise ValueError(f"unknown leakage policy {policy!r}")


def cell_supported(cpu: CPUModel, policy: str) -> bool:
    """False for the Table 10 N/A row (IBRS on a part without it)."""
    return (policy != POLICY_IBRS or cpu.predictor.supports_ibrs
            or cpu.predictor.supports_eibrs)


def probe_cell(
    cpu: CPUModel,
    policy: str,
    scenario: Scenario,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    prelude: Optional[Callable[[Machine, bool], None]] = None,
) -> Tuple[ProbeVerdict, obs_leakage.LeakageTracer]:
    """Probe one (CPU, policy, scenario) cell on a fresh machine.

    The machine is configured for ``policy`` and keeps the leakage tracer
    in scope (see :func:`repro.obs.use_observers`), else gets a fresh
    one.  ``prelude(machine, retpoline)``, when given, runs before the
    probe, with the tracer attached; ``retpoline`` says whether the
    policy compiles the victim branch as a retpoline.  Returns the
    verdict and the tracer.
    """
    machine, retpoline = _policy_machine(cpu, policy, seed)
    if machine.hooks is None:
        machine.attach(obs_leakage.LeakageTracer(policy=policy))
    if prelude is not None:
        prelude(machine, retpoline)
    probe = SpeculationProbe(machine, retpoline=retpoline)
    return probe.probe(scenario, trials), machine.hooks


def leakage_report(
    cpus: Sequence[CPUModel],
    policy: str = POLICY_DEFAULT,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    max_events: int = 200,
) -> Dict[str, Any]:
    """The probe grid: every :data:`SCENARIOS` cell of each CPU under
    ``policy``, taint oracle on.

    Returns the serializable leakage surface: ``matrix`` (CPU key ->
    scenario label -> verdict dict, or None for a CPU that does not
    support the policy), the first ``max_events`` raw events, and the
    merged tracer ``state`` and ``summary`` (the shape shipped in bench
    payloads, stored in the history DB and rendered by the dashboard
    panel).  Tables 9 and 10 are its ``off`` and ``ibrs`` grids.
    """
    aggregate = obs_leakage.LeakageTracer(policy=policy)
    matrix: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    for cpu in cpus:
        if not cell_supported(cpu, policy):
            matrix[cpu.key] = None
            continue
        cells: Dict[str, Any] = {}
        for scenario in SCENARIOS:
            verdict, tracer = probe_cell(cpu, policy, scenario, trials, seed)
            cells[scenario.label] = verdict.to_dict()
            aggregate.merge_state(tracer.state())
            events.extend(event.to_dict() for event
                          in tracer.events[:max_events - len(events)])
        matrix[cpu.key] = cells
    return {
        "policy": policy,
        "matrix": matrix,
        "events": events,
        "state": aggregate.state(),
        "summary": aggregate.summary().to_dict(),
    }
