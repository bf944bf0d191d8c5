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

The probe is rebased on the taint-tracking leakage tracer
(:mod:`repro.obs.leakage`) as its oracle: every probed cell returns a
structured :class:`ProbeVerdict` carrying both the legacy counter signal
(``speculated``) and the tracer's view (``leaked``, plus *blocked-by*
attribution naming the mitigation that cleared the taint).  The two
signals derive from the same mechanistic window, so they agree by
construction — the oracle-agreement tests pin that invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
_TRAINING_BRANCH = isa.branch_indirect(VICTIM_TARGET, pc=BRANCH_PC)
_TRAINING = (_TRAINING_BRANCH,) * TRAIN_ROUNDS
_VICTIM_BRANCH = tuple(
    isa.branch_indirect(NOP_TARGET, pc=BRANCH_PC, retpoline=retpoline)
    for retpoline in (False, True))
#: The victim branch bracketed by counter reads (``probe_once``).
_VICTIM_BRACKET = tuple((isa.rdpmc(), victim, isa.rdpmc())
                        for victim in _VICTIM_BRANCH)
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


class ProbeVerdict:
    """Structured outcome of probing one (CPU, scenario) cell.

    ``speculated`` is the legacy divider-counter signal (the bare boolean
    the probe used to return); ``leaked`` is the taint oracle's verdict
    (a ``port_timing`` leakage event fired); ``blocked_by`` names the
    mitigation/primitive pairs that cleared or bypassed the tainted
    predictor state during the probe.  Verdicts compare equal to plain
    booleans on the ``speculated`` bit, so Table 9/10 expectations keep
    reading naturally.
    """

    __slots__ = ("speculated", "mispredicted", "leaked", "blocked_by",
                 "events", "label")

    def __init__(self, speculated: bool, mispredicted: bool = False,
                 leaked: bool = False,
                 blocked_by: Tuple[str, ...] = (),
                 events: int = 0, label: str = "") -> None:
        self.speculated = speculated
        self.mispredicted = mispredicted
        self.leaked = leaked
        self.blocked_by = tuple(blocked_by)
        self.events = events
        self.label = label

    def __bool__(self) -> bool:
        return self.speculated

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, ProbeVerdict):
            return (self.speculated == other.speculated
                    and self.mispredicted == other.mispredicted
                    and self.leaked == other.leaked
                    and self.blocked_by == other.blocked_by
                    and self.events == other.events)
        if isinstance(other, bool):
            return self.speculated is other
        return NotImplemented

    def __ne__(self, other: Any) -> Any:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self.speculated)

    def __repr__(self) -> str:
        return ("ProbeVerdict(speculated={0}, leaked={1}, blocked_by={2})"
                .format(self.speculated, self.leaked, self.blocked_by))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "speculated": self.speculated,
            "mispredicted": self.mispredicted,
            "leaked": self.leaked,
            "blocked_by": list(self.blocked_by),
            "events": self.events,
        }


class SpeculationProbe:
    """Drives the Figure 6 protocol on one machine.

    ``retpoline`` converts the *victim-side* probe branch into a
    retpoline (the attacker's training branches stay plain — attackers
    do not compile their own code with retpolines), modelling a kernel
    built with ``CONFIG_RETPOLINE``.
    """

    def __init__(self, machine: Machine, retpoline: bool = False,
                 policy: str = "custom") -> None:
        self.machine = machine
        self.retpoline = retpoline
        self.policy = policy
        machine.register_code(VICTIM_TARGET, [isa.div()])
        machine.register_code(NOP_TARGET, [isa.nop()])

    # -- protocol steps ---------------------------------------------------- #

    def train(self, mode: Mode, rounds: int = TRAIN_ROUNDS) -> None:
        machine = self.machine
        machine.mode = mode
        machine.run(_TRAINING if rounds == TRAIN_ROUNDS
                    else (_TRAINING_BRANCH,) * rounds)

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

    def probe_once(self, scenario: Scenario) -> bool:
        """One full train->probe round; True if the pad ran transiently."""
        counters = self.machine.counters
        self._prepare_round(scenario)
        before = counters.read(ctr.DIVIDER_ACTIVE)
        self.machine.run(_VICTIM_BRACKET[self.retpoline])
        return counters.read(ctr.DIVIDER_ACTIVE) > before

    def probe(self, scenario: Scenario, trials: int = DEFAULT_TRIALS) -> bool:
        """True if any trial steers transient execution to the pad."""
        return any(self.probe_once(scenario) for _ in range(trials))

    def probe_both_counters(self, scenario: Scenario) -> Tuple[bool, bool]:
        """One round, reading *both* counters the paper discusses.

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

    def probe_verdict(self, scenario: Scenario,
                      trials: int = DEFAULT_TRIALS) -> ProbeVerdict:
        """Probe one scenario with the taint oracle engaged.

        Attaches a :class:`repro.obs.leakage.LeakageTracer` to the machine
        (if none is attached yet), labels the victim landing pad as
        attacker-controlled code, runs ``trials`` rounds, and folds both
        the legacy counter signal and the tracer's leakage/blocked-by
        deltas into a :class:`ProbeVerdict`.
        """
        machine = self.machine
        tracer = _leakage_tracer(machine)
        if tracer is None:
            tracer = obs_leakage.LeakageTracer(policy=self.policy)
            machine.attach(tracer)
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
        leaked = tracer.count(obs_leakage.PORT_TIMING) > port_before
        blocked_by = tuple(sorted(
            key for key, count in tracer.blocked.items()
            if count > blocked_before.get(key, 0)))
        return ProbeVerdict(
            speculated=speculated,
            mispredicted=mispredicted,
            leaked=leaked,
            blocked_by=blocked_by,
            events=tracer.total_events() - events_before,
            label=scenario.label,
        )


def speculation_row(
    cpu: CPUModel,
    ibrs: bool,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> Optional[Dict[Scenario, ProbeVerdict]]:
    """One CPU's Table 9 (``ibrs=False``) or Table 10 (``ibrs=True``) row.

    The leakage grid's row under the ``off`` or ``ibrs`` policy (see
    :func:`leakage_row`).  Returns None when the configuration is
    impossible — Zen has no IBRS support, which the paper's Table 10
    marks N/A.  Cells are :class:`ProbeVerdict` objects; they compare
    equal to the bare booleans the row used to carry.
    """
    return leakage_row(cpu, POLICY_IBRS if ibrs else POLICY_OFF, trials, seed)


def speculation_matrix(
    cpus: Tuple[CPUModel, ...],
    ibrs: bool,
    trials: int = DEFAULT_TRIALS,
) -> Dict[str, Optional[Dict[Scenario, ProbeVerdict]]]:
    """The full Table 9/10 matrix over ``cpus``."""
    return {cpu.key: speculation_row(cpu, ibrs, trials) for cpu in cpus}


# --------------------------------------------------------------------------- #
# Leakage grid: the probe swept under mitigation policies, tracer attached
# --------------------------------------------------------------------------- #

def _leakage_tracer(machine: Machine) -> Optional[obs_leakage.LeakageTracer]:
    """The leakage tracer attached to ``machine``, if any."""
    for observer in machine.observers:
        if isinstance(observer, obs_leakage.LeakageTracer):
            return observer
    return None


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


def leakage_row(
    cpu: CPUModel,
    policy: str = POLICY_DEFAULT,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> Optional[Dict[Scenario, ProbeVerdict]]:
    """One CPU's probe row under a mitigation ``policy``, taint oracle on.

    Returns None for impossible configurations (``ibrs`` on a part with
    no IBRS support, mirroring Table 10's N/A row).
    """
    if policy == POLICY_IBRS and not (cpu.predictor.supports_ibrs
                                      or cpu.predictor.supports_eibrs):
        return None
    row: Dict[Scenario, ProbeVerdict] = {}
    for scenario in SCENARIOS:
        machine, retpoline = _policy_machine(cpu, policy, seed)
        probe = SpeculationProbe(machine, retpoline=retpoline, policy=policy)
        row[scenario] = probe.probe_verdict(scenario, trials)
    return row


def leakage_report(
    cpus: Tuple[CPUModel, ...],
    policy: str = POLICY_DEFAULT,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    max_events: int = 200,
) -> Dict[str, Any]:
    """Serializable leakage surface: matrix cells, sample events, and the
    merged tracer state (the shape shipped in bench payloads, stored in
    the history DB and rendered by the dashboard panel)."""
    aggregate = obs_leakage.LeakageTracer(policy=policy)
    matrix: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    for cpu in cpus:
        if policy == POLICY_IBRS and not (cpu.predictor.supports_ibrs
                                          or cpu.predictor.supports_eibrs):
            matrix[cpu.key] = None
            continue
        cells: Dict[str, Any] = {}
        for scenario in SCENARIOS:
            machine, retpoline = _policy_machine(cpu, policy, seed)
            probe = SpeculationProbe(machine, retpoline=retpoline,
                                     policy=policy)
            verdict = probe.probe_verdict(scenario, trials)
            cells[scenario.label] = verdict.to_dict()
            tracer = _leakage_tracer(machine)
            if tracer is not None:
                aggregate.merge_state(tracer.state())
                for event in tracer.events:
                    if len(events) < max_events:
                        events.append(event.to_dict())
        matrix[cpu.key] = cells
    return {
        "policy": policy,
        "matrix": matrix,
        "events": events,
        "state": aggregate.state(),
        "summary": aggregate.summary().to_dict(),
    }
