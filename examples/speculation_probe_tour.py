#!/usr/bin/env python3
"""A guided tour of the section-6 speculation probe.

Walks the Figure 6 technique step by step on two contrasting CPUs —
Broadwell (everything speculates) and Cascade Lake (mode-tagged BTB) —
showing the raw counter reads at each stage, the counter-disagreement
case the paper describes in section 6.1, and the eIBRS periodic-scrub
fingerprint of section 6.2.2.

Run:  python examples/speculation_probe_tour.py
"""

from repro import Machine, Mode, get_cpu
from repro.cpu import counters as ctr
from repro.cpu import isa
from repro.cpu import msr as msrdef
from repro.core.microbench import kernel_entry_latencies
from repro.core.probe import (
    BRANCH_PC,
    NOP_TARGET,
    POLICY_OFF,
    SCENARIOS,
    SpeculationProbe,
    VICTIM_TARGET,
    probe_cell,
)


def step(n: int, text: str) -> None:
    print(f"  [{n}] {text}")


def tour(cpu_key: str) -> None:
    cpu = get_cpu(cpu_key)
    print(f"\n=== {cpu.microarchitecture} ===")
    machine = Machine(cpu)
    probe = SpeculationProbe(machine)

    step(1, "register the landing pads: a divide at victim_target "
            f"({VICTIM_TARGET:#x}), nothing at nop_target "
            f"({NOP_TARGET:#x})")

    step(2, "train: execute the branch at the shared PC toward "
            "victim_target, in USER mode")
    probe.train(Mode.USER)
    step(2, f"    BTB now predicts {machine.btb.lookup(BRANCH_PC, Mode.USER):#x} "
            f"for pc {BRANCH_PC:#x}")

    step(3, "cross into the kernel with a real syscall instruction")
    machine.execute(isa.syscall_instr())

    step(4, "victim: read ARITH.DIVIDER_ACTIVE, run the branch with "
            "nop_target as its true target, read the counter again")
    before = machine.counters.read(ctr.DIVIDER_ACTIVE)
    machine.execute(isa.branch_indirect(NOP_TARGET, pc=BRANCH_PC))
    after = machine.counters.read(ctr.DIVIDER_ACTIVE)
    verdict = "speculated to the pad!" if after > before else \
        "no divider activity: the prediction was not consumed"
    step(4, f"    divider delta = {after - before} -> {verdict}")

    print("\n  full matrix for this part (IBRS off):")
    for scenario in SCENARIOS:
        verdict, _ = probe_cell(cpu, POLICY_OFF, scenario, trials=3)
        print(f"    {scenario.label:28s} "
              f"{'SPECULATES' if verdict.speculated else 'safe'}")


def counter_disagreement() -> None:
    print("\n=== section 6.1: when the two counters disagree ===")
    machine = Machine(get_cpu("broadwell"))
    probe = SpeculationProbe(machine)
    probe.train(Mode.USER)
    print("  after an IBPB, the branch still *counts* as mispredicted")
    machine.execute(isa.wrmsr(msrdef.IA32_PRED_CMD, msrdef.PRED_CMD_IBPB))
    misp0 = machine.counters.read(ctr.MISPREDICTED_INDIRECT)
    div0 = machine.counters.read(ctr.DIVIDER_ACTIVE)
    machine.execute(isa.branch_indirect(NOP_TARGET, pc=BRANCH_PC))
    print(f"  mispredict delta = "
          f"{machine.counters.read(ctr.MISPREDICTED_INDIRECT) - misp0}, "
          f"divider delta = "
          f"{machine.counters.read(ctr.DIVIDER_ACTIVE) - div0}")
    print("  -> entries were rewritten to a harmless gadget, not cleared;")
    print("     this is why the paper trusts the divider, not the "
          "mispredict count.")


def eibrs_fingerprint() -> None:
    print("\n=== section 6.2.2: the eIBRS periodic-scrub fingerprint ===")
    latencies = kernel_entry_latencies(get_cpu("cascade_lake"), entries=60)
    line = " ".join("S" if v > min(latencies) else "." for v in latencies)
    print(f"  60 consecutive kernel entries (S = slow): {line}")
    print("  slow entries carry a BTB flush: poisoning survives only "
          "across the '.' entries.")


def main() -> None:
    tour("broadwell")
    tour("cascade_lake")
    counter_disagreement()
    eibrs_fingerprint()


if __name__ == "__main__":
    main()
