#!/usr/bin/env python3
"""Scenario: characterizing a hypothetical next-generation CPU.

The paper's section 6 probe is exactly the tool an OS vendor would point
at new silicon: poison the BTB in one privilege mode, see whether the
divider counter betrays transient execution in another.  This example
defines a *new* CPU model — a fictional "Nextgen Lake" with an eIBRS-style
mode-tagged BTB plus Zen-3-style opaque indexing — and runs the full
measurement battery against it, demonstrating how to extend the catalog.

It also prices the paper's section 7 proposal: hardware that recognizes
the index-masking cmov+load pattern and makes it free, projecting the
Octane overhead such a part would enjoy.

Run:  python examples/probe_new_silicon.py
"""

import dataclasses

from repro import Machine, get_cpu
from repro.core.microbench import kernel_entry_latencies, table5_row
from repro.core.probe import POLICY_OFF, SCENARIOS, leakage_report
from repro.cpu.model import CostTable, PredictorBehavior, VulnerabilityFlags
from repro.jsengine.jit import JITCompiler, OpMix
from repro.mitigations import MitigationConfig

# --- define the fictional part ------------------------------------------ #

NEXTGEN = dataclasses.replace(
    get_cpu("ice_lake_server"),
    key="nextgen_lake",
    model="Imaginary 9999X",
    microarchitecture="Nextgen Lake",
    year=2026,
    costs=CostTable(
        syscall=30, sysret=25, swap_cr3=150,
        verw_clear=None, verw_legacy=12,
        indirect_base=1, ibrs_extra=0, generic_retpoline_extra=45,
        amd_retpoline_extra=None,
        ibpb=200, rsb_fill=30, lfence=6,
    ),
    vulns=VulnerabilityFlags(meltdown=False, l1tf=False, mds=False,
                             lazyfp=False),
    predictor=PredictorBehavior(
        supports_ibrs=True,
        supports_eibrs=True,
        btb_mode_tagged=True,    # eIBRS-style partitioning...
        btb_opaque_index=True,   # ...plus Zen-3-style opaque indexing
        eibrs_periodic_scrub=False,
    ),
)


def main() -> None:
    print(f"Characterizing {NEXTGEN.microarchitecture} "
          f"({NEXTGEN.model}, {NEXTGEN.year})\n")

    print("Speculation probe (IBRS off):")
    row = leakage_report((NEXTGEN,), POLICY_OFF)["matrix"][NEXTGEN.key]
    for scenario in SCENARIOS:
        speculated = row[scenario.label]["speculated"]
        print(f"  {scenario.label:28s} "
              f"{'SPECULATES' if speculated else 'safe'}")
    assert not any(cell["speculated"] for cell in row.values()), \
        "opaque indexing should defeat the probe"

    print("\nIndirect branch costs (Table 5 methodology):")
    t5 = table5_row(NEXTGEN, iterations=300)
    print(f"  baseline {t5.baseline:.0f}  IBRS {t5.ibrs_extra:+.0f}  "
          f"generic retpoline {t5.generic_extra:+.0f}")

    print("\nKernel entry latency with eIBRS (no periodic scrub designed "
          "in):")
    latencies = kernel_entry_latencies(NEXTGEN, entries=200)
    print(f"  {len(set(latencies))} distinct latency mode(s): "
          f"{sorted(set(latencies))}")

    # --- the section 7 proposal: free index masking -------------------- #
    print("\nProjecting the paper's section 7 idea (hardware recognizes "
          "the cmov+load masking pattern):")
    mix = OpMix(arith_cycles=12000, array_accesses=300, object_accesses=200,
                pointer_derefs=500, store_load_pairs=8, calls=150)
    machine = Machine(NEXTGEN)
    jit = JITCompiler(machine, MitigationConfig(js_index_masking=True))
    today = mix.array_accesses * jit.mask_extra_per_access()
    print(f"  index masking costs {today} cycles per iteration today;")
    print("  with pattern-detecting hardware the cmov stall disappears "
          "and only")
    print(f"  the {mix.array_accesses * machine.costs.cmov}-cycle cmov "
          "issue cost remains — the JIT would pick this up on day one "
          "(JITs recompile\n  for the host CPU automatically).")


if __name__ == "__main__":
    main()
