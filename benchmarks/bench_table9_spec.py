"""Table 9: speculation matrix with IBRS disabled (the section 6 probe)."""

from repro.core.probe import POLICY_OFF, SCENARIOS, leakage_report
from repro.core.reporting import render_speculation_matrix
from repro.cpu import all_cpus, get_cpu

PAPER = {  # column order: u->k(sc), u->u(sc), k->k(sc), u->u, k->k
    "broadwell":       (True, True, True, True, True),
    "skylake_client":  (True, True, True, True, True),
    "cascade_lake":    (False, True, True, True, True),
    "ice_lake_client": (False, True, True, True, True),
    "ice_lake_server": (False, True, True, True, True),
    "zen":             (True, True, True, True, True),
    "zen2":            (True, True, True, True, True),
    "zen3":            (False, False, False, False, False),
}


def test_table9_reproduces_paper(save_artifact):
    matrix = leakage_report(all_cpus(), POLICY_OFF)["matrix"]
    for key, expected in PAPER.items():
        assert tuple(matrix[key][s.label]["speculated"]
                     for s in SCENARIOS) == expected, key
    save_artifact("table9.txt",
                  render_speculation_matrix(matrix, ibrs=False))


def bench_probe_full_row(benchmark):
    """Time running all five probe scenarios on one CPU."""
    benchmark(lambda: leakage_report((get_cpu("broadwell"),), POLICY_OFF,
                                     trials=3))
