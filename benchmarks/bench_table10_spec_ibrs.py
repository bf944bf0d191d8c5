"""Table 10: speculation matrix with IBRS enabled."""

from repro.core.probe import POLICY_IBRS, SCENARIOS, leakage_report
from repro.core.reporting import render_speculation_matrix
from repro.cpu import all_cpus, get_cpu

PAPER = {  # None = the paper's N/A row (no IBRS support)
    "broadwell":       (False, False, False, False, False),
    "skylake_client":  (False, False, False, False, False),
    "cascade_lake":    (False, True, True, True, True),
    "ice_lake_client": (False, True, False, True, False),
    "ice_lake_server": (False, True, True, True, True),
    "zen":             None,
    "zen2":            (False, False, False, False, False),
    "zen3":            (False, False, False, False, False),
}


def test_table10_reproduces_paper(save_artifact):
    matrix = leakage_report(all_cpus(), POLICY_IBRS)["matrix"]
    for key, expected in PAPER.items():
        row = matrix[key]
        if expected is None:
            assert row is None, key
        else:
            assert tuple(row[s.label]["speculated"]
                         for s in SCENARIOS) == expected, key
    save_artifact("table10.txt",
                  render_speculation_matrix(matrix, ibrs=True))


def test_ibrs_blocks_user_to_kernel_everywhere_it_exists():
    """The security claim IBRS makes, verified on every supporting part."""
    matrix = leakage_report(all_cpus(), POLICY_IBRS, trials=3)["matrix"]
    for key, row in matrix.items():
        if row is not None:
            verdict = row[SCENARIOS[0].label]
            assert verdict["speculated"] is False, key
            assert verdict["leaked"] is False, key


def bench_probe_with_ibrs(benchmark):
    benchmark(lambda: leakage_report((get_cpu("cascade_lake"),), POLICY_IBRS,
                                     trials=3))
