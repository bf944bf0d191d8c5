"""Record the expected output digest of every workload for a range of seeds.

Usage (from the repository root)::

    python3 perfbench/record_digests.py            # seeds 0..31
    python3 perfbench/record_digests.py 0 8        # seeds 0..7

Each digest comes from one cold, untraced child process, exactly as
``perfbench/run.py`` computes it, and is written to
``perfbench/digests.json``.  Re-record only when a change is meant to alter
simulated outputs; the benchmark fails any sample whose digest differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    first, stop = ((int(sys.argv[1]), int(sys.argv[2]))
                   if len(sys.argv) == 3 else (0, 32))
    tmp_root = os.path.join(run.TMP_ROOT, f"record-{os.getpid()}")
    table = {}
    try:
        for workload in run.WORKLOADS:
            table[workload] = {}
            for seed in range(first, stop):
                report = run.run_child(
                    workload, seed, False,
                    os.path.join(tmp_root, f"{workload}-{seed}"))
                if report["failed"] or report["digest"] is None:
                    sys.stderr.write(f"{workload} seed {seed}: "
                                     f"{report['notes']}\n")
                    return 1
                table[workload][str(seed)] = report["digest"]
                print(f"{workload} seed {seed}: {report['digest']}",
                      flush=True)
    finally:
        shutil.rmtree(run.TMP_ROOT, ignore_errors=True)
    with open(run.DIGESTS, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
