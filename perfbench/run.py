"""Host-performance benchmark for spectresim, from cold processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 38 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper-grid``    -- ``spectresim bench --fast`` over all 8 CPUs with the
  drivers figure2 figure3 figure5 vm_lebench parsec_default;
* ``fuzz-campaign`` -- ``spectresim fuzz --programs 25`` (8 CPUs x 3 policies);
* ``replica-sweep`` -- ``spectresim figure 2 --fast --replicas 8``.

Every sample is a fresh interpreter (``perfbench/child.py``) with
``--jobs 1``, an empty private cell cache, no history recording and its
own output dir, all under ``.perfbench-tmp/`` in the checkout, which is
removed afterwards.  The load is one process at a time, in a closed loop:
the next sample starts when the previous one has exited.

A run first starts a few processes that only import the CLI (set-up
samples), then repeats the workload for ``--seconds``.  With ``--trace 0``
it reports the medians of the end-to-end metrics; with ``--trace 1`` it
runs one untraced sample, then traced samples (``perfbench/layers.py``),
and reports the per-layer metrics and the tracing overhead.

Host-speed normalization: the shared host this runs on changes speed by
up to 2x for seconds to minutes at a time, so raw times of the same code
spread by 20-40% between runs.  Every child therefore runs a fixed probe
every 25 ms (``perfbench/hostclock.py``) and reports its times scaled to
a reference host speed.  The end-to-end times and rates are those
normalized times: ``wall_s`` is the cold command's wall time (spawn to
exit, the probes left out) at the reference speed, ``setup_s`` the
import of ``repro.cli``, and ``cells_per_s`` and ``sim_minstr_per_s``
divide by the normalized work time.  The raw times, the probe time and
the host slowdown (probe duration over its reference) are in the
``report`` line.

Correctness: every cell, fuzz cell and ledger verification is an
operation.  An operation fails when it raises, when a fuzz oracle reports
a violation, when a ledger verification fails or when an attribution
stack does not sum to its total.  The digest of each sample's simulated
outputs must equal that of every other sample in the run and, when
``perfbench/digests.json`` holds one for the workload and seed, the
recorded digest; a mismatch fails the sample's operations.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import hostclock  # perfbench/ is sys.path[0] for this script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

WORKLOADS = ("paper-grid", "fuzz-campaign", "replica-sweep")
#: Processes per run that only import the CLI, for the set-up median.
SETUP_SAMPLES = 3
#: A child that runs longer than this is killed and its sample fails.
CHILD_TIMEOUT_S = 120.0
#: A run starts no sample it does not expect to finish by this deadline.
RUN_DEADLINE_S = 165.0


class ChildFailed(Exception):
    """A child process exited non-zero, timed out or printed no report."""


def _child_env(tmpdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "SPECTRESIM_CACHE_DIR": os.path.join(tmpdir, "cache"),
        "SPECTRESIM_HISTORY_DB": os.path.join(tmpdir, "history.db"),
        "TMPDIR": tmpdir,
    })
    env.pop("SPECTRESIM_ENGINE", None)
    return env


def run_child(kind: str, seed: int, traced: bool, tmpdir: str
              ) -> Dict[str, Any]:
    """Start one fresh interpreter and return its report plus wall time."""
    os.makedirs(tmpdir)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, kind, str(seed), "1" if traced else "0",
         tmpdir, repr(spawned)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmpdir,
        env=_child_env(tmpdir), text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{kind} child timed out after "
                          f"{CHILD_TIMEOUT_S:.0f}s")
    exited = time.monotonic()
    shutil.rmtree(tmpdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{kind} child exited {proc.returncode}:\n"
                          f"{err.strip()[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["wall_s"] = exited - spawned
    # The child's span runs from spawn until just before it printed; its
    # exit falls outside, so scale the whole wall time (probes left out)
    # by the span's normalized-to-measured ratio.
    report["wall_norm_s"] = ((report["wall_s"] - report["probe_s"])
                             * report["span_norm_s"]
                             / (report["span_s"] - report["probe_s"]))
    return report


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _recorded_digest(workload: str, seed: int) -> Optional[str]:
    try:
        with open(DIGESTS) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def _load() -> List[float]:
    return [round(value, 2) for value in os.getloadavg()]


def _build() -> None:
    """Byte-compile the package once, so no sample pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)


def _end_to_end(samples: List[Dict[str, Any]], setups: List[float]
                ) -> Dict[str, Dict[str, Any]]:
    def metric(values: List[float], unit: str) -> Dict[str, Any]:
        return {"value": _median(values), "unit": unit}

    return {
        "wall_s": metric([s["wall_norm_s"] for s in samples], "s"),
        "setup_s": metric(setups, "s"),
        "cells_per_s": metric(
            [s["cells"] / s["work_norm_s"] for s in samples], "1/s"),
        "sim_minstr_per_s": metric(
            [s["counts"]["machines"]["events"].get("inst_retired.any", 0)
             / s["work_norm_s"] / 1e6 for s in samples], "Minstr/s"),
        "peak_rss_mb": metric([s["peak_rss_mb"] for s in samples], "MB"),
    }


def _per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
               ) -> Dict[str, Dict[str, Any]]:
    names = traced[0]["layers"]
    out = {}
    for name in names:
        value = _median([s["layers"][name] for s in traced])
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ms.p50") or name.endswith("_ms.tail"):
            unit = "ms"
        elif name.endswith("rate"):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    traced_work = _median([s["work_norm_s"] for s in traced])
    untraced_work = _median([s["work_norm_s"] for s in untraced])
    out["trace.work_s"] = {"value": traced_work, "unit": "s"}
    out["trace.untraced_work_s"] = {"value": untraced_work, "unit": "s"}
    out["trace.overhead"] = {"value": traced_work / untraced_work - 1.0,
                             "unit": "ratio"}
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp_root: str) -> Dict[str, Any]:
    """Set-up samples, then workload samples for ``seconds``."""
    started = time.monotonic()
    counter = iter(range(1_000_000))

    def fresh_dir() -> str:
        return os.path.join(tmp_root, f"sample-{next(counter)}")

    setups: List[float] = []
    raw_setups: List[float] = []
    provenance: Dict[str, Any] = {}
    for _ in range(SETUP_SAMPLES):
        report = run_child("setup", seed, False, fresh_dir())
        setups.append(report["setup_norm_s"])
        raw_setups.append(report["setup_s"])
        provenance = report["provenance"]

    samples: List[Dict[str, Any]] = []
    errors: List[str] = []
    window = time.monotonic()

    def sample(traced: bool) -> Optional[Dict[str, Any]]:
        try:
            report = run_child(workload, seed, traced, fresh_dir())
        except ChildFailed as exc:
            errors.append(str(exc))
            return None
        report["traced"] = traced
        samples.append(report)
        setups.append(report["setup_norm_s"])
        raw_setups.append(report["setup_s"])
        return report

    def room_for(last: float) -> bool:
        now = time.monotonic()
        return (now - window + last <= seconds
                and now - started + last <= RUN_DEADLINE_S)

    first = sample(False)
    last = first["wall_s"] if first else 0.0
    while samples and room_for(last):
        report = sample(trace)
        if report is None:
            break
        last = report["wall_s"]
    if trace and not any(s["traced"] for s in samples) and samples:
        sample(True)
    return {"setups": setups, "raw_setups": raw_setups, "samples": samples,
            "errors": errors, "provenance": provenance}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        sys.stderr.write(f"perfbench: no spectresim sources under {SRC}\n")
        return 2
    _build()
    load_start = _load()
    tmp_root = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), tmp_root)
    except ChildFailed as exc:
        sys.stderr.write(f"perfbench: set-up failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    samples = result["samples"]
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    recorded = _recorded_digest(args.workload, args.seed)
    reference = recorded or (samples[0]["digest"] if samples else None)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    notes = [note for s in samples for note in s["notes"]]
    for s in samples:
        if s["digest"] != reference and s["failed"] < s["attempted"]:
            failed += s["attempted"] - s["failed"]
            notes.append(f"digest {s['digest']} != expected {reference}")
    for error in result["errors"]:
        # A crashed sample fails as many operations as a whole sample has.
        lost = max((s["attempted"] for s in samples), default=1)
        attempted += lost
        failed += lost
        notes.append(error)
    attempted = max(attempted, 1)
    if not samples:
        failed = attempted
    correct = failed == 0

    if args.trace and traced and untraced:
        metrics = _per_layer(traced, untraced)
    else:
        metrics = _end_to_end(untraced, result["setups"])

    first = samples[0] if samples else {}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": dict(result["provenance"], seed=args.seed,
                           nproc=len(os.sched_getaffinity(0)),
                           load_start=load_start, load_end=_load()),
        "digest": first.get("digest"),
        "recorded_digest": recorded,
        "counts": first.get("counts"),
        "samples": [{key: s[key] for key in (
            "wall_s", "wall_norm_s", "setup_s", "setup_norm_s", "work_s",
            "work_norm_s", "probe_s", "probes", "cells", "peak_rss_mb",
            "traced")} for s in samples],
        "setup_samples_s": result["raw_setups"],
        "setup_samples_norm_s": result["setups"],
        "host_slowdown": _median([s["probe_s"] / s["probes"]
                                  / hostclock.REFERENCE_PROBE_S
                                  for s in samples if s["probes"]]),
        "notes": notes[:10],
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {len(samples)} samples, "
          f"{attempted} operations, {failed} failed "
          f"(error_rate {failed / attempted:.4f})")
    for name, entry in sorted(metrics.items()):
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
