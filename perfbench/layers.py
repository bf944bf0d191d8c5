"""Per-layer span tracing for the traced benchmark run.

:class:`LayerTracer` wraps each layer's public entry points from outside
the program: a class method is replaced on its class, and a module
function is replaced in the module namespace its callers look it up in.
Every call becomes a span on one in-memory stack; a span's self time is
its duration minus the time its child spans cover.  Spans are aggregated
per name (calls, total, self), and per-cell durations are kept so the
executor's cell-time percentiles can be reported.

The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, span name).  One span name may collect several
#: entry points: a structure's public access methods share its layer name.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.executor", "StudyExecutor._run_inline", "executor.cell"),
    ("repro.core.executor", "ResultCache.put", "executor.cache_put"),
    ("repro.core.study", "adaptive_measure", "stats.measure"),
    ("repro.core.attribution", "adaptive_measure", "stats.measure"),
    ("repro.cpu.replicas", "run_replicas", "replicas"),
    ("repro.workloads.lebench", "run_suite", "workloads.lebench"),
    ("repro.jsengine.octane", "run_suite", "jsengine.octane"),
    ("repro.workloads.parsec", "run_workload", "workloads.parsec"),
    ("repro.workloads.vm_lebench", "run_suite", "workloads.vm_lebench"),
    ("repro.kernel.kernel", "Kernel.syscall", "kernel.syscall"),
    ("repro.cpu.machine", "Machine.__init__", "machine.init"),
    ("repro.cpu.machine", "Machine.run", "machine.run"),
    ("repro.cpu.machine", "Machine.execute", "machine.execute"),
    ("repro.cpu.engine", "BlockEngine.run", "engine.run"),
    ("repro.cpu.cache", "Cache.access", "cache"),
    ("repro.cpu.cache", "Cache.probe", "cache"),
    ("repro.cpu.cache", "Cache.flush_line", "cache"),
    ("repro.cpu.cache", "Cache.flush_all", "cache"),
    ("repro.cpu.cache", "CacheHierarchy.access", "cache"),
    ("repro.cpu.cache", "CacheHierarchy.probe_l1", "cache"),
    ("repro.cpu.cache", "CacheHierarchy.flush_line", "cache"),
    ("repro.cpu.cache", "CacheHierarchy.flush_l1", "cache"),
    ("repro.cpu.tlb", "TLB.access", "tlb"),
    ("repro.cpu.tlb", "TLB.insert_global", "tlb"),
    ("repro.cpu.tlb", "TLB.switch_context", "tlb"),
    ("repro.cpu.tlb", "TLB.flush_all", "tlb"),
    ("repro.cpu.storebuffer", "StoreBuffer.push", "storebuffer"),
    ("repro.cpu.storebuffer", "StoreBuffer.push_many", "storebuffer"),
    ("repro.cpu.storebuffer", "StoreBuffer.match", "storebuffer"),
    ("repro.cpu.storebuffer", "StoreBuffer.forward", "storebuffer"),
    ("repro.cpu.storebuffer", "StoreBuffer.speculative_bypass_possible",
     "storebuffer"),
    ("repro.cpu.storebuffer", "StoreBuffer.drain", "storebuffer"),
    ("repro.cpu.buffers", "MicroarchBuffers.deposit_load", "buffers"),
    ("repro.cpu.buffers", "MicroarchBuffers.deposit_store", "buffers"),
    ("repro.cpu.buffers", "MicroarchBuffers.clear", "buffers"),
    ("repro.cpu.buffers", "MicroarchBuffers.sample", "buffers"),
    ("repro.cpu.buffers", "MicroarchBuffers.holds_foreign_data", "buffers"),
    ("repro.cpu.btb", "BranchTargetBuffer.train", "btb"),
    ("repro.cpu.btb", "BranchTargetBuffer.train_many", "btb"),
    ("repro.cpu.btb", "BranchTargetBuffer.lookup", "btb"),
    ("repro.cpu.btb", "BranchTargetBuffer.redirect_target", "btb"),
    ("repro.cpu.btb", "BranchTargetBuffer.barrier", "btb"),
    ("repro.cpu.btb", "BranchTargetBuffer.flush", "btb"),
    ("repro.obs.baseline", "ledger_snapshot", "obs.ledger_snapshot"),
    ("repro.obs.baseline", "leakage_snapshot", "obs.leakage_snapshot"),
    ("repro.fuzz.harness", "generate_program", "fuzz.generate"),
    ("repro.fuzz.harness", "check_engine_parity", "fuzz.parity"),
    ("repro.fuzz.harness", "check_leakage_contract", "fuzz.leakage_contract"),
)

#: Spans whose every duration is kept (for percentiles), not just summed.
KEEP_DURATIONS = frozenset({"executor.cell"})

#: Simulated event counters reported next to their structure's layer.
SIM_COUNTERS = (
    ("cache.l1d_misses", "l1d.misses"),
    ("tlb.dtlb_misses", "dtlb.misses"),
    ("storebuffer.stlf_forwarded", "stlf.forwarded"),
    ("buffers.verw_clears", "verw.clears"),
    ("btb.hits", "btb.hits"),
    ("btb.misses", "btb.misses"),
)


class _Span:
    """Aggregate of one span name: calls, inclusive and self seconds."""

    __slots__ = ("calls", "total", "self_time", "durations", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: List[float] = []
        self.samples = 0


class LayerTracer:
    """Wraps the entry points in :data:`SPANS`; see the module docstring."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Span] = {}
        # Each frame is [seconds covered by child spans]; the root frame
        # collects the time of top-level spans.
        self._stack: List[List[float]] = [[0.0]]
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        span = self.spans.setdefault(name, _Span())
        stack = self._stack
        clock = time.perf_counter
        keep = name in KEEP_DURATIONS
        count_samples = name == "stats.measure"

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                stack[-1][0] += duration
                span.calls += 1
                span.total += duration
                span.self_time += duration - frame[0]
                if keep:
                    span.durations.append(duration)
            if count_samples:
                span.samples += result.samples
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, path, name in SPANS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _get(self, name: str) -> _Span:
        return self.spans.get(name) or _Span()

    def metrics(self, import_s: float, work_s: float,
                totals: Dict[str, Any], engine: Dict[str, int],
                replicas: Dict[str, int], violations: int
                ) -> Dict[str, float]:
        """Flat per-layer metrics for one traced workload run."""
        cells = sorted(self._get("executor.cell").durations)
        events = totals["events"]
        eligible = engine["block_hits"] + engine["interp_fallbacks"]
        batch_eligible = replicas["batched"] + replicas["scalar_fallbacks"]
        out: Dict[str, float] = {
            "cli.import_s": import_s,
            "executor.cells": len(cells),
            "executor.cell_ms.p50": 1e3 * _percentile(cells, 0.5),
            "executor.cell_ms.tail": 1e3 * _tail(cells),
            "executor.cache_put_s": self._get("executor.cache_put").total,
            "executor.cache_puts": self._get("executor.cache_put").calls,
            "stats.measure_s": self._get("stats.measure").total,
            "stats.samples": self._get("stats.measure").samples,
            "replicas.self_s": self._get("replicas").self_time,
            "replicas.batched": replicas["batched"],
            "replicas.scalar_fallbacks": replicas["scalar_fallbacks"],
            "replicas.batch_hit_rate": (replicas["batched"] / batch_eligible
                                        if batch_eligible else 1.0),
            "kernel.syscall.calls": self._get("kernel.syscall").calls,
            "kernel.syscall.self_s": self._get("kernel.syscall").self_time,
            "machine.inits": self._get("machine.init").calls,
            "machine.init_s": self._get("machine.init").total,
            "machine.run.self_s": self._get("machine.run").self_time,
            "machine.execute.calls": self._get("machine.execute").calls,
            "machine.execute.self_s": self._get("machine.execute").self_time,
            "machine.sim_instructions": events.get("inst_retired.any", 0),
            "machine.sim_cycles": totals["tsc"],
            "engine.run.self_s": self._get("engine.run").self_time,
            "engine.blocks_compiled": engine["blocks_compiled"],
            "engine.memo_hits": engine["memo_hits"],
            "engine.memo_records": engine["memo_records"],
            "engine.interp_fallbacks": engine["interp_fallbacks"],
            "engine.hit_rate": (engine["block_hits"] / eligible
                                if eligible else 0.0),
            "obs.ledger_snapshot_s": self._get("obs.ledger_snapshot").total,
            "obs.leakage_snapshot_s": self._get("obs.leakage_snapshot").total,
            "fuzz.generate_s": self._get("fuzz.generate").total,
            "fuzz.parity.self_s": self._get("fuzz.parity").self_time,
            "fuzz.leakage_contract.self_s":
                self._get("fuzz.leakage_contract").self_time,
            "fuzz.violations": violations,
            "unattributed.self_s": work_s - self._stack[0][0],
        }
        for name in ("workloads.lebench", "jsengine.octane",
                     "workloads.parsec", "workloads.vm_lebench"):
            out[f"{name}.self_s"] = self._get(name).self_time
        for name in ("cache", "tlb", "storebuffer", "buffers", "btb"):
            out[f"{name}.calls"] = self._get(name).calls
            out[f"{name}.self_s"] = self._get(name).self_time
        for metric, counter in SIM_COUNTERS:
            out[metric] = events.get(counter, 0)
        return out


def _percentile(ordered: List[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _tail(ordered: List[float]) -> float:
    """The highest sample with at least ten samples beyond it, or the
    maximum when there are too few samples for that."""
    if len(ordered) > 10:
        return ordered[-11]
    return ordered[-1] if ordered else 0.0
