"""The Octane 2 benchmark suite, as JS-engine op mixes (paper section 4.3).

Each of the fifteen Octane 2 parts is characterized by its per-iteration
operation mix — array-access heavy (navier-stokes, zlib), object/shape
heavy (deltablue, raytrace), pointer-chasing (splay, earley-boyer),
arithmetic-dominated (crypto, regexp) — so the per-mitigation overheads
land differently per part, exactly like the real suite.

Scores follow Octane semantics: higher is better, inversely proportional
to runtime; the suite score is the geometric mean.  The runner executes
inside a model Firefox process, which **uses seccomp** — the detail that
made it pay SSBD under pre-5.16 kernels (Figure 3's green stack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..cpu import isa
from ..cpu.machine import Machine, steady_state
from ..kernel import HandlerProfile, Kernel, Process
from ..mitigations.base import MitigationConfig
from ..obs.ledger import ledger_scope
from .jit import JITCompiler, OpMix
from .runtime import HEAP_BASE

#: Score normalization constant (arbitrary, matched across configs).
SCORE_SCALE = 1.0e9

#: GC / housekeeping syscalls: every Nth iteration does a couple of small
#: kernel crossings — the "other OS" component of Figure 3.
SYSCALL_PERIOD = 8
GC_PROFILE = HandlerProfile("js_gc_tick", work_cycles=900, loads=12,
                            stores=8, indirect_branches=4)


@dataclass(frozen=True)
class OctaneWorkload:
    name: str
    mix: OpMix


def _wl(name: str, arith: int, arrays: int, objects: int, pointers: int,
        pairs: int, calls: int) -> OctaneWorkload:
    return OctaneWorkload(name, OpMix(
        arith_cycles=arith,
        array_accesses=arrays,
        object_accesses=objects,
        pointer_derefs=pointers,
        store_load_pairs=pairs,
        calls=calls,
    ))


SUITE: Tuple[OctaneWorkload, ...] = (
    _wl("richards", 12000, 100, 300, 700, 55, 180),
    _wl("deltablue", 11000, 80, 350, 800, 60, 200),
    _wl("crypto", 16000, 350, 80, 200, 50, 90),
    _wl("raytrace", 12000, 150, 320, 500, 55, 160),
    _wl("earley-boyer", 10000, 120, 280, 900, 65, 220),
    _wl("regexp", 14000, 250, 120, 300, 80, 110),
    _wl("splay", 9000, 100, 240, 1000, 70, 150),
    _wl("navier-stokes", 15000, 450, 60, 150, 55, 70),
    _wl("pdfjs", 12000, 250, 220, 500, 65, 170),
    _wl("mandreel", 13000, 300, 150, 350, 70, 120),
    _wl("gameboy", 12000, 350, 180, 300, 75, 130),
    _wl("code-load", 10000, 150, 260, 600, 60, 300),
    _wl("box2d", 12000, 200, 300, 450, 60, 180),
    _wl("zlib", 15000, 380, 70, 200, 60, 80),
    _wl("typescript", 10000, 150, 320, 800, 65, 250),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in SUITE)


def get_workload(name: str) -> OctaneWorkload:
    for workload in SUITE:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown Octane workload {name!r}")


class OctaneRunner:
    """Runs Octane workloads in a model Firefox process on one kernel."""

    def __init__(self, machine: Machine, config: MitigationConfig) -> None:
        self.machine = machine
        self.config = config
        self.kernel = Kernel(machine, config)
        self.jit = JITCompiler(machine, config)
        # Firefox sandboxes its content processes with seccomp: under the
        # pre-5.16 SSBD policy this is what turns the mitigation on.
        self.firefox = Process("firefox-content", uses_fpu=True,
                               uses_seccomp=True)
        self.kernel.context_switch(self.firefox)
        self._iteration = 0

    def run_iteration(self, workload: OctaneWorkload) -> int:
        """One benchmark iteration; returns cycles."""
        obs = self.machine.obs
        if not obs.enabled:
            return self._iteration_body(workload)
        with obs.span("js.iteration", workload=workload.name):
            return self._iteration_body(workload)

    def _iteration_body(self, workload: OctaneWorkload) -> int:
        block = self.jit.compile_iteration(
            workload.mix, heap_base=HEAP_BASE, cursor=self._iteration
        )
        with ledger_scope(self.machine.ledger, "jsengine"):
            cycles = self.machine.run(block)
        self._iteration += 1
        if self._iteration % SYSCALL_PERIOD == 0:
            cycles += self.kernel.syscall(GC_PROFILE)
            cycles += self.kernel.syscall(GC_PROFILE)
        return cycles

    def measure(self, workload: OctaneWorkload, iterations: int = 24,
                warmup: int = 6) -> float:
        """Average cycles per iteration, steady state."""
        with self.machine.obs.span(f"js.octane.{workload.name}",
                                   iterations=iterations, warmup=warmup):
            return steady_state(lambda: self.run_iteration(workload),
                                iterations, warmup)

    def score(self, workload: OctaneWorkload, iterations: int = 24,
              warmup: int = 6) -> float:
        """Octane-style score: inversely proportional to runtime."""
        return SCORE_SCALE / self.measure(workload, iterations, warmup)


def run_suite(
    machine: Machine,
    config: MitigationConfig,
    iterations: int = 24,
    warmup: int = 6,
    workloads: Optional[Tuple[OctaneWorkload, ...]] = None,
) -> Dict[str, float]:
    """Scores per workload under ``config``."""
    with machine.obs.span("octane.suite", cpu=machine.cpu.key):
        runner = OctaneRunner(machine, config)
        return {
            w.name: runner.score(w, iterations, warmup)
            for w in (workloads or SUITE)
        }


def suite_score(scores: Dict[str, float]) -> float:
    """Octane's suite score: the geometric mean of part scores."""
    values = np.array(list(scores.values()), dtype=float)
    return float(np.exp(np.mean(np.log(values))))
