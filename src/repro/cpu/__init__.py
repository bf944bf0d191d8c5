"""Microarchitectural CPU simulator substrate.

This package replaces the paper's eight physical machines with calibrated
timing models.  Public surface:

* :mod:`repro.cpu.model` — :class:`CPUModel` and the catalog of the eight
  paper CPUs (``get_cpu``, ``all_cpus``, ``CPU_ORDER``).
* :mod:`repro.cpu.machine` — :class:`Machine`, the cycle-accounting
  executor with transient-execution semantics.
* :mod:`repro.cpu.isa` — the abstract instruction set.
* Predictor/cache/TLB/store-buffer/MDS-buffer components, used directly by
  tests and the speculation probe.
"""

from .btb import BranchHistoryBuffer, BranchTargetBuffer, HARMLESS_TARGET
from .buffers import MicroarchBuffers
from .cache import Cache, CacheHierarchy
from .counters import PerfCounters
from .isa import Instruction, Op
from .machine import AMD_RETPOLINE, GENERIC_RETPOLINE, Machine
from .model import (
    CATALOG,
    CPU_ORDER,
    CPUModel,
    CostTable,
    PredictorBehavior,
    VulnerabilityFlags,
    all_cpus,
    get_cpu,
)
from .modes import Mode
from .msr import MSRFile
from .rsb import ReturnStackBuffer
from .smt import SMTCore
from .storebuffer import StoreBuffer
from .tlb import TLB

__all__ = [
    "AMD_RETPOLINE",
    "BranchHistoryBuffer",
    "BranchTargetBuffer",
    "CATALOG",
    "CPU_ORDER",
    "CPUModel",
    "Cache",
    "CacheHierarchy",
    "CostTable",
    "GENERIC_RETPOLINE",
    "HARMLESS_TARGET",
    "Instruction",
    "MSRFile",
    "Machine",
    "MicroarchBuffers",
    "Mode",
    "Op",
    "PerfCounters",
    "PredictorBehavior",
    "ReturnStackBuffer",
    "SMTCore",
    "StoreBuffer",
    "TLB",
    "VulnerabilityFlags",
    "all_cpus",
    "get_cpu",
]
