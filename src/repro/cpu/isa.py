"""Abstract instruction set for the timing simulator.

The simulator does not interpret real x86 machine code.  Instead, workloads
and the model OS kernel are expressed as streams of :class:`Instruction`
objects drawn from a small abstract ISA that captures everything the paper's
measurements depend on:

* ordinary compute (``ALU``, ``MUL``, ``DIV``, ``CMOV``) — ``DIV`` matters
  because the speculation probe of the paper's Figure 6 detects transient
  execution through the ``ARITH.DIVIDER_ACTIVE`` performance counter;
* memory operations (``LOAD``, ``STORE``, ``CLFLUSH``) that interact with
  the cache, TLB, store buffer and the MDS-leakable fill buffers;
* control flow (``BRANCH_COND``, ``BRANCH_INDIRECT``, ``CALL``,
  ``CALL_INDIRECT``, ``RET``) that interacts with the BTB and RSB and can
  trigger transient execution windows;
* privileged/system instructions (``SYSCALL``, ``SYSRET``, ``SWAPGS``,
  ``MOV_CR3``, ``WRMSR``, ``RDMSR``, ``VERW``, ``LFENCE``, ``XSAVE``,
  ``XRSTOR``, ``VMENTER``, ``VMEXIT``, ``L1D_FLUSH``) whose per-CPU costs
  are the calibration inputs taken from the paper's Tables 3-8;
* measurement instructions (``RDTSC``, ``RDPMC``) used by the
  microbenchmark harness exactly the way the paper uses them.

Instructions are plain slotted objects: cheap to construct, hashable by
identity, and safe to reuse across iterations of a timed loop (executing an
instruction never mutates it).
"""

from __future__ import annotations

import enum
import functools
from typing import Optional, Tuple

from .msr import (
    IA32_FLUSH_CMD,
    IA32_PRED_CMD,
    IA32_SPEC_CTRL,
    L1D_FLUSH_BIT,
    PRED_CMD_IBPB,
)


class Op(enum.Enum):
    """Operation kinds understood by :class:`repro.cpu.machine.Machine`."""

    # Compute
    NOP = "nop"
    ALU = "alu"
    # Trace compression: a block of straight-line work with a known cycle
    # cost (value = cycles).  Keeps cycle accounting honest for bulk
    # compute without executing thousands of Python-level ALU ops.
    WORK = "work"
    MUL = "mul"
    DIV = "div"
    CMOV = "cmov"
    PAUSE = "pause"

    # Memory
    LOAD = "load"
    STORE = "store"
    CLFLUSH = "clflush"

    # Control flow
    BRANCH_COND = "branch_cond"
    BRANCH_INDIRECT = "branch_indirect"
    CALL = "call"
    CALL_INDIRECT = "call_indirect"
    RET = "ret"

    # Serialization / mitigation primitives
    LFENCE = "lfence"
    VERW = "verw"
    RSB_FILL = "rsb_fill"

    # Privileged / system
    SYSCALL = "syscall"
    SYSRET = "sysret"
    SWAPGS = "swapgs"
    MOV_CR3 = "mov_cr3"
    WRMSR = "wrmsr"
    RDMSR = "rdmsr"
    XSAVE = "xsave"
    XRSTOR = "xrstor"
    L1D_FLUSH = "l1d_flush"
    VMENTER = "vmenter"
    VMEXIT = "vmexit"

    # Measurement
    RDTSC = "rdtsc"
    RDPMC = "rdpmc"


#: Ops that read memory (interact with cache/TLB/store buffer).
MEMORY_READ_OPS = frozenset({Op.LOAD})

#: Ops that write memory.
MEMORY_WRITE_OPS = frozenset({Op.STORE})

#: Ops that can redirect control flow through a predictor.
PREDICTED_BRANCH_OPS = frozenset({Op.BRANCH_INDIRECT, Op.CALL_INDIRECT, Op.RET})

#: Ops that serialize the pipeline (no transient window may cross them).
SERIALIZING_OPS = frozenset({Op.LFENCE, Op.WRMSR, Op.MOV_CR3, Op.VERW})


class Instruction:
    """One abstract instruction.

    Parameters
    ----------
    op:
        The operation kind.
    address:
        For memory ops, the virtual byte address accessed.
    size:
        For memory ops, the access size in bytes (informational).
    target:
        For direct control flow, the destination code address.  For
        indirect branches this is the *architectural* (true) target; the
        predictor may transiently send execution elsewhere.
    pc:
        The address of the instruction itself.  Branch predictor state is
        indexed by ``pc``, so two indirect branches at different addresses
        train different BTB entries.  Defaults to 0, which is fine for
        straight-line cost accounting where prediction is irrelevant.
    retpoline:
        For indirect branches only: this branch site was compiled as a
        retpoline (generic or AMD per the active mitigation config), so it
        never consults the BTB and can never be poisoned.
    msr:
        For ``WRMSR``/``RDMSR``, the MSR index being accessed.
    value:
        For ``WRMSR``, the value written.
    kernel_address:
        For memory ops, marks the target as kernel memory (used by the
        Meltdown model: user-mode architectural access faults).
    mitigation / primitive:
        Optional cycle-attribution tag.  Sequence builders in
        ``repro.mitigations`` stamp the instructions they emit (e.g. the
        KPTI entry ``mov cr3`` carries ``("pti", "mov_cr3")``) so the
        cycle ledger can file their cost under the responsible
        mitigation.  Untagged instructions fall back to per-op defaults,
        or to base work.

    The resolved ledger tag is precomputed into ``attr_tag`` at
    construction (instructions are immutable, so it can never change);
    the machine's per-instruction charge path reads the attribute instead
    of re-deriving the tag on every execute.
    """

    __slots__ = (
        "op",
        "address",
        "size",
        "target",
        "pc",
        "retpoline",
        "msr",
        "value",
        "kernel_address",
        "mitigation",
        "primitive",
        "attr_tag",
        "handler",
    )

    def __init__(
        self,
        op: Op,
        address: int = 0,
        size: int = 8,
        target: int = 0,
        pc: int = 0,
        retpoline: bool = False,
        msr: int = 0,
        value: int = 0,
        kernel_address: bool = False,
        mitigation: Optional[str] = None,
        primitive: Optional[str] = None,
    ) -> None:
        self.op = op
        self.address = address
        self.size = size
        self.target = target
        self.pc = pc
        self.retpoline = retpoline
        self.msr = msr
        self.value = value
        self.kernel_address = kernel_address
        self.mitigation = mitigation
        self.primitive = primitive
        if mitigation is not None:
            self.attr_tag = (mitigation, primitive or op.value)
        elif op is Op.WRMSR:
            self.attr_tag = _wrmsr_tag(msr, value)
        else:
            self.attr_tag = _DEFAULT_TAGS[op]
        # Execute-dispatch target, filled lazily by Machine.run on first
        # use.  Per-op, machine-independent; caching it here turns
        # the hot dispatch into one attribute load (instructions are
        # interned, so the lookup happens once per distinct instruction).
        self.handler = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.value]
        if self.op in MEMORY_READ_OPS or self.op in MEMORY_WRITE_OPS:
            parts.append(f"addr={self.address:#x}")
        if self.op in PREDICTED_BRANCH_OPS or self.op in (Op.CALL, Op.BRANCH_COND):
            parts.append(f"target={self.target:#x} pc={self.pc:#x}")
        if self.retpoline:
            parts.append("retpoline")
        return f"<Instruction {' '.join(parts)}>"


#: Default (mitigation, primitive) attribution for ops that *are* a
#: mitigation primitive even when the emitting site forgot to tag them.
#: Explicit Instruction.mitigation tags always win.
OP_DEFAULT_TAGS = {
    Op.VERW: ("mds", "verw"),
    Op.RSB_FILL: ("spectre_v2", "rsb_fill"),
    Op.L1D_FLUSH: ("l1tf", "l1d_flush"),
}

#: Fully resolved default tag per op (falls back to base work keyed by
#: the op name), so Instruction.__init__ does one dict lookup.
_DEFAULT_TAGS = {op: OP_DEFAULT_TAGS.get(op, (None, op.value)) for op in Op}


def _wrmsr_tag(msr: int, value: int):
    """WRMSR attribution dispatched on the MSR index and payload."""
    if msr == IA32_PRED_CMD and value & PRED_CMD_IBPB:
        return ("spectre_v2", "ibpb")
    if msr == IA32_FLUSH_CMD and value & L1D_FLUSH_BIT:
        return ("l1tf", "l1d_flush")
    if msr == IA32_SPEC_CTRL:
        return ("spectre_v2", "wrmsr_spec_ctrl")
    return (None, Op.WRMSR.value)


# ---------------------------------------------------------------------------
# Convenience constructors.  Workload generators use these heavily; they
# read better than repeating Instruction(Op.X, ...) everywhere.
#
# Instructions are immutable after construction, so constructors intern
# aggressively: argument-less constructors return module-level singletons,
# and the parameterised ones memoize on their (hashable) arguments.  That
# makes repeated sequence builds allocation-free and gives the block
# engine stable instruction identities to key compiled blocks on.
# ---------------------------------------------------------------------------

def nop() -> Instruction:
    return _NOP


@functools.lru_cache(maxsize=4096)
def work(cycles: int, mitigation: Optional[str] = None,
         primitive: Optional[str] = None) -> Instruction:
    """A compressed block of straight-line work costing ``cycles``."""
    return Instruction(Op.WORK, value=cycles,
                       mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=None)
def alu(n: int = 1) -> Tuple[Instruction, ...]:
    """Return ``n`` single-cycle ALU instructions (one shared singleton)."""
    return (_ALU,) * n


def mul() -> Instruction:
    return _MUL


def div() -> Instruction:
    """A divide; occupies the divider unit, visible to the probe counter."""
    return _DIV


@functools.lru_cache(maxsize=256)
def cmov(mitigation: Optional[str] = None,
         primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.CMOV, mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=65536)
def load(address: int, size: int = 8, kernel: bool = False) -> Instruction:
    return Instruction(Op.LOAD, address=address, size=size, kernel_address=kernel)


@functools.lru_cache(maxsize=65536)
def store(address: int, size: int = 8, kernel: bool = False,
          value: int = 0) -> Instruction:
    return Instruction(Op.STORE, address=address, size=size,
                       kernel_address=kernel, value=value)


def clflush(address: int) -> Instruction:
    return Instruction(Op.CLFLUSH, address=address)


def branch_cond(target: int = 0, pc: int = 0, taken: bool = False) -> Instruction:
    """A conditional branch: ``taken`` is the architectural outcome and
    ``target`` the taken-path code address (used for wrong-path windows)."""
    return Instruction(Op.BRANCH_COND, target=target, pc=pc,
                       value=1 if taken else 0)


@functools.lru_cache(maxsize=16384)
def branch_indirect(target: int, pc: int = 0, retpoline: bool = False) -> Instruction:
    return Instruction(Op.BRANCH_INDIRECT, target=target, pc=pc, retpoline=retpoline)


def call(target: int = 0, pc: int = 0) -> Instruction:
    return Instruction(Op.CALL, target=target, pc=pc)


def call_indirect(target: int, pc: int = 0, retpoline: bool = False) -> Instruction:
    return Instruction(Op.CALL_INDIRECT, target=target, pc=pc, retpoline=retpoline)


def ret(pc: int = 0, target: int = 0) -> Instruction:
    """A return; ``target`` is the architectural return address (compared
    against the RSB prediction)."""
    return Instruction(Op.RET, pc=pc, target=target)


@functools.lru_cache(maxsize=256)
def lfence(mitigation: Optional[str] = None,
           primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.LFENCE, mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=256)
def verw(mitigation: Optional[str] = None,
         primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.VERW, mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=256)
def rsb_fill(mitigation: Optional[str] = None,
             primitive: Optional[str] = None) -> Instruction:
    """The 32-entry RSB stuffing sequence, modelled as one macro-op."""
    return Instruction(Op.RSB_FILL, mitigation=mitigation, primitive=primitive)


def syscall_instr() -> Instruction:
    return _SYSCALL


def sysret_instr() -> Instruction:
    return _SYSRET


def swapgs() -> Instruction:
    return _SWAPGS


@functools.lru_cache(maxsize=256)
def mov_cr3(pcid: int = 0, mitigation: Optional[str] = None,
            primitive: Optional[str] = None) -> Instruction:
    """Write the page table root; ``pcid`` tags the target context."""
    return Instruction(Op.MOV_CR3, value=pcid,
                       mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=256)
def wrmsr(msr: int, value: int, mitigation: Optional[str] = None,
          primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.WRMSR, msr=msr, value=value,
                       mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=256)
def rdmsr(msr: int) -> Instruction:
    return Instruction(Op.RDMSR, msr=msr)


@functools.lru_cache(maxsize=256)
def xsave(mitigation: Optional[str] = None,
          primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.XSAVE, mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=256)
def xrstor(mitigation: Optional[str] = None,
           primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.XRSTOR, mitigation=mitigation, primitive=primitive)


@functools.lru_cache(maxsize=256)
def l1d_flush(mitigation: Optional[str] = None,
              primitive: Optional[str] = None) -> Instruction:
    return Instruction(Op.L1D_FLUSH, mitigation=mitigation, primitive=primitive)


def vmenter() -> Instruction:
    return _VMENTER


def vmexit() -> Instruction:
    return _VMEXIT


def rdtsc() -> Instruction:
    return _RDTSC


def rdpmc() -> Instruction:
    return _RDPMC


# Shared singleton instructions for the argument-less constructors.
_NOP = Instruction(Op.NOP)
_ALU = Instruction(Op.ALU)
_MUL = Instruction(Op.MUL)
_DIV = Instruction(Op.DIV)
_SYSCALL = Instruction(Op.SYSCALL)
_SYSRET = Instruction(Op.SYSRET)
_SWAPGS = Instruction(Op.SWAPGS)
_VMENTER = Instruction(Op.VMENTER)
_VMEXIT = Instruction(Op.VMEXIT)
_RDTSC = Instruction(Op.RDTSC)
_RDPMC = Instruction(Op.RDPMC)
