"""Seeded random program generator: Revizor-style test cases.

Programs are DAGs of basic blocks over the :mod:`repro.cpu.isa`
instruction set, built in three passes (the sca-fuzzer recipe):

1. **structure pass** — a skeleton of basic blocks filled with compute
   ops (ALU, multiply, divide, fences, counter reads...);
2. **terminator pass** — each block gets a control-flow terminator
   (conditional branch, raw/retpolined indirect branch, call, return or
   plain fallthrough) aimed at another block's label, plus privilege
   transitions (``syscall``/``sysret``/``vmenter``/``vmexit``) inserted
   under a tracked mode so the program never architecturally faults; a
   subset of blocks is marked ``landing`` and registered as code, so
   mispredicted terminators execute them *transiently*;
3. **memory pass** — loads, stores, flushes and CR3 writes woven into
   the bodies, kernel-tagged addresses only at kernel-mode positions.

The simulator executes linear instruction lists: terminators are
predictor events with declared targets/pcs, and execution falls through
to the next list element.  The DAG still matters twice over — terminator
targets decide where *transient* execution lands, and landing blocks
are registered via ``machine.register_code`` so those wrong-path
windows run real instructions.

Programs are **printable and re-runnable**: :meth:`Program.to_text`
emits a line-oriented text form and :func:`parse_program` round-trips
it byte-identically, which is what makes minimized reproducers diffable
and replayable (see :mod:`repro.fuzz.minimize`).

All addresses live in a sandbox disjoint from the speculation probe's
layout (``BRANCH_PC``/``VICTIM_TARGET``/``NOP_TARGET`` at ``0x60_0000+``
and its history-fill pcs at ``0x7000+``), so a generated program can
never alias the probe's trained entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cpu import isa
from ..cpu.modes import Mode
from ..errors import ProgramParseError

#: Sandbox layout (disjoint from the probe's 0x60_0000+ window).
CODE_BASE = 0x40_0000      #: block code addresses (landing pads)
CODE_STRIDE = 0x1000
SITE_BASE = 0x50_0000      #: branch-site pcs; a small shared pool so
SITE_POOL = 4              #: distinct branches collide and cross-train
DATA_BASE = 0x90_0000      #: user data lines (one hot page)
DATA_LINES = 32
FAR_BASE = 0xA0_0000       #: cold pages for TLB pressure
FAR_PAGES = 4
KDATA_BASE = 0xC0_0000     #: kernel-tagged data lines
KDATA_LINES = 8

#: Body ops with no operands (token == kind).
_BARE_KINDS = (
    "nop", "alu", "mul", "div", "cmov", "lfence", "verw",
    "rsb_fill", "swapgs", "rdtsc", "rdpmc", "xsave", "xrstor",
    "l1d_flush", "syscall", "sysret", "vmenter", "vmexit",
)

@dataclass
class FuzzInstr:
    """One printable instruction descriptor (body op or terminator)."""

    kind: str
    addr: int = 0
    value: int = 0
    kernel: bool = False
    target: Optional[str] = None
    taken: bool = False
    pc: int = 0

    def to_token(self) -> str:
        kind = self.kind
        if kind in _BARE_KINDS:
            return kind
        if kind == "work":
            return f"work {self.value}"
        if kind == "load":
            suffix = " kernel" if self.kernel else ""
            return f"load 0x{self.addr:x}{suffix}"
        if kind == "store":
            suffix = " kernel" if self.kernel else ""
            return f"store 0x{self.addr:x} value={self.value}{suffix}"
        if kind == "clflush":
            return f"clflush 0x{self.addr:x}"
        if kind == "mov_cr3":
            return f"mov_cr3 {self.value}"
        if kind == "rdmsr":
            return f"rdmsr {self.value}"
        if kind == "branch_cond":
            target = self.target if self.target is not None else "-"
            return (f"branch_cond target={target} "
                    f"taken={1 if self.taken else 0} pc=0x{self.pc:x}")
        if kind in ("branch_indirect", "call", "call_indirect"):
            return f"{kind} target={self.target} pc=0x{self.pc:x}"
        if kind == "ret":
            return f"ret pc=0x{self.pc:x}"
        raise ValueError(f"unknown fuzz instruction kind {kind!r}")

    def clone(self) -> "FuzzInstr":
        return FuzzInstr(self.kind, self.addr, self.value, self.kernel,
                         self.target, self.taken, self.pc)


@dataclass
class Block:
    """One basic block: a label, a code address, a body, a terminator."""

    label: str
    pc: int
    landing: bool = False
    body: List[FuzzInstr] = field(default_factory=list)
    term: Optional[FuzzInstr] = None

    def clone(self) -> "Block":
        return Block(self.label, self.pc, self.landing,
                     [instr.clone() for instr in self.body],
                     self.term.clone() if self.term is not None else None)


#: One materialization: the committed stream and the landing pads, as
#: ``(code address, instructions)`` pairs.
Materialized = Tuple[Tuple[Any, ...], Tuple[Tuple[int, Tuple[Any, ...]], ...]]


@dataclass
class Program:
    """A generated test case: named, seeded, printable, materializable.

    To materialize a program is to turn its blocks into simulator
    ``Instruction``s.  That happens once per ``retpoline`` value: every
    machine the program runs on gets the same immutable tuples from
    :meth:`instructions` and :meth:`install`.  The reuse is sound only
    because a program is complete before its first materialization: the
    generator and :func:`parse_program` return finished programs, and the
    minimizer edits clones (a :meth:`clone` starts unmaterialized).  Edit
    a clone, never a program that has run.
    """

    name: str
    seed: int
    blocks: List[Block] = field(default_factory=list)
    _materialized: Dict[bool, Materialized] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- queries ----------------------------------------------------------- #

    def block_pc(self, label: str) -> int:
        for block in self.blocks:
            if block.label == label:
                return block.pc
        raise KeyError(f"no block labelled {label!r} in {self.name}")

    def labels(self) -> List[str]:
        return [block.label for block in self.blocks]

    def instruction_count(self) -> int:
        return sum(len(block.body) + (1 if block.term is not None else 0)
                   for block in self.blocks)

    def data_addresses(self) -> List[int]:
        """User-mode data addresses the program touches, in program order."""
        return [instr.addr for block in self.blocks for instr in block.body
                if instr.kind in ("load", "store") and not instr.kernel]

    def clone(self) -> "Program":
        return Program(self.name, self.seed,
                       [block.clone() for block in self.blocks])

    # -- materialization ---------------------------------------------------- #

    def _materialize_one(self, instr: FuzzInstr, next_pc: int,
                         retpoline: bool) -> Any:
        kind = instr.kind
        if kind == "nop":
            return isa.nop()
        if kind == "alu":
            return isa.alu(1)[0]
        if kind == "mul":
            return isa.mul()
        if kind == "div":
            return isa.div()
        if kind == "cmov":
            return isa.cmov()
        if kind == "lfence":
            return isa.lfence()
        if kind == "verw":
            return isa.verw()
        if kind == "rsb_fill":
            return isa.rsb_fill()
        if kind == "swapgs":
            return isa.swapgs()
        if kind == "rdtsc":
            return isa.rdtsc()
        if kind == "rdpmc":
            return isa.rdpmc()
        if kind == "xsave":
            return isa.xsave()
        if kind == "xrstor":
            return isa.xrstor()
        if kind == "l1d_flush":
            return isa.l1d_flush()
        if kind == "syscall":
            return isa.syscall_instr()
        if kind == "sysret":
            return isa.sysret_instr()
        if kind == "vmenter":
            return isa.vmenter()
        if kind == "vmexit":
            return isa.vmexit()
        if kind == "work":
            return isa.work(instr.value)
        if kind == "load":
            return isa.load(instr.addr, kernel=instr.kernel)
        if kind == "store":
            return isa.store(instr.addr, kernel=instr.kernel,
                             value=instr.value)
        if kind == "clflush":
            return isa.clflush(instr.addr)
        if kind == "mov_cr3":
            return isa.mov_cr3(pcid=instr.value)
        if kind == "rdmsr":
            return isa.rdmsr(instr.value)
        if kind == "branch_cond":
            target = self.block_pc(instr.target) if instr.target else 0
            return isa.branch_cond(target=target, pc=instr.pc,
                                   taken=instr.taken)
        if kind == "branch_indirect":
            return isa.branch_indirect(self.block_pc(instr.target),
                                       pc=instr.pc, retpoline=retpoline)
        if kind == "call":
            return isa.call(target=self.block_pc(instr.target), pc=instr.pc)
        if kind == "call_indirect":
            return isa.call_indirect(self.block_pc(instr.target),
                                     pc=instr.pc, retpoline=retpoline)
        if kind == "ret":
            return isa.ret(pc=instr.pc, target=next_pc)
        raise ValueError(f"unknown fuzz instruction kind {kind!r}")

    def _materialize(self, retpoline: bool) -> Materialized:
        """The stream and landing pads for ``retpoline``, built once."""
        done = self._materialized.get(retpoline)
        if done is not None:
            return done
        stream: List[Any] = []
        pads: List[Tuple[int, Tuple[Any, ...]]] = []
        for i, block in enumerate(self.blocks):
            next_pc = (self.blocks[i + 1].pc
                       if i + 1 < len(self.blocks) else 0)
            body = tuple(self._materialize_one(instr, next_pc, retpoline)
                         for instr in block.body)
            stream.extend(body)
            if block.term is not None:
                stream.append(self._materialize_one(block.term, next_pc,
                                                    retpoline))
            if block.landing and body:
                pads.append((block.pc, body))
        done = self._materialized[retpoline] = (tuple(stream), tuple(pads))
        return done

    def instructions(self, retpoline: bool = False) -> Tuple[Any, ...]:
        """The flat committed-path instruction stream.

        ``retpoline`` converts indirect terminators into retpolines, the
        policy-dependent decision made at materialization time so the
        program *text* stays policy-independent (one reproducer replays
        under every policy).
        """
        return self._materialize(retpoline)[0]

    def install(self, machine: Any, retpoline: bool = False) -> None:
        """Register landing blocks as code: mispredicted terminators
        steering transient execution to their pcs run their bodies."""
        for pc, pad in self._materialize(retpoline)[1]:
            machine.register_code(pc, pad)

    # -- text form ----------------------------------------------------------- #

    def to_text(self) -> str:
        lines = [f"program {self.name} seed={self.seed}"]
        for block in self.blocks:
            landing = " landing" if block.landing else ""
            lines.append(f"block {block.label} pc=0x{block.pc:x}{landing}")
            for instr in block.body:
                lines.append(f"  {instr.to_token()}")
            if block.term is not None:
                lines.append(f"  term {block.term.to_token()}")
        return "\n".join(lines) + "\n"


def _parse_kv(tokens: Sequence[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for token in tokens:
        key, _, value = token.partition("=")
        out[key] = value
    return out


def _parse_instr(tokens: Sequence[str]) -> FuzzInstr:
    kind = tokens[0]
    rest = tokens[1:]
    if kind in _BARE_KINDS:
        return FuzzInstr(kind)
    if kind == "work":
        return FuzzInstr(kind, value=int(rest[0]))
    if kind == "load":
        return FuzzInstr(kind, addr=int(rest[0], 0),
                         kernel="kernel" in rest[1:])
    if kind == "store":
        kv = _parse_kv(rest[1:])
        return FuzzInstr(kind, addr=int(rest[0], 0),
                         value=int(kv.get("value", "0")),
                         kernel="kernel" in rest[1:])
    if kind == "clflush":
        return FuzzInstr(kind, addr=int(rest[0], 0))
    if kind in ("mov_cr3", "rdmsr"):
        return FuzzInstr(kind, value=int(rest[0], 0))
    if kind == "branch_cond":
        kv = _parse_kv(rest)
        target = kv.get("target", "-")
        return FuzzInstr(kind,
                         target=None if target == "-" else target,
                         taken=kv.get("taken", "0") == "1",
                         pc=int(kv.get("pc", "0"), 0))
    if kind in ("branch_indirect", "call", "call_indirect"):
        kv = _parse_kv(rest)
        return FuzzInstr(kind, target=kv["target"],
                         pc=int(kv.get("pc", "0"), 0))
    if kind == "ret":
        kv = _parse_kv(rest)
        return FuzzInstr(kind, pc=int(kv.get("pc", "0"), 0))
    raise ValueError(f"unparseable fuzz instruction {' '.join(tokens)!r}")


def parse_program(text: str) -> Program:
    """Parse :meth:`Program.to_text` output (comments/# lines ignored).

    ``parse_program(p.to_text()).to_text() == p.to_text()`` — the
    round-trip is byte-identical, which the determinism tests pin.
    """
    program: Optional[Program] = None
    block: Optional[Block] = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] == "program":
                kv = _parse_kv(tokens[2:])
                program = Program(name=tokens[1],
                                  seed=int(kv.get("seed", "0")))
            elif tokens[0] == "block":
                if program is None:
                    raise ValueError("block before program header")
                kv = _parse_kv(tokens[2:])
                block = Block(label=tokens[1], pc=int(kv.get("pc", "0"), 0),
                              landing="landing" in tokens[2:])
                program.blocks.append(block)
            elif tokens[0] == "term":
                if block is None:
                    raise ValueError("term outside a block")
                block.term = _parse_instr(tokens[1:])
            else:
                if block is None:
                    raise ValueError("instruction outside a block")
                block.body.append(_parse_instr(tokens))
        except (ValueError, IndexError, KeyError) as exc:
            raise ProgramParseError(
                f"line {number}: cannot parse {line!r} ({exc})") from exc
    if program is None:
        raise ProgramParseError("no program header found")
    return program


# --------------------------------------------------------------------------- #
# Generation: structure pass, terminator pass, memory pass
# --------------------------------------------------------------------------- #

#: Compute-op pool for the structure pass: (kind, weight).
_COMPUTE_POOL = (
    ("nop", 4), ("alu", 6), ("work", 6), ("mul", 3), ("div", 3),
    ("cmov", 2), ("rdtsc", 1), ("rdpmc", 1), ("swapgs", 1),
    ("xsave", 1), ("xrstor", 1), ("lfence", 1), ("verw", 1),
    ("rsb_fill", 1), ("rdmsr", 1),
)

#: Terminator pool: (kind, weight).  ``None`` = plain fallthrough.
_TERM_POOL = (
    (None, 4), ("branch_cond", 5), ("branch_indirect", 4),
    ("call", 3), ("call_indirect", 2), ("ret", 2),
)


def _weighted(rng: random.Random, pool) -> Any:
    total = sum(weight for _, weight in pool)
    pick = rng.randrange(total)
    for kind, weight in pool:
        pick -= weight
        if pick < 0:
            return kind
    raise AssertionError("unreachable")


def _compute_op(rng: random.Random) -> FuzzInstr:
    kind = _weighted(rng, _COMPUTE_POOL)
    if kind == "work":
        return FuzzInstr(kind, value=10 * rng.randint(1, 12))
    if kind == "rdmsr":
        return FuzzInstr(kind, value=0x10)
    return FuzzInstr(kind)


def _memory_op(rng: random.Random, mode: Mode) -> FuzzInstr:
    roll = rng.randrange(10)
    if roll < 4:  # load
        kernel = mode.is_kernel and rng.randrange(3) == 0
        addr = (KDATA_BASE + 64 * rng.randrange(KDATA_LINES) if kernel
                else _data_address(rng))
        return FuzzInstr("load", addr=addr, kernel=kernel)
    if roll < 8:  # store
        return FuzzInstr("store", addr=_data_address(rng),
                         value=rng.randrange(1, 256))
    if roll < 9:
        return FuzzInstr("clflush", addr=_data_address(rng))
    return FuzzInstr("mov_cr3", value=rng.randrange(4))


def _data_address(rng: random.Random) -> int:
    if rng.randrange(4) == 0:
        return FAR_BASE + 4096 * rng.randrange(FAR_PAGES)
    return DATA_BASE + 64 * rng.randrange(DATA_LINES)


def _mode_after(instr: FuzzInstr, mode: Mode) -> Mode:
    if instr.kind == "syscall":
        return Mode.GUEST_KERNEL if mode.is_guest else Mode.KERNEL
    if instr.kind == "sysret":
        return Mode.GUEST_USER if mode.is_guest else Mode.USER
    if instr.kind == "vmenter":
        return Mode.GUEST_KERNEL
    if instr.kind == "vmexit":
        return Mode.KERNEL
    return mode


def generate_program(seed: int,
                     min_blocks: int = 2, max_blocks: int = 6,
                     min_body: int = 2, max_body: int = 8) -> Program:
    """One seeded random program; same seed, same bytes, always.

    ``WRMSR`` is deliberately excluded from every pool: it could toggle
    ``SPEC_CTRL`` and silently change the mitigation policy under test.
    """
    rng = random.Random(seed)
    program = Program(name=f"fz{seed:08x}", seed=seed)

    # Structure pass: skeleton blocks full of compute ops.
    n_blocks = rng.randint(min_blocks, max_blocks)
    for i in range(n_blocks):
        body = [_compute_op(rng)
                for _ in range(rng.randint(min_body, max_body))]
        program.blocks.append(Block(label=f"b{i}",
                                    pc=CODE_BASE + CODE_STRIDE * i,
                                    body=body))

    # Terminator pass: control flow, landing pads, privilege transitions.
    labels = program.labels()
    mode = Mode.USER
    for i, block in enumerate(program.blocks):
        block.landing = rng.random() < 0.4
        # Maybe one privilege transition, legal for the tracked mode.
        if rng.random() < 0.35:
            if mode is Mode.USER:
                trans = FuzzInstr("syscall")
            elif mode is Mode.KERNEL:
                trans = FuzzInstr("vmenter" if rng.randrange(4) == 0
                                  else "sysret")
            else:  # GUEST_KERNEL
                trans = FuzzInstr("vmexit")
            block.body.insert(rng.randrange(len(block.body) + 1), trans)
        for instr in block.body:
            mode = _mode_after(instr, mode)
        kind = _weighted(rng, _TERM_POOL)
        if kind is not None:
            site = SITE_BASE + 0x40 * rng.randrange(SITE_POOL)
            target = rng.choice(labels)
            if kind == "branch_cond":
                block.term = FuzzInstr(kind, target=target,
                                       taken=rng.randrange(2) == 1, pc=site)
            elif kind == "ret":
                block.term = FuzzInstr(kind, pc=site)
            else:
                block.term = FuzzInstr(kind, target=target, pc=site)
    if not any(block.landing for block in program.blocks):
        program.blocks[rng.randrange(n_blocks)].landing = True
    # Normalize back to user mode so repeated runs see the same modes.
    tail = program.blocks[-1].body
    if mode is Mode.GUEST_KERNEL:
        tail.append(FuzzInstr("vmexit"))
        mode = Mode.KERNEL
    if mode is Mode.KERNEL:
        tail.append(FuzzInstr("sysret"))

    # Memory pass: weave loads/stores in, kernel-tagged only in kernel.
    mode = Mode.USER
    for block in program.blocks:
        new_body: List[FuzzInstr] = []
        for instr in block.body:
            if rng.random() < 0.45:
                new_body.append(_memory_op(rng, mode))
            new_body.append(instr)
            mode = _mode_after(instr, mode)
        block.body = new_body
    return program
