"""ISA constructors and instruction invariants."""

import pytest

from repro.cpu import isa
from repro.cpu.isa import (
    Instruction,
    MEMORY_READ_OPS,
    MEMORY_WRITE_OPS,
    Op,
    PREDICTED_BRANCH_OPS,
    SERIALIZING_OPS,
)


def test_constructors_set_the_right_op():
    cases = {
        isa.nop(): Op.NOP,
        isa.mul(): Op.MUL,
        isa.div(): Op.DIV,
        isa.cmov(): Op.CMOV,
        isa.lfence(): Op.LFENCE,
        isa.verw(): Op.VERW,
        isa.rsb_fill(): Op.RSB_FILL,
        isa.syscall_instr(): Op.SYSCALL,
        isa.sysret_instr(): Op.SYSRET,
        isa.swapgs(): Op.SWAPGS,
        isa.xsave(): Op.XSAVE,
        isa.xrstor(): Op.XRSTOR,
        isa.l1d_flush(): Op.L1D_FLUSH,
        isa.vmenter(): Op.VMENTER,
        isa.vmexit(): Op.VMEXIT,
        isa.rdtsc(): Op.RDTSC,
        isa.rdpmc(): Op.RDPMC,
    }
    for instr, op in cases.items():
        assert instr.op is op


def test_alu_returns_n_instructions():
    block = isa.alu(5)
    assert len(block) == 5
    assert all(i.op is Op.ALU for i in block)


def test_work_carries_cycles_in_value():
    assert isa.work(1234).value == 1234


def test_load_store_carry_address_and_kernel_flag():
    load = isa.load(0x1000, size=4, kernel=True)
    assert load.address == 0x1000 and load.size == 4 and load.kernel_address
    store = isa.store(0x2000, value=7)
    assert store.address == 0x2000 and store.value == 7
    assert not store.kernel_address


def test_branch_constructors_carry_pc_and_target():
    branch = isa.branch_indirect(0x2000, pc=0x100, retpoline=True)
    assert branch.target == 0x2000 and branch.pc == 0x100
    assert branch.retpoline
    call = isa.call_indirect(0x3000, pc=0x200)
    assert call.op is Op.CALL_INDIRECT and not call.retpoline
    ret = isa.ret(pc=0x300, target=0x400)
    assert ret.pc == 0x300 and ret.target == 0x400


def test_mov_cr3_carries_pcid():
    assert isa.mov_cr3(pcid=0x801).value == 0x801


def test_wrmsr_rdmsr_carry_msr_index():
    write = isa.wrmsr(0x48, 5)
    assert write.msr == 0x48 and write.value == 5
    assert isa.rdmsr(0x10A).msr == 0x10A


def test_op_classification_sets_are_disjoint_where_expected():
    assert not MEMORY_READ_OPS & MEMORY_WRITE_OPS
    assert Op.LOAD in MEMORY_READ_OPS
    assert Op.STORE in MEMORY_WRITE_OPS
    assert Op.RET in PREDICTED_BRANCH_OPS
    assert Op.LFENCE in SERIALIZING_OPS
    assert Op.VERW in SERIALIZING_OPS
    assert Op.MOV_CR3 in SERIALIZING_OPS


def test_instructions_are_slotted():
    instr = isa.nop()
    with pytest.raises(AttributeError):
        instr.extra_field = 1


def test_repr_is_informative():
    text = repr(isa.branch_indirect(0x2000, pc=0x100, retpoline=True))
    assert "branch_indirect" in text and "retpoline" in text
    assert "addr=0x1000" in repr(isa.load(0x1000))


@pytest.mark.parametrize("run", [isa.load_run, isa.store_run, isa.store_load],
                         ids=["load_run", "store_run", "store_load"])
def test_runs_are_interned_and_take_at_least_one_line(run):
    assert run(0x4000, 3) is run(0x4000, 3)
    assert run(0x4000, 3).value == 3
    for count in (0, -1):
        with pytest.raises(ValueError):
            run(0x4000, count)


def test_expand_writes_runs_out_as_the_interned_plain_instructions():
    # A user line is isa.load(a), a kernel line isa.load(a, kernel=True):
    # the same objects the plain emitters return (lru_cache keys on the
    # arguments as passed, so load(a, kernel=False) would be another).
    work = isa.work(3)
    block = [work, isa.load_run(0x4000, 2), isa.store_run(0x8000, 2, kernel=True),
             isa.load_run(0xFFFF_8000_0000_0000, 1, kernel=True),
             isa.store_load(0x4000, 2), isa.store_run(0x9000, 1)]
    assert list(isa.expand(block)) == [
        work, isa.load(0x4000), isa.load(0x4040),
        isa.store(0x8000, kernel=True), isa.store(0x8040, kernel=True),
        isa.load(0xFFFF_8000_0000_0000, kernel=True),
        isa.store(0x4000), isa.load(0x4000), isa.store(0x4040), isa.load(0x4040),
        isa.store(0x9000)]


def test_run_window_puts_one_run_up_to_each_wrap():
    # Line i of the window is line (cursor + i) % lines of the ring, laps
    # included, for every run constructor.
    for run in (isa.load_run, isa.store_run, isa.store_load):
        window = isa.run_window(run, 0x10000, 8, 13, 20)
        assert [(r.address, r.value) for r in window] == [
            (0x10000 + 64 * 5, 3), (0x10000, 8), (0x10000, 8), (0x10000, 1)]
        assert all(r is run(r.address, r.value) for r in window)
    assert isa.run_window(isa.load_run, 0x10000, 8, 3, 0) == ()
