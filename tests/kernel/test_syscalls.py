"""Handler profiles and their compilation."""

import pytest

from repro.cpu import isa
from repro.cpu.isa import Op
from repro.kernel.syscalls import GETPID, HandlerProfile
from repro.mitigations import MitigationConfig, V2Strategy


def compile_profile(profile, config=None, region=0):
    return profile.compile(config or MitigationConfig.all_off(), region)


def test_compiled_shape_counts():
    profile = HandlerProfile("p", work_cycles=100, loads=3, stores=2,
                             indirect_branches=4, copy_bytes=128)
    block = compile_profile(profile)
    # The working-set sweeps are one run each; the copy alternates halves.
    assert [i.op for i in block].count(Op.LOAD_RUN) == 1
    assert [i.op for i in block].count(Op.STORE_RUN) == 1
    ops = [i.op for i in isa.expand(block)]
    assert ops.count(Op.WORK) == 1
    assert ops.count(Op.LOAD) == 3 + 2   # loads + copy source lines
    assert ops.count(Op.STORE) == 2 + 2  # stores + copy dest lines
    assert ops.count(Op.BRANCH_INDIRECT) == 4


def test_zero_work_emits_no_work_instruction():
    profile = HandlerProfile("p", work_cycles=0, loads=1, stores=0,
                             indirect_branches=0)
    assert all(i.op is not Op.WORK for i in compile_profile(profile))


def test_copy_rounds_up_to_lines():
    profile = HandlerProfile("p", work_cycles=0, loads=0, stores=0,
                             indirect_branches=0, copy_bytes=65)
    block = compile_profile(profile)
    assert len([i for i in block if i.op is Op.LOAD]) == 2  # ceil(65/64)


def test_retpoline_config_marks_branches():
    profile = HandlerProfile("p", indirect_branches=3)
    config = MitigationConfig(v2_strategy=V2Strategy.RETPOLINE_GENERIC)
    branches = [i for i in compile_profile(profile, config)
                if i.op is Op.BRANCH_INDIRECT]
    assert branches and all(i.retpoline for i in branches)


def test_plain_config_leaves_branches_raw():
    profile = HandlerProfile("p", indirect_branches=3)
    branches = [i for i in compile_profile(profile)
                if i.op is Op.BRANCH_INDIRECT]
    assert branches and not any(i.retpoline for i in branches)


def test_branch_pcs_are_distinct():
    profile = HandlerProfile("p", indirect_branches=5)
    pcs = [i.pc for i in compile_profile(profile) if i.op is Op.BRANCH_INDIRECT]
    assert len(set(pcs)) == 5


def test_regions_do_not_overlap():
    profile = HandlerProfile("p", loads=4)
    def memory_addrs(region):
        return {i.address for i in isa.expand(compile_profile(profile, region=region))
                if i.op in (Op.LOAD, Op.STORE)}
    assert not memory_addrs(0) & memory_addrs(1)


def test_memory_ops_are_kernel_addresses():
    block = compile_profile(HandlerProfile("p", loads=2, stores=2))
    for instr in isa.expand(block):
        if instr.op in (Op.LOAD, Op.STORE):
            assert instr.kernel_address


def test_getpid_reference_profile_is_small():
    block = compile_profile(GETPID)
    assert len(block) < 10


def test_usercopy_masking_adds_one_cmov_per_transfer():
    profile = HandlerProfile("p", copy_bytes=256)
    hardened = MitigationConfig(v1_usercopy_masking=True)
    plain_block = compile_profile(profile)
    hard_block = compile_profile(profile, hardened)
    assert sum(1 for i in hard_block if i.op is Op.CMOV) == 1
    assert sum(1 for i in plain_block if i.op is Op.CMOV) == 0


def test_usercopy_masking_skipped_without_copies():
    profile = HandlerProfile("p", copy_bytes=0)
    block = compile_profile(profile, MitigationConfig(v1_usercopy_masking=True))
    assert not any(i.op is Op.CMOV for i in block)


def test_usercopy_masking_cost_is_unmeasurable_end_to_end():
    """The paper's 4.6 finding: kernel V1 mitigations don't move LEBench."""
    from repro.cpu import Machine, get_cpu
    from repro.kernel import Kernel
    cpu = get_cpu("broadwell")
    profile = HandlerProfile("read_like", work_cycles=1200, copy_bytes=512)
    def cost(config):
        kernel = Kernel(Machine(cpu), config)
        for _ in range(4):
            kernel.syscall(profile)
        return kernel.syscall(profile)
    delta = cost(MitigationConfig(v1_usercopy_masking=True)) - \
        cost(MitigationConfig.all_off())
    assert delta == cpu.costs.cmov  # ~2 cycles on a ~1500-cycle op
