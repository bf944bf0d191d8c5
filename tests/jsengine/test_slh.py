"""Speculative Load Hardening: blanket protection, blanket cost."""

import pytest

from repro.cpu import Machine, get_cpu
from repro.cpu.isa import Op
from repro.jsengine.jit import JITCompiler, OpMix
from repro.jsengine.slh import SLHCompiler, slh_blocks_all_v1_variants
from repro.mitigations import MitigationConfig

from ..pairs import spelled_out


MIX = OpMix(arith_cycles=10000, array_accesses=200, object_accesses=150,
            pointer_derefs=500, store_load_pairs=40, calls=100)


def work_cycles(block):
    # Hardening rides as separately tagged WORK blocks; sum them all.
    work = [i for i in block if i.op is Op.WORK]
    assert work
    return sum(i.value for i in work)


def test_slh_costs_more_than_targeted_mitigations(machine):
    """Why JITs ship index masking instead of SLH: SLH masks *every*
    load class, so its tax strictly dominates the targeted one."""
    slh = SLHCompiler(machine)
    targeted = JITCompiler(machine, MitigationConfig(
        js_index_masking=True, js_object_guards=True, js_other=True))
    slh_cost = work_cycles(slh.compile_iteration(MIX, heap_base=0x4000_0000))
    targeted_cost = work_cycles(
        targeted.compile_iteration(MIX, heap_base=0x4000_0000))
    assert slh_cost > targeted_cost


def test_slh_overhead_is_considerable(machine):
    """The paper's phrase is 'considerable overhead': tens of percent."""
    bare = JITCompiler(machine, MitigationConfig.all_off())
    bare_cost = work_cycles(bare.compile_iteration(MIX, heap_base=0x4000_0000))
    slh_cost = work_cycles(
        SLHCompiler(machine).compile_iteration(MIX, heap_base=0x4000_0000))
    overhead = slh_cost / bare_cost - 1
    assert 0.10 < overhead < 0.80


def test_slh_blocks_the_v1_gadget(every_cpu):
    assert slh_blocks_all_v1_variants(Machine(every_cpu))


def test_slh_emits_the_same_memory_traffic(machine):
    """SLH changes cycle counts, not the workload's memory behaviour."""
    block = spelled_out(SLHCompiler(machine).compile_iteration(
        MIX, heap_base=0x4000_0000))
    assert sum(1 for i in block if i.op is Op.STORE) == MIX.store_load_pairs
    assert sum(1 for i in block if i.op is Op.LOAD) == MIX.store_load_pairs


def test_slh_tax_scales_with_total_load_count(machine):
    slh = SLHCompiler(machine)
    light = OpMix(arith_cycles=10000, array_accesses=10, object_accesses=10,
                  pointer_derefs=10, store_load_pairs=0, calls=10)
    heavy = OpMix(arith_cycles=10000, array_accesses=500, object_accesses=500,
                  pointer_derefs=500, store_load_pairs=0, calls=10)
    bare = JITCompiler(machine, MitigationConfig.all_off())

    def tax(mix):
        return (work_cycles(slh.compile_iteration(mix, 0x4000_0000))
                - work_cycles(bare.compile_iteration(mix, 0x4000_0000)))

    assert tax(heavy) > 10 * tax(light)
