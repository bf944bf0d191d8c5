"""Model JIT: hardening insertion and its per-access pricing."""

import dataclasses

import pytest

from repro.cpu import Machine, get_cpu, isa
from repro.cpu.isa import Op
from repro.jsengine.jit import PAIR_LINES, JITCompiler, OpMix
from repro.jsengine.slh import SLHCompiler
from repro.mitigations import MitigationConfig

from ..pairs import spelled_out


MIX = OpMix(arith_cycles=1000, array_accesses=100, object_accesses=50,
            pointer_derefs=200, store_load_pairs=8, calls=20)


def compiled_cycles(machine, config, mix=MIX):
    """Total WORK cycles in one compiled iteration.

    Hardening is emitted as separately tagged WORK blocks (so the cycle
    ledger can attribute it); the cost model sums over all of them.
    """
    jit = JITCompiler(machine, config)
    block = jit.compile_iteration(mix, heap_base=0x4000_0000)
    work = [i for i in block if i.op is Op.WORK]
    assert work, "compiled iteration carries no WORK"
    return sum(i.value for i in work)


def test_store_load_pairs_are_real_instructions(machine):
    # Written out, each compiler's pair runs are MIX's 8 store/load pairs.
    for compiler in (JITCompiler(machine, MitigationConfig.all_off()),
                     SLHCompiler(machine)):
        block = spelled_out(compiler.compile_iteration(MIX, heap_base=0x4000_0000))
        assert [i for i in block if i.op is not Op.WORK] == \
            _spelled_out_pairs(0x4000_0000, 0, 8)
        assert sum(1 for i in block if i.op is Op.STORE) == 8
        assert sum(1 for i in block if i.op is Op.LOAD) == 8


def test_index_masking_adds_per_array_access_cost(machine):
    base = compiled_cycles(machine, MitigationConfig.all_off())
    masked = compiled_cycles(machine, MitigationConfig(js_index_masking=True))
    jit = JITCompiler(machine, MitigationConfig.all_off())
    assert masked - base == MIX.array_accesses * jit.mask_extra_per_access()


def test_object_guards_add_per_object_access_cost(machine):
    base = compiled_cycles(machine, MitigationConfig.all_off())
    guarded = compiled_cycles(machine, MitigationConfig(js_object_guards=True))
    jit = JITCompiler(machine, MitigationConfig.all_off())
    assert guarded - base == MIX.object_accesses * jit.guard_extra_per_access()


def test_js_other_adds_pointer_and_call_hardening(machine):
    base = compiled_cycles(machine, MitigationConfig.all_off())
    other = compiled_cycles(machine, MitigationConfig(js_other=True))
    expected = (MIX.pointer_derefs * machine.costs.alu
                + MIX.calls * machine.costs.alu)
    assert other - base == expected


def test_guard_costs_exceed_mask_costs(machine):
    """Object guards re-check the shape: strictly pricier than masking,
    matching the paper's 6% vs 4% ordering."""
    jit = JITCompiler(machine, MitigationConfig.all_off())
    assert jit.guard_extra_per_access() > jit.mask_extra_per_access()


def test_mitigations_compose_additively(machine):
    base = compiled_cycles(machine, MitigationConfig.all_off())
    all_js = compiled_cycles(machine, MitigationConfig(
        js_index_masking=True, js_object_guards=True, js_other=True))
    sum_of_parts = (
        compiled_cycles(machine, MitigationConfig(js_index_masking=True))
        + compiled_cycles(machine, MitigationConfig(js_object_guards=True))
        + compiled_cycles(machine, MitigationConfig(js_other=True))
        - 2 * base
    )
    assert all_js == sum_of_parts


def test_cursor_rotates_pair_addresses(machine):
    jit = JITCompiler(machine, MitigationConfig.all_off())
    block_a = jit.compile_iteration(MIX, heap_base=0x4000_0000, cursor=0)
    block_b = jit.compile_iteration(MIX, heap_base=0x4000_0000, cursor=3)
    addrs_a = [i.address for i in spelled_out(block_a) if i.op is Op.STORE]
    addrs_b = [i.address for i in spelled_out(block_b) if i.op is Op.STORE]
    assert addrs_a != addrs_b


def _spelled_out_pairs(heap_base, cursor, count):
    block = []
    for i in range(count):
        address = heap_base + 64 * ((cursor + i) % 512)
        block.append(isa.store(address))
        block.append(isa.load(address))
    return block


@pytest.mark.parametrize("count", [0, 1, 55, 512, 513, 1100])
@pytest.mark.parametrize("cursor", [0, 1, 511, 512, 1023, 4099])
def test_pairs_are_the_interned_per_pair_instructions(machine, cursor, count):
    # The pairs are interned runs, one up to each wrap of the ring; written
    # out, they are the interned per-pair store and load instructions.
    mix = dataclasses.replace(MIX, store_load_pairs=count)
    for compiler in (JITCompiler(machine, MitigationConfig.all_off()),
                     SLHCompiler(machine)):
        block = compiler.compile_iteration(mix, heap_base=0x4000_0000,
                                           cursor=cursor)
        runs = [i for i in block if i.op is not Op.WORK]
        assert all(run is isa.store_load(run.address, run.value) for run in runs)
        wraps = (cursor % PAIR_LINES + count - 1) // PAIR_LINES
        assert len(runs) == (wraps + 1 if count else 0)
        pairs = spelled_out(runs)
        expected = _spelled_out_pairs(0x4000_0000, cursor, count)
        assert len(pairs) == len(expected) == 2 * count
        assert all(got is want for got, want in zip(pairs, expected))
