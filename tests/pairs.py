"""Store->load pair runs written out, for comparing streams in tests."""

from repro.cpu import isa


def spelled_out(block):
    """``block`` with each ``STORE_LOAD`` run written out as its
    ``store(a), load(a)`` pairs, one per 64-byte line."""
    out = []
    for instr in block:
        if instr.op is isa.Op.STORE_LOAD:
            for address in range(instr.address, instr.address + 64 * instr.value, 64):
                out += (isa.store(address), isa.load(address))
        else:
            out.append(instr)
    return out
