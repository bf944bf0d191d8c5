"""Runs written out, for comparing streams in tests."""

from repro.cpu import isa


def spelled_out(block):
    """``block`` with each run written out as the plain loads and stores it
    stands for (``isa.expand``)."""
    return list(isa.expand(block))
