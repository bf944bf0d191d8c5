"""LFS smallfile/largefile benchmarks against the emulated disk.

These are the Rosenblum & Ousterhout LFS microbenchmarks the paper runs
inside a VM (section 4.4): *smallfile* creates, writes and fsyncs many
small files (flush-heavy, the worst case for exit rate); *largefile*
streams a big file sequentially (data dominated, batched submission, few
exits).

The paper's finding — median overhead under 2% because this workload only
reaches tens of thousands of VM exits per second, versus LEBench's
millions of syscalls — emerges from the guest-side filesystem work (page
cache, journal, VFS: the bulk of each operation) amortizing the per-exit
mitigation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..cpu.machine import Machine, steady_state
from ..hypervisor import EmulatedDisk, GuestContext, Hypervisor
from ..kernel import HandlerProfile
from ..mitigations.base import MitigationConfig

#: Guest filesystem work per operation (journal, dcache, page cache).
#: Sized so exits land ~100k cycles apart: the "tens of thousands of VM
#: exits per second" regime of section 4.4.
CREATE_PROFILE = HandlerProfile("lfs_create", work_cycles=55000, loads=32,
                                stores=32, indirect_branches=10)
WRITE_PROFILE = HandlerProfile("lfs_write", work_cycles=28000, loads=16,
                               stores=48, indirect_branches=8, copy_bytes=1024)
READ_PROFILE = HandlerProfile("lfs_read", work_cycles=24000, loads=48,
                              stores=8, indirect_branches=8, copy_bytes=1024)


@dataclass(frozen=True)
class LFSWorkload:
    """One LFS benchmark configuration."""

    name: str
    files: int              # files per iteration
    blocks_per_file: int    # data blocks written per file
    fsync_per_file: bool    # smallfile fsyncs each file; largefile doesn't
    submit_batch: int       # ring occupancy before a kick


SMALLFILE = LFSWorkload("smallfile", files=8, blocks_per_file=1,
                        fsync_per_file=True, submit_batch=1)
LARGEFILE = LFSWorkload("largefile", files=1, blocks_per_file=48,
                        fsync_per_file=False, submit_batch=16)

SUITE: Tuple[LFSWorkload, ...] = (SMALLFILE, LARGEFILE)


def get_workload(name: str) -> LFSWorkload:
    for workload in SUITE:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown LFS workload {name!r}")


class LFSRunner:
    """Drives an LFS workload in a guest against the emulated disk."""

    def __init__(self, machine: Machine, host_config: MitigationConfig,
                 guest_config: MitigationConfig) -> None:
        self.hypervisor = Hypervisor(machine, host_config, guest_config)
        self.guest = self.hypervisor.create_guest()
        self.disk = EmulatedDisk(self.guest)
        self._next_block = 0

    def _fresh_block(self) -> int:
        block = self._next_block
        self._next_block = (self._next_block + 1) % self.disk.capacity_blocks
        return block

    def run_iteration(self, workload: LFSWorkload) -> int:
        """One iteration (a batch of file operations); returns cycles."""
        cycles = 0
        for _ in range(workload.files):
            cycles += self.guest.syscall(CREATE_PROFILE)
            for _ in range(workload.blocks_per_file):
                cycles += self.guest.syscall(WRITE_PROFILE)
                self.disk.queue_write(self._fresh_block())
                if self.disk.pending >= workload.submit_batch:
                    cycles += self.disk.kick()
            if workload.fsync_per_file:
                cycles += self.disk.flush()
            # Read-back phase: served from the guest page cache (no exit),
            # like the LFS benchmark's warm read pass.
            cycles += self.guest.syscall(READ_PROFILE)
        cycles += self.disk.kick()  # drain anything still queued
        return cycles

    def measure(self, workload: LFSWorkload, iterations: int = 12,
                warmup: int = 3) -> float:
        return steady_state(lambda: self.run_iteration(workload),
                            iterations, warmup)


def run_workload(
    machine: Machine,
    host_config: MitigationConfig,
    workload: LFSWorkload,
    guest_config: MitigationConfig = MitigationConfig.all_off(),
    iterations: int = 12,
    warmup: int = 3,
) -> float:
    """Cycles per iteration of ``workload`` with the given host config."""
    runner = LFSRunner(machine, host_config, guest_config)
    return runner.measure(workload, iterations, warmup)
