"""Branch Target Buffer (BTB) and Branch History Buffer (BHB) models.

This is the mechanism under study in section 6 of the paper.  The BTB maps
branch instruction addresses to predicted targets; poisoning it is the core
of Spectre V2.  Different microarchitectures expose observably different
behaviour, which the paper measures with its divider-counter probe and
summarizes in Tables 9 and 10.  We encode each behaviour mechanistically:

* **Untagged BTB** (Broadwell, Skylake, Zen, Zen 2): any mode can train an
  entry that any other mode will consume.  Every cell of Table 9 is a check
  mark for these parts.
* **Mode-tagged BTB** (Cascade Lake, Ice Lake Client/Server — the eIBRS
  parts): entries carry the privilege mode they were trained in and only
  predict in the same mode, so user -> kernel poisoning fails even with all
  mitigations disabled (the blank user->kernel cells of Table 9).
* **IBRS blocks all prediction** (Broadwell, Skylake, Zen 2, Zen 3): with
  ``SPEC_CTRL.IBRS`` set, indirect prediction is disabled entirely — the
  all-blank rows of Table 10 and the "IBRS was disabling all indirect
  branch prediction both in user space and kernel space" finding (6.2.1).
* **eIBRS blocks kernel-mode prediction on Ice Lake Client**: with IBRS
  set, Ice Lake Client additionally stops predicting kernel-mode indirect
  branches (the blank kernel->kernel cells in Table 10 for that part).
* **Opaque indexing (Zen 3)**: the paper could not poison the Zen 3 BTB at
  all and suspects a Branch History Buffer change.  We model the BTB index
  as incorporating an opaque per-install history tag the probe cannot
  reproduce, so trained entries never redirect transient execution, while
  committed-path prediction (which replays the identical history) still
  works for timing purposes.
* **IBPB poisons-to-harmless**: the paper observed that indirect branches
  *after* an IBPB still count as mispredicted, and speculates the barrier
  rewrites entries to a harmless gadget instead of invalidating them.  We
  model exactly that: after a barrier, entries predict the harmless target
  ``HARMLESS_TARGET`` (address 0, where no code lives).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .modes import Mode

#: Target installed by an IBPB.  No code is ever registered at address 0,
#: so a transient window launched there executes nothing.
HARMLESS_TARGET = 0


class BranchHistoryBuffer:
    """Rolling hash over the last N branch PCs.

    Used for two things: giving the probe's "fill branch history buffer"
    loop something real to do, and implementing the Zen 3 opaque-index
    behaviour (entries are tagged with the history hash *plus* a hidden
    salt, below).
    """

    def __init__(self, depth: int = 29) -> None:
        self.depth = depth
        self._hash = 0

    def push(self, pc: int) -> None:
        # A simple invertible-ish mix; only equality matters to the model.
        self._hash = ((self._hash << 3) ^ pc ^ (self._hash >> (self.depth - 1))) & (
            (1 << self.depth) - 1
        )

    def push_many(self, pcs) -> None:
        """Fold a run of branch PCs into the history hash in one call
        (the block engine's batched replay of recorded pushes)."""
        h = self._hash
        shift = self.depth - 1
        mask = (1 << self.depth) - 1
        for pc in pcs:
            h = ((h << 3) ^ pc ^ (h >> shift)) & mask
        self._hash = h

    @property
    def value(self) -> int:
        return self._hash

    def reset(self) -> None:
        self._hash = 0


class BranchTargetBuffer:
    """Direct-mapped-by-PC branch target buffer with optional tagging.

    Parameters
    ----------
    mode_tagged:
        Entries only predict in the privilege mode that trained them.
    opaque_index:
        Zen 3 behaviour: entries are additionally tagged with a hidden salt
        that changes on every install, so a *re-used* entry never matches —
        predictions from trained entries are suppressed for transient
        redirect purposes.  (See module docstring.)
    entries:
        Capacity; real BTBs hold a few thousand entries.
    """

    def __init__(
        self,
        entries: int = 4096,
        mode_tagged: bool = False,
        opaque_index: bool = False,
    ) -> None:
        self.capacity = entries
        self.mode_tagged = mode_tagged
        self.opaque_index = opaque_index
        # pc -> (target, mode, salt, thread)
        self._table: Dict[int, Tuple[int, Mode, int, int]] = {}
        self._install_counter = 0
        #: The leakage tracer (``repro.obs.leakage``) receiving hooks, set by
        #: ``Machine.attach``; None when detached.
        self.observer = None

    def __len__(self) -> int:
        return len(self._table)

    def train(self, pc: int, target: int, mode: Mode, thread: int = 0) -> None:
        """Record the committed target of the indirect branch at ``pc``.

        ``thread`` identifies the SMT sibling that trained the entry: the
        BTB is competitively shared between hyperthreads, which is the
        cross-thread Spectre V2 surface STIBP exists to close.
        """
        self._install_counter += 1
        salt = self._install_counter if self.opaque_index else 0
        if pc not in self._table and len(self._table) >= self.capacity:
            # Evict an arbitrary entry; fine-grained replacement is
            # irrelevant to the experiments, which touch few branches.
            self._table.pop(next(iter(self._table)))
        self._table[pc] = (target, mode, salt, thread)
        if self.observer is not None:
            self.observer.btb_train(pc, target, mode)

    def train_many(self, installs) -> None:
        """Install a run of ``(pc, target, mode, thread)`` entries in
        order (the block engine's batched replay of recorded trains)."""
        table = self._table
        capacity = self.capacity
        opaque = self.opaque_index
        counter = self._install_counter
        observer = self.observer
        for pc, target, mode, thread in installs:
            counter += 1
            if pc not in table and len(table) >= capacity:
                table.pop(next(iter(table)))
            table[pc] = (target, mode, counter if opaque else 0, thread)
            if observer is not None:
                observer.btb_train(pc, target, mode)
        self._install_counter = counter

    def lookup(self, pc: int, mode: Mode, thread: int = 0,
               stibp: bool = False) -> Optional[int]:
        """Predicted target for the branch at ``pc``, or None on miss.

        Mode tagging is enforced here; IBRS policy is enforced by the
        machine (it depends on MSR state and per-CPU behaviour flags).
        With ``stibp`` set, entries trained by a *different* SMT thread
        are invisible (Single Thread Indirect Branch Predictors).
        """
        entry = self._table.get(pc)
        if entry is None:
            return None
        target, trained_mode, _salt, trained_thread = entry
        if self.mode_tagged and trained_mode is not mode:
            return None
        if stibp and trained_thread != thread:
            return None
        return target

    def redirect_target(self, pc: int, mode: Mode, thread: int = 0,
                        stibp: bool = False) -> Optional[int]:
        """Target that *transient execution* would be steered to.

        Identical to :meth:`lookup` except on opaque-index parts (Zen 3),
        where the probe-visible redirect never fires: the hidden salt means
        the stored entry can't be matched by a later dynamic instance.
        """
        if self.opaque_index:
            return None
        return self.lookup(pc, mode, thread=thread, stibp=stibp)

    def barrier(self) -> int:
        """Indirect Branch Prediction Barrier (IBPB).

        Rewrites every entry to the harmless target (keeping it "valid" so
        subsequent branches mispredict, matching the paper's performance
        counter observation).  Returns the number of entries rewritten.
        """
        rewritten = 0
        for pc, (_target, mode, salt, thread) in list(self._table.items()):
            self._table[pc] = (HARMLESS_TARGET, mode, salt, thread)
            rewritten += 1
        if self.observer is not None:
            self.observer.btb_barrier()
        return rewritten

    def flush(self) -> int:
        """Hard invalidation (used by the eIBRS periodic kernel-entry scrub)."""
        count = len(self._table)
        self._table.clear()
        if self.observer is not None:
            self.observer.btb_flush()
        return count

    def contains(self, pc: int) -> bool:
        return pc in self._table
