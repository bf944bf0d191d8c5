"""The observer scope: one way to attach instrumentation to machines.

Every instrumentation tool — the span tracer, the cycle ledger, the
leakage tracer, the event timeline and the replica scrub probe — is an
*observer*.  An observer adopts a machine through
``bind_machine(machine)`` and, when an executor worker ran it, ships its
results home through ``state()`` / ``merge_state()``.

:func:`use_observers` puts observers in scope; every
:class:`~repro.cpu.machine.Machine` constructed inside the block passes
each of them to :meth:`~repro.cpu.machine.Machine.attach`, the single
attach path.  The machine owns the wiring: it keeps the ledger and the
span tracer as direct references for its hot path, and puts the one
structure-hook subscriber (or a :class:`FanOut` over several) into every
structure's ``observer`` slot.

Scopes nest: an inner scope adds its observers to the outer ones, and an
inner observer replaces an outer observer of the same type until the
block ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence, Tuple

_scope: Tuple[Any, ...] = ()


def current_observers() -> Tuple[Any, ...]:
    """Observers new machines attach, outermost scope first."""
    return _scope


@contextmanager
def use_observers(*observers: Optional[Any]) -> Iterator[None]:
    """Attach ``observers`` to every machine built inside the block.

    ``None`` entries are skipped, so optional instrumentation can be
    passed through unconditionally.
    """
    global _scope
    previous = _scope
    added = tuple(observer for observer in observers if observer is not None)
    kinds = {type(observer) for observer in added}
    _scope = tuple(observer for observer in previous
                   if type(observer) not in kinds) + added
    try:
        yield
    finally:
        _scope = previous


class StructureHooks:
    """Base class of structure-hook subscribers.

    Lists every hook a microarchitectural structure or the machine's
    speculation path calls, each a no-op; the leakage tracer and the
    event timeline override the ones they watch.  While a subscriber is
    attached, ``Machine.run`` interprets: batched block-engine replay
    cannot reproduce per-event hooks, and the interpreter is
    bit-identical by the engine's differential contract.
    """

    # -- store buffer ------------------------------------------------------ #

    def sb_push(self, address: int, value: int) -> None:
        return None

    def sb_drain(self) -> None:
        return None

    def sb_forward(self, address: int) -> None:
        return None

    def sb_bypass(self, address: int, possible: bool) -> None:
        return None

    # -- caches and TLB ---------------------------------------------------- #

    def cache_fill(self, address: int, level: int) -> None:
        return None

    def cache_flush(self, address: int) -> None:
        return None

    def cache_flush_l1(self) -> None:
        return None

    def tlb_fill(self, page: int) -> None:
        return None

    def tlb_flush(self, invalidated: int) -> None:
        return None

    # -- predictors -------------------------------------------------------- #

    def btb_train(self, pc: int, target: int, mode: Any) -> None:
        return None

    def btb_barrier(self) -> None:
        return None

    def btb_flush(self) -> None:
        return None

    def cond_update(self, pc: int, taken: bool, state: int) -> None:
        return None

    def cond_flush(self) -> None:
        return None

    def rsb_push(self, return_address: int) -> None:
        return None

    def rsb_pop(self) -> None:
        return None

    def rsb_stuff(self) -> None:
        return None

    def rsb_clear(self) -> None:
        return None

    # -- MDS buffers ------------------------------------------------------- #

    def residue_load(self, value: int, mode: Any) -> None:
        return None

    def residue_store(self, value: int, mode: Any) -> None:
        return None

    def residue_clear(self) -> None:
        return None

    # -- the machine's speculation path ------------------------------------ #

    def window_begin(self, primitive: str, mode: Any,
                     pc: Optional[int] = None,
                     target: Optional[int] = None) -> None:
        return None

    def window_end(self) -> None:
        return None

    def on_lfence(self) -> None:
        return None

    def on_transient_div(self) -> None:
        return None

    def on_transient_load(self, address: int, kernel: bool,
                          mode: Any) -> None:
        return None

    def on_stlf_blocked(self, address: int) -> None:
        return None

    def on_predictor_bypass(self, pc: int, primitive: str) -> None:
        return None

    def on_redirect_suppressed(self, pc: int) -> None:
        return None

    def on_boundary(self, old_mode: Any, new_mode: Any) -> None:
        return None


class FanOut:
    """One ``observer`` slot serving several structure-hook subscribers.

    Each hook is built on first use and cached on the instance, so later
    dispatches cost one instance-dict lookup plus one call per
    subscriber, in attach order.
    """

    def __init__(self, subscribers: Sequence[StructureHooks]) -> None:
        self.subscribers = tuple(subscribers)

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        hooks = [getattr(subscriber, name) for subscriber in self.subscribers]

        def fan(*args: Any, **kwargs: Any) -> None:
            for hook in hooks:
                hook(*args, **kwargs)

        setattr(self, name, fan)
        return fan
