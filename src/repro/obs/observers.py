"""The observer scope: one way to attach instrumentation to machines.

Every instrumentation tool — the span tracer, the cycle ledger, the
leakage tracer and the replica scrub probe — is an *observer*.  An
observer adopts a machine through ``bind_machine(machine)`` and, when an
executor worker ran it, ships its results home through ``state()`` /
``merge_state()``.

:func:`use_observers` puts observers in scope; every
:class:`~repro.cpu.machine.Machine` constructed inside the block passes
each of them to :meth:`~repro.cpu.machine.Machine.attach`, the single
attach path.  The machine owns the wiring: it keeps the ledger and the
span tracer as direct references for its hot path, and puts its one
leakage tracer into the ``observer`` slot of each structure that
reports to it (store buffer, BTB, RSB and MDS buffers).

Scopes nest: an inner scope adds its observers to the outer ones, and an
inner observer replaces an outer observer of the same type until the
block ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

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
