"""Cycle-attribution ledger: where did every cycle go?

The paper's contribution is *attribution* — decomposing an end-to-end
slowdown into the individual mitigation primitives that caused it
(Figures 2-5, Tables 3-8).  The :class:`CycleLedger` makes that
decomposition auditable at simulation time: every cycle charged to a
machine's TSC is simultaneously filed under a hierarchical key

    (layer, mitigation, primitive)

e.g. ``kernel.entry/pti/mov_cr3`` for the CR3 swap KPTI adds to the
syscall entry path, or ``jsengine/spectre_v1/index_mask`` for the
conditional-mask stall Chrome's array loads pay.

Invariant
---------
The ledger hooks :meth:`PerfCounters.add_cycles`, and ``Machine.run``
files each run's cycles (a :meth:`CycleLedger.tally`) as it adds them to
the TSC, so by construction

    sum(ledger entries) == sum of TSC deltas of every attached machine

:meth:`CycleLedger.verify` enforces this and raises
:class:`~repro.errors.LedgerInvariantError` on any mismatch (e.g. a
charge site that bypassed the hook).

Like every observer, a ledger reaches machines through
``use_observers(ledger)`` (machines built in the scope attach it) or
``machine.attach(ledger)``.  A machine without a ledger pays a single
``is None`` test on the hot path.  Ledgers from executor workers merge
into the parent via :meth:`state` / :meth:`merge_state`, as span
tracers do.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import LedgerInvariantError

#: Mitigation tag for work that is not attributable to any mitigation.
BASE = "base"

#: Primitive tag for cycles with no finer-grained attribution.
OTHER = "other"

#: The root layer: cycles charged outside any pushed layer scope.
ROOT_LAYER = "cpu"

#: Separator used in flattened ``layer/mitigation/primitive`` paths.
PATH_SEP = "/"

LedgerKey = Tuple[str, str, str]


def join_path(layer: str, mitigation: str, primitive: str) -> str:
    return PATH_SEP.join((layer, mitigation, primitive))


def split_path(path: str) -> LedgerKey:
    parts = path.split(PATH_SEP)
    if len(parts) != 3:
        raise LedgerInvariantError(
            f"malformed ledger path {path!r}: want layer/mitigation/primitive")
    return (parts[0], parts[1], parts[2])


class CycleLedger:
    """Hierarchical cycle accounting keyed by (layer, mitigation, primitive)."""

    def __init__(self) -> None:
        self._entries: Dict[LedgerKey, int] = {}
        self._layers: List[str] = [ROOT_LAYER]
        self._tag_mitigation: Optional[str] = None
        self._tag_primitive: Optional[str] = None
        self._splits: List[Tuple[int, str, str]] = []
        # (PerfCounters, TSC at attach): the invariant covers the cycles
        # each machine charged after the ledger attached.
        self._attached: List[Tuple[object, int]] = []
        self._merged_expected = 0

    # ------------------------------------------------------------------
    # Charging — called from PerfCounters.add_cycles (the hot path).

    def charge(self, cycles: int) -> None:
        """File *cycles* under the current layer/tag, honouring splits."""
        tags: Dict[tuple, int] = {}
        self.tally(tags, cycles, (self._tag_mitigation, self._tag_primitive))
        self.file(tags)

    def tally(self, tags: Dict[tuple, int], cycles: int, tag: tuple) -> None:
        """Add one charge to *tags*, a ``(mitigation, primitive) -> cycles``
        tally: each pending split takes its amount, capped at what is left,
        then *tag* the rest (a zero adds no key)."""
        splits = self._splits
        if splits:
            for amount, mitigation, primitive in splits:
                amount = min(amount, cycles)
                if amount > 0:
                    key = (mitigation, primitive)
                    tags[key] = tags.get(key, 0) + amount
                    cycles -= amount
            del splits[:]
        if cycles > 0:
            tags[tag] = tags.get(tag, 0) + cycles

    def file(self, tags: Dict[tuple, int]) -> None:
        """File a :meth:`tally` under the current layer, in key order
        (None is ``base``/``other``)."""
        layer = self._layers[-1]
        entries = self._entries
        for (mitigation, primitive), cycles in tags.items():
            key = (layer, mitigation or BASE, primitive or OTHER)
            entries[key] = entries.get(key, 0) + cycles

    def set_tag(self, mitigation: Optional[str],
                primitive: Optional[str]) -> None:
        """Tag the next charge(s); cleared with :meth:`clear_tag`."""
        self._tag_mitigation = mitigation
        self._tag_primitive = primitive

    def clear_tag(self) -> None:
        self._tag_mitigation = None
        self._tag_primitive = None

    def add_split(self, cycles: int, mitigation: str, primitive: str) -> None:
        """Attribute *cycles* of the next charge to a different tag.

        Used for mixed-cost instructions: e.g. a load that pays an SSBD
        store-to-load-forwarding penalty charges the penalty to
        ``ssbd/stlf_block`` and only the architectural latency to the
        instruction's own tag.  Splits are consumed (and capped to the
        charged amount) by the next :meth:`charge`.
        """
        if cycles > 0:
            self._splits.append((cycles, mitigation, primitive))

    # ------------------------------------------------------------------
    # Layer scopes.

    def push_layer(self, name: str) -> None:
        self._layers.append(name)

    def pop_layer(self) -> None:
        if len(self._layers) <= 1:
            raise LedgerInvariantError("ledger layer stack underflow")
        self._layers.pop()

    @contextmanager
    def layer(self, name: str) -> Iterator["CycleLedger"]:
        self.push_layer(name)
        try:
            yield self
        finally:
            self.pop_layer()

    @property
    def current_layer(self) -> str:
        return self._layers[-1]

    # ------------------------------------------------------------------
    # Invariant.

    def bind_machine(self, machine: object) -> None:
        """Register a machine's counter file for invariant checking
        (``Machine.attach`` routes its TSC advances here)."""
        counters = machine.counters
        self._attached.append((counters, counters.tsc))

    def total(self) -> int:
        return sum(self._entries.values())

    def expected_total(self) -> int:
        """TSC cycles every attached machine charged, plus merged workers."""
        return (sum(counters.tsc - start for counters, start in self._attached)
                + self._merged_expected)

    def verify(self) -> int:
        """Check sum(entries) == sum(TSC deltas); return the total.

        Raises :class:`LedgerInvariantError` on mismatch — which means a
        charge site advanced the TSC without going through
        ``PerfCounters.add_cycles`` on an attached counter file.
        """
        total = self.total()
        expected = self.expected_total()
        if total != expected:
            raise LedgerInvariantError(
                f"ledger invariant violated: attributed {total} cycles but "
                f"attached machines charged {expected} "
                f"(drift {total - expected:+d})")
        return total

    # ------------------------------------------------------------------
    # Merge (mirrors SpanTracer.state/merge_state).

    def state(self) -> Dict[str, object]:
        """Lossless dump for cross-process transport."""
        return {
            "entries": {join_path(*key): value
                        for key, value in sorted(self._entries.items())},
            "expected": self.expected_total(),
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold a worker ledger's :meth:`state` into this one."""
        for path, value in state.get("entries", {}).items():
            key = split_path(path)
            self._entries[key] = self._entries.get(key, 0) + int(value)
        self._merged_expected += int(state.get("expected", 0))

    # ------------------------------------------------------------------
    # Views.

    def paths(self) -> Dict[str, int]:
        """Flattened ``layer/mitigation/primitive -> cycles`` mapping."""
        return {join_path(*key): value
                for key, value in sorted(self._entries.items())}

    def rollup(self, by: str = "mitigation") -> Dict[str, int]:
        """Aggregate entries by ``"layer"``, ``"mitigation"``, or ``"primitive"``."""
        index = {"layer": 0, "mitigation": 1, "primitive": 2}.get(by)
        if index is None:
            raise ValueError(f"unknown rollup axis {by!r}")
        out: Dict[str, int] = {}
        for key, value in self._entries.items():
            out[key[index]] = out.get(key[index], 0) + value
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def mitigation_cycles(self) -> Dict[str, int]:
        """Per-mitigation cycle totals, excluding untagged base work."""
        return {name: cycles for name, cycles in self.rollup("mitigation").items()
                if name != BASE}

    # ------------------------------------------------------------------
    # Rendering.

    def render_tree(self) -> str:
        """Terminal tree: layers, then mitigation/primitive leaves."""
        total = self.total()
        lines = [f"cycle ledger — {total:,} cycles attributed"]
        if not total:
            return "\n".join(lines) + "\n"
        by_layer: Dict[str, Dict[Tuple[str, str], int]] = {}
        for (layer, mitigation, primitive), value in self._entries.items():
            by_layer.setdefault(layer, {})[(mitigation, primitive)] = value
        layers = sorted(by_layer.items(),
                        key=lambda kv: -sum(kv[1].values()))
        for layer, leaves in layers:
            layer_total = sum(leaves.values())
            lines.append(f"{layer:<40} {layer_total:>14,}  "
                         f"{100.0 * layer_total / total:5.1f}%")
            ordered = sorted(leaves.items(), key=lambda kv: -kv[1])
            for i, ((mitigation, primitive), value) in enumerate(ordered):
                branch = "└─" if i == len(ordered) - 1 else "├─"
                label = f"{branch} {mitigation}/{primitive}"
                lines.append(f"{label:<40} {value:>14,}  "
                             f"{100.0 * value / total:5.1f}%")
        return "\n".join(lines) + "\n"

    def render_markdown(self) -> str:
        """Markdown table of every (layer, mitigation, primitive) entry."""
        total = self.total()
        lines = ["| layer | mitigation | primitive | cycles | share |",
                 "| --- | --- | --- | ---: | ---: |"]
        ordered = sorted(self._entries.items(), key=lambda kv: -kv[1])
        for (layer, mitigation, primitive), value in ordered:
            share = 100.0 * value / total if total else 0.0
            lines.append(f"| {layer} | {mitigation} | {primitive} "
                         f"| {value} | {share:.2f}% |")
        lines.append(f"| **total** |  |  | **{total}** | 100.00% |")
        return "\n".join(lines) + "\n"

    def report(self) -> str:
        return self.render_tree()


class _NullScope:
    """Shared no-op context manager for when no ledger is active."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


def ledger_scope(ledger: Optional[CycleLedger], name: str):
    """Layer scope that is free when *ledger* is None."""
    if ledger is None:
        return _NULL_SCOPE
    return ledger.layer(name)
