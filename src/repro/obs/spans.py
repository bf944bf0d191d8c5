"""Hierarchical span tracing over the simulated cycle timeline.

The attribution harness answers "how much did mitigation X cost?"; spans
answer the complementary question "where in the stack did the cycles go?".
A :class:`SpanTracer` keeps a single monotonically increasing **trace
clock**, measured in simulated cycles, that follows the timestamp counter
of whichever :class:`~repro.cpu.machine.Machine` is currently bound to it
(machines built in the tracer's observer scope bind at construction).
Opening a span records the clock; closing it attributes the elapsed
cycles — and the bound machine's perf-counter deltas — to that span.
Spans nest, so a Figure 2 run decomposes into
``study.figure2.broadwell`` > ``lebench.suite`` >
``lebench.case.getpid`` > ``kernel.syscall`` > ``kernel.entry`` and
every layer's share is visible.

Untraced runs pay (almost) nothing: with no span tracer in scope, code
sees a :class:`NullTracer` whose :meth:`~NullTracer.span` returns a
shared no-op context manager.  Hot call sites additionally gate on
``tracer.enabled`` so the untraced fast path is one attribute load per
boundary crossing.

Usage::

    from repro.obs import SpanTracer, use_observers

    tracer = SpanTracer()
    with use_observers(tracer):
        study.figure2([get_cpu("broadwell")], Settings.fast())
    print(tracer.coverage())          # fraction of cycles inside spans
    for span in tracer.find("kernel.syscall"):
        print(span.cycles, span.counter_delta)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .observers import current_observers

__all__ = [
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "SpanTracer",
    "current_tracer",
]


class NullSpan:
    """Shared do-nothing span: the zero-cost untraced path."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class NullTracer:
    """Tracer that records nothing: what code sees outside a span tracer's
    scope.

    Every hook is a no-op, and :meth:`span` always hands back one shared
    :class:`NullSpan`, so instrumentation points cost an attribute lookup
    and a call — nothing allocates, nothing grows.
    """

    __slots__ = ()

    #: Hot call sites test this instead of building span kwargs.
    enabled = False

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        return None


NULL_TRACER = NullTracer()


class Span:
    """One named, timed region of a traced run.

    ``start``/``end`` are trace-clock values (simulated cycles since the
    tracer was created); ``cycles`` is their difference and
    ``self_cycles`` subtracts the children, which is what the flamegraph
    exporter plots.  ``counter_delta`` holds the bound machine's
    perf-counter movement across the span, when a single machine spanned
    the whole region.
    """

    __slots__ = ("name", "attrs", "start", "end", "parent", "children",
                 "counter_delta", "_tracer", "_machine", "_counters_before")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start: int = 0
        self.end: Optional[int] = None
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.counter_delta: Optional[Dict[str, int]] = None
        self._tracer = tracer
        self._machine: Any = None
        self._counters_before: Optional[Dict[str, int]] = None

    # -- context manager ------------------------------------------------- #

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start = tracer.now()
        self.parent = tracer._stack[-1] if tracer._stack else None
        if self.parent is not None:
            self.parent.children.append(self)
        else:
            tracer.roots.append(self)
        tracer.spans.append(self)
        tracer._stack.append(self)
        machine = tracer._machine
        if machine is not None:
            self._machine = machine
            self._counters_before = machine.counters.snapshot()
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        self.end = tracer.now()
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        machine = self._machine
        if machine is not None and machine is tracer._machine:
            self.counter_delta = machine.counters.delta(self._counters_before)
        self._machine = None
        self._counters_before = None
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach extra attributes to an open span."""
        self.attrs.update(attrs)
        return self

    # -- derived --------------------------------------------------------- #

    @property
    def cycles(self) -> int:
        """Simulated cycles spent inside this span (children included)."""
        end = self.end if self.end is not None else self._tracer.now()
        return end - self.start

    @property
    def self_cycles(self) -> int:
        """Cycles spent in this span but not in any child span."""
        return self.cycles - sum(child.cycles for child in self.children)

    def path(self) -> Tuple[str, ...]:
        """Root-to-here span names (the flamegraph stack)."""
        names: List[str] = []
        node: Optional[Span] = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))

    @property
    def depth(self) -> int:
        return len(self.path()) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Span {self.name} cycles={self.cycles}>"


class SpanTracer:
    """Records nested spans against the simulated cycle clock.

    The trace clock advances by following the TSC of the most recently
    bound machine; when a new machine binds (study drivers create one
    machine per configuration), the old machine's elapsed cycles are
    folded into the clock base so the timeline stays monotonic across
    machine lifetimes.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self.spans: List[Span] = []            # every span, in start order
        self.instants: List[Tuple[int, str, Dict[str, Any]]] = []
        self._stack: List[Span] = []
        self._machine: Any = None
        self._bind_tsc: int = 0
        self._clock_base: int = 0

    # -- the trace clock ------------------------------------------------- #

    def now(self) -> int:
        """Trace-clock reading: simulated cycles since tracer creation."""
        if self._machine is None:
            return self._clock_base
        return self._clock_base + (self._machine.counters.tsc - self._bind_tsc)

    def bind_machine(self, machine: Any) -> None:
        """Adopt ``machine``'s TSC as the clock source.

        Called from ``Machine.attach``; the previously bound machine's
        elapsed cycles are retired into the clock base.
        """
        if machine is self._machine:
            return
        self._clock_base = self.now()
        self._machine = machine
        self._bind_tsc = machine.counters.tsc

    # -- recording ------------------------------------------------------- #

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager attributing enclosed cycles to ``name``."""
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """A zero-duration event (e.g. one transient window) at now()."""
        self.instants.append((self.now(), name, attrs))

    def advance(self, cycles: int) -> None:
        """Retire ``cycles`` simulated elsewhere into the trace clock.

        Used when absorbing a child tracer: the worker's machines never
        bound to this tracer, so their cycles are folded in wholesale to
        keep :meth:`total_cycles` (and coverage) honest.
        """
        if cycles < 0:
            raise ValueError("cannot retire negative cycles")
        self._clock_base += cycles

    # -- cross-process transport ------------------------------------------ #

    def state(self) -> Dict[str, Any]:
        """Serialize the complete timeline as plain JSON types.

        The inverse is :meth:`merge_state`; together they carry a worker
        process's spans and instants back to the parent tracer.
        Open spans are closed at the current clock reading first.
        """
        index = {id(span): i for i, span in enumerate(self.spans)}
        spans = []
        for span in self.spans:
            spans.append({
                "name": span.name,
                "attrs": dict(span.attrs),
                "start": span.start,
                "end": span.end if span.end is not None else self.now(),
                "parent": index.get(id(span.parent)),
                "counter_delta": span.counter_delta,
            })
        return {
            "spans": spans,
            "instants": [[ts, name, dict(attrs)]
                         for ts, name, attrs in self.instants],
            "total_cycles": self.total_cycles(),
        }

    def merge_state(self, payload: Dict[str, Any]) -> None:
        """Merge a child tracer's :meth:`state` into this timeline.

        The child's spans are re-based at the current clock reading (its
        cycles happened "elsewhere", concurrently in wall time but on an
        independent simulated clock), and the clock advances past its
        total so successive absorptions stay monotonic and coverage
        accounting holds.
        """
        base = self.now()
        rebuilt: List[Span] = []
        for record in payload["spans"]:
            span = Span(self, record["name"], dict(record["attrs"]))
            span.start = base + record["start"]
            span.end = base + record["end"]
            span.counter_delta = record["counter_delta"]
            parent_index = record["parent"]
            if parent_index is not None:
                span.parent = rebuilt[parent_index]
                span.parent.children.append(span)
            else:
                self.roots.append(span)
            rebuilt.append(span)
            self.spans.append(span)
        for ts, name, attrs in payload["instants"]:
            self.instants.append((base + ts, name, attrs))
        self.advance(payload["total_cycles"])

    # -- queries --------------------------------------------------------- #

    def total_cycles(self) -> int:
        """Every simulated cycle the clock saw, attributed or not."""
        return self.now()

    def attributed_cycles(self) -> int:
        """Cycles covered by at least one (root) span."""
        return sum(root.cycles for root in self.roots)

    def coverage(self) -> float:
        """Fraction of simulated cycles inside named spans (0..1)."""
        total = self.total_cycles()
        if total <= 0:
            return 1.0 if not self.roots else 0.0
        return min(1.0, self.attributed_cycles() / total)

    def find(self, name: str) -> List[Span]:
        """All completed or open spans with ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def self_cycles_by_name(self) -> Dict[str, int]:
        """Aggregate self-cycles per span name (profile-style rollup)."""
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + span.self_cycles
        return out

    def report(self, top: int = 12) -> str:
        """Aligned text rollup of where the cycles went."""
        total = self.total_cycles()
        lines = [
            f"{len(self.spans)} spans, {total} simulated cycles, "
            f"{100.0 * self.coverage():.1f}% attributed"
        ]
        ranked = sorted(self.self_cycles_by_name().items(),
                        key=lambda pair: pair[1], reverse=True)
        for name, self_cycles in ranked[:top]:
            share = 100.0 * self_cycles / total if total else 0.0
            lines.append(f"  {name:40s} {self_cycles:>12d} self-cycles "
                         f"({share:5.1f}%)")
        if self.instants:
            lines.append(f"  {len(self.instants)} instant events")
        return "\n".join(lines) + "\n"


def current_tracer() -> "NullTracer | SpanTracer":
    """The span tracer in the current observer scope, or the null tracer.

    For code that opens spans without a machine at hand; machines use
    the tracer they attached (``machine.obs``).
    """
    for observer in reversed(current_observers()):
        if isinstance(observer, SpanTracer):
            return observer
    return NULL_TRACER
