"""Trace exporters: Chrome trace-event JSON and collapsed flamegraph stacks.

Two interchange formats from one :class:`~repro.obs.spans.SpanTracer`:

* :func:`to_chrome_trace` emits the Trace Event Format (the JSON object
  form, ``{"traceEvents": [...]}``) that Perfetto and ``chrome://tracing``
  load directly.  Span timestamps are simulated cycles written into the
  microsecond fields, so one on-screen microsecond reads as one simulated
  cycle.
* :func:`to_collapsed_stacks` emits Brendan Gregg's collapsed-stack format
  (``a;b;c <self-cycles>`` per line) consumable by ``flamegraph.pl`` and
  speedscope.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .leakage import LeakageTracer
from .ledger import CycleLedger
from .provenance import RunManifest
from .spans import Span, SpanTracer

__all__ = [
    "to_chrome_trace",
    "to_chrome_trace_json",
    "to_collapsed_stacks",
]

#: Synthetic process/thread ids for the single simulated timeline.
TRACE_PID = 1
TRACE_TID = 1


def _span_event(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {str(k): v for k, v in span.attrs.items()}
    if span.counter_delta:
        args["counters"] = dict(span.counter_delta)
    args["self_cycles"] = span.self_cycles
    end = span.end if span.end is not None else span.start
    return {
        "name": span.name,
        "cat": span.name.split(".", 1)[0],
        "ph": "X",                      # complete event: begin + duration
        "ts": span.start,
        "dur": max(0, end - span.start),
        "pid": TRACE_PID,
        "tid": TRACE_TID,
        "args": args,
    }


def _ledger_counter_events(ledger: CycleLedger) -> List[Dict[str, Any]]:
    """Perfetto counter tracks from the cycle ledger.

    One ``ph: "C"`` sample per mitigation at the end of the timeline (the
    ledger is cumulative, not time-resolved), so Perfetto renders a
    per-mitigation cycle track next to the span timeline.
    """
    ts = ledger.total()
    return [
        {"name": f"cycles.{mitigation}", "ph": "C", "ts": ts,
         "pid": TRACE_PID, "tid": TRACE_TID,
         "args": {"cycles": cycles}}
        for mitigation, cycles in sorted(ledger.rollup("mitigation").items())
    ]


def _leakage_instant_events(leakage: LeakageTracer) -> List[Dict[str, Any]]:
    """Perfetto instant events from the leakage flight recorder.

    One global ``ph: "i"`` instant per filed :class:`LeakageEvent` at the
    event's simulated-cycle timestamp, so leaks line up against the span
    timeline and the per-mitigation counter tracks.
    """
    return [
        {"name": f"leak.{event.primitive}", "cat": "leakage",
         "ph": "i", "s": "g", "ts": event.tsc,
         "pid": TRACE_PID, "tid": TRACE_TID,
         "args": {"channel": event.channel, "boundary": event.boundary,
                  "policy": event.policy, "cpu": event.cpu,
                  "sink": event.sink, "mode": event.mode}}
        for event in leakage.events
    ]


def to_chrome_trace(tracer: SpanTracer,
                    provenance: Optional[RunManifest] = None,
                    ledger: Optional[CycleLedger] = None,
                    leakage: Optional[LeakageTracer] = None
                    ) -> Dict[str, Any]:
    """The tracer's spans and instants as a Trace Event Format object."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": TRACE_TID,
         "args": {"name": "spectresim"}},
        {"name": "thread_name", "ph": "M", "pid": TRACE_PID, "tid": TRACE_TID,
         "args": {"name": "simulated-cycles"}},
    ]
    events.extend(_span_event(span) for span in tracer.spans)
    events.extend(
        {"name": name, "cat": name.split(".", 1)[0], "ph": "i", "s": "g",
         "ts": ts, "pid": TRACE_PID, "tid": TRACE_TID,
         "args": {str(k): v for k, v in attrs.items()}}
        for ts, name, attrs in tracer.instants
    )
    other: Dict[str, Any] = {
        "total_cycles": tracer.total_cycles(),
        "attributed_cycles": tracer.attributed_cycles(),
        "coverage": tracer.coverage(),
    }
    if ledger is not None:
        events.extend(_ledger_counter_events(ledger))
        other["ledger"] = ledger.state()
    if leakage is not None:
        events.extend(_leakage_instant_events(leakage))
        other["leakage"] = leakage.state()
    if provenance is not None:
        other["provenance"] = provenance.to_dict()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def to_chrome_trace_json(tracer: SpanTracer,
                         provenance: Optional[RunManifest] = None,
                         indent: Optional[int] = None,
                         ledger: Optional[CycleLedger] = None,
                         leakage: Optional[LeakageTracer] = None) -> str:
    return json.dumps(to_chrome_trace(tracer, provenance, ledger=ledger,
                                      leakage=leakage),
                      indent=indent)


def to_collapsed_stacks(tracer: SpanTracer) -> str:
    """Collapsed-stack flamegraph text: ``root;child;leaf self_cycles``.

    Identical stacks are merged (their self-cycles summed), matching what
    ``stackcollapse-*`` scripts produce from sampled profiles.
    """
    weights: Dict[str, int] = {}
    for span in tracer.spans:
        self_cycles = span.self_cycles
        if self_cycles <= 0:
            continue
        stack = ";".join(span.path())
        weights[stack] = weights.get(stack, 0) + self_cycles
    lines = [f"{stack} {weight}" for stack, weight in sorted(weights.items())]
    return "\n".join(lines) + ("\n" if lines else "")
