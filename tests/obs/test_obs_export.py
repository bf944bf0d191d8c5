"""Exporters: Chrome trace-event JSON schema and collapsed stacks."""

import json

from repro.cpu import Machine, get_cpu
from repro.cpu import isa
from repro.obs.export import (
    to_chrome_trace,
    to_chrome_trace_json,
    to_collapsed_stacks,
)
from repro.obs.provenance import build_manifest
from repro.obs.observers import use_observers
from repro.obs.spans import SpanTracer


def traced_run():
    tracer = SpanTracer()
    with use_observers(tracer):
        m = Machine(get_cpu("broadwell"))
        with tracer.span("outer", cpu="broadwell"):
            m.execute(isa.work(100))
            with tracer.span("inner"):
                m.execute(isa.work(30))
            tracer.instant("tick", n=1)
    return tracer


def test_chrome_trace_schema():
    trace = to_chrome_trace(traced_run())
    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = trace["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {m["name"] for m in metadata} == {"process_name", "thread_name"}
    assert len(spans) == 2 and len(instants) == 1
    for e in spans:
        assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                          "args"}
        assert e["ts"] >= 0 and e["dur"] >= 0
    outer = next(e for e in spans if e["name"] == "outer")
    assert outer["dur"] == 130
    assert outer["args"]["cpu"] == "broadwell"
    assert outer["args"]["self_cycles"] == 100
    inner = next(e for e in spans if e["name"] == "inner")
    assert inner["ts"] == 100 and inner["dur"] == 30
    (instant,) = instants
    assert instant["s"] == "g" and instant["args"] == {"n": 1}


def test_chrome_trace_other_data():
    trace = to_chrome_trace(traced_run())
    other = trace["otherData"]
    assert other["total_cycles"] == 130
    assert other["attributed_cycles"] == 130
    assert other["coverage"] == 1.0
    assert "metrics" not in other


def test_chrome_trace_embeds_provenance():
    manifest = build_manifest(command="test", cpus=["broadwell"], seed=3)
    trace = to_chrome_trace(traced_run(), provenance=manifest)
    prov = trace["otherData"]["provenance"]
    assert prov["seed"] == 3
    assert prov["cpus"] == ["broadwell"]
    assert prov["version"]


def test_chrome_trace_json_round_trips():
    text = to_chrome_trace_json(traced_run())
    assert json.loads(text)["traceEvents"]


def test_chrome_trace_and_flamegraph_texts():
    # The CLI writes these texts verbatim (--trace-out, --flame-out).
    tracer = traced_run()
    assert json.loads(to_chrome_trace_json(tracer))["traceEvents"]
    assert "outer;inner 30" in to_collapsed_stacks(tracer)


def test_collapsed_stacks_merge_and_weight():
    tracer = SpanTracer()
    with use_observers(tracer):
        m = Machine(get_cpu("broadwell"))
        for _ in range(2):
            with tracer.span("a"):
                m.execute(isa.work(10))
                with tracer.span("b"):
                    m.execute(isa.work(5))
    lines = to_collapsed_stacks(tracer).splitlines()
    assert "a 20" in lines        # two identical stacks merged
    assert "a;b 10" in lines


def test_collapsed_stacks_empty_tracer():
    assert to_collapsed_stacks(SpanTracer()) == ""


def test_chrome_trace_carries_ledger_counter_tracks():
    from repro.obs.ledger import CycleLedger
    tracer = SpanTracer()
    with use_observers(tracer):
        machine = Machine(get_cpu("broadwell"), seed=0)
        with tracer.span("cpu.block"):
            machine.run([isa.work(50)])
    ledger = CycleLedger()
    ledger.set_tag("pti", "mov_cr3")
    ledger.charge(30)
    ledger.clear_tag()
    ledger.charge(12)

    trace = to_chrome_trace(tracer, ledger=ledger)
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    by_name = {e["name"]: e["args"]["cycles"] for e in counters}
    assert by_name == {"cycles.pti": 30, "cycles.base": 12}
    assert trace["otherData"]["ledger"]["entries"] == {
        "cpu/base/other": 12, "cpu/pti/mov_cr3": 30}


def test_counter_tracks_one_per_mitigation_sorted_at_total():
    """Multi-mitigation ledgers export one "C" track per mitigation, all
    sampled at the final ledger total (the ledger is cumulative), in
    deterministic name order."""
    from repro.obs.export import TRACE_PID, TRACE_TID, _ledger_counter_events
    from repro.obs.ledger import CycleLedger
    ledger = CycleLedger()
    for mitigation, primitive, cycles in (
            ("pti", "mov_cr3", 400),
            ("pti", "tlb_flush", 100),
            ("retpoline", "thunk", 60),
            ("ssbd", "stlf_block", 25)):
        ledger.set_tag(mitigation, primitive)
        ledger.charge(cycles)
    ledger.clear_tag()
    ledger.charge(15)  # untagged -> base

    events = _ledger_counter_events(ledger)
    assert [e["name"] for e in events] == [
        "cycles.base", "cycles.pti", "cycles.retpoline", "cycles.ssbd"]
    assert all(e["ph"] == "C" for e in events)
    assert all(e["ts"] == ledger.total() == 600 for e in events)
    assert all(e["pid"] == TRACE_PID and e["tid"] == TRACE_TID
               for e in events)
    by_name = {e["name"]: e["args"]["cycles"] for e in events}
    assert by_name["cycles.pti"] == 500       # both primitives fold in
    assert sum(by_name.values()) == ledger.total()


def test_counter_tracks_survive_json_round_trip():
    import json as _json
    from repro.obs.ledger import CycleLedger
    tracer = SpanTracer()
    with use_observers(tracer):
        machine = Machine(get_cpu("broadwell"), seed=0)
        with tracer.span("cpu.block"):
            machine.run([isa.work(10)])
    ledger = CycleLedger()
    ledger.set_tag("ibpb", "barrier")
    ledger.charge(75)
    text = to_chrome_trace_json(tracer, ledger=ledger)
    trace = _json.loads(text)
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert counters == [{"name": "cycles.ibpb", "ph": "C", "ts": 75,
                         "pid": counters[0]["pid"],
                         "tid": counters[0]["tid"],
                         "args": {"cycles": 75}}]


def test_no_counter_tracks_without_ledger():
    tracer = SpanTracer()
    with use_observers(tracer):
        machine = Machine(get_cpu("broadwell"), seed=0)
        with tracer.span("cpu.block"):
            machine.run([isa.work(10)])
    trace = to_chrome_trace(tracer)
    assert not [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert "ledger" not in trace["otherData"]
