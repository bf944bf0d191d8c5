"""Span tracer: clock, nesting, attribution, and the null fast path."""

import pytest

from repro.cpu import Machine, get_cpu
from repro.cpu import isa
from repro.kernel import GETPID, Kernel
from repro.mitigations import linux_default
from repro.obs.observers import use_observers
from repro.obs.spans import NULL_TRACER, NullTracer, SpanTracer, current_tracer


@pytest.fixture
def tracer():
    t = SpanTracer()
    with use_observers(t):
        yield t


def test_null_tracer_is_default():
    assert current_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled


def test_null_tracer_span_is_shared_noop():
    a = NULL_TRACER.span("anything", key="value")
    b = NULL_TRACER.span("else")
    assert a is b  # one shared object, nothing allocates
    with a as span:
        assert span.set(more=1) is span
    NULL_TRACER.instant("nothing")


def test_use_tracer_installs_and_restores():
    """The observer scope installs a span tracer for its block and puts
    the null tracer back when the block ends."""
    t = SpanTracer()
    with use_observers(t):
        assert current_tracer() is t
        assert current_tracer().enabled
    assert current_tracer() is NULL_TRACER


def test_install_tracer_returns_previous():
    """An inner scope's tracer replaces the outer one; the outer tracer
    is current again once the inner block ends."""
    outer, inner = SpanTracer(), SpanTracer()
    with use_observers(outer):
        with use_observers(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is NULL_TRACER


def test_clock_follows_machine_tsc(tracer):
    m = Machine(get_cpu("broadwell"))  # binds itself on construction
    before = tracer.now()
    m.execute(isa.work(123))
    assert tracer.now() - before == 123


def test_clock_monotonic_across_machines(tracer):
    m1 = Machine(get_cpu("broadwell"))
    m1.execute(isa.work(100))
    assert tracer.now() == 100
    m2 = Machine(get_cpu("zen3"))  # fresh TSC; clock must not jump back
    assert tracer.now() == 100
    m2.execute(isa.work(50))
    assert tracer.now() == 150


def test_span_nesting_and_cycle_attribution(tracer):
    m = Machine(get_cpu("broadwell"))
    with tracer.span("outer") as outer:
        m.execute(isa.work(100))
        with tracer.span("inner") as inner:
            m.execute(isa.work(40))
        m.execute(isa.work(10))
    assert inner.parent is outer
    assert inner in outer.children
    assert inner.cycles == 40
    assert outer.cycles == 150
    assert outer.self_cycles == 110
    assert inner.path() == ("outer", "inner")
    assert outer.depth == 0 and inner.depth == 1


def test_span_counter_delta(tracer):
    m = Machine(get_cpu("broadwell"))
    with tracer.span("loads") as span:
        m.execute(isa.load(0x1000))
    assert span.counter_delta is not None
    assert span.counter_delta.get("inst_retired.any") == 1


def test_span_attrs_and_set(tracer):
    with tracer.span("s", cpu="zen") as span:
        span.set(extra=7)
    assert span.attrs == {"cpu": "zen", "extra": 7}


def test_coverage_and_find(tracer):
    m = Machine(get_cpu("broadwell"))
    with tracer.span("covered"):
        m.execute(isa.work(90))
    m.execute(isa.work(10))  # outside any span
    assert tracer.total_cycles() == 100
    assert tracer.attributed_cycles() == 90
    assert tracer.coverage() == pytest.approx(0.9)
    (span,) = tracer.find("covered")
    assert span.cycles == 90
    assert tracer.find("missing") == []


def test_instants_recorded_with_timestamps(tracer):
    m = Machine(get_cpu("broadwell"))
    m.execute(isa.work(10))
    tracer.instant("event", detail="x")
    assert tracer.instants == [(10, "event", {"detail": "x"})]


def test_transient_window_emits_instant(tracer):
    m = Machine(get_cpu("broadwell"))
    m.speculate([isa.div()])
    names = [name for _, name, _ in tracer.instants]
    assert "cpu.transient_window" in names


def test_syscall_produces_nested_spans(tracer):
    cpu = get_cpu("broadwell")
    kernel = Kernel(Machine(cpu), linux_default(cpu))
    kernel.syscall(GETPID)
    (syscall,) = tracer.find("kernel.syscall")
    child_names = [child.name for child in syscall.children]
    assert child_names == ["kernel.entry", "kernel.handler.getpid",
                           "kernel.exit"]
    assert syscall.cycles == sum(c.cycles for c in syscall.children)


def test_syscall_attribution_covers_all_cycles(tracer):
    """The acceptance bar: >=95% of committed cycles in named spans."""
    cpu = get_cpu("broadwell")
    kernel = Kernel(Machine(cpu), linux_default(cpu))
    with tracer.span("run"):
        for _ in range(10):
            kernel.syscall(GETPID)
    assert tracer.coverage() >= 0.95


def test_report_mentions_spans_and_coverage(tracer):
    m = Machine(get_cpu("broadwell"))
    with tracer.span("alpha"):
        m.execute(isa.work(10))
    out = tracer.report()
    assert "alpha" in out
    assert "% attributed" in out


def test_untraced_machine_behaves_identically():
    """Null path and traced path must agree on simulated cycle counts."""
    cpu = get_cpu("broadwell")

    def run():
        kernel = Kernel(Machine(cpu), linux_default(cpu))
        return sum(kernel.syscall(GETPID) for _ in range(5))

    baseline = run()
    with use_observers(SpanTracer()):
        traced = run()
    assert traced == baseline


def test_null_tracer_type_is_reusable():
    t = NullTracer()
    assert t.span("x") is t.span("y")
    assert not t.enabled


def test_to_payload_serializes_timeline(tracer):
    m = Machine(get_cpu("broadwell"))
    with tracer.span("outer", cpu="bw") as outer:
        m.execute(isa.work(30))
        with tracer.span("inner"):
            m.execute(isa.work(10))
    tracer.instant("mark", n=1)
    payload = tracer.state()
    assert set(payload) == {"spans", "instants", "total_cycles"}
    assert payload["total_cycles"] == 40
    records = payload["spans"]
    assert [r["name"] for r in records] == ["outer", "inner"]
    assert records[0]["parent"] is None
    assert records[1]["parent"] == 0          # parent by index, not identity
    assert records[0]["attrs"] == {"cpu": "bw"}
    assert records[0]["start"] == 0 and records[0]["end"] == 40
    assert payload["instants"] == [[40, "mark", {"n": 1}]]
    import json as _json
    _json.dumps(payload)                       # plain JSON types only
    assert outer.end == 40


def test_to_payload_closes_open_spans_at_now(tracer):
    m = Machine(get_cpu("broadwell"))
    span = tracer.span("open").__enter__()
    m.execute(isa.work(25))
    payload = tracer.state()
    assert payload["spans"][0]["end"] == 25    # closed at now() in transit
    assert span.end is None                    # ...without mutating the live span
    span.__exit__(None, None, None)


def test_absorb_rebases_child_timeline(tracer):
    m = Machine(get_cpu("broadwell"))
    m.execute(isa.work(100))                   # parent clock at 100

    child = SpanTracer()
    with use_observers(child):
        cm = Machine(get_cpu("zen3"))          # binds to the child's clock
        with child.span("worker.job") as job:
            cm.execute(isa.work(40))
            child.instant("worker.event")

    tracer.merge_state(child.state())
    (absorbed,) = tracer.find("worker.job")
    assert absorbed.start == 100 and absorbed.end == 140
    assert absorbed is not job                 # rebuilt, not shared
    assert (140, "worker.event", {}) in tracer.instants
    assert tracer.now() == 140                 # clock advanced past the child


def test_absorb_preserves_parent_links_and_coverage(tracer):
    child = SpanTracer()
    with use_observers(child):
        cm = Machine(get_cpu("broadwell"))
        with child.span("outer"):
            with child.span("inner"):
                cm.execute(isa.work(60))
    tracer.merge_state(child.state())
    (outer,) = tracer.find("outer")
    (inner,) = tracer.find("inner")
    assert inner.parent is outer
    assert inner in outer.children
    assert outer in tracer.roots and inner not in tracer.roots
    assert tracer.coverage() == pytest.approx(1.0)
    # successive absorptions stay monotonic
    tracer.merge_state(child.state())
    assert tracer.total_cycles() == 120


def test_advance_rejects_negative(tracer):
    with pytest.raises(ValueError):
        tracer.advance(-1)
