"""Microarchitectural event timeline: recorder, ring bound, fan-out with
a leakage tracer, engine-mode composition, worker transport, and the
first-divergence differ.  Composition with all four observers at once is
covered by test_observers.py."""

import pytest

from repro.core.executor import CellSpec, StudyExecutor
from repro.core.probe import _policy_machine
from repro.core.study import Settings
from repro.cpu import Machine, engine, get_cpu
from repro.fuzz import generate_program
from repro.obs import (
    EventTimeline,
    LeakageTracer,
    current_observers,
    first_divergence,
    render_divergence,
    use_observers,
)
from repro.obs.observers import FanOut
from repro.obs.timeline import TimelineEvent


def _record_program(engine_mode=engine.ENGINE_INTERP, capacity=None,
                    repeats=3, program_seed=7, policy="default",
                    cpu_key="broadwell"):
    """Run a generated program under a fresh timeline; returns it."""
    program = generate_program(program_seed)
    with engine.use_engine(engine_mode):
        timeline = EventTimeline(capacity=capacity)
        with use_observers(timeline):
            machine, retpoline = _policy_machine(get_cpu(cpu_key), policy, 11)
            program.install(machine, retpoline=retpoline)
            stream = program.instructions(retpoline=retpoline)
            for _ in range(repeats):
                machine.run(stream)
    return timeline


# --------------------------------------------------------------------------- #
# Recorder
# --------------------------------------------------------------------------- #

class TestRecorder:
    def test_machines_adopt_the_ambient_timeline(self):
        timeline = EventTimeline()
        with use_observers(timeline):
            machine = Machine(get_cpu("broadwell"))
        assert machine.hooks is timeline
        assert machine.cond_predictor.observer is timeline
        assert current_observers() == ()
        assert Machine(get_cpu("broadwell")).hooks is None

    def test_records_events_across_structures(self):
        timeline = _record_program()
        assert timeline.total > 0
        structures = set(timeline.structure_counts())
        # A generated program must at least touch the memory hierarchy.
        assert "cache" in structures
        assert "tlb" in structures

    def test_events_carry_machine_stamps(self):
        timeline = _record_program()
        events = timeline.events
        assert all(isinstance(e, TimelineEvent) for e in events)
        assert all(e.tsc >= 0 and e.instr >= 0 for e in events)
        # tsc is monotone within the recording (each run continues the
        # same machine clock).
        tscs = [e.tsc for e in events]
        assert tscs == sorted(tscs)
        # seq is dense from 0 when nothing was dropped.
        assert [e.seq for e in events] == list(range(len(events)))

    def test_counts_match_recorded_events(self):
        timeline = _record_program()
        assert sum(timeline.counts.values()) == timeline.total
        per_structure = timeline.structure_counts()
        assert sum(per_structure.values()) == timeline.total

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTimeline(capacity=0)

    def test_stats_and_summary_agree(self):
        timeline = _record_program()
        stats = timeline.stats()
        assert stats["total"] == timeline.total
        assert stats["held"] == len(timeline.events)
        assert stats["digest"] == timeline.digest()
        assert str(timeline.total) in timeline.summary()


# --------------------------------------------------------------------------- #
# Ring bound
# --------------------------------------------------------------------------- #

class TestRingBound:
    def test_bounded_ring_drops_oldest_and_keeps_invariant(self):
        capacity = 16
        timeline = _record_program(capacity=capacity)
        assert timeline.total > capacity  # the program overflows the ring
        assert len(timeline.events) == capacity
        assert timeline.dropped == timeline.total - capacity
        # The survivors are the newest events.
        assert timeline.events[0].seq == timeline.dropped
        assert timeline.events[-1].seq == timeline.total - 1

    def test_unbounded_holds_everything(self):
        timeline = _record_program(capacity=None)
        assert timeline.dropped == 0
        assert len(timeline.events) == timeline.total


# --------------------------------------------------------------------------- #
# Fan-out with a leakage tracer
# --------------------------------------------------------------------------- #

class TestTee:
    """A timeline and a leakage tracer share every structure slot through
    one FanOut, whichever of the two the machine adopts first."""

    def test_timeline_tees_behind_an_attached_leakage_tracer(self):
        timeline = EventTimeline()
        with use_observers(timeline):
            machine = Machine(get_cpu("broadwell"))
            tracer = LeakageTracer()
            machine.attach(tracer)
        fan = machine.caches.observer
        assert isinstance(fan, FanOut) and fan is machine.hooks
        assert fan.subscribers == (timeline, tracer)
        assert machine.cond_predictor.observer is fan

    def test_leakage_first_then_timeline(self):
        tracer = LeakageTracer()
        with use_observers(tracer):
            timeline = EventTimeline()
            with use_observers(timeline):
                machine = Machine(get_cpu("broadwell"))
        assert machine.observers == (tracer, timeline)
        fan = machine.caches.observer
        assert isinstance(fan, FanOut) and fan is machine.hooks
        assert fan.subscribers == (tracer, timeline)


# --------------------------------------------------------------------------- #
# Engine-mode composition
# --------------------------------------------------------------------------- #

class TestEngineComposition:
    def test_block_engine_records_the_same_stream_as_interp(self):
        """With a timeline attached the block engine replays interpreted
        (bit-identical by its differential contract), so --engine=block
        yields the interpreter's event stream exactly."""
        interp = _record_program(engine.ENGINE_INTERP)
        block = _record_program(engine.ENGINE_BLOCK)
        assert interp.total == block.total
        assert [e.signature() for e in interp.events] \
            == [e.signature() for e in block.events]
        assert first_divergence(interp, block) is None

    def test_attached_timeline_forces_interp_fallback(self):
        """Machine.run skips the engine while a timeline is attached."""
        program = generate_program(7)
        with engine.use_engine(engine.ENGINE_BLOCK):
            timeline = EventTimeline()
            with use_observers(timeline):
                machine, retpoline = _policy_machine(
                    get_cpu("broadwell"), "default", 11)
                program.install(machine, retpoline=retpoline)
                stream = list(program.instructions(retpoline=retpoline))
                assert machine.engine is not None
                engine.STATS.reset()
                machine.run(stream)
                machine.run(stream)
        assert engine.STATS.interp_fallbacks == 0
        assert engine.STATS.block_hits == 0
        assert timeline.total > 0


# --------------------------------------------------------------------------- #
# Worker transport (state/merge_state + the parallel executor)
# --------------------------------------------------------------------------- #

class TestWorkerTransport:
    def test_state_merge_round_trips(self):
        source = _record_program()
        sink = EventTimeline(capacity=None)
        sink.merge_state(source.state())
        assert sink.total == source.total
        assert sink.counts == source.counts
        assert [e.signature() for e in sink.events] \
            == [e.signature() for e in source.events]

    def test_merge_respects_the_ring_bound(self):
        source = _record_program()
        assert source.total > 8
        sink = EventTimeline(capacity=8)
        sink.merge_state(source.state())
        assert len(sink.events) == 8
        assert sink.total == source.total
        assert sink.dropped == source.total - 8

    def test_parallel_executor_ships_worker_timelines_home(self):
        settings = Settings.fast()
        specs = [CellSpec("vm_lebench", cpu, "vm_lebench", settings)
                 for cpu in ("zen", "zen2", "broadwell", "skylake_client")]
        timeline = EventTimeline(capacity=None)
        with use_observers(timeline):
            StudyExecutor(jobs=2).run(specs)
        assert timeline.total > 0
        assert sum(timeline.counts.values()) == timeline.total
        assert timeline.total == len(timeline.events) + timeline.dropped

    def test_parallel_counts_match_serial(self):
        settings = Settings.fast()
        specs = [CellSpec("vm_lebench", cpu, "vm_lebench", settings)
                 for cpu in ("zen", "zen2", "broadwell", "skylake_client")]

        def sweep(jobs):
            timeline = EventTimeline(capacity=None)
            with use_observers(timeline):
                StudyExecutor(jobs=jobs).run(specs)
            return timeline

        serial = sweep(1)
        parallel = sweep(2)
        # Merge order across cells is completion-order, so only the
        # aggregate view is order-free — and it must match exactly.
        assert parallel.total == serial.total
        assert parallel.counts == serial.counts


# --------------------------------------------------------------------------- #
# First divergence
# --------------------------------------------------------------------------- #

def _skewed(timeline, at, delta=1):
    """Copy of a timeline's events with tsc skewed from index ``at``."""
    events = []
    for i, e in enumerate(timeline.events):
        tsc = e.tsc + (delta if i >= at else 0)
        events.append(TimelineEvent(seq=e.seq, structure=e.structure,
                                    action=e.action, key=e.key, tsc=tsc,
                                    mode=e.mode, instr=e.instr))
    return events


class TestFirstDivergence:
    def test_identical_streams_have_no_divergence(self):
        a = _record_program()
        b = _record_program()
        assert first_divergence(a, b) is None

    def test_pinpoints_the_first_skewed_event(self):
        base = _record_program()
        assert base.total >= 10
        skewed = _skewed(base, at=7)
        div = first_divergence(base, skewed)
        assert div is not None
        assert div.index == 7
        assert div.event_a.tsc + 1 == div.event_b.tsc
        assert div.structure == base.events[7].structure
        assert div.instr == base.events[7].instr

    def test_length_mismatch_diverges_at_the_shorter_end(self):
        base = _record_program()
        truncated = list(base.events)[:-3]
        div = first_divergence(base, truncated)
        assert div is not None
        assert div.index == len(truncated)
        assert div.event_b is None  # that side's stream ended

    def test_window_and_context(self):
        base = _record_program()
        skewed = _skewed(base, at=9)
        div = first_divergence(base, skewed, window=3)
        assert len(div.window_a) <= 7  # 3 before + the event + 3 after
        assert div.window_a[0].seq == 6
        assert div.counts  # common-prefix per-path counts
        assert all(count > 0 for count in div.counts.values())
        # last_seen holds the final pre-divergence event per structure.
        for structure, event in div.last_seen.items():
            assert event.structure == structure
            assert event.seq < div.index

    def test_render_marks_the_divergent_event(self):
        base = _record_program()
        skewed = _skewed(base, at=5)
        div = first_divergence(base, skewed)
        text = render_divergence(div, label_a="left", label_b="right")
        assert f"first divergence at event #{div.index}" in text
        assert "left" in text and "right" in text
        assert ">" in text  # the in-window marker

    def test_to_dict_is_json_shaped(self):
        import json
        base = _record_program()
        div = first_divergence(base, _skewed(base, at=4))
        payload = div.to_dict()
        json.dumps(payload)  # fully serializable
        assert payload["index"] == 4
        assert payload["structure"] == div.structure
        assert payload["instr"] == div.instr


# --------------------------------------------------------------------------- #
# Ambient scope
# --------------------------------------------------------------------------- #

def test_install_returns_previous():
    """An inner scope's timeline replaces the outer one for its block;
    the outer timeline is back in scope once the inner block ends."""
    outer, inner = EventTimeline(), EventTimeline()
    with use_observers(outer):
        with use_observers(inner):
            assert current_observers() == (inner,)
            assert Machine(get_cpu("broadwell")).hooks is inner
        assert current_observers() == (outer,)
    assert current_observers() == ()
