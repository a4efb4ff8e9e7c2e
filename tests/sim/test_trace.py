"""Tests for the tracing wrapper."""

from __future__ import annotations

from repro.core.schedule import Schedule, ScheduleStep
from repro.core.speedup import TabulatedSpeedup
from repro.core.table import IntervalTable
from repro.schedulers import FMScheduler, SequentialScheduler
from repro.sim.engine import ArrivalSpec, simulate
from repro.sim.trace import TraceEventKind, TraceRecorder

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0, 2.4])


def _spec(t: float, seq: float) -> ArrivalSpec:
    return ArrivalSpec(t, seq, _CURVE)


def _fm_table() -> IntervalTable:
    return IntervalTable(
        [
            Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 2), ScheduleStep(100.0, 4)]),
            Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 2), ScheduleStep(100.0, 4)]),
            Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True),
        ]
    )


class TestTraceRecorder:
    def test_transparent_results(self):
        """Tracing must not change the simulation outcome."""
        specs = [_spec(0.0, 100.0), _spec(10.0, 300.0)]
        plain = simulate(specs, SequentialScheduler(), cores=4)
        traced = simulate(specs, TraceRecorder(SequentialScheduler()), cores=4)
        assert [r.finish_ms for r in plain.records] == [
            r.finish_ms for r in traced.records
        ]

    def test_records_admissions_and_exits(self):
        recorder = TraceRecorder(SequentialScheduler())
        simulate([_spec(0.0, 50.0), _spec(5.0, 50.0)], recorder, cores=4)
        counts = recorder.counts()
        assert counts[TraceEventKind.ADMIT] == 2
        assert counts[TraceEventKind.EXIT] == 2

    def test_records_degree_climbs_and_boosts(self):
        recorder = TraceRecorder(FMScheduler(_fm_table()))
        simulate([_spec(0.0, 400.0)], recorder, cores=8, quantum_ms=5.0)
        counts = recorder.counts()
        assert counts.get(TraceEventKind.DEGREE_UP, 0) >= 2  # d1->d2->d4
        timeline = recorder.timeline(0)
        kinds = [e.kind for e in timeline]
        assert kinds[0] is TraceEventKind.ADMIT
        assert kinds[-1] is TraceEventKind.EXIT

    def test_records_queueing(self):
        recorder = TraceRecorder(FMScheduler(_fm_table()))
        simulate([_spec(0.0, 100.0)] * 3, recorder, cores=8, quantum_ms=5.0)
        assert recorder.counts().get(TraceEventKind.QUEUE, 0) >= 1

    def test_records_sheds_apart_from_queueing(self):
        # Loads 1 and 2 start; load 3 queues behind e1.  With a backlog
        # bound of one the fourth arrival is shed at once, and the
        # queued request is shed by its deadline when the first exit
        # re-checks it.
        recorder = TraceRecorder(FMScheduler(_fm_table(), max_backlog=1, deadline_ms=20.0))
        result = simulate([_spec(0.0, 100.0)] * 4, recorder, cores=8, quantum_ms=5.0)
        assert [(s.rid, s.deadline) for s in result.shed_records] == [(3, False), (2, True)]
        sheds = [e for e in recorder.events if e.kind is TraceEventKind.SHED]
        assert [(e.request_id, e.detail) for e in sheds] == [(3, False), (2, True)]
        assert [e.kind for e in recorder.timeline(2)] == [
            TraceEventKind.QUEUE,
            TraceEventKind.SHED,
        ]
        assert [e.kind for e in recorder.timeline(3)] == [TraceEventKind.SHED]

    def test_render_and_limit(self):
        recorder = TraceRecorder(SequentialScheduler())
        simulate([_spec(0.0, 50.0)] * 4, recorder, cores=8)
        text = recorder.render(limit=2)
        assert "more events" in text
        assert len(recorder.render().splitlines()) == len(recorder.events)

    def test_reset_clears_events(self):
        recorder = TraceRecorder(SequentialScheduler())
        simulate([_spec(0.0, 50.0)], recorder, cores=4)
        assert recorder.events
        recorder.reset()
        assert recorder.events == []

    def test_name_and_quantum_passthrough(self):
        recorder = TraceRecorder(SequentialScheduler())
        assert recorder.uses_quantum is False
        assert "SEQ" in recorder.name
