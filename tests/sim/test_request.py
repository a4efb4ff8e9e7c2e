"""Tests for the request lifecycle state machine."""

from __future__ import annotations

import pytest

from repro.core.speedup import TabulatedSpeedup
from repro.errors import SimulationError
from repro.sim.request import RequestState, SimRequest

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0])


def _request(seq: float = 100.0) -> SimRequest:
    return SimRequest(0, 10.0, seq, _CURVE)


class TestLifecycle:
    def test_initial_state(self):
        req = _request()
        assert req.state is RequestState.QUEUED
        assert req.remaining_work == 100.0
        assert req.degree == 0
        assert not req.is_finished

    def test_rejects_nonpositive_work(self):
        with pytest.raises(SimulationError):
            SimRequest(0, 0.0, 0.0, _CURVE)

    @pytest.mark.parametrize("seq", [float("nan"), float("inf")])
    def test_rejects_non_finite_work(self, seq):
        with pytest.raises(SimulationError, match="request 7"):
            SimRequest(7, 0.0, seq, _CURVE)

    def test_start(self):
        req = _request()
        req.start(20.0, 2)
        assert req.state is RequestState.RUNNING
        assert req.start_ms == 20.0
        assert req.degree == 2

    def test_double_start_rejected(self):
        req = _request()
        req.start(20.0, 1)
        with pytest.raises(SimulationError):
            req.start(30.0, 1)

    def test_start_with_zero_degree_rejected(self):
        with pytest.raises(SimulationError):
            _request().start(0.0, 0)

    def test_finish_requires_running(self):
        with pytest.raises(SimulationError):
            _request().finish(5.0)

    def test_full_lifecycle_metrics(self):
        req = _request(100.0)
        req.start(20.0, 1)
        req.rate = 1.0
        req.advance(50.0, 1.0)
        req.raise_degree(2)
        req.rate = 1.5
        # remaining 50 work at rate 1.5 -> 33.33 ms
        req.advance(50.0 / 1.5, 2.0)
        assert req.is_finished
        req.finish(20.0 + 50.0 + 50.0 / 1.5)
        assert req.latency_ms == pytest.approx(10.0 + 50.0 + 50.0 / 1.5)
        assert req.execution_ms == pytest.approx(50.0 + 50.0 / 1.5)
        assert req.thread_time_ms == pytest.approx(50.0 + 2 * 50.0 / 1.5)
        assert req.degree_residency[1] == pytest.approx(50.0)
        assert req.degree_residency[2] == pytest.approx(50.0 / 1.5)
        assert 1.0 < req.average_parallelism < 2.0


class TestDegreeChanges:
    def test_raise_degree(self):
        req = _request()
        req.start(0.0, 1)
        assert req.raise_degree(3)
        assert req.degree == 3

    def test_same_degree_is_noop(self):
        req = _request()
        req.start(0.0, 2)
        assert not req.raise_degree(2)

    def test_decrease_rejected(self):
        """The FM invariant: parallelism never decreases."""
        req = _request()
        req.start(0.0, 3)
        with pytest.raises(SimulationError):
            req.raise_degree(2)

    def test_raise_requires_running(self):
        with pytest.raises(SimulationError):
            _request().raise_degree(2)


class TestAdvance:
    def test_ignores_non_running(self):
        req = _request()
        req.advance(10.0, 1.0)
        assert req.remaining_work == 100.0

    def test_overshoot_detected(self):
        req = _request(10.0)
        req.start(0.0, 1)
        req.rate = 1.0
        with pytest.raises(SimulationError):
            req.advance(20.0, 1.0)

    def test_tiny_residue_clamped(self):
        req = _request(10.0)
        req.start(0.0, 1)
        req.rate = 1.0
        req.advance(10.0 + 1e-9, 1.0)
        assert req.remaining_work == 0.0
        assert req.is_finished

    def test_effective_progress_tracks_contention(self):
        req = _request(100.0)
        req.start(0.0, 1)
        req.rate = 0.5
        req.advance(10.0, 0.5, progress_factor=0.5)
        assert req.progress_ms(10.0) == pytest.approx(10.0)
        assert req.effective_ms == pytest.approx(5.0)

    def test_latency_requires_finish(self):
        req = _request()
        with pytest.raises(SimulationError):
            _ = req.latency_ms
