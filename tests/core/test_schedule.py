"""Tests for the σ and S schedule representations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import IntervalSchedule, Schedule, ScheduleStep
from repro.errors import InvalidScheduleError


class TestScheduleValidation:
    def test_requires_steps(self):
        with pytest.raises(InvalidScheduleError):
            Schedule([])

    def test_requires_increasing_times(self):
        with pytest.raises(InvalidScheduleError):
            Schedule([ScheduleStep(50.0, 1), ScheduleStep(50.0, 2)])

    def test_requires_increasing_degrees(self):
        with pytest.raises(InvalidScheduleError):
            Schedule([ScheduleStep(0.0, 2), ScheduleStep(50.0, 2)])

    def test_rejects_negative_time(self):
        with pytest.raises(InvalidScheduleError):
            ScheduleStep(-1.0, 1)

    def test_rejects_zero_degree(self):
        with pytest.raises(InvalidScheduleError):
            ScheduleStep(0.0, 0)


class TestScheduleSemantics:
    def test_paper_example(self):
        """σ = {(0, d1), (50, d3)} from Section 4.1."""
        sched = Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 3)])
        assert sched.initial_degree == 1
        assert sched.max_degree == 3
        assert sched.admission_delay_ms == 0.0
        assert sched.degree_at_progress(0.0) == 1
        assert sched.degree_at_progress(49.9) == 1
        assert sched.degree_at_progress(50.0) == 3
        assert sched.degree_at_progress(1e6) == 3

    def test_progress_steps_subtract_admission_delay(self):
        sched = Schedule([ScheduleStep(30.0, 1), ScheduleStep(130.0, 2)])
        assert sched.progress_steps() == [(0.0, 1), (100.0, 2)]
        assert sched.degree_at_progress(99.0) == 1
        assert sched.degree_at_progress(100.0) == 2

    def test_raise_thresholds_name_the_next_higher_step(self):
        sched = Schedule(
            [ScheduleStep(30.0, 2), ScheduleStep(80.0, 3), ScheduleStep(130.0, 5)]
        )
        # Progress counts from the start: d > 0 and d > 1 from 0, d > 2
        # at 50, d > 3 and d > 4 at 100, nothing above the top.
        assert sched.raise_thresholds == (0.0, 0.0, 50.0, 100.0, 100.0, math.inf)
        for degree, threshold in enumerate(sched.raise_thresholds[:-1]):
            assert sched.degree_at_progress(threshold) > degree

    def test_describe_matches_table2_style(self):
        sched = Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 3)])
        assert sched.describe() == "0, d1  50, d3"

    def test_describe_e1(self):
        sched = Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True)
        assert sched.describe() == "e1, d1"

    def test_dict_roundtrip(self):
        sched = Schedule(
            [ScheduleStep(10.0, 1), ScheduleStep(60.0, 4)], wait_for_exit=True
        )
        assert Schedule.from_dict(sched.to_dict()) == sched


class TestIntervalSchedule:
    def test_paper_equivalence_example(self):
        """S = {0, 50, 0} ⇔ σ = {(0, d1), (50, d3)} for n = 3."""
        s = IntervalSchedule([0.0, 50.0, 0.0])
        sigma = s.to_schedule()
        assert sigma == Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 3)])
        assert sigma.to_intervals(3) == s

    def test_all_zero_starts_at_max_degree(self):
        sigma = IntervalSchedule([0.0, 0.0, 0.0]).to_schedule()
        assert sigma == Schedule([ScheduleStep(0.0, 3)])

    def test_admission_delay(self):
        sigma = IntervalSchedule([50.0, 100.0, 0.0]).to_schedule()
        assert sigma.admission_delay_ms == 50.0
        assert sigma.steps[1].time_ms == 150.0  # arrival-relative

    def test_skipped_degree(self):
        sigma = IntervalSchedule([0.0, 0.0, 50.0]).to_schedule()
        assert [s.degree for s in sigma.steps] == [2, 3]

    def test_phase_duration(self):
        s = IntervalSchedule([0.0, 50.0, 25.0])
        assert s.phase_duration(1) == 50.0
        assert s.phase_duration(2) == 25.0
        assert s.phase_duration(3) == math.inf
        with pytest.raises(ValueError):
            s.phase_duration(4)

    def test_rejects_negative_interval(self):
        with pytest.raises(InvalidScheduleError):
            IntervalSchedule([0.0, -1.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidScheduleError):
            IntervalSchedule([])

    def test_dict_roundtrip(self):
        s = IntervalSchedule([5.0, 10.0], wait_for_exit=True)
        assert IntervalSchedule.from_dict(s.to_dict()) == s

    @given(
        intervals=st.lists(
            st.sampled_from([0.0, 5.0, 25.0, 100.0]), min_size=1, max_size=6
        ),
        wait=st.booleans(),
    )
    @settings(max_examples=200)
    def test_roundtrip_s_to_sigma_to_s(self, intervals, wait):
        """S -> σ -> S is the identity (zero phases collapse and
        reconstruct positionally)."""
        s = IntervalSchedule(intervals, wait_for_exit=wait)
        back = s.to_schedule().to_intervals(s.max_degree)
        if wait:
            # e1 discards the numeric v0.
            assert back.intervals[1:] == s.intervals[1:]
        else:
            assert back == s

    @given(
        intervals=st.lists(
            st.sampled_from([0.0, 5.0, 25.0, 100.0]), min_size=1, max_size=6
        )
    )
    @settings(max_examples=200)
    def test_sigma_degree_thresholds_consistent(self, intervals):
        """degree_at_progress agrees with a direct phase walk of S."""
        s = IntervalSchedule(intervals)
        sigma = s.to_schedule()
        n = s.max_degree
        elapsed = 0.0
        for degree in range(1, n):
            duration = s.intervals[degree]
            if duration > 0:
                midpoint = elapsed + duration / 2
                assert sigma.degree_at_progress(midpoint) == degree
            elapsed += duration
        assert sigma.degree_at_progress(elapsed + 1.0) == sigma.max_degree


def _naive_degree_at_progress(schedule: Schedule, progress_ms: float) -> int:
    """Reference: walk the steps, subtracting the start per comparison."""
    degree = schedule.steps[0].degree
    start = schedule.steps[0].time_ms
    for step in schedule.steps:
        if step.time_ms - start <= progress_ms + 1e-12:
            degree = step.degree
        else:
            break
    return degree


class TestDegreeAtProgressOracle:
    """The precomputed thresholds answer exactly as the naive walk,
    including at each threshold and within 1e-12 ms of it."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_walk(self, seed):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 7))
        start = float(rng.choice([0.0, rng.uniform(0.0, 80.0)]))
        gaps = rng.uniform(0.1, 120.0, size=steps - 1)
        times = [start, *(start + np.cumsum(gaps)).tolist()]
        degrees = np.sort(rng.choice(np.arange(1, 13), size=steps, replace=False))
        schedule = Schedule(
            [ScheduleStep(t, int(d)) for t, d in zip(times, degrees)],
            wait_for_exit=bool(rng.integers(0, 2)),
        )
        probes = [-1.0, -1e-12, 0.0, 1e-12, 1e9, *rng.uniform(0.0, 800.0, size=32)]
        for threshold, _ in schedule.progress_steps():
            probes += [
                threshold,
                threshold - 1e-12,
                threshold + 1e-12,
                math.nextafter(threshold - 1e-12, -math.inf),
                math.nextafter(threshold + 1e-12, math.inf),
            ]
        for progress in probes:
            assert schedule.degree_at_progress(progress) == _naive_degree_at_progress(
                schedule, progress
            ), (schedule, progress)
