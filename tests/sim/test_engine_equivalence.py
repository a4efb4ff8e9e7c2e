"""The engine's correctness bar against the frozen reference
implementation (:mod:`repro.sim._baseline`), on fixed seeds — across
schedulers, boosting, load shedding, fault injection, and saturation —
plus regression tests for the latent bugs fixed alongside the hot-path
overhaul (O(n^2) backlog drains, per-wake delayed-set sorts, silent
engine reuse).

The engine commits lazily and arms quantum ticks on a closed-form grid,
so it matches the reference under the contract of
:mod:`repro.sim.contract` rather than bit for bit: the same decision
sequence, times within ``TIME_RTOL`` and integrals within
``INTEGRAL_RTOL`` relative.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults.plan import CoreFault, FaultPlan, StallFault
from repro.schedulers import (
    AdaptiveScheduler,
    FixedScheduler,
    FMScheduler,
    SequentialScheduler,
)
from repro.sim import ArrivalSpec, Engine, simulate
from repro.sim.api import Admission, Scheduler
from repro.sim.contract import (
    INTEGRAL_RTOL,
    TIME_RTOL,
    check_against_reference,
    relative_diff,
)
from repro.sim.request import RequestState
from tests.sim.test_engine import _CURVE, _arrivals  # shared fixtures


def _sweep_arrivals(rps: float, n: int, seed: int) -> list[ArrivalSpec]:
    """A reproducible Poisson trace with lognormal demand."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1000.0 / rps, size=n))
    demands = np.maximum(rng.lognormal(3.0, 0.8, size=n), 1.0)
    return [ArrivalSpec(float(t), float(s), _CURVE) for t, s in zip(times, demands)]


def _record_key(record):
    return (
        record.rid,
        record.arrival_ms,
        record.start_ms,
        record.finish_ms,
        record.seq_ms,
        record.final_degree,
        record.average_parallelism,
        record.thread_time_ms,
        record.core_time_ms,
        record.boosted,
        record.service_ms,
        record.contention_ms,
        record.boost_wait_ms,
        record.stall_ms,
    )


def _assert_identical(result, reference):
    """Every observable metric must match with ``==`` on raw floats (two
    runs of this engine that must not differ at all)."""
    assert len(result.records) == len(reference.records)
    for ours, theirs in zip(result.records, reference.records):
        assert _record_key(ours) == _record_key(theirs)
    assert [(s.rid, s.arrival_ms, s.shed_ms) for s in result.shed_records] == [
        (s.rid, s.arrival_ms, s.shed_ms) for s in reference.shed_records
    ]
    if result.records:
        assert result.tail_latency_ms(0.99) == reference.tail_latency_ms(0.99)
        assert result.mean_latency_ms() == reference.mean_latency_ms()
    assert result.cpu_utilization() == reference.cpu_utilization()
    assert result.fault_stats.as_dict() == reference.fault_stats.as_dict()


def _against_reference(arrivals, make_scheduler, topology=None, **kwargs):
    """Run this engine and the reference on one trace (``make_scheduler()``
    is called once for each) and assert the contract; returns
    ``(result, reference)``."""
    report = check_against_reference(arrivals, make_scheduler, topology, **kwargs)
    assert report.mismatch is None, report.mismatch
    assert report.max_time_diff <= TIME_RTOL
    assert report.max_integral_diff <= INTEGRAL_RTOL
    # A stale tick no longer runs the clock past the last event.
    assert report.result.duration_ms <= report.reference.duration_ms * (1.0 + TIME_RTOL)
    return report.result, report.reference


def _interval_table():
    from repro.core.schedule import Schedule, ScheduleStep
    from repro.core.table import IntervalTable

    # A hand-built FM table exercising immediate starts, admission
    # delays (v0 > 0), e1 queueing, and incremental degree raises,
    # without the profiling machinery.  Row i is the schedule at load
    # i + 1; loads past the end clamp to the e1 row.
    step = ScheduleStep
    return IntervalTable(
        [
            Schedule([step(0.0, 4)]),
            Schedule([step(0.0, 2), step(30.0, 4)]),
            Schedule([step(0.0, 2), step(30.0, 4)]),
            Schedule([step(0.0, 1), step(20.0, 2), step(60.0, 4)]),
            Schedule([step(0.0, 1), step(20.0, 2), step(60.0, 4)]),
            Schedule([step(10.0, 1), step(40.0, 2)]),
            Schedule([step(10.0, 1), step(40.0, 2)]),
            Schedule([step(0.0, 1)], wait_for_exit=True),
        ]
    )


_SCHEDULER_FACTORIES = {
    "seq": lambda: SequentialScheduler(),
    "fix4": lambda: FixedScheduler(4),
    "fix4-protected": lambda: FixedScheduler(4, load_protection=8, boost_after_ms=30.0),
    "adaptive": lambda: AdaptiveScheduler(max_degree=4, target_parallelism=6.0),
    "fm": lambda: FMScheduler(_interval_table()),
    "fm-noboost": lambda: FMScheduler(_interval_table(), boosting=False),
    "fm-wall": lambda: FMScheduler(_interval_table(), progress="wall"),
}


class TestContractWithBaseline:
    @pytest.mark.parametrize("policy", sorted(_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("load", ["light", "saturated"])
    def test_matches_reference_engine(self, policy, load):
        rps, n = (15.0, 300) if load == "light" else (70.0, 600)
        arrivals = _sweep_arrivals(
            rps, n, seed=zlib.crc32(f"{policy}/{load}".encode())
        )
        _against_reference(arrivals, _SCHEDULER_FACTORIES[policy], cores=6)

    @pytest.mark.parametrize("policy", ["fm", "fix4-protected"])
    def test_matches_reference_engine_under_faults(self, policy):
        arrivals = _sweep_arrivals(40.0, 400, seed=99)
        plan = FaultPlan.generate(
            seed=5,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=0.5,
            stall_rate_hz=1.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
        _against_reference(
            arrivals, _SCHEDULER_FACTORIES[policy], cores=6, fault_plan=plan
        )

    def test_matches_reference_without_attribution(self):
        arrivals = _sweep_arrivals(50.0, 300, seed=3)
        _against_reference(
            arrivals, lambda: FMScheduler(_interval_table()), cores=6,
            attribution=False,
        )

    def test_matches_reference_through_overload_burst(self):
        """A burst far beyond capacity grows the running set to hundreds
        of requests, then drains it — results must stay exact."""
        arrivals = _sweep_arrivals(400.0, 500, seed=77)
        _against_reference(arrivals, lambda: FixedScheduler(4), cores=4)

    def test_degree_residency_matches_reference(self):
        """Per-degree residency feeds ``average_parallelism``; the raw
        per-request totals must match too.  Captured via an ``on_exit``
        wrapper since records keep only the derived average."""

        class Capturing(AdaptiveScheduler):
            def __init__(self):
                super().__init__(max_degree=4, target_parallelism=6.0)
                self.residency = {}

            def on_exit(self, ctx, request):
                self.residency[request.rid] = dict(request.degree_residency)
                return super().on_exit(ctx, request)

        arrivals = _sweep_arrivals(60.0, 300, seed=9)
        ours, theirs = Capturing(), Capturing()
        result, _ = _against_reference(arrivals, iter([ours, theirs]).__next__, cores=6)
        assert len(ours.residency) == 300
        assert ours.residency.keys() == theirs.residency.keys()
        for rid, residency in ours.residency.items():
            assert residency.keys() == theirs.residency[rid].keys()
            scale = result.records[rid].execution_ms
            for degree, ms in residency.items():
                diff = relative_diff(ms, theirs.residency[rid][degree], scale)
                assert diff <= INTEGRAL_RTOL


class TestFaultFastPathsMatchBaseline:
    """Cells for the stall horizon (the per-request stall check only runs
    before the latest injected stall end) and the blocked straggler
    draws: each checks the contract against the baseline."""

    _BACK_TO_BACK = (StallFault(1000.0, 50.0), StallFault(1050.0, 50.0),
                     StallFault(1100.0, 50.0))
    _OVERLAPPING = (StallFault(2000.0, 300.0), StallFault(2100.0, 40.0),
                    StallFault(2120.0, 600.0))

    @staticmethod
    def _arrivals(seed):
        """A Poisson trace plus bursts of long requests just before the
        stalls, so every stall finds unstalled victims."""
        bursts = [(t0 + i, 150.0) for t0 in (990.0, 1990.0) for i in range(8)]
        return _sweep_arrivals(40.0, 200, seed=seed) + _arrivals(bursts)

    @staticmethod
    def _check(arrivals, policy, plan, cores=6):
        result, _ = _against_reference(
            arrivals, _SCHEDULER_FACTORIES[policy], cores=cores, fault_plan=plan
        )
        return result

    @pytest.mark.parametrize("policy", ["seq", "fm", "fix4-protected"])
    @pytest.mark.parametrize("stalls", ["back_to_back", "overlapping"])
    def test_stall_patterns(self, policy, stalls):
        plan = FaultPlan(stalls=getattr(self, f"_{stalls.upper()}"))
        result = self._check(self._arrivals(17), policy, plan)
        assert result.fault_stats.stalls_injected == 3

    @pytest.mark.parametrize("policy", ["seq", "fm"])
    def test_victim_finishes_mid_stall(self, policy):
        """A short-stalled request finishes while a longer stall on
        another request is still live (the horizon is still ahead)."""
        specs = [(0.0, 400.0)] + [(1.0 + i, 30.0) for i in range(4)]
        specs += [(600.0 + 5.0 * i, 20.0) for i in range(6)]
        plan = FaultPlan(stalls=(StallFault(10.0, 300.0), StallFault(20.0, 5.0)))
        result = self._check(_arrivals(specs), policy, plan, cores=4)
        assert result.fault_stats.stalls_injected == 2
        short_victims = [r for r in result.records if 0.0 < r.stall_ms < 300.0]
        assert len(short_victims) == 1
        assert 25.0 < short_victims[0].finish_ms < 310.0

    @pytest.mark.parametrize("policy", ["fm", "fix4-protected"])
    def test_stalls_stragglers_and_core_loss(self, policy):
        plan = FaultPlan(
            core_faults=(CoreFault(900.0, 400.0, 2), CoreFault(1050.0, 100.0)),
            stalls=self._BACK_TO_BACK + self._OVERLAPPING,
            straggler_rate=0.15,
            straggler_mu=0.7,
            seed=23,
        )
        result = self._check(self._arrivals(29), policy, plan)
        stats = result.fault_stats
        assert stats.stragglers_injected > 0
        assert stats.stalls_injected == 6
        assert stats.core_faults_applied == 2

    def test_stragglers_across_draw_blocks(self):
        """More requests than one block of straggler draws."""
        plan = FaultPlan(straggler_rate=0.08, straggler_mu=1.0, straggler_sigma=0.4, seed=41)
        result = self._check(_sweep_arrivals(20.0, 2100, seed=43), "seq", plan)
        assert result.fault_stats.stragglers_injected > 100


class TestEngineReentrancy:
    def test_second_run_raises(self):
        engine = Engine(cores=2, scheduler=SequentialScheduler())
        engine.run(_arrivals([(0.0, 10.0)]))
        with pytest.raises(SimulationError, match="already ran"):
            engine.run(_arrivals([(0.0, 10.0)]))

    def test_failed_run_still_consumes_the_engine(self):
        engine = Engine(cores=2, scheduler=SequentialScheduler())
        with pytest.raises(SimulationError):
            engine.run([])  # no arrivals
        with pytest.raises(SimulationError, match="already ran"):
            engine.run(_arrivals([(0.0, 10.0)]))

    def test_simulate_builds_a_fresh_engine_per_call(self):
        arrivals = _arrivals([(0.0, 10.0), (1.0, 20.0)])
        first = simulate(arrivals, SequentialScheduler(), cores=2)
        second = simulate(arrivals, SequentialScheduler(), cores=2)
        assert [r.finish_ms for r in first.records] == [
            r.finish_ms for r in second.records
        ]


class _PureE1Scheduler(Scheduler):
    """Admission control only: every request waits for an exit."""

    name = "e1-probe"
    uses_quantum = False

    def on_arrival(self, ctx, request):
        return Admission.wait_for_exit()

    def on_wait_check(self, ctx, request):
        return Admission.wait_for_exit()


class TestDeepBacklogDrain:
    """The e1 backlog was a ``list`` drained with ``pop(0)`` — O(n^2)
    once overload queued thousands.  Now a deque: verify the drain stays
    FIFO and completes promptly at a backlog depth that made the
    quadratic path crawl."""

    def test_burst_backlog_drains_fifo(self):
        # Everyone arrives at once and queues behind the e1 marker; each
        # exit forces exactly one admission, so start order must be
        # strict arrival (rid) order all the way down the backlog.
        n = 3_000
        arrivals = [ArrivalSpec(0.0, 5.0, _CURVE) for _ in range(n)]
        result = simulate(arrivals, _PureE1Scheduler(), cores=2)
        assert len(result.records) == n
        starts = sorted(result.records, key=lambda r: (r.start_ms, r.rid))
        assert [r.rid for r in starts] == sorted(r.rid for r in result.records)

    def test_deep_backlog_matches_reference(self):
        arrivals = [ArrivalSpec(float(i % 3), 4.0, _CURVE) for i in range(800)]
        _against_reference(arrivals, lambda: FMScheduler(_interval_table()), cores=2)


class _DelayingScheduler(Scheduler):
    """Delays every arrival, then admits on wake; records wake order."""

    name = "delay-probe"
    uses_quantum = False

    def __init__(self, delay_ms: float = 200.0) -> None:
        self.delay_ms = delay_ms
        self.wake_order: list[int] = []

    def on_arrival(self, ctx, request):
        return Admission.delay(self.delay_ms)

    def on_wait_check(self, ctx, request):
        if request.state is RequestState.DELAYED:
            self.wake_order.append(request.rid)
        return Admission.start(1)

    def reset(self) -> None:
        self.wake_order.clear()


class TestDelayedWakeOrder:
    """The delayed set was rescanned with ``sorted(set)`` on every wake;
    it is now a sorted list.  Wake order must remain arrival order."""

    def test_wakes_scan_in_arrival_order(self):
        # Interleave arrivals so insertion order into the delayed set
        # differs from a naive "latest first" ordering, then let exits
        # wake them: the scan must visit rids ascending (= arrival
        # order, since rids are assigned by sorted arrival time).
        scheduler = _DelayingScheduler(delay_ms=500.0)
        specs = [(0.0, 30.0)] + [(1.0 + 0.01 * i, 10.0) for i in range(20)]
        simulate(_arrivals(specs), scheduler, cores=2)
        waves: list[int] = scheduler.wake_order
        assert waves, "delayed requests never woke"
        # Within any single wake sweep rids must be non-decreasing
        # relative to the previous entry unless a new sweep started
        # (which restarts from the lowest still-delayed rid).
        sweeps: list[list[int]] = [[waves[0]]]
        for rid in waves[1:]:
            if rid > sweeps[-1][-1]:
                sweeps[-1].append(rid)
            else:
                sweeps.append([rid])
        for sweep in sweeps:
            assert sweep == sorted(sweep)

    def test_delay_heavy_run_matches_reference(self):
        schedulers = iter([_DelayingScheduler(delay_ms=50.0) for _ in range(2)])
        specs = [(float(i % 7) * 3.0, 8.0 + i % 5) for i in range(200)]
        _against_reference(_arrivals(specs), schedulers.__next__, cores=2)


class TestEventsProcessedCounter:
    def test_counts_all_drained_events(self):
        engine = Engine(cores=4, scheduler=FixedScheduler(2))
        engine.run(_arrivals([(0.0, 50.0), (5.0, 50.0), (10.0, 50.0)]))
        # At minimum: one arrival per request, one completion event per
        # rate generation that fired, plus quantum ticks.
        assert engine.events_processed >= 6
