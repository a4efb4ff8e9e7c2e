"""Fault injection: determinism, core loss, stalls, stragglers, shedding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.schedule import Schedule, ScheduleStep
from repro.core.speedup import TabulatedSpeedup
from repro.core.table import IntervalTable
from repro.errors import FaultInjectionError
from repro.faults import CoreFault, FaultPlan, StallFault
from repro.faults.plan import _first_uniforms
from repro.schedulers import FixedScheduler, FMScheduler, SequentialScheduler
from repro.sim.engine import ArrivalSpec, simulate
from repro.workloads.arrivals import PoissonProcess

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0, 2.4])


def _arrivals(specs) -> list[ArrivalSpec]:
    return [ArrivalSpec(t, s, _CURVE) for t, s in specs]


def _e1_table(capacity: int) -> IntervalTable:
    """Sequential rows up to ``capacity``, then a wait-for-exit row."""
    rows = [Schedule([ScheduleStep(0.0, 1)])] * capacity
    rows.append(Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True))
    return IntervalTable(rows)


class TestPlanValidation:
    def test_bad_straggler_rate(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(straggler_rate=1.5)

    def test_bad_core_fault(self):
        with pytest.raises(FaultInjectionError):
            CoreFault(time_ms=-1.0, duration_ms=10.0)
        with pytest.raises(FaultInjectionError):
            CoreFault(time_ms=0.0, duration_ms=0.0)
        with pytest.raises(FaultInjectionError):
            CoreFault(time_ms=0.0, duration_ms=10.0, cores=0)

    def test_bad_stall(self):
        with pytest.raises(FaultInjectionError):
            StallFault(time_ms=0.0, duration_ms=-5.0)

    def test_bad_generate(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(seed=0, horizon_ms=0.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(seed=0, horizon_ms=100.0, stall_rate_hz=-1.0)

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", None, True])
    def test_bad_seed(self, seed):
        # A negative seed used to build fine and die at the first
        # arrival with numpy's bare ValueError.
        with pytest.raises(FaultInjectionError, match="seed"):
            FaultPlan(seed=seed, straggler_rate=0.1)
        with pytest.raises(FaultInjectionError, match="seed"):
            FaultPlan.generate(seed=seed, horizon_ms=100.0, stall_rate_hz=1.0)

    @pytest.mark.parametrize("param", ["straggler_mu", "straggler_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lognormal_parameter(self, param, value):
        # NaN factors silently disabled every straggler; an infinite mu
        # ended in a misleading "never completed (deadlock?)" error.
        with pytest.raises(FaultInjectionError, match=param):
            FaultPlan(straggler_rate=0.1, **{param: value})
        with pytest.raises(FaultInjectionError, match=param):
            FaultPlan.generate(seed=0, horizon_ms=100.0, **{param: value})

    def test_numpy_integer_seed_is_normalized(self):
        plan = FaultPlan(seed=np.int64(5), straggler_rate=0.5)
        assert type(plan.seed) is int
        assert plan == FaultPlan(seed=5, straggler_rate=0.5)


class TestStragglerDraws:
    def test_zero_rate_never_inflates(self):
        plan = FaultPlan(straggler_rate=0.0)
        assert plan.straggler_inflation(7) == 1.0
        assert plan.is_empty

    def test_unit_rate_always_inflates(self):
        plan = FaultPlan(straggler_rate=1.0, seed=3)
        assert all(plan.straggler_inflation(rid) > 1.0 for rid in range(20))

    def test_draw_depends_only_on_seed_and_rid(self):
        a = FaultPlan(straggler_rate=0.5, seed=3)
        b = FaultPlan(straggler_rate=0.5, seed=3)
        assert [a.straggler_inflation(r) for r in range(50)] == [
            b.straggler_inflation(r) for r in range(50)
        ]

    def test_different_seeds_differ(self):
        a = [FaultPlan(straggler_rate=0.5, seed=1).straggler_inflation(r) for r in range(50)]
        b = [FaultPlan(straggler_rate=0.5, seed=2).straggler_inflation(r) for r in range(50)]
        assert a != b


class TestStragglerBlocks:
    """``straggler_inflations`` recomputes numpy's SeedSequence/PCG64
    stream for a block of rids; it must equal the scalar definition
    element for element."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 3])
    @pytest.mark.parametrize("rate", [0.0, 0.08, 1.0])
    def test_matches_scalar_definition(self, seed, rate):
        plan = FaultPlan(straggler_rate=rate, straggler_mu=0.6, seed=seed)
        # Ranges straddling the engine's 1024-rid block boundaries.
        for start, stop in ((0, 40), (1000, 1050), (2040, 2060)):
            assert plan.straggler_inflations(start, stop) == [
                plan.straggler_inflation(rid) for rid in range(start, stop)
            ]

    def test_coins_match_numpy_generator(self):
        # Seeds of one to five 32-bit words, so the SeedSequence pool
        # both pads (short entropy) and absorbs extra words (long).
        for seed in (0, 3141592653, 12345678901234, 2**96 + 11, 2**130 + 9):
            assert _first_uniforms(seed, 500, 700) == [
                np.random.default_rng([seed, rid]).random() for rid in range(500, 700)
            ]

    def test_rids_past_32_bits(self):
        plan = FaultPlan(straggler_rate=0.3, seed=7)
        start, stop = 2**32 - 3, 2**32 + 3
        assert plan.straggler_inflations(start, stop) == [
            plan.straggler_inflation(rid) for rid in range(start, stop)
        ]

    def test_empty_and_bad_ranges(self):
        plan = FaultPlan(straggler_rate=0.3, seed=7)
        assert plan.straggler_inflations(5, 5) == []
        with pytest.raises(FaultInjectionError):
            plan.straggler_inflations(5, 4)
        with pytest.raises(FaultInjectionError):
            plan.straggler_inflations(-1, 4)


class TestGenerate:
    def test_deterministic(self):
        kwargs = dict(
            horizon_ms=5000.0, core_fault_rate_hz=2.0, stall_rate_hz=5.0
        )
        assert FaultPlan.generate(9, **kwargs) == FaultPlan.generate(9, **kwargs)

    def test_events_within_horizon(self):
        plan = FaultPlan.generate(
            4, horizon_ms=2000.0, core_fault_rate_hz=10.0, stall_rate_hz=10.0
        )
        assert plan.core_faults and plan.stalls
        assert all(0 <= f.time_ms < 2000.0 for f in plan.core_faults)
        assert all(0 <= s.time_ms < 2000.0 for s in plan.stalls)


class TestEngineFaults:
    def test_core_loss_slows_contended_requests(self):
        """Two degree-1 requests on 2 cores run at full speed; losing a
        core for the whole run halves the effective capacity."""
        specs = _arrivals([(0.0, 100.0), (0.0, 100.0)])
        clean = simulate(specs, FixedScheduler(1), cores=2, spin_fraction=0.0)
        faulty = simulate(
            specs,
            FixedScheduler(1),
            cores=2,
            spin_fraction=0.0,
            fault_plan=FaultPlan(core_faults=(CoreFault(0.0, 10_000.0),)),
        )
        assert max(r.latency_ms for r in clean.records) == pytest.approx(100.0)
        assert max(r.latency_ms for r in faulty.records) == pytest.approx(200.0)
        assert faulty.fault_stats.core_faults_applied == 1

    def test_core_restore_returns_capacity(self):
        """A core lost for 50 ms delays completion by exactly the
        capacity deficit, then full speed resumes."""
        specs = _arrivals([(0.0, 100.0), (0.0, 100.0)])
        result = simulate(
            specs,
            FixedScheduler(1),
            cores=2,
            spin_fraction=0.0,
            fault_plan=FaultPlan(core_faults=(CoreFault(0.0, 50.0),)),
        )
        # 50 ms at half capacity retires 50 ms of the 200 ms total; the
        # remaining 150 ms retires at 2 cores -> finish at 125 ms.
        assert max(r.latency_ms for r in result.records) == pytest.approx(125.0)

    def test_core_loss_clamps_at_one_core(self):
        specs = _arrivals([(0.0, 50.0)])
        result = simulate(
            specs,
            SequentialScheduler(),
            cores=2,
            spin_fraction=0.0,
            fault_plan=FaultPlan(core_faults=(CoreFault(0.0, 10_000.0, cores=99),)),
        )
        # One core always survives, so a lone request still finishes.
        assert result.records[0].latency_ms == pytest.approx(50.0)

    def test_stall_freezes_victim(self):
        result = simulate(
            _arrivals([(0.0, 100.0)]),
            SequentialScheduler(),
            cores=4,
            fault_plan=FaultPlan(stalls=(StallFault(10.0, 50.0),)),
        )
        record = result.records[0]
        assert record.latency_ms == pytest.approx(150.0)
        assert result.fault_stats.stalls_injected == 1
        assert result.fault_stats.degraded_completions == 1

    def test_stall_with_no_running_request_is_noop(self):
        result = simulate(
            _arrivals([(0.0, 100.0)]),
            SequentialScheduler(),
            cores=4,
            fault_plan=FaultPlan(stalls=(StallFault(500.0, 50.0),)),
        )
        assert result.records[0].latency_ms == pytest.approx(100.0)
        assert result.fault_stats.stalls_injected == 0

    def test_straggler_inflates_latency_not_nominal_demand(self):
        """sigma=0 makes the inflation factor exactly 2; the record's
        seq_ms stays the nominal demand (the scheduler plans against
        the profile, not the fault)."""
        plan = FaultPlan(straggler_rate=1.0, straggler_mu=0.0, straggler_sigma=0.0)
        result = simulate(
            _arrivals([(0.0, 100.0)]),
            SequentialScheduler(),
            cores=4,
            fault_plan=plan,
        )
        record = result.records[0]
        assert record.latency_ms == pytest.approx(200.0)
        assert record.seq_ms == pytest.approx(100.0)
        assert result.fault_stats.stragglers_injected == 1
        assert result.fault_stats.degraded_completions == 1

    def test_faulty_run_is_deterministic(self, tiny_workload):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        plan = FaultPlan.generate(
            5,
            horizon_ms=3000.0,
            core_fault_rate_hz=1.0,
            stall_rate_hz=2.0,
            straggler_rate=0.2,
        )
        a = simulate(
            tiny_workload.arrivals(80, PoissonProcess(40.0), rng_a),
            FixedScheduler(2),
            cores=4,
            fault_plan=plan,
        )
        b = simulate(
            tiny_workload.arrivals(80, PoissonProcess(40.0), rng_b),
            FixedScheduler(2),
            cores=4,
            fault_plan=plan,
        )
        assert [r.latency_ms for r in a.records] == [r.latency_ms for r in b.records]
        assert a.fault_stats.as_dict() == b.fault_stats.as_dict()

    def test_different_fault_seeds_change_the_run(self, tiny_workload):
        def run(seed):
            rng = np.random.default_rng(0)
            return simulate(
                tiny_workload.arrivals(80, PoissonProcess(40.0), rng),
                FixedScheduler(2),
                cores=4,
                fault_plan=FaultPlan(straggler_rate=0.3, seed=seed),
            )

        a, b = run(1), run(2)
        assert [r.latency_ms for r in a.records] != [r.latency_ms for r in b.records]


class TestShedding:
    def test_backlog_bound_sheds_excess_arrivals(self):
        table = _e1_table(capacity=1)
        specs = _arrivals([(0.0, 100.0), (1.0, 100.0), (2.0, 100.0)])
        result = simulate(
            specs, FMScheduler(table, max_backlog=1), cores=4
        )
        # One runs, one queues, the third finds the backlog full.
        assert len(result.records) == 2
        assert result.shed_count == 1
        assert result.admitted_fraction == pytest.approx(2.0 / 3.0)
        shed = result.shed_records[0]
        assert shed.rid == 2
        assert shed.shed_ms == pytest.approx(2.0)
        assert not shed.deadline
        assert result.fault_stats.shed_requests == 1
        assert result.fault_stats.deadline_sheds == 0

    def test_deadline_budget_sheds_stale_waiters(self):
        table = _e1_table(capacity=1)
        specs = _arrivals([(0.0, 100.0), (1.0, 50.0)])
        result = simulate(
            specs, FMScheduler(table, deadline_ms=20.0), cores=4
        )
        # The waiter is re-checked at the first exit (t=100), 99 ms
        # after arrival -- far past its 20 ms budget.
        assert len(result.records) == 1
        assert result.records[0].rid == 0
        shed = result.shed_records[0]
        assert shed.rid == 1
        assert shed.deadline
        assert shed.waited_ms == pytest.approx(99.0)
        assert result.fault_stats.deadline_sheds == 1

    def test_no_shedding_without_bounds(self):
        table = _e1_table(capacity=1)
        specs = _arrivals([(0.0, 100.0), (1.0, 100.0), (2.0, 100.0)])
        result = simulate(specs, FMScheduler(table), cores=4)
        assert len(result.records) == 3
        assert result.shed_count == 0
        assert result.admitted_fraction == 1.0

    def test_conservation_under_shedding(self, tiny_workload):
        rng = np.random.default_rng(1)
        table = _e1_table(capacity=2)
        arrivals = tiny_workload.arrivals(60, PoissonProcess(100.0), rng)
        result = simulate(
            arrivals,
            FMScheduler(table, max_backlog=2, deadline_ms=100.0),
            cores=4,
        )
        assert len(result.records) + result.shed_count == 60
        assert result.shed_count > 0


class TestOverloadFlipScenario:
    """The canned overload->underload flip (repro.faults.scenarios)."""

    def test_plans_are_placed_and_reproducible(self):
        from repro.faults.scenarios import overload_flip

        first = overload_flip(seed=7, horizon_ms=1000.0)
        second = overload_flip(seed=7, horizon_ms=1000.0)
        for server in range(3):
            assert first(server) == second(server)  # frozen dataclass equality
        # Different servers draw different straggler seeds but share the
        # same placed events.
        a, b = first(0), first(1)
        assert a.seed != b.seed
        assert a.core_faults == b.core_faults
        assert a.stalls == b.stalls

    def test_event_placement(self):
        from repro.faults.scenarios import overload_flip

        plan = overload_flip(
            seed=0, horizon_ms=1000.0, onset_fraction=0.3,
            duration_fraction=0.3, cores_lost=4, stall_ms=10.0,
        )(0)
        (core_fault,) = plan.core_faults
        assert core_fault.time_ms == pytest.approx(300.0)
        assert core_fault.duration_ms == pytest.approx(300.0)
        assert core_fault.cores == 4
        assert [s.time_ms for s in plan.stalls] == pytest.approx([400.0, 500.0])

    def test_no_stalls_when_disabled(self):
        from repro.faults.scenarios import overload_flip

        plan = overload_flip(seed=0, horizon_ms=1000.0, stall_ms=0.0)(0)
        assert plan.stalls == ()

    def test_validation(self):
        from repro.faults.scenarios import overload_flip

        with pytest.raises(FaultInjectionError):
            overload_flip(seed=0, horizon_ms=0.0)
        with pytest.raises(FaultInjectionError):
            overload_flip(seed=0, horizon_ms=100.0, onset_fraction=1.5)
        with pytest.raises(FaultInjectionError):
            overload_flip(
                seed=0, horizon_ms=100.0,
                onset_fraction=0.6, duration_fraction=0.5,
            )
        with pytest.raises(FaultInjectionError):
            overload_flip(seed=0, horizon_ms=100.0, cores_lost=0)
        with pytest.raises(FaultInjectionError):
            overload_flip(seed=0, horizon_ms=100.0, stall_ms=-1.0)
