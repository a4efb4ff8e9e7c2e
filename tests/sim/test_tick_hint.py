"""Tick elision: the work counters, which policies may offer the
``next_action_ms`` hint, and FM's hint at boost denials and releases."""

from __future__ import annotations

import importlib
import math
import pkgutil

import repro
from repro.core.schedule import Schedule, ScheduleStep
from repro.core.speedup import TabulatedSpeedup
from repro.core.table import IntervalTable
from repro.schedulers import FMScheduler
from repro.sim.api import Scheduler
from repro.sim.engine import ArrivalSpec, Engine
from repro.sim.request import SimRequest
from tests.sim.test_engine_oracles import _assert_same, _Ticking

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0])
_COUNTERS = (
    "events_processed",
    "ticks_delivered",
    "ticks_elided",
    "commits",
    "commit_visits",
    "rate_recomputes",
)


def _climb_table() -> IntervalTable:
    """Every load: start at d1, step to d2 after 20 ms of progress."""
    return IntervalTable([Schedule([ScheduleStep(0.0, 1), ScheduleStep(20.0, 2)])])


def _counters(scheduler):
    engine = Engine(cores=4, scheduler=scheduler, quantum_ms=5.0)
    result = engine.run([ArrivalSpec(0.0, 50.0, _CURVE)])
    return result, {name: getattr(engine, name) for name in _COUNTERS}


class TestWorkCounters:
    """One 50 ms request alone on 4 cores: d1 until 20 ms of progress,
    then d2 (s = 1.5), so it finishes at 20 + 30 / 1.5 = 40 ms."""

    def test_hand_counted_elided_run(self):
        result, counts = _counters(FMScheduler(_climb_table(), boosting=False))
        assert result.records[0].finish_ms == 40.0
        assert result.duration_ms == 40.0
        assert counts == {
            # arrival, the tick at 20, the completion at 40, and the
            # completion armed at 0 for 50 (stale after the raise).
            "events_processed": 4,
            # The hint arms tick 4 (20 ms): ticks 1-3 are skipped, and
            # ticks 5-7 after the raise (d2 is the row's top).
            "ticks_delivered": 1,
            "ticks_elided": 6,
            # The raise at 20 and the completion at 40 each commit and
            # settle the one running request; the arrival at 0 has
            # nothing to do.
            "commits": 2,
            "commit_visits": 2,
            # Start, raise, exit.
            "rate_recomputes": 3,
        }

    def test_hand_counted_ticking_run(self):
        result, counts = _counters(_Ticking(FMScheduler(_climb_table(), boosting=False)))
        assert result.records[0].finish_ms == 40.0
        assert counts == {
            # ... plus ticks 1-7 and tick 8, stale behind the completion
            # at 40.
            "events_processed": 11,
            "ticks_delivered": 7,
            "ticks_elided": 0,
            # Ticks that keep the degree commit nothing.
            "commits": 2,
            "commit_visits": 2,
            "rate_recomputes": 3,
        }

    def test_elided_and_delivered_ticks_add_up_to_the_ticking_run(self):
        arrivals = [
            ArrivalSpec(3.0 * i, 10.0 + 7.0 * (i % 5), _CURVE) for i in range(40)
        ]
        table = IntervalTable(
            [
                Schedule([ScheduleStep(0.0, 1), ScheduleStep(8.0, 2), ScheduleStep(20.0, 3)]),
                Schedule([ScheduleStep(0.0, 1), ScheduleStep(15.0, 3)]),
                Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True),
            ]
        )
        runs = []
        for scheduler in (FMScheduler(table), _Ticking(FMScheduler(table))):
            engine = Engine(cores=3, scheduler=scheduler)
            runs.append((engine.run(arrivals), engine))
        (elided, fast), (ticking, slow) = runs
        _assert_same(elided, ticking)
        assert fast.ticks_delivered + fast.ticks_elided == slow.ticks_delivered
        assert slow.ticks_elided == 0
        assert fast.commits == slow.commits
        assert fast.rate_recomputes == slow.rate_recomputes
        assert fast.events_processed < slow.events_processed


def _scheduler_classes() -> list[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    seen, stack = [], [Scheduler]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return [cls for cls in seen if cls.__module__.startswith("repro.")]


def test_no_policy_inherits_a_hint_for_a_hook_it_overrides():
    """A hint describes one ``on_quantum``: a class that overrides the
    hook must define its own hint (or ``None``), never inherit one."""
    classes = _scheduler_classes()
    names = {cls.__name__ for cls in classes}
    assert {"FMScheduler", "EnergyAwareFMScheduler", "HurryUpScheduler"} <= names
    for cls in classes:
        if "on_quantum" in vars(cls) and "next_action_ms" not in vars(cls):
            assert cls.next_action_ms is None, cls


def test_only_plain_fm_offers_a_hint():
    hinted = {cls.__name__ for cls in _scheduler_classes() if cls.next_action_ms is not None}
    assert hinted == {"FMScheduler"}


class _Context:
    """A fixed load; counts boost attempts."""

    def __init__(self, load: int, now_ms: float) -> None:
        self.system_count = load
        self.now_ms = now_ms
        self.boost_attempts = 0

    def effective_progress_ms(self, request):
        return request.effective_ms

    def try_boost(self, request, degree):
        self.boost_attempts += 1
        return False


class TestFMBoostRelease:
    """FM asks for a boost only inside a raise, so a released boost
    budget never makes an earlier tick act: the hint ignores the budget
    and needs no re-arm when a boost is released."""

    def _denied_request(self) -> SimRequest:
        request = SimRequest(0, 0.0, 100.0, _CURVE)
        request.start(0.0, 2)  # already at the row's top degree
        request.boost_pending = True  # its boost was denied
        request.effective_ms = 60.0
        request.share_factor = 0.5
        return request

    def test_a_tick_at_the_top_degree_never_retries_the_boost(self):
        fm = FMScheduler(_climb_table())
        ctx = _Context(load=1, now_ms=60.0)
        request = self._denied_request()
        assert fm.on_quantum(ctx, request) == 2
        assert ctx.boost_attempts == 0
        assert fm.next_action_ms(ctx, request) == math.inf

    def test_denied_then_released_boost_is_tick_invariant(self):
        # Two climbers on 3 cores: the first boosts to d2 (2 < 3), the
        # second is denied (2 + 2 >= 3) and books boost wait; the first
        # one's exit releases the budget mid-run, and nothing retries.
        table = IntervalTable([Schedule([ScheduleStep(0.0, 1), ScheduleStep(10.0, 2)])])
        arrivals = [ArrivalSpec(0.0, 30.0, _CURVE), ArrivalSpec(1.0, 200.0, _CURVE)]
        elided = Engine(cores=3, scheduler=FMScheduler(table)).run(arrivals)
        ticking = Engine(cores=3, scheduler=_Ticking(FMScheduler(table))).run(arrivals)
        _assert_same(elided, ticking)
        first, second = elided.records
        assert first.boosted and not second.boosted
        assert second.boost_wait_ms > 0.0
