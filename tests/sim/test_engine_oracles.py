"""Engine oracles that any correct engine satisfies, whatever its inner
bookkeeping.

* **Sample-path Little's law.**  The engine's own integral of the
  in-system count lies between the summed execution times and the
  summed response times (shed requests count their wait), to a
  relative ``LITTLE_RTOL``.
* **Ticks that change nothing are invisible.**  A run equals, with
  ``==`` on every float, the same run through a delegate that forwards
  every hook but offers no ``next_action_ms`` hint, so the engine
  delivers every quantum tick.  Streamed runs included.
* **Per-request time adds up to the run's.**  The records' summed
  thread time and core time equal the engine's run-level thread and
  busy-core integrals, to a relative ``ACCOUNTING_RTOL``: the engine
  settles each request's integrals at its own state changes and the
  run's at every event, so the two are independent accounting paths.

All three hold over schedulers (SEQ, FIX-N, FM in both progress modes with
and without boosting or shedding, EA-FM, Hurry-up) x topologies (none,
one homogeneous pool, 2+4 big/little) x fault plans (none; stalls,
stragglers and core loss together).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan
from repro.hetero import Topology
from repro.schedulers import (
    EnergyAwareFMScheduler,
    FixedScheduler,
    FMScheduler,
    HurryUpScheduler,
    SequentialScheduler,
)
from repro.sim import ArrivalSpec, Engine
from repro.sim.api import Scheduler
from tests.sim.test_engine import _CURVE
from tests.sim.test_engine_equivalence import _interval_table

#: Relative slack of the Little's-law sandwich (float accumulation);
#: the same bound the repository benchmark applies to its workloads.
LITTLE_RTOL = 1e-6
#: Relative slack of the per-request vs run-level accounting (the same
#: intervals, summed in a different order).
ACCOUNTING_RTOL = 1e-9
CORES = 6

SCHEDULERS = {
    "seq": lambda: SequentialScheduler(),
    "fix3": lambda: FixedScheduler(3),
    "fm": lambda: FMScheduler(_interval_table()),
    "fm-noboost": lambda: FMScheduler(_interval_table(), boosting=False),
    "fm-wall": lambda: FMScheduler(_interval_table(), progress="wall"),
    "fm-wall-noboost": lambda: FMScheduler(
        _interval_table(), boosting=False, progress="wall"
    ),
    "fm-shed": lambda: FMScheduler(_interval_table(), max_backlog=3, deadline_ms=150.0),
    "ea-fm": lambda: EnergyAwareFMScheduler(_interval_table(), rescue_age_ms=40.0),
    "hurry-up": lambda: HurryUpScheduler(degree=2, deadline_ms=100.0),
}

TOPOLOGIES = {
    "none": lambda: None,
    "homogeneous": lambda: Topology.homogeneous(CORES),
    "big-little": lambda: Topology.big_little(big=2, little=4),
}


class _Ticking(Scheduler):
    """Forwards every hook to ``inner`` but has no ``next_action_ms``
    hint, so the engine ticks the request every quantum."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.uses_quantum = inner.uses_quantum
        self.name = inner.name

    def on_arrival(self, ctx, request):
        return self.inner.on_arrival(ctx, request)

    def on_wait_check(self, ctx, request):
        return self.inner.on_wait_check(ctx, request)

    def on_quantum(self, ctx, request):
        return self.inner.on_quantum(ctx, request)

    def on_exit(self, ctx, request):
        self.inner.on_exit(ctx, request)

    def reset(self):
        self.inner.reset()


def _arrivals(seed: int, rps: float, n: int) -> list[ArrivalSpec]:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1000.0 / rps, size=n))
    demands = np.maximum(rng.lognormal(3.0, 0.8, size=n), 1.0)
    return [ArrivalSpec(float(t), float(s), _CURVE) for t, s in zip(times, demands)]


def _fault_plan(faulted: bool, seed: int, arrivals) -> FaultPlan | None:
    if not faulted:
        return None
    return FaultPlan.generate(
        seed=seed,
        horizon_ms=arrivals[-1].time_ms + 500.0,
        core_fault_rate_hz=2.0,
        core_fault_duration_ms=150.0,
        cores_per_fault=2,
        stall_rate_hz=4.0,
        stall_duration_ms=40.0,
        straggler_rate=0.15,
        straggler_mu=0.7,
    )


def _run(cell, scheduler, streamed=False):
    arrivals = cell["arrivals"]
    engine = Engine(
        cores=CORES,
        scheduler=scheduler,
        fault_plan=cell["plan"],
        topology=TOPOLOGIES[cell["topology"]](),
    )
    return engine.run(iter(arrivals) if streamed else arrivals)


cells = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "rps": st.floats(min_value=10.0, max_value=150.0),
        "n": st.integers(min_value=5, max_value=90),
        "policy": st.sampled_from(sorted(SCHEDULERS)),
        "topology": st.sampled_from(sorted(TOPOLOGIES)),
        "faulted": st.booleans(),
    }
).map(
    lambda cell: {
        **cell,
        "arrivals": (arrivals := _arrivals(cell["seed"], cell["rps"], cell["n"])),
        "plan": _fault_plan(cell["faulted"], cell["seed"], arrivals),
    }
)


@given(cell=cells)
@settings(max_examples=100, deadline=None)
def test_littles_law_sandwich(cell):
    result = _run(cell, SCHEDULERS[cell["policy"]]())
    integral = result.average_system_count() * result.duration_ms
    execution = math.fsum(r.execution_ms for r in result.records)
    response = math.fsum(r.latency_ms for r in result.records) + math.fsum(
        s.waited_ms for s in result.shed_records
    )
    assert execution * (1.0 - LITTLE_RTOL) <= integral
    assert integral <= response * (1.0 + LITTLE_RTOL)


@given(cell=cells)
@settings(max_examples=100, deadline=None)
def test_request_time_adds_up_to_the_run_integrals(cell):
    result = _run(cell, SCHEDULERS[cell["policy"]]())
    threads = math.fsum(r.thread_time_ms for r in result.records)
    cores = math.fsum(r.core_time_ms for r in result.records)
    assert math.isclose(threads, result._thread_integral, rel_tol=ACCOUNTING_RTOL)
    assert math.isclose(cores, result._core_busy_integral, rel_tol=ACCOUNTING_RTOL)


def _assert_same(ours, theirs):
    """``==`` on every field of two results, raw floats included."""
    assert ours.records == theirs.records
    assert ours.shed_records == theirs.shed_records
    assert ours.fault_stats.as_dict() == theirs.fault_stats.as_dict()
    assert ours.duration_ms == theirs.duration_ms
    assert ours.cpu_utilization() == theirs.cpu_utilization()
    assert ours.average_threads() == theirs.average_threads()
    assert ours.average_system_count() == theirs.average_system_count()
    assert ours._thread_residency == theirs._thread_residency
    if theirs.energy is None:
        assert ours.energy is None
    else:
        assert ours.energy.pools == theirs.energy.pools
        assert ours.energy.duration_ms == theirs.energy.duration_ms


@given(cell=cells, streamed=st.booleans())
@settings(max_examples=100, deadline=None)
def test_ticking_and_elided_runs_are_identical(cell, streamed):
    factory = SCHEDULERS[cell["policy"]]
    elided = _run(cell, factory(), streamed)
    ticking = _run(cell, _Ticking(factory()), streamed)
    _assert_same(elided, ticking)
