"""The engine's contract with the frozen reference engine.

:mod:`repro.sim._baseline` commits at every event and chains quantum
ticks as ``now + quantum_ms``; the engine commits lazily and arms ticks
on a closed-form grid (DESIGN.md §10).  The two therefore agree under a
contract, not bit for bit:

* the same decision sequence — admissions with the load each saw,
  sheds with their deadline flag, degree raises at the same tick,
  boosts and exits, as a :class:`~repro.sim.trace.TraceRecorder`
  records them — the same completion order, and equal counts and
  fault statistics;
* start, finish, latency, shed and decision times within
  :data:`TIME_RTOL` relative;
* integrated fields within :data:`INTEGRAL_RTOL` relative to
  ``max(|reference|, execution_ms)`` (an integral that should be ~0 is
  judged on its request's scale), and the run's thread, busy-core and
  in-system integrals within it relative to the reference.

The run's ``duration_ms`` (and so utilization) is not in the contract:
the reference's clock also runs on to the last finished request's
pending tick.  The tests and the engine and hetero benchmarks all check
the contract through :func:`check_against_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim._baseline import simulate_baseline
from repro.sim.api import Scheduler
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.trace import TraceEventKind, TraceRecorder

__all__ = [
    "ContractReport",
    "INTEGRAL_RTOL",
    "TIME_RTOL",
    "check_against_reference",
    "relative_diff",
]

#: Relative bound on times (start, finish, latency, shed, decisions).
TIME_RTOL = 1e-12
#: Relative bound on integrated fields (see the module docstring).
INTEGRAL_RTOL = 1e-11

_EXACT_FIELDS = (
    "rid", "arrival_ms", "seq_ms", "final_degree", "boosted", "pool", "migrations",
)
_TIME_FIELDS = ("start_ms", "finish_ms", "latency_ms")
_INTEGRAL_FIELDS = (
    "thread_time_ms", "core_time_ms", "service_ms", "contention_ms",
    "boost_wait_ms", "stall_ms",
)
_SYSTEM_INTEGRALS = ("_thread_integral", "_core_busy_integral", "_system_count_integral")
#: Decisions compared with their detail (the degree, the deadline
#: flag); the others by kind, request and load only (their detail
#: prints floats).
_DETAILED = (TraceEventKind.ADMIT, TraceEventKind.DEGREE_UP, TraceEventKind.SHED)


def relative_diff(ours: float, theirs: float, scale: float = 0.0) -> float:
    """``|ours - theirs|`` relative to ``max(|theirs|, scale)``."""
    diff = abs(ours - theirs)
    return diff / max(abs(theirs), scale) if diff else 0.0


@dataclass(frozen=True)
class ContractReport:
    """One engine run against the reference run of the same trace."""

    #: The first exact comparison that failed (decisions, completion
    #: order, a record's exact field, fault statistics), or ``None``.
    mismatch: str | None
    #: Largest relative difference of a time.
    max_time_diff: float
    #: Largest relative difference of an integral.
    max_integral_diff: float
    result: SimulationResult
    reference: SimulationResult

    @property
    def holds(self) -> bool:
        return (
            self.mismatch is None
            and self.max_time_diff <= TIME_RTOL
            and self.max_integral_diff <= INTEGRAL_RTOL
        )


def _decisions(recorder: TraceRecorder) -> tuple[list[Any], list[float]]:
    events = recorder.events
    keys = [
        (e.kind, e.request_id, e.load, e.detail if e.kind in _DETAILED else None)
        for e in events
    ]
    return keys, [e.time_ms for e in events]


def _finish_order(result: SimulationResult) -> list[int]:
    return [r.rid for r in sorted(result.records, key=lambda r: r.finish_ms)]


def check_against_reference(
    arrivals: list,
    make_scheduler: Callable[[], Scheduler],
    topology=None,
    **kwargs: Any,
) -> ContractReport:
    """Run the engine and the reference on ``arrivals``, each with its
    own ``make_scheduler()`` behind a TraceRecorder, and compare them.

    ``kwargs`` go to both runs (``cores``, ``quantum_ms``,
    ``spin_fraction``, ``fault_plan``, ``attribution``); ``topology``
    to the engine's only (the reference has none: pass a single
    speed-1.0 pool).
    """
    ours, theirs = TraceRecorder(make_scheduler()), TraceRecorder(make_scheduler())
    result = simulate(arrivals, ours, topology=topology, **kwargs)
    reference = simulate_baseline(arrivals, theirs, **kwargs)

    keys, times = _decisions(ours)
    ref_keys, ref_times = _decisions(theirs)
    mismatch = None
    if keys != ref_keys:
        first = next(
            (i for i, (a, b) in enumerate(zip(keys, ref_keys)) if a != b),
            min(len(keys), len(ref_keys)),
        )
        mismatch = f"decision {first}: {keys[first:first + 1]} != {ref_keys[first:first + 1]}"
    elif _finish_order(result) != _finish_order(reference):
        mismatch = "completion order"
    elif len(result.records) != len(reference.records):
        mismatch = f"{len(result.records)} records != {len(reference.records)}"
    elif result.fault_stats.as_dict() != reference.fault_stats.as_dict():
        mismatch = "fault statistics"
    else:
        for a, b in zip(result.records, reference.records):
            for name in _EXACT_FIELDS:
                if getattr(a, name) != getattr(b, name):
                    mismatch = f"request {b.rid} {name}"
                    break
            if mismatch is not None:
                break

    worst_time = max(map(relative_diff, times, ref_times), default=0.0)
    worst_integral = 0.0
    for a, b in zip(result.records, reference.records):
        for name in _TIME_FIELDS:
            worst_time = max(worst_time, relative_diff(getattr(a, name), getattr(b, name)))
        scale = b.execution_ms
        for name in _INTEGRAL_FIELDS:
            worst_integral = max(
                worst_integral, relative_diff(getattr(a, name), getattr(b, name), scale)
            )
        worst_integral = max(
            worst_integral, relative_diff(a.average_parallelism, b.average_parallelism)
        )
    for a, b in zip(result.shed_records, reference.shed_records):
        worst_time = max(worst_time, relative_diff(a.shed_ms, b.shed_ms))
    worst_time = max(
        worst_time,
        relative_diff(result.tail_latency_ms(0.99), reference.tail_latency_ms(0.99)),
        relative_diff(result.mean_latency_ms(), reference.mean_latency_ms()),
    )
    for name in _SYSTEM_INTEGRALS:
        worst_integral = max(
            worst_integral, relative_diff(getattr(result, name), getattr(reference, name))
        )
    return ContractReport(mismatch, worst_time, worst_integral, result, reference)
