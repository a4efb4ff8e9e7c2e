"""Request lifecycle state for the simulator.

A :class:`SimRequest` tracks one request from arrival to completion:
its remaining *sequential work* (milliseconds of single-core compute),
its current parallelism degree, boost status, and the accounting needed
for the paper's metrics (thread-time for average parallelism, Figure 9;
per-degree residency for the degree distributions, Figures 9(b)/12(b)).

It also carries the *flight recorder*: an additive decomposition of the
request's eventual latency into queue wait, full-speed-equivalent
service, processor-sharing contention inflation, boost wait (contention
suffered while a requested boost was denied), and injected-stall time.
Within each interval the engine settles, the wall time ``dt`` splits
exactly — stalled intervals are all stall, and running intervals split
into ``∫factor dt`` service plus ``dt - ∫factor dt`` slowdown — so the
components telescope to the measured latency (see DESIGN.md §9).
"""

from __future__ import annotations

import enum

from repro.core.speedup import SpeedupCurve
from repro.errors import SimulationError

__all__ = ["RequestState", "SimRequest"]

_EPS = 1e-9
_INF = float("inf")


class RequestState(enum.Enum):
    """Lifecycle phases of a request inside the server."""

    QUEUED = "queued"  # waiting for an exit (e1 admission)
    DELAYED = "delayed"  # waiting out a t0 > 0 admission delay
    RUNNING = "running"
    DONE = "done"
    SHED = "shed"  # rejected by overload load shedding (never ran)


class SimRequest:
    """One in-flight request."""

    __slots__ = (
        "rid",
        "arrival_ms",
        "seq_ms",
        "speedup",
        "state",
        "remaining_work",
        "degree",
        "boosted",
        "start_ms",
        "finish_ms",
        "thread_time_ms",
        "core_time_ms",
        "effective_ms",
        "degree_residency",
        "rate",
        "tag",
        "stalled_until_ms",
        "impaired",
        "shed_ms",
        "boost_pending",
        "attr_service_ms",
        "attr_contention_ms",
        "attr_boost_wait_ms",
        "attr_stall_ms",
        "_share_factor",
        "service_class",
        "degree_speedup",
        "degree_demand",
        "demand_units",
        "settled_ms",
        "anchor_effective",
        "anchor_effective_lo",
        "anchor_service",
        "anchor_service_lo",
        "completion_seq",
        "run_order",
        "pool",
        "energy_mj",
        "migrations",
        "settled_core_ms",
        "settled_work",
        "tick_base",
        "tick_next",
        "tick_seq",
        "tick_event",
        "hint_load",
        "hint_factor",
        "hint_degree",
    )

    def __init__(
        self, rid: int, arrival_ms: float, seq_ms: float, speedup: SpeedupCurve,
        tag: object = None,
    ) -> None:
        if not 0.0 < seq_ms < _INF:  # also false for NaN
            raise SimulationError(
                f"request {rid}: seq_ms must be positive and finite, got {seq_ms}"
            )
        self.rid = rid
        self.arrival_ms = arrival_ms
        self.seq_ms = seq_ms
        self.speedup = speedup
        self.state = RequestState.QUEUED
        self.remaining_work = seq_ms
        self.degree = 0
        self.boosted = False
        self.start_ms: float | None = None
        self.finish_ms: float | None = None
        #: Integral of software-thread count over execution time.  This
        #: field and the other integrals below are current as of the
        #: request's last settle (``settled_ms``): the engine settles a
        #: request only when its own state changes.
        self.thread_time_ms = 0.0
        #: Integral of physical-core usage (threads x share) over time.
        self.core_time_ms = 0.0
        #: Full-speed-equivalent execution time: wall time weighted by
        #: the contention factor.  Equals wall time when uncontended.
        #: Mid-run readers use
        #: :meth:`SchedulerContext.effective_progress_ms`.
        self.effective_ms = 0.0
        #: Wall-time spent at each degree, ``{degree: ms}``.
        self.degree_residency: dict[int, float] = {}
        #: Work-depletion rate (sequential-ms per wall-ms) at the last
        #: settle.
        self.rate = 0.0
        #: Opaque caller payload (e.g. the originating query).
        self.tag = tag
        #: While ``now < stalled_until_ms`` the request retires no work
        #: (an injected worker stall); its threads keep their cores.
        self.stalled_until_ms = 0.0
        #: Whether any fault touched this request (straggler inflation
        #: or a stall) — completions of impaired requests are counted
        #: as *degraded* in the fault stats.
        self.impaired = False
        #: When load shedding rejected this request (None = not shed).
        self.shed_ms: float | None = None
        #: True between a denied boost attempt and the eventual grant —
        #: contention suffered in this state is attributed to boost
        #: wait (the slowdown a granted boost would have eliminated).
        self.boost_pending = False
        #: Flight-recorder integrals (additive latency attribution):
        #: full-speed-equivalent execution time while not stalled.
        self.attr_service_ms = 0.0
        #: Processor-sharing slowdown while not stalled or boost-denied.
        self.attr_contention_ms = 0.0
        #: Processor-sharing slowdown while a requested boost was denied.
        self.attr_boost_wait_ms = 0.0
        #: Wall time frozen by injected worker stalls.
        self.attr_stall_ms = 0.0
        #: Engine-managed allocation state.  While the request runs it
        #: belongs to one service class (its pool's boosted or
        #: unboosted requests, which share a contention factor; see
        #: :attr:`share_factor`) ...
        self.service_class = None
        self._share_factor = 0.0
        #: ... and the per-degree caches — ``s(degree)``, occupancy
        #: ``o(degree)`` and ``o(degree)`` in integer units of 2**-52
        #: are pure in the degree, so the engine recomputes them only
        #: when the degree changes instead of on every allocation round.
        self.degree_speedup = 0.0
        self.degree_demand = 0.0
        self.demand_units = 0
        #: Settle anchors: the time of the last settle and the service
        #: class's two (double-double) clocks then.  Progress since is
        #: the class's effective-clock advance; work retired since is
        #: ``s(degree)`` times its service-clock advance.
        self.settled_ms = 0.0
        self.anchor_effective = self.anchor_effective_lo = 0.0
        self.anchor_service = self.anchor_service_lo = 0.0
        #: Id of the request's live entry in its class's completion
        #: heap (-1 when it has none: not running, or stalled), and its
        #: position in the running set (start order).
        self.completion_seq = -1
        self.run_order = 0
        #: Heterogeneous-topology state (``repro.hetero``): the core
        #: pool this request's threads currently occupy, the energy its
        #: execution has drawn (in watt-ms = millijoules, settled by the
        #: engine at finish and at each migration), and how many times
        #: a policy migrated it between pools.  Energy stays zero when
        #: the engine has no topology.
        self.pool = 0
        self.energy_mj = 0.0
        self.migrations = 0
        #: The core time and remaining work at the last energy
        #: settlement (start, or the last migration).
        self.settled_core_ms = 0.0
        self.settled_work = seq_ms
        #: Quantum-tick state, set by the engine at start: tick ``k``
        #: falls at ``start_ms + k * quantum_ms`` and is pushed with
        #: heap sequence ``tick_base + k``; ``tick_next`` is the first
        #: grid index not yet delivered and ``tick_seq`` the sequence of
        #: the one armed tick (-1 when none is armed).
        self.tick_base = 0
        self.tick_next = 1
        self.tick_seq = -1
        self.tick_event = None
        #: The load, contention factor and degree the tick was last
        #: derived under (the engine re-asks the hint when one changes).
        self.hint_load = -1
        self.hint_factor = 0.0
        self.hint_degree = 0

    @property
    def share_factor(self) -> float:
        """The contention factor: its service class's while running,
        else the last one it ran at (or a value set directly)."""
        klass = self.service_class
        return self._share_factor if klass is None else klass.factor

    @share_factor.setter
    def share_factor(self, value: float) -> None:
        self._share_factor = value

    # ------------------------------------------------------------------
    def start(self, now_ms: float, degree: int) -> None:
        """Transition to RUNNING with ``degree`` worker threads."""
        if self.state is RequestState.RUNNING or self.state is RequestState.DONE:
            raise SimulationError(f"request {self.rid}: cannot start from {self.state}")
        if degree < 1:
            raise SimulationError(f"request {self.rid}: start degree must be >= 1")
        self.state = RequestState.RUNNING
        self.start_ms = now_ms
        self.degree = degree
        self.settled_work = self.remaining_work  # after any straggler inflation

    def raise_degree(self, degree: int) -> bool:
        """Increase parallelism; returns True when the degree changed.

        FM property: degrees never decrease — a lower request is a
        programming error in the policy, not a runtime condition.
        """
        if self.state is not RequestState.RUNNING:
            raise SimulationError(f"request {self.rid}: not running")
        if degree < self.degree:
            raise SimulationError(
                f"request {self.rid}: degree may not decrease "
                f"({self.degree} -> {degree})"
            )
        if degree == self.degree:
            return False
        self.degree = degree
        return True

    def progress_ms(self, now_ms: float) -> float:
        """Wall time spent executing.

        Requests run continuously once started, so this is simply
        ``now - start`` (the paper's implementation timestamps request
        start and compares elapsed time against interval thresholds).
        """
        if self.start_ms is None:
            return 0.0
        return now_ms - self.start_ms

    def advance(
        self,
        dt_ms: float,
        core_alloc: float,
        progress_factor: float = 1.0,
        stalled: bool = False,
        attribution: bool = True,
    ) -> None:
        """Deplete work for ``dt_ms`` of wall time at the current rate
        and accumulate the metric integrals.

        ``core_alloc`` is the total physical-core share this request's
        threads are consuming and ``progress_factor`` the contention
        slowdown (both from the allocator).  ``stalled`` marks an
        interval frozen by an injected worker stall (the engine knows;
        stall boundaries always coincide with commit boundaries).  With
        ``attribution`` enabled the interval is also charged to the
        flight-recorder components, which stay exactly additive: every
        committed ``dt_ms`` lands in stall, service, contention, or
        boost wait.
        """
        if self.state is not RequestState.RUNNING or dt_ms <= 0:
            return
        if attribution:
            if stalled:
                self.attr_stall_ms += dt_ms
            else:
                useful = progress_factor * dt_ms
                self.attr_service_ms += useful
                slowdown = dt_ms - useful
                if self.boost_pending and not self.boosted:
                    self.attr_boost_wait_ms += slowdown
                else:
                    self.attr_contention_ms += slowdown
        self.effective_ms += progress_factor * dt_ms
        self.remaining_work -= self.rate * dt_ms
        if self.remaining_work < -1e-6:
            raise SimulationError(
                f"request {self.rid}: overshoot {self.remaining_work}"
            )
        self.remaining_work = max(self.remaining_work, 0.0)
        self.thread_time_ms += self.degree * dt_ms
        self.core_time_ms += core_alloc * dt_ms
        self.degree_residency[self.degree] = (
            self.degree_residency.get(self.degree, 0.0) + dt_ms
        )

    @property
    def is_finished(self) -> bool:
        """Whether all sequential work has been retired."""
        return self.remaining_work <= _EPS

    def finish(self, now_ms: float) -> None:
        """Transition to DONE."""
        if self.state is not RequestState.RUNNING:
            raise SimulationError(f"request {self.rid}: cannot finish from {self.state}")
        self.state = RequestState.DONE
        self.finish_ms = now_ms

    def shed(self, now_ms: float) -> None:
        """Transition to SHED (fail-fast rejection; the request never ran)."""
        if self.state is RequestState.RUNNING or self.state is RequestState.DONE:
            raise SimulationError(f"request {self.rid}: cannot shed from {self.state}")
        self.state = RequestState.SHED
        self.shed_ms = now_ms

    def is_stalled(self, now_ms: float) -> bool:
        """Whether an injected worker stall is freezing the request."""
        return now_ms < self.stalled_until_ms - _EPS

    # ------------------------------------------------------------------
    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion response time (queueing included)."""
        if self.finish_ms is None:
            raise SimulationError(f"request {self.rid}: not finished")
        return self.finish_ms - self.arrival_ms

    @property
    def execution_ms(self) -> float:
        """Start-to-completion wall time."""
        if self.finish_ms is None or self.start_ms is None:
            raise SimulationError(f"request {self.rid}: not finished")
        return self.finish_ms - self.start_ms

    @property
    def average_parallelism(self) -> float:
        """Time-averaged software-thread count while executing."""
        exec_ms = self.execution_ms
        return self.thread_time_ms / exec_ms if exec_ms > 0 else float(self.degree)

    def __repr__(self) -> str:
        return (
            f"SimRequest(rid={self.rid}, state={self.state.value}, "
            f"seq={self.seq_ms:g}, degree={self.degree})"
        )
