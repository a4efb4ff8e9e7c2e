"""The virtual-time multicore server engine.

A fluid discrete-event simulation: between state-change events every
request's work-depletion rate is constant, so the engine only touches
state when something happens — an arrival, an admission-delay expiry, a
self-scheduling quantum, or a completion.  Completions are *tentative*
events computed from current rates; each names the request whose ETA
set its time and carries a generation number, and any rate change
(degree raise, boost, arrival, exit) bumps the generation, invalidating
stale completions still in the heap.

Determinism: given identical arrival specs and scheduler state the run
is bit-for-bit reproducible — the event queue breaks time ties by
insertion order (quantum ticks by a fixed per-request order) and no
wall-clock or randomness enters the engine.

Hot-path structure (DESIGN.md §10): the engine is the inner loop of
every load sweep, so commits, rate refreshes and completions cost
O(pools) or O(log n), not O(running set); only the tick re-derive of a
hinted policy (below) still visits the running requests.

* **Service-class clocks.**  Processor sharing gives all unboosted
  requests of a pool one contention factor, and all boosted ones
  another, so each (pool, boosted?) class keeps two clocks:
  ``W = ∫factor dt`` (full-speed-equivalent time) and
  ``U = ∫factor·speed dt`` (service).  Each request anchors both at
  its last settle: its progress is ``effective_ms + W - W_anchor`` and
  its work left ``remaining - s(degree)·(U - U_anchor)``.  A commit
  advances the class clocks (at most 2·pools) and the run-level
  integrals; a rate refresh re-derives each class's factor from its
  demand sum, kept exactly as an integer in units of 2**-52.
* **Settle on change.**  A request's own integrals (service,
  contention or boost wait, stall, thread and core time, degree
  residency) are settled only when the request changes: a degree
  raise, a boost attempt, a class change, a migration, a stall start
  or end, and its finish.
* **Completion heaps.**  Each class keeps a heap of its requests keyed
  by the service clock at which they finish; an entry goes stale when
  its request re-keys, and a class that empties rebases both clocks to
  0, so their magnitude never reaches the uptime.
* **Lazy commit.**  Only events that change a rate or what the
  integrals read commit — every non-tick event, a tick that raises a
  degree, a boost attempt, a migration — and progress in between is
  read on demand (:meth:`Engine.effective_progress_ms`).
* **Tick elision.**  Tick ``k`` of a request falls at
  ``start_ms + k * quantum_ms``.  A policy's optional
  :attr:`~repro.sim.api.Scheduler.next_action_ms` hint names the
  earliest time its ``on_quantum`` could act; the engine arms only the
  first grid tick at or after it, re-asking when the load, the
  request's contention factor or its degree changes.  Without a hint
  every grid tick is armed.  Ticks that tie sort after other events in
  an order fixed per request, so a run with the hint and one without
  give the same bits.

A machine without a topology is one pool at speed 1.0, so every run
takes the same code.  Fault injection costs a request only what fires:
straggler draws come a block at a time and stall checks run only
before the latest injected stall end.

Against the frozen reference in :mod:`repro.sim._baseline`, which
commits every running request at every event and chains ticks as
``now + quantum_ms``, the engine keeps a contract rather than bit
identity: the same decision sequence, times within 1e-12 and integrals
within 1e-11 relative (:mod:`repro.sim.contract`, DESIGN.md §10).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.core.speedup import SpeedupCurve
from repro.errors import SimulationError
from repro.faults.plan import CoreFault, FaultPlan, StallFault
from repro.hetero.energy import EnergyReport, PoolEnergy
from repro.hetero.pools import Topology
from repro.sim.api import Admission, AdmissionAction, Scheduler, SchedulerContext
from repro.sim.events import (
    TICK_BAND,
    TICK_GROUP_SPAN,
    TICK_GROUPS,
    TICKS_PER_REQUEST,
    Event,
    EventKind,
    EventQueue,
)
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.processor import BoostController, occupancy
from repro.sim.request import RequestState, SimRequest
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (observe -> sim)
    from repro.observe.live import LivePlane

__all__ = ["ArrivalSpec", "Engine", "simulate"]

# FAULT event payload tags (internal).
_CORE_LOSS = "core_loss"
_CORE_RESTORE = "core_restore"
_STALL = "stall"
_STALL_END = "stall_end"

_FINISH_EPS = 1e-6  # ms — one nanosecond of slack for float residue
#: Service-clock distance within which a request may hold at most
#: 1e-9 ms of work (``SimRequest.is_finished``): ``s(degree) >= 1``.
_FINISH_WINDOW = 2e-9
#: Demand sums are integers in units of 2**-52 cores, exact for every
#: demand >= 1, so adding and removing requests never drifts.
_DEMAND_SCALE = 2.0**52
_DEMAND_UNIT = 2.0**-52
#: Clock ulps of work a completion may leave to rounding (see
#: :meth:`Engine._rounded_completion`).
_ROUNDING_ULPS = 4.0
_INF = float("inf")
_NEG_INF = -_INF
_run_order = attrgetter("run_order")
#: Work a finished request may still hold (as ``SimRequest.is_finished``).
_FINISHED_WORK = 1e-9
#: Most straggler draws computed per block (:meth:`Engine._straggler_block`).
_INFLATION_BLOCK = 1024


class _ServiceClass:
    """The running requests of one pool that share a contention factor
    (its boosted or its unboosted ones), on two clocks: ``effective``
    integrates the factor and ``service`` the factor times the pool
    speed, both since the class last emptied.

    Each clock is a double-double (``x + x_lo``, summed with TwoSum), so
    an advance since an anchor reads as exactly as a per-request
    integral would, however large the clock has grown.
    """

    __slots__ = (
        "boosted", "speed", "factor", "effective", "effective_lo", "service",
        "service_lo", "demand_units", "count", "heap",
    )

    def __init__(self, boosted: bool, speed: float) -> None:
        self.boosted = boosted
        self.speed = speed
        self.factor = 1.0
        self.effective = self.effective_lo = 0.0
        self.service = self.service_lo = 0.0
        self.demand_units = 0
        self.count = 0
        #: ``(finishing service clock, completion_seq, request)`` entries.
        self.heap: list[tuple[float, int, SimRequest]] = []


class _SettlingBoost(BoostController):
    """The engine's boost budget.  :meth:`SchedulerContext.try_boost`
    commits before a boost attempt; this also settles the request
    before the attempt changes what its attribution reads, and queues a
    granted request for its pool's boosted class at the next rate
    refresh (where rates read ``boosted``)."""

    def __init__(self, engine: "Engine", cores: int) -> None:
        super().__init__(cores)
        self._engine = engine

    def try_boost(self, request: SimRequest, degree: int) -> bool:
        change = not request.boosted and request.service_class is not None
        if change:
            self._engine._settle(request)
        granted = super().try_boost(request, degree)
        if change and granted:
            self._engine._regroup.append(request)
        return granted


@dataclass(frozen=True)
class ArrivalSpec:
    """One request the open-loop client will submit."""

    time_ms: float
    seq_ms: float
    speedup: SpeedupCurve
    tag: Any = None


class Engine:
    """Simulates one multicore server under a scheduling policy.

    An engine runs **once**: :meth:`run` raises on a second call rather
    than silently mixing stale clocks, requests, and metrics into a new
    simulation — construct a fresh engine (or use :func:`simulate`) per
    run.

    Parameters
    ----------
    cores:
        Hardware parallelism (15 for the Lucene testbed, 12 for Bing).
    scheduler:
        The policy deciding admission, degrees, and boosting.
    quantum_ms:
        Self-scheduling period (Section 6.1 uses 5 ms).
    spin_fraction:
        Fraction of lost parallelism (``d - s(d)``) that burns CPU
        rather than blocking (see :mod:`repro.sim.processor`).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injecting core
        loss/restore events, per-request straggler inflation, and
        transient worker stalls.  Plans are fully materialized and
        seeded, so injection preserves bit-for-bit reproducibility.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` pipeline.  When
        resolved (explicitly or via an installed ambient pipeline) the
        engine emits per-request spans on the ``"sim"`` track — a
        retroactive ``queue`` span covering any admission wait, a
        ``run`` span from start to completion (with a ``boost``
        instant when priority boosting fires), and a ``shed`` span for
        rejected requests — plus counters and a latency histogram,
        all timestamped in *virtual* milliseconds.  When absent (the
        default) no telemetry code runs at all.
    attribution:
        The per-request flight recorder (on by default): every
        committed interval is charged to one of the additive latency
        components — queue wait, full-speed-equivalent service,
        contention inflation, boost wait, stall — which surface on
        :class:`~repro.sim.metrics.RequestRecord`, as ``sim.attr.*``
        histograms, and as attrs on the ``run`` span.  Disable to shave
        the accounting from the hot loop (``BENCH_observe.json``
        quantifies the cost).
    topology:
        Optional :class:`~repro.hetero.pools.Topology` of typed core
        pools (big/little, DVFS-resolved speeds and powers).  Processor
        sharing runs *per pool* (a request's threads occupy exactly one
        pool) and rates scale by the pool speed; ``topology.total_cores``
        must equal ``cores``.  When set, energy is settled per pool into
        active/spin/idle joules (DESIGN.md §12).  When ``None`` (the
        default) the machine is one unnamed pool of ``cores`` cores at
        speed 1.0 running the same loops, and ``result.energy`` is
        ``None`` (no power model is defined).
    """

    def __init__(
        self,
        cores: int,
        scheduler: Scheduler,
        quantum_ms: float = 5.0,
        spin_fraction: float = 0.25,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        attribution: bool = True,
        topology: Topology | None = None,
        live: "LivePlane | None" = None,
        collector: MetricsCollector | None = None,
    ) -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if quantum_ms <= 0:
            raise SimulationError(f"quantum_ms must be positive, got {quantum_ms}")
        if not 0.0 <= spin_fraction <= 1.0:
            raise SimulationError(f"spin_fraction must be in [0, 1]: {spin_fraction}")
        if topology is not None and topology.total_cores != cores:
            raise SimulationError(
                f"topology has {topology.total_cores} cores, engine asked for {cores}"
            )
        self.cores = cores
        self.scheduler = scheduler
        self.quantum_ms = quantum_ms
        self.spin_fraction = spin_fraction
        self.fault_plan = fault_plan
        self.boost = _SettlingBoost(self, cores)

        #: The clock, and the time up to which the class clocks and the
        #: run-level integrals are committed: only events that change a
        #: rate commit, so in between the two part (see
        #: :meth:`effective_progress_ms`).
        self.now_ms = 0.0
        self._committed_ms = 0.0
        #: Heap sequence of the event being handled: a tick armed at the
        #: current time must sort after it.
        self._event_seq = -1
        self._cores_online = cores
        self._queue = EventQueue()
        self._requests: dict[int, SimRequest] = {}
        self._running: dict[int, SimRequest] = {}
        self._waiting_fifo: deque[int] = deque()  # e1-queued request ids, FIFO
        self._delayed: list[int] = []  # mid-delay request ids, sorted (= arrival order)
        self._candidate = 0  # requests mid-admission (counted in the load)
        self._generation = 0
        self._rates_dirty = False
        #: Streaming-mode state (DESIGN.md §14): when :meth:`run` is
        #: handed an iterator instead of a sequence, arrivals are
        #: generated lazily (one in flight ahead of the clock) and
        #: finished requests are dropped from the table, so memory is
        #: O(running set) instead of O(total requests).
        self._stream: Iterator[ArrivalSpec] | None = None
        self._discard_done = False
        self._submitted = 0
        self._next_rid = 0
        self._last_stream_ms = 0.0
        #: ``collector`` swaps the record-keeping strategy: the default
        #: :class:`MetricsCollector` keeps every RequestRecord (full
        #: SimulationResult); a streaming collector (repro.sim.stream)
        #: folds completions into mergeable histograms instead.
        self._metrics = collector if collector is not None else MetricsCollector(cores)
        self._ctx = SchedulerContext(self)
        self._completed = 0
        self._shed = 0
        self._ran = False
        #: The tick-elision hint (:attr:`Scheduler.next_action_ms`), or
        #: ``None`` to tick every quantum.
        self._hint = (
            getattr(scheduler, "next_action_ms", None) if scheduler.uses_quantum else None
        )
        #: Tick order at time ties (repro.sim.events.TICK_BAND): the
        #: current start-time group, its start time, and the starts in it.
        self._tick_group = TICK_GROUPS
        self._tick_group_ms = -_INF
        self._tick_rank = 0
        #: Work counters.  Events drained from the queue by :meth:`run`
        #: (including stale tentative completions and stale ticks);
        #: ``on_quantum`` calls, and grid ticks skipped by the hint;
        #: commits that advanced time; request settles that advanced a
        #: request's integrals; rate recomputes.
        self.events_processed = 0
        self.ticks_delivered = 0
        self.ticks_elided = 0
        self.commits = 0
        self.commit_visits = 0
        self.rate_recomputes = 0
        self.telemetry = resolve_telemetry(telemetry)
        self.attribution = attribution
        #: Optional live observability plane (repro.observe.live): each
        #: completion and fault feeds its window stream.  Costs one
        #: attribute check per completion when absent.
        self._live = live
        self._run_spans: dict[int, Span] = {}

        #: Core pools (repro.hetero), indexed by pool position.  No
        #: topology is one pool named ``""`` at speed 1.0.  Each pool
        #: has two service classes, ``(unboosted, boosted)``.
        self.topology = topology
        pools = topology.pools if topology is not None else ()
        self._pool_names = [pool.name for pool in pools] or [""]
        self._pool_speeds = [pool.effective_speed for pool in pools] or [1.0]
        self._pool_active_w = [pool.effective_active_power_w for pool in pools] or [0.0]
        self._pool_idle_w = [pool.effective_idle_power_w for pool in pools] or [0.0]
        self._pool_online = [pool.count for pool in pools] or [cores]
        npools = len(self._pool_online)
        self._classes = [
            (_ServiceClass(False, speed), _ServiceClass(True, speed))
            for speed in self._pool_speeds
        ]
        self._class_list = [klass for pair in self._classes for klass in pair]
        #: Requests granted a boost since the last rate refresh: they
        #: change class there (the refresh is where rates read
        #: ``boosted``).
        self._regroup: list[SimRequest] = []
        self._completion_seq = 0
        self._started = 0
        self._pools_by_speed = sorted(range(npools), key=lambda i: (-self._pool_speeds[i], i))
        #: Pool extremes for the scheduler context, first wins ties
        #: (as :attr:`Topology.fastest_pool` / ``slowest_pool``).
        speeds = self._pool_speeds
        self._fastest_pool = speeds.index(max(speeds))
        self._slowest_pool = speeds.index(min(speeds))
        #: Energy settlement state, in watt-milliseconds (= millijoules)
        #: and core-milliseconds: per-pool active/spin energy and
        #: occupied core time settled at each finish and migration, and
        #: the integral of online cores up to ``_online_since_ms``.
        self._e_active = [0.0] * npools
        self._e_spin = [0.0] * npools
        self._occupied_ms = [0.0] * npools
        self._online_ms = [0.0] * npools
        self._online_since_ms = 0.0
        #: The commit gauges: busy cores summed over the classes by the
        #: last rate refresh (shares only change under a refresh), and
        #: the running requests' thread count, kept exact.
        self._busy_cores = 0.0
        self._total_threads = 0
        #: Latest ``stalled_until_ms`` injected: no request can be
        #: stalled at or past it, so only earlier settles check.
        self._stall_horizon = 0.0
        #: Straggler inflations of rids ``_inflations_start ..`` (one
        #: block, drawn as arrivals reach it).
        self._inflations: list[float] = []
        self._inflations_start = 0

    # ------------------------------------------------------------------
    # Observable state (SchedulerContext reads these)
    # ------------------------------------------------------------------
    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def total_threads(self) -> int:
        return self._total_threads

    @property
    def queued_count(self) -> int:
        """Size of the ``e1`` backlog (the quantity shedding bounds)."""
        return len(self._waiting_fifo)

    @property
    def cores_online(self) -> int:
        """Cores currently available (reduced while a core fault is live)."""
        return self._cores_online

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, arrivals: Sequence[ArrivalSpec] | Iterable[ArrivalSpec]
    ) -> SimulationResult:
        """Execute all arrivals to completion and return the metrics.

        Engines are single-shot: a second call raises
        :class:`~repro.errors.SimulationError` instead of reusing the
        first run's clock, request table, and metric integrals.

        ``arrivals`` may be a materialized sequence (the classic path:
        sorted up front, every request kept for the final records) or
        any other iterable (the *streaming* path, DESIGN.md §14): specs
        are consumed lazily in non-decreasing time order, one arrival
        event in flight ahead of the clock, and completed or shed
        requests are discarded — memory stays O(running set) for
        million-request runs.  Streamed arrivals enter the event heap
        through a dedicated sequence band that preserves the batch
        path's tie-breaking, so the same trace replays bit-identically
        through either path.
        """
        if self._ran:
            raise SimulationError(
                "engine already ran; construct a new Engine per simulation"
            )
        self._ran = True
        self.scheduler.reset()
        self.boost.reset()
        if isinstance(arrivals, Sequence):
            if not arrivals:
                raise SimulationError("no arrivals to simulate")
            for rid, spec in enumerate(sorted(arrivals, key=lambda s: s.time_ms)):
                request = SimRequest(
                    rid, spec.time_ms, spec.seq_ms, spec.speedup, tag=spec.tag
                )
                self._requests[rid] = request
                self._queue.push(spec.time_ms, Event(EventKind.ARRIVAL, request_id=rid))
            self._submitted = len(self._requests)
        else:
            self._stream = iter(arrivals)
            self._discard_done = True
            if not self._push_next_arrival():
                raise SimulationError("no arrivals to simulate")
        if self.fault_plan is not None:
            for core_fault in self.fault_plan.core_faults:
                self._queue.push(
                    core_fault.time_ms,
                    Event(EventKind.FAULT, payload=(_CORE_LOSS, core_fault)),
                )
            for stall in self.fault_plan.stalls:
                self._queue.push(
                    stall.time_ms, Event(EventKind.FAULT, payload=(_STALL, stall))
                )

        # The run loop: hot enough that the queue pop, the kind dispatch
        # and the whole quantum tick are inlined here, with enum members,
        # the heap and the scheduler hooks hoisted to locals (a few % per
        # lookup at this call count).  Ticks come first: even with the
        # hint they are the most frequent event under FM.
        queue = self._queue
        heap = queue.heap
        requests = self._requests
        streaming = self._stream is not None
        telemetry = self.telemetry
        ctx = self._ctx
        on_quantum = self.scheduler.on_quantum
        hint = self._hint
        completion_kind = EventKind.COMPLETION
        quantum_kind = EventKind.QUANTUM
        arrival_kind = EventKind.ARRIVAL
        delay_kind = EventKind.DELAY_EXPIRED
        finish_eps = _FINISH_EPS
        events = ticks = elided = 0
        while heap:
            time_ms, seq, event = heappop(heap)
            events += 1
            kind = event.kind
            if kind is quantum_kind:
                request = event.payload
                if seq != request.tick_seq:
                    continue  # re-armed, disarmed or finished: stale
            elif kind is completion_kind and event.generation != self._generation:
                continue  # stale rate snapshot
            now = self.now_ms
            if time_ms < now - finish_eps:
                raise SimulationError(
                    f"time went backwards: {time_ms} < {now}"
                )
            if time_ms > now:
                now = self.now_ms = time_ms
            self._event_seq = seq
            if kind is quantum_kind:
                # The self-scheduling tick (Section 4.2).  It commits
                # nothing unless the hook changes the request's degree.
                request.tick_seq = -1
                if hint is not None:
                    at_ms = hint(ctx, request)
                    if at_ms > now:
                        # Armed before a re-derive moved the hint later:
                        # the hook cannot act yet, so only re-arm.
                        self._arm_tick(request, at_ms)
                        continue
                ticks += 1
                index = seq - request.tick_base
                elided += index - request.tick_next
                request.tick_next = index + 1
                was_boosted = request.boosted
                desired = on_quantum(ctx, request)
                if desired > request.degree:
                    self._raise_degree(request, desired)
                    if telemetry is not None:
                        telemetry.metrics.counter("sim.degree_raises").inc()
                if telemetry is not None and request.boosted and not was_boosted:
                    telemetry.metrics.counter("sim.boosts").inc()
                    telemetry.tracer.instant(
                        "boost", track="sim", lane=request.rid, at_ms=now,
                        degree=request.degree,
                    )
                if self._rates_dirty:
                    self._recompute_rates()
                    if hint is not None:
                        request.hint_load = -1  # its tick was consumed
                        self._rearm_ticks()
                        continue
                self._arm_tick(request, _NEG_INF if hint is None else hint(ctx, request))
                continue
            self._commit(now)
            if kind is completion_kind:
                self._handle_completion(event)
            elif kind is arrival_kind:
                if streaming:
                    # Keep exactly one future arrival in the heap: pull
                    # the next spec as its predecessor is delivered.
                    self._push_next_arrival()
                self._handle_arrival(requests[event.request_id])
            elif kind is delay_kind:
                try:
                    request = requests[event.request_id]
                except KeyError:
                    continue  # shed + discarded (streaming mode)
                self._handle_delay_expired(request)
            else:  # EventKind.FAULT — the enum is closed
                self._handle_fault(event.payload)
            if self._rates_dirty:
                self._recompute_rates()
            if hint is not None:
                # The load or a rate may have changed.
                self._rearm_ticks()
        self._commit(self.now_ms)
        self.events_processed = events
        self.ticks_delivered = ticks
        self.ticks_elided += elided
        if self._live is not None:
            self._live.flush(self.now_ms)

        if self._completed + self._shed != self._submitted:
            stuck = self._submitted - self._completed - self._shed
            raise SimulationError(
                f"{stuck} requests never completed (scheduler deadlock?)"
            )
        if self.topology is not None:
            self._metrics.energy_report = self._build_energy_report()
        return self._metrics.finalize()

    def _push_next_arrival(self) -> bool:
        """Pull the next spec off the arrival stream and schedule it;
        returns False when the stream is exhausted (streaming mode)."""
        spec = next(self._stream, None)
        if spec is None:
            return False
        time_ms = spec.time_ms
        if time_ms < self._last_stream_ms:
            raise SimulationError(
                "streamed arrivals must be non-decreasing in time: "
                f"{time_ms} after {self._last_stream_ms}"
            )
        self._last_stream_ms = time_ms
        rid = self._next_rid
        self._next_rid = rid + 1
        self._requests[rid] = SimRequest(
            rid, time_ms, spec.seq_ms, spec.speedup, tag=spec.tag
        )
        self._queue.push_streamed_arrival(
            time_ms, Event(EventKind.ARRIVAL, request_id=rid)
        )
        self._submitted += 1
        return True

    # ------------------------------------------------------------------
    # Event handlers (dispatched inline by the run loop)
    # ------------------------------------------------------------------
    def _handle_arrival(self, request: SimRequest) -> None:
        if self.fault_plan is not None:
            offset = request.rid - self._inflations_start
            if not 0 <= offset < len(self._inflations):
                self._straggler_block(request.rid)
                offset = 0
            inflation = self._inflations[offset]
            if inflation > 1.0:
                # A straggler: the request carries more work than its
                # nominal demand (slow replica, cold cache).  seq_ms
                # stays nominal — the scheduler and the demand-band
                # metrics see the demand the request *claimed*.
                request.remaining_work *= inflation
                request.impaired = True
                self._metrics.fault_stats.stragglers_injected += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter("sim.arrivals").inc()
        # The request counts toward the load its own admission sees
        # (the interval table is indexed by the count including it).
        self._candidate = 1
        decision = self.scheduler.on_arrival(self._ctx, request)
        self._candidate = 0
        self._apply_admission(request, decision)

    def _straggler_block(self, rid: int) -> None:
        """Draw the next block of straggler inflations, from ``rid``.

        A block covers the requests still known (all of them on a
        materialized run, one ahead on a stream) but at least twice the
        last block, so streamed runs grow their blocks geometrically;
        each block holds at most ``_INFLATION_BLOCK`` draws.
        """
        size = min(
            _INFLATION_BLOCK,
            max(self._submitted - rid, 2 * len(self._inflations)),
        )
        self._inflations = self.fault_plan.straggler_inflations(rid, rid + size)
        self._inflations_start = rid

    def _handle_delay_expired(self, request: SimRequest) -> None:
        if request.state is not RequestState.DELAYED:
            return  # already started by a wait-check wake-up
        self._delayed_discard(request.rid)
        self._candidate = 1
        decision = self.scheduler.on_wait_check(self._ctx, request)
        self._candidate = 0
        self._apply_admission(request, decision)

    def _handle_completion(self, event: Event) -> None:
        finished = self._finished_requests()
        if not finished:
            request = self._running[event.request_id]
            self._settle(request)
            if not request.is_finished:
                request = self._rounded_completion(event.request_id)
            finished = [request]
        now = self.now_ms
        for request in finished:
            if self.topology is not None:
                self._settle_energy(request)
            if request.tick_event is not None:
                # Grid ticks before the finish that the hint skipped.
                skipped = self._grid_index(request.start_ms, now) - request.tick_next
                if skipped > 0:
                    self.ticks_elided += skipped
                request.tick_seq = -1
            request.finish(now)
            del self._running[request.rid]
            self._leave(request)
            self._total_threads -= request.degree
            self._metrics.record(request)  # snapshot before boost release
            if self.telemetry is not None:
                self._finish_telemetry(request)  # span needs boosted flag too
            if self._live is not None:
                self._feed_live()
            self.boost.release(request)
            self._completed += 1
            self.scheduler.on_exit(self._ctx, request)
        if self._discard_done:
            # Streaming mode: the record (or histogram sample) is taken;
            # drop the object so memory tracks the running set.  Any
            # quantum tick still in the heap is stale and skipped.
            requests = self._requests
            for request in finished:
                del requests[request.rid]
        self._rates_dirty = True
        self._wake_waiters(exits=len(finished))

    def _finished_requests(self) -> list[SimRequest]:
        """The running requests with at most 1e-9 ms of work left, in
        running-set order, settled at the clock.

        Each class's heap yields the entries within
        :data:`_FINISH_WINDOW` (plus a few ulps of the clock, which the
        single-double keys carry) of its service clock; those still
        holding more work go back in, re-keyed from their settled state.
        """
        candidates = []
        for klass in self._class_list:
            if not klass.count:
                continue
            heap = klass.heap
            limit = klass.service + _FINISH_WINDOW + _ROUNDING_ULPS * math.ulp(klass.service)
            while heap:
                key, seq, request = heap[0]
                if seq != request.completion_seq:
                    heappop(heap)  # re-keyed, stalled or finished: stale
                    continue
                if key > limit:
                    break
                heappop(heap)
                candidates.append(request)
        finished = []
        for request in candidates:
            self._settle(request)
            if request.is_finished:
                finished.append(request)
            else:
                self._schedule_finish(request)
        if len(finished) > 1:
            finished.sort(key=_run_order)
        return finished

    def _rounded_completion(self, rid: int) -> SimRequest:
        """The request whose ETA fired the completion event, when clock
        rounding left it a sliver of work (settled at the clock).

        The event time ``now + remaining / rate`` is rounded to the
        clock's resolution, so committing up to it can leave up to about
        ``ulp(now) * rate`` of work unretired — more than the absolute
        finish tolerance (1e-9 ms) once the clock passes ~1e7 ms.  A residue within a few
        such ulps is rounding and the request finishes; anything larger
        is an engine fault and raises.
        """
        now = self.now_ms
        # Any exit bumps the rate generation, so a live completion
        # event's request is still running.
        request = self._running[rid]
        remaining, rate = request.remaining_work, request.rate
        slack = _ROUNDING_ULPS * math.ulp(now) * rate
        if remaining > slack:
            raise SimulationError(
                f"completion event for request {rid} at now_ms={now!r} "
                f"with remaining work {remaining!r} ms at rate {rate!r} "
                f"(rounding slack {slack!r} ms)"
            )
        request.remaining_work = 0.0
        return request

    def _feed_live(self) -> None:
        """Feed the just-recorded completion into the live plane's
        window stream (components/energy/pool from the same
        :class:`RequestRecord` the collector keeps)."""
        record = self._metrics.records[-1]
        self._live.observe(
            at_ms=record.finish_ms,
            latency_ms=record.latency_ms,
            components=record.attribution() if self.attribution else None,
            energy_j=record.energy_j,
            pool=self._pool_names[record.pool],
            rid=record.rid,
        )

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def _handle_fault(self, payload: object) -> None:
        kind, detail = payload  # type: ignore[misc]
        stats = self._metrics.fault_stats
        if kind == _CORE_LOSS:
            fault: CoreFault = detail
            removed = self._cores_online - max(1, self._cores_online - fault.cores)
            self._cores_online -= removed
            # Take cores from the highest-index pools first (the little
            # cluster in the canonical big/little ordering),
            # deterministically; individual pools may go to zero as long
            # as the machine keeps one core somewhere.
            self._integrate_online()
            online = self._pool_online
            taken = [0] * len(online)
            remaining = removed
            for pool in range(len(online) - 1, -1, -1):
                take = min(remaining, online[pool])
                online[pool] -= take
                taken[pool] = take
                remaining -= take
            stats.core_faults_applied += 1
            stats.faults_fired += 1
            self._observe_fault("core_loss", cores=removed)
            self._queue.push(
                self.now_ms + fault.duration_ms,
                Event(EventKind.FAULT, payload=(_CORE_RESTORE, tuple(taken))),
            )
            self._rates_dirty = True
        elif kind == _CORE_RESTORE:
            # detail: the per-pool removal counts from the loss.
            self._integrate_online()
            online = self._pool_online
            for pool, count in enumerate(detail):
                online[pool] += count
            self._cores_online = min(self.cores, sum(online))
            self._observe_fault("core_restore", cores_online=self._cores_online)
            self._rates_dirty = True
        elif kind == _STALL:
            stall: StallFault = detail
            victim = self._stall_victim()
            if victim is None:
                return  # nothing running; the stall is a no-op
            # Settle what the victim ran, then freeze its work: it
            # leaves its class's completion heap until the stall ends.
            self._settle(victim)
            victim.completion_seq = -1
            victim.stalled_until_ms = self.now_ms + stall.duration_ms
            victim.impaired = True
            self._stall_horizon = max(self._stall_horizon, victim.stalled_until_ms)
            stats.stalls_injected += 1
            stats.faults_fired += 1
            self._observe_fault(
                "stall", rid=victim.rid, duration_ms=stall.duration_ms
            )
            self._queue.push(
                victim.stalled_until_ms,
                Event(EventKind.FAULT, payload=(_STALL_END, victim.rid)),
            )
            self._rates_dirty = True
        elif kind == _STALL_END:
            # The victim may have been re-stalled (it stays frozen) or
            # already finished.
            victim = self._running.get(detail)
            if victim is not None and not victim.is_stalled(self.now_ms):
                self._settle(victim)
                self._schedule_finish(victim)
            self._rates_dirty = True
        else:  # pragma: no cover - payload tags are closed
            raise SimulationError(f"unknown fault payload {payload!r}")

    def _observe_fault(self, fault: str, **detail: object) -> None:
        """Surface an injected fault as a first-class observability
        event: an ``observe.event`` instant on the trace and an
        annotation on the live plane's window stream.  Cold path —
        faults are orders of magnitude rarer than completions."""
        if self.telemetry is not None:
            self.telemetry.tracer.instant(
                "observe.event",
                track="observe",
                at_ms=self.now_ms,
                kind="fault",
                fault=fault,
                **detail,
            )
        if self._live is not None:
            self._live.annotate(self.now_ms, "fault", fault=fault, **detail)

    def _stall_victim(self) -> SimRequest | None:
        """Deterministic stall target: the running request with the most
        work left (ties broken by lowest rid) that is neither stalled
        nor finished.  Faults are rare, so this one walks the running
        set."""
        now = self.now_ms
        candidates = []
        for request in self._running.values():
            if request.is_stalled(now):
                continue
            # A frozen request (its stall ends now) retired nothing since.
            left = (
                request.remaining_work
                if request.completion_seq < 0
                else self._work_left(request)
            )
            if left > _FINISHED_WORK:
                candidates.append((left, -request.rid, request))
        return max(candidates)[2] if candidates else None

    # ------------------------------------------------------------------
    # Admission machinery
    # ------------------------------------------------------------------
    def _apply_admission(self, request: SimRequest, decision: Admission) -> None:
        if decision.action is AdmissionAction.START or (
            decision.action is AdmissionAction.DELAY and decision.delay_ms <= 0
        ):
            self._start_request(request, decision.degree, decision.pool)
        elif decision.action is AdmissionAction.DELAY:
            request.state = RequestState.DELAYED
            insort(self._delayed, request.rid)
            self._queue.push(
                self.now_ms + decision.delay_ms,
                Event(EventKind.DELAY_EXPIRED, request_id=request.rid),
            )
        elif decision.action is AdmissionAction.WAIT_FOR_EXIT:
            if not self._running and not self._delayed:
                # Nothing will ever exit; queuing would deadlock.  Start
                # sequentially — matches FM's behaviour, where the e1 row
                # admits one request per exit and an idle system admits
                # immediately.
                self._start_request(request, 1)
            else:
                request.state = RequestState.QUEUED
                self._waiting_fifo.append(request.rid)
                if self.telemetry is not None:
                    self.telemetry.metrics.gauge("sim.queue_depth").set(
                        len(self._waiting_fifo)
                    )
        elif decision.action is AdmissionAction.SHED:
            # Fail fast: the request never runs; it is recorded (never
            # silently dropped) and leaves the system immediately.
            request.shed(self.now_ms)
            self._metrics.record_shed(request, decision.deadline)
            self._shed += 1
            if self._discard_done:
                # Streaming mode: shed requests leave the table too (a
                # pending DELAY_EXPIRED for them is skipped on pop).
                del self._requests[request.rid]
            if self.telemetry is not None:
                self.telemetry.metrics.counter("sim.sheds").inc()
                self.telemetry.tracer.complete(
                    "shed", request.arrival_ms, self.now_ms,
                    track="sim", lane=request.rid, deadline=decision.deadline,
                )
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown admission {decision}")

    def _start_request(
        self, request: SimRequest, degree: int, pool: int | None = None
    ) -> None:
        """Begin executing an admitted request (the one place requests
        transition into the running set).

        The request is placed on ``pool`` when the policy pinned one,
        else on the engine default: the fastest pool with occupancy
        headroom for it (falling back to the freest pool) — so policies
        that never mention pools still get sensible big-first placement.
        """
        waited_as = request.state  # pre-start state names the wait kind
        request.start(self.now_ms, max(1, degree))
        self._refresh_degree_cache(request)
        if pool is None or not 0 <= pool < len(self._classes):
            pool = self._default_pool(request)
        request.pool = pool
        request.run_order = self._started
        self._started += 1
        self._running[request.rid] = request
        request.settled_ms = self.now_ms
        self._join(request, self._classes[pool][request.boosted])
        self._total_threads += request.degree
        self._rates_dirty = True
        if self.scheduler.uses_quantum:
            if self.now_ms != self._tick_group_ms:
                self._tick_group -= 1
                self._tick_group_ms = self.now_ms
                self._tick_rank = 0
            request.tick_base = (
                TICK_BAND
                + self._tick_group * TICK_GROUP_SPAN
                + self._tick_rank * TICKS_PER_REQUEST
            )
            self._tick_rank += 1
            request.tick_event = Event(EventKind.QUANTUM, request.rid, payload=request)
            if self._hint is None:
                self._arm_tick(request, _NEG_INF)
            # With a hint, the re-derive after this event arms it.
        if self.telemetry is not None:
            tracer = self.telemetry.tracer
            if self.now_ms > request.arrival_ms:
                tracer.complete(
                    "queue", request.arrival_ms, self.now_ms,
                    track="sim", lane=request.rid,
                    wait=waited_as.value,
                )
            self._run_spans[request.rid] = tracer.begin(
                "run", track="sim", lane=request.rid, at_ms=self.now_ms,
                degree=request.degree,
            )

    def _finish_telemetry(self, request: SimRequest) -> None:
        """Close a completed request's run span and update metrics."""
        telemetry = self.telemetry
        telemetry.metrics.counter("sim.completions").inc()
        telemetry.metrics.histogram("sim.latency_ms").record(request.latency_ms)
        attrs: dict[str, object] = {}
        if self.attribution:
            metrics = telemetry.metrics
            queue_ms = (request.start_ms or request.arrival_ms) - request.arrival_ms
            metrics.histogram("sim.attr.queue_ms").record(queue_ms)
            metrics.histogram("sim.attr.service_ms").record(request.attr_service_ms)
            metrics.histogram("sim.attr.contention_ms").record(
                request.attr_contention_ms
            )
            metrics.histogram("sim.attr.boost_wait_ms").record(
                request.attr_boost_wait_ms
            )
            metrics.histogram("sim.attr.stall_ms").record(request.attr_stall_ms)
            # The run span carries the full decomposition so offline
            # trace analysis (`repro analyze`) can attribute the tail
            # without the RequestRecords.
            attrs = {
                "queue_ms": queue_ms,
                "service_ms": request.attr_service_ms,
                "contention_ms": request.attr_contention_ms,
                "boost_wait_ms": request.attr_boost_wait_ms,
                "stall_ms": request.attr_stall_ms,
            }
        if self.topology is not None:
            energy_j = request.energy_mj / 1000.0
            telemetry.metrics.histogram("sim.energy.request_j").record(energy_j)
            attrs["energy_j"] = energy_j
            attrs["pool"] = self._pool_names[request.pool]
            attrs["migrations"] = request.migrations
        span = self._run_spans.pop(request.rid, None)
        if span is not None:
            telemetry.tracer.end(
                span, at_ms=self.now_ms,
                latency_ms=request.latency_ms,
                degree=request.degree,
                boosted=request.boosted,
                **attrs,
            )

    def _wake_waiters(self, exits: int) -> None:
        """Re-evaluate waiting requests after ``exits`` completions
        (Section 4.2: "When a request leaves, FM computes the load and
        starts a queued request (if one exists)").

        Queued (``e1``) requests are admitted in FIFO order for as long
        as the policy's current row allows; at saturation the ``e1``
        contract applies — "wait until another request exits and then
        start executing sequentially" — one forced admission per exit.
        The backlog is a deque, so each admission is an O(1)
        ``popleft`` even when overload has queued thousands.
        """
        forced = 0
        waiting = self._waiting_fifo
        while waiting:
            request = self._requests[waiting[0]]
            self._candidate = 1
            decision = self.scheduler.on_wait_check(self._ctx, request)
            self._candidate = 0
            if decision.action is AdmissionAction.WAIT_FOR_EXIT:
                if forced >= exits:
                    break
                decision = Admission.start(1)
                forced += 1
            waiting.popleft()
            if self.telemetry is not None:
                self.telemetry.metrics.gauge("sim.queue_depth").set(len(waiting))
            self._apply_admission(request, decision)
        # Delayed requests may start early when load drops — or be shed
        # if their deadline budget expired while they waited.  The list
        # is kept sorted by rid (= arrival order), so the snapshot needs
        # no per-wake sort.
        for rid in tuple(self._delayed):
            request = self._requests[rid]
            decision = self.scheduler.on_wait_check(self._ctx, request)
            if decision.action is AdmissionAction.START or (
                decision.action is AdmissionAction.DELAY and decision.delay_ms <= 0
            ):
                self._delayed_discard(rid)
                self._apply_admission(
                    request, Admission.start(decision.degree, decision.pool)
                )
            elif decision.action is AdmissionAction.SHED:
                self._delayed_discard(rid)
                self._apply_admission(request, decision)
            # A longer delay keeps the original timer: the pending
            # DELAY_EXPIRED event will re-check anyway.

    def _delayed_discard(self, rid: int) -> None:
        """Remove ``rid`` from the sorted delayed-id list, if present."""
        ids = self._delayed
        i = bisect_left(ids, rid)
        if i < len(ids) and ids[i] == rid:
            del ids[i]

    # ------------------------------------------------------------------
    # Fluid-rate machinery
    # ------------------------------------------------------------------
    def _refresh_degree_cache(self, request: SimRequest) -> None:
        """Refresh the per-degree caches after a degree change.

        ``s(degree)`` and the occupancy ``o(degree)`` depend only on the
        request's curve, its degree, and the engine's spin fraction —
        recomputing them here (degree changes are rare) is what lets the
        rate refresh touch no speedup curves at all.  The occupancy is
        also kept in integer units of 2**-52 for the class demand sums.
        """
        s = request.speedup.speedup(request.degree)
        request.degree_speedup = s
        demand = occupancy(s, request.degree, self.spin_fraction)
        request.degree_demand = demand
        request.demand_units = int(demand * _DEMAND_SCALE)

    def effective_progress_ms(self, request: SimRequest) -> float:
        """``request``'s full-speed-equivalent progress at the clock:
        its settled integral, plus its class's effective-clock advance
        since the settle, plus the uncommitted stretch at the class's
        current factor.  A request that is not running makes none."""
        klass = request.service_class
        if klass is None:
            return request.effective_ms
        return (
            request.effective_ms
            + (
                (klass.effective - request.anchor_effective)
                + (klass.effective_lo - request.anchor_effective_lo)
            )
            + klass.factor * (self.now_ms - self._committed_ms)
        )

    def _work_left(self, request: SimRequest) -> float:
        """Work a running, unstalled request holds at the last commit."""
        klass = request.service_class
        return request.remaining_work - request.degree_speedup * (
            (klass.service - request.anchor_service)
            + (klass.service_lo - request.anchor_service_lo)
        )

    def _commit(self, t: float) -> None:
        """Advance the class clocks and the run-level integrals from the
        last commit to ``t`` under the current (constant) factors.

        Called only before something changes a rate or what the
        integrals read (every non-tick event, a tick that raises a
        degree, a boost attempt, a migration) and once at the end of
        the run.  No request is visited: each settles its own integrals
        from the clocks when it changes (:meth:`_settle`).
        """
        dt = t - self._committed_ms
        if dt > 0:
            for klass in self._class_list:
                if klass.count:
                    # TwoSum: each advance's rounding error goes to _lo.
                    useful = klass.factor * dt
                    clock = klass.effective
                    total = clock + useful
                    back = total - clock
                    klass.effective_lo += (clock - (total - back)) + (useful - back)
                    klass.effective = total
                    work = useful * klass.speed
                    clock = klass.service
                    total = clock + work
                    back = total - clock
                    klass.service_lo += (clock - (total - back)) + (work - back)
                    klass.service = total
            in_system = len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            self._metrics.observe_interval(
                dt, self._total_threads, self._busy_cores, in_system
            )
            self._committed_ms = t
            self.commits += 1

    def _settle(self, request: SimRequest) -> None:
        """Bring a running request's work and integrals up to the last
        commit (the clock, at every caller) and re-anchor it there.

        Its threads held its degree and its class since the last settle,
        and stall boundaries are settles, so over ``dt`` the request
        made ``useful`` = its class's effective-clock advance of
        progress and is stalled throughout or not at all: the same split
        :meth:`SimRequest.advance` makes per interval.
        """
        now = self._committed_ms
        klass = request.service_class
        since = request.settled_ms
        dt = now - since
        stalled = since < self._stall_horizon and request.is_stalled(since)
        if dt > 0:
            useful = (klass.effective - request.anchor_effective) + (
                klass.effective_lo - request.anchor_effective_lo
            )
            if useful > dt:
                useful = dt  # factor <= 1: only rounding gets it past dt
            if self.attribution:
                if stalled:
                    request.attr_stall_ms += dt
                else:
                    request.attr_service_ms += useful
                    slowdown = dt - useful
                    if request.boost_pending and not request.boosted:
                        request.attr_boost_wait_ms += slowdown
                    else:
                        request.attr_contention_ms += slowdown
            request.effective_ms += useful
            if not stalled:
                remaining = self._work_left(request)
                if remaining <= 0.0:
                    if remaining < -_FINISH_EPS:
                        raise SimulationError(
                            f"request {request.rid}: overshoot {remaining}"
                        )
                    remaining = 0.0
                request.remaining_work = remaining
            degree = request.degree
            request.thread_time_ms += degree * dt
            request.core_time_ms += request.degree_demand * useful
            residency = request.degree_residency
            try:
                residency[degree] += dt
            except KeyError:
                residency[degree] = dt
            request.settled_ms = now
            self.commit_visits += 1
        self._anchor(request)
        if now < self._stall_horizon and request.is_stalled(now):
            request.rate = 0.0
        else:
            request.rate = request.degree_speedup * klass.factor * klass.speed

    @staticmethod
    def _anchor(request: SimRequest) -> None:
        """Anchor ``request`` at its class's clocks."""
        klass = request.service_class
        request.anchor_effective = klass.effective
        request.anchor_effective_lo = klass.effective_lo
        request.anchor_service = klass.service
        request.anchor_service_lo = klass.service_lo

    def _schedule_finish(self, request: SimRequest) -> None:
        """(Re-)key a settled request in its class's completion heap at
        the service clock where its work runs out.  A stalled request
        gets no entry until its stall ends: its threads keep their cores
        (hung workers occupy, not yield) but retire no work."""
        now = self._committed_ms
        if now < self._stall_horizon and request.is_stalled(now):
            request.completion_seq = -1
            return
        self._completion_seq += 1
        request.completion_seq = seq = self._completion_seq
        klass = request.service_class
        heappush(
            klass.heap,
            (klass.service + request.remaining_work / request.degree_speedup, seq, request),
        )

    def _join(self, request: SimRequest, klass: _ServiceClass) -> None:
        """Add a request settled at the clock to ``klass``."""
        klass.count += 1
        klass.demand_units += request.demand_units
        request.service_class = klass
        self._anchor(request)
        self._schedule_finish(request)

    def _leave(self, request: SimRequest) -> None:
        """Remove a settled request from its class; a class that empties
        rebases its clocks to 0."""
        klass = request.service_class
        klass.count -= 1
        klass.demand_units -= request.demand_units
        request.share_factor = klass.factor
        request.service_class = None
        request.completion_seq = -1
        if not klass.count:
            klass.effective = klass.effective_lo = 0.0
            klass.service = klass.service_lo = 0.0
            klass.heap.clear()

    def _raise_degree(self, request: SimRequest, degree: int) -> None:
        """Settle ``request`` and raise its degree (a tick's decision)."""
        self._commit(self.now_ms)
        self._settle(request)
        before, units = request.degree, request.demand_units
        request.raise_degree(degree)
        self._refresh_degree_cache(request)
        request.service_class.demand_units += request.demand_units - units
        self._total_threads += request.degree - before
        self._schedule_finish(request)
        self._rates_dirty = True

    def _recompute_rates(self) -> None:
        """Refresh the class factors and schedule the next tentative
        completion; called after any state change.

        Requests boosted since the last refresh first change class.
        Then, per pool, the two contention factors follow from the
        boosted and unboosted demand sums as before, and the next
        completion is the earliest of each class's heap top at its
        service rate ``factor * speed``.  The busy-core gauge is summed
        over the classes.  O(pools), bar stale heap entries.
        """
        self._rates_dirty = False
        self._generation += 1
        self.rate_recomputes += 1
        if self._regroup:
            for request in self._regroup:
                klass = request.service_class
                if klass is not None and klass.boosted != request.boosted:
                    self._settle(request)
                    self._leave(request)
                    self._join(request, self._classes[request.pool][request.boosted])
            self._regroup.clear()
        now = self._committed_ms
        earliest = _INF
        earliest_rid = -1
        busy_cores = 0.0
        for (unboosted, boosted), cores in zip(self._classes, self._pool_online):
            boosted_demand = boosted.demand_units * _DEMAND_UNIT
            unboosted_demand = unboosted.demand_units * _DEMAND_UNIT
            boosted_factor = cores / boosted_demand if boosted_demand > cores else 1.0
            free = cores - boosted_demand * boosted_factor
            if free < 0.0:
                free = 0.0
            unboosted_factor = free / unboosted_demand if unboosted_demand > free else 1.0
            boosted.factor = boosted_factor
            unboosted.factor = unboosted_factor
            busy_cores += boosted_demand * boosted_factor + unboosted_demand * unboosted_factor
            for klass in (unboosted, boosted):
                heap = klass.heap
                while heap:
                    request = heap[0][2]
                    if heap[0][1] == request.completion_seq:
                        break
                    heappop(heap)  # re-keyed, stalled or finished: stale
                else:
                    continue
                factor = klass.factor
                if factor > 0.0:
                    # The heap picks the request; its own anchors give
                    # the time, as exact as a per-request integral.
                    eta = now + self._work_left(request) / (
                        request.degree_speedup * factor * klass.speed
                    )
                    if eta < earliest:
                        earliest = eta
                        earliest_rid = request.rid
        self._busy_cores = busy_cores
        if earliest < _INF:
            self._queue.push(
                max(earliest, now),
                Event(EventKind.COMPLETION, earliest_rid, self._generation),
            )

    # ------------------------------------------------------------------
    # Quantum ticks (DESIGN.md §10)
    # ------------------------------------------------------------------
    def _grid_index(self, start_ms: float, at_ms: float) -> int:
        """The smallest grid index ``k`` whose tick time
        ``start_ms + k * quantum_ms`` is at or after ``at_ms``."""
        quantum = self.quantum_ms
        k = math.ceil((at_ms - start_ms) / quantum)
        if start_ms + k * quantum < at_ms:
            k += 1
        elif start_ms + (k - 1) * quantum >= at_ms:
            k -= 1
        return k

    def _arm_tick(self, request: SimRequest, at_ms: float) -> None:
        """Arm ``request``'s next tick: the first grid tick at or after
        ``at_ms`` (``-inf`` for its next one, ``inf`` for none) that the
        run has not passed yet.

        Tick ``k`` is at ``start_ms + k * quantum_ms`` with sequence
        ``tick_base + k``, whenever it is armed, so a run that arms every
        tick and one that skips some order the ticks they share the
        same way.  A tick at the current time counts as passed when its
        sequence sorts before the event being handled.  An armed tick
        at or before the new one stays armed (the hint is a lower
        bound, and the run loop re-asks it when the tick pops); an
        armed tick after it goes stale.
        """
        if at_ms == _INF:
            request.tick_seq = -1
            return
        start = request.start_ms
        quantum = self.quantum_ms
        armed = request.tick_seq
        if armed >= 0 and start + (armed - request.tick_base) * quantum <= at_ms:
            return  # the armed tick is no later than the new one
        now = self.now_ms
        k = request.tick_next
        time_ms = start + k * quantum
        earliest = at_ms if at_ms > now else now
        if time_ms < earliest:
            k = self._grid_index(start, earliest)
            time_ms = start + k * quantum
        if time_ms == now and request.tick_base + k < self._event_seq:
            k += 1
            time_ms = start + k * quantum
        seq = request.tick_base + k
        if armed < 0 or seq < armed:
            request.tick_seq = seq
            heappush(self._queue.heap, (time_ms, seq, request.tick_event))

    def _rearm_ticks(self) -> None:
        """Re-derive the next tick from the hint of each running request
        whose load, contention factor or degree changed since its last
        derivation."""
        hint = self._hint
        ctx = self._ctx
        arm = self._arm_tick
        load = ctx.system_count
        for request in self._running.values():
            factor = request.share_factor
            degree = request.degree
            if (
                request.hint_load == load
                and request.hint_factor == factor
                and request.hint_degree == degree
            ):
                continue
            request.hint_load = load
            request.hint_factor = factor
            request.hint_degree = degree
            arm(request, hint(ctx, request))

    # ------------------------------------------------------------------
    # Core pools and energy (repro.hetero, DESIGN.md §12)
    # ------------------------------------------------------------------
    def pool_free_cores(self, pool: int) -> float:
        """Occupancy headroom of ``pool``: online cores minus the summed
        occupancy demand of the requests currently placed there (the
        whole machine when there is no topology), read off the pool's
        exact demand sums."""
        if not 0 <= pool < len(self._classes):
            raise SimulationError(
                f"no pool {pool}: the engine has {len(self._classes)} pool(s)"
            )
        unboosted, boosted = self._classes[pool]
        return self._pool_online[pool] - (
            (unboosted.demand_units + boosted.demand_units) * _DEMAND_UNIT
        )

    def migrate(self, request: SimRequest, pool: int) -> bool:
        """Move a running request's threads to another pool (the
        Hurry-up actuator); returns True when the placement changed.
        Migration cost is modeled as zero — rates simply refresh under
        the new placement at the next recomputation."""
        if (
            not 0 <= pool < len(self._classes)
            or request.state is not RequestState.RUNNING
            or request.pool == pool
        ):
            return False
        source = request.pool
        self._commit(self.now_ms)
        self._settle(request)
        self._settle_energy(request)
        boosted = request.service_class.boosted
        self._leave(request)
        request.pool = pool
        request.migrations += 1
        self._join(request, self._classes[pool][boosted])
        self._rates_dirty = True
        if self.telemetry is not None:
            self.telemetry.metrics.counter("sim.migrations").inc()
            self.telemetry.tracer.instant(
                "migrate", track="sim", lane=request.rid, at_ms=self.now_ms,
                source=self._pool_names[source], target=self._pool_names[pool],
            )
        return True

    def _default_pool(self, request: SimRequest) -> int:
        """Engine placement: the fastest pool whose occupancy headroom
        fits the request's demand, else the freest pool (faster pools
        win headroom ties).  Deterministic — depends only on the
        running set and the fixed speed ordering."""
        order = self._pools_by_speed
        if len(order) == 1:
            return order[0]
        demand = request.degree_demand
        best, best_free = order[0], -_INF
        for pool in order:
            free = self.pool_free_cores(pool)
            if free >= demand - 1e-9:
                return pool
            if free > best_free + 1e-12:
                best, best_free = pool, free
        return best

    def _settle_energy(self, request: SimRequest) -> None:
        """Charge the energy ``request`` drew on its current pool since
        its last settlement (its start, or its last migration).

        Within that span the request's threads occupied
        ``Δcore_time_ms`` core-ms at the pool's active power; the useful
        part is the work retired divided by the pool speed, the rest is
        spin (a stalled request retires nothing, so it is all spin).
        Settled at finish and migration only (after the request's own
        settle), so commits and other settles do no energy arithmetic.
        """
        pool = request.pool
        occupied = request.core_time_ms - request.settled_core_ms
        active = (request.settled_work - request.remaining_work) / self._pool_speeds[pool]
        power = self._pool_active_w[pool]
        self._e_active[pool] += power * active
        self._e_spin[pool] += power * (occupied - active)
        self._occupied_ms[pool] += occupied
        request.energy_mj += power * occupied
        request.settled_core_ms = request.core_time_ms
        request.settled_work = request.remaining_work

    def _integrate_online(self) -> None:
        """Extend each pool's online-core integral up to ``now``
        (called before the online counts change, and at the end)."""
        span = self.now_ms - self._online_since_ms
        online_ms = self._online_ms
        for pool, count in enumerate(self._pool_online):
            online_ms[pool] += count * span
        self._online_since_ms = self.now_ms

    def _build_energy_report(self) -> EnergyReport:
        """Convert the settled W·ms totals into the per-pool report and
        export the ``sim.energy.*`` gauges.  Idle energy is the online
        core-time no request occupied, at idle power."""
        self._integrate_online()
        pools = [
            PoolEnergy(
                name=self._pool_names[pool],
                cores=self.topology[pool].count,
                speed=self._pool_speeds[pool],
                active_j=self._e_active[pool] / 1000.0,
                spin_j=self._e_spin[pool] / 1000.0,
                idle_j=self._pool_idle_w[pool]
                * max(0.0, self._online_ms[pool] - self._occupied_ms[pool])
                / 1000.0,
            )
            for pool in range(len(self._classes))
        ]
        report = EnergyReport(pools, duration_ms=self.now_ms)
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.gauge("sim.energy.total_j").set(report.total_j)
            for entry in report.pools:
                prefix = f"sim.energy.pool.{entry.name}"
                metrics.gauge(f"{prefix}.active_j").set(entry.active_j)
                metrics.gauge(f"{prefix}.spin_j").set(entry.spin_j)
                metrics.gauge(f"{prefix}.idle_j").set(entry.idle_j)
        return report


def simulate(
    arrivals: Sequence[ArrivalSpec] | Iterable[ArrivalSpec],
    scheduler: Scheduler,
    cores: int,
    quantum_ms: float = 5.0,
    spin_fraction: float = 0.25,
    fault_plan: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
    attribution: bool = True,
    topology: Topology | None = None,
    live: "LivePlane | None" = None,
) -> SimulationResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    engine = Engine(
        cores=cores,
        scheduler=scheduler,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
        fault_plan=fault_plan,
        telemetry=telemetry,
        attribution=attribution,
        topology=topology,
        live=live,
    )
    return engine.run(arrivals)
