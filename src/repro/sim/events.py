"""Typed events and the time-ordered event queue.

The engine is a discrete-event simulator: every state change is an
event drawn from a single min-heap ordered by ``(time, sequence)``.
The sequence number makes ordering of simultaneous events deterministic
(FIFO in insertion order; quantum ticks in a fixed per-request order,
see :data:`TICK_BAND`), which keeps whole simulations reproducible.

Hot-path notes: heap entries are plain ``(time_ms, sequence, event)``
tuples — tuple comparison is C-level and never orders two
:class:`Event` objects: sequence numbers are unique, except that a tick
re-armed at a grid index it had left may sit in the heap twice, as two
equal tuples holding the same event — and :class:`Event` is a
``__slots__`` class rather than a dataclass, since the engine allocates
one per completion and one per started request's ticks.
"""

from __future__ import annotations

import enum
import heapq

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "TICK_BAND",
    "TICK_GROUPS",
    "TICK_GROUP_SPAN",
    "TICKS_PER_REQUEST",
]

#: Quantum ticks take their sequence numbers from a band above every
#: :meth:`EventQueue.push`, so at a time tie a tick pops after every
#: other event.  Ticks tied with each other pop in the order a chain of
#: per-quantum re-arms would push them: the most recent start time
#: first (its first tick was armed at its start event, before earlier
#: requests re-armed their ticks at that time), and requests started at
#: the same time in start order.  The sequence of a tick depends only
#: on its request and grid index ``k`` —
#: ``TICK_BAND + group * TICK_GROUP_SPAN + rank * TICKS_PER_REQUEST + k``,
#: with ``group`` counting down from ``TICK_GROUPS`` at each new start
#: time and ``rank`` the request's place among that time's starts — so
#: a run that arms every tick and one that skips some order the ticks
#: they share the same way.
TICK_BAND = 2**62
TICKS_PER_REQUEST = 2**32
TICK_GROUP_SPAN = 2**20 * TICKS_PER_REQUEST
TICK_GROUPS = 2**40


class EventKind(enum.Enum):
    """All event types the engine understands."""

    ARRIVAL = "arrival"
    #: Expiry of an FM admission delay (``t0 > 0``).
    DELAY_EXPIRED = "delay_expired"
    #: Self-scheduling tick for one running request (Section 4.2).
    QUANTUM = "quantum"
    #: Tentative completion; ``generation`` stale-checks it.
    COMPLETION = "completion"
    #: An injected fault firing (core loss/restore, worker stall) —
    #: see :mod:`repro.faults`.
    FAULT = "fault"


class Event:
    """One scheduled occurrence.

    ``request_id`` identifies the subject of the event; for COMPLETION
    it is the request whose ETA set the event time, and the event also
    carries the rate ``generation`` it was computed under: any later
    rate change invalidates it.  FAULT events carry their fault
    description in ``payload``; QUANTUM events carry their request.
    """

    __slots__ = ("kind", "request_id", "generation", "payload")

    def __init__(
        self,
        kind: EventKind,
        request_id: int = -1,
        generation: int = -1,
        payload: object = None,
    ) -> None:
        self.kind = kind
        self.request_id = request_id
        self.generation = generation
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event({self.kind.name}, request_id={self.request_id}, "
            f"generation={self.generation})"
        )


class EventQueue:
    """Deterministic min-heap of :class:`Event` keyed by time.

    The backing heap (:attr:`heap`) holds raw ``(time_ms, sequence,
    event)`` tuples; the engine's run loop reads it directly to skip a
    method call per event, and pushes quantum ticks itself with
    sequence numbers from the tick band (:data:`TICK_BAND`).
    """

    __slots__ = ("heap", "_next_seq", "_arrival_seq")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Event]] = []
        #: Sequence number of the next :meth:`push` (FIFO tie-break).
        self._next_seq = 0
        self._arrival_seq = -(2**62)

    def push(self, time_ms: float, event: Event) -> None:
        """Schedule ``event`` at ``time_ms``."""
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self.heap, (time_ms, seq, event))

    def push_streamed_arrival(self, time_ms: float, event: Event) -> None:
        """Schedule a lazily generated ARRIVAL event.

        In batch mode every arrival is pushed at setup time, so at any
        time tie an arrival's sequence number is smaller than every
        runtime-generated event's.  Streamed arrivals are pushed mid-run
        — to preserve the exact same tie-break (and with it bit-identical
        traces), they draw from a dedicated negative sequence band that
        stays below every :meth:`push` sequence while remaining FIFO
        among arrivals (which the stream feeds in time order anyway).
        """
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        heapq.heappush(self.heap, (time_ms, seq, event))

    def pop(self) -> tuple[float, Event]:
        """Remove and return the earliest ``(time, event)``."""
        time_ms, _, event = heapq.heappop(self.heap)
        return time_ms, event

    def peek_time(self) -> float | None:
        """Earliest scheduled time, or ``None`` when empty."""
        return self.heap[0][0] if self.heap else None

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)
