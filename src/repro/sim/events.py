"""Typed events and the time-ordered event queue.

The engine is a discrete-event simulator: every state change is an
event drawn from a single min-heap ordered by ``(time, sequence)``.
The sequence number makes ordering of simultaneous events deterministic
(FIFO in insertion order), which keeps whole simulations reproducible.

Hot-path notes: heap entries are plain ``(time_ms, sequence, event)``
tuples — tuple comparison is C-level and the unique sequence number
guarantees the :class:`Event` payload itself is never compared — and
:class:`Event` is a ``__slots__`` class rather than a dataclass, since
the engine allocates one per quantum tick and completion.
"""

from __future__ import annotations

import enum
import heapq

__all__ = ["EventKind", "Event", "EventQueue"]


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
    description in ``payload``.
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
    method call per event, and re-arms quantum ticks by drawing
    :attr:`next_seq` itself exactly as :meth:`push` does.
    """

    __slots__ = ("heap", "next_seq", "_arrival_seq")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Event]] = []
        #: Sequence number of the next :meth:`push` (FIFO tie-break).
        self.next_seq = 0
        self._arrival_seq = -(2**62)

    def push(self, time_ms: float, event: Event) -> None:
        """Schedule ``event`` at ``time_ms``."""
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        seq = self.next_seq
        self.next_seq = seq + 1
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
