"""Host-speed calibration kernel.

Shared hosts drift: the same simulation sweep, run in fresh processes on
the same machine, read 6.7K-9.4K simulated requests per CPU-second
(about 35 % of the median).  A fixed pure-Python kernel run between
cells slows down and speeds up with the host the same way the
simulator does, so every host time is rescaled by it::

    calibrated_s = raw_s * (kernel ops/s measured next to it) / REFERENCE_OPS_PER_S

On a host running at the reference speed a calibrated second is a raw
second; on a host twice as slow the raw time doubles, the kernel rate
halves, and the calibrated time stays put.  With the kernel interleaved
the kernel-to-simulation time ratio stayed within about 8 %.

The kernel imports nothing from ``repro``: it mixes heap, dict and float
work, the same interpreter paths the event loop spends its time in.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["REFERENCE_OPS_PER_S", "Calibrator", "kernel"]

#: Kernel rounds per second on the reference host (one core of a 2-vCPU
#: x86-64 VM running CPython 3.11); only a unit, any fixed value would do.
REFERENCE_OPS_PER_S = 2.1e5

#: Rounds per calibration probe: about 20 ms on the reference host.
_ROUNDS = 4_000


class _Job:
    """A unit of work in the kernel's toy event loop."""

    def __init__(self, ident: int, work: float) -> None:
        self.ident = ident
        self.remaining = work
        self.rate = 0.0
        self.done_at = 0.0


def kernel(rounds: int) -> float:
    """Run ``rounds`` events of a fixed toy processor-sharing loop and
    return a checksum (consumed by the caller so nothing is skipped).

    Twenty jobs run at a time.  Each event pops the earliest completion
    off a heap, walks the dict of running jobs updating attributes with
    float arithmetic, and admits a replacement job: the shape of a fluid
    discrete-event simulator's inner loop, with no numpy and no
    ``repro`` code.
    """
    heap: list[tuple[float, int, _Job]] = []
    running: dict[int, _Job] = {}
    now = 0.0
    x = 0.3141592653589793
    checksum = 0.0
    for ident in range(rounds + 20):
        x = 3.9 * x * (1.0 - x)
        job = _Job(ident, 1.0 + 40.0 * x)
        running[ident] = job
        heapq.heappush(heap, (now + job.remaining, ident, job))
        if len(running) < 20:
            continue
        at, _, done = heapq.heappop(heap)
        dt = at - now
        now = at
        share = 1.0 / len(running)
        for job in running.values():
            job.remaining -= dt * job.rate
            job.rate = share * (1.0 + 0.1 * x)
        done.done_at = now
        checksum += done.remaining
        del running[done.ident]
    return checksum + now


class Calibrator:
    """Runs kernel probes and converts raw CPU seconds.

    Call :meth:`probe` between timed regions, then :meth:`factor` for
    the probes since a :meth:`mark`: their total rounds over their total
    time, relative to the reference.  The host's speed swings by up to
    2x from one 10 ms window to the next, so a factor is pooled over
    every probe of a pass rather than read from the two probes around
    one cell.
    """

    def __init__(self, rounds: int = _ROUNDS) -> None:
        self.rounds = rounds
        self.seconds: list[float] = []
        self.checksum = 0.0

    @property
    def rates(self) -> list[float]:
        """Kernel rate of every probe so far, ops/s."""
        return [self.rounds / s for s in self.seconds]

    def mark(self) -> int:
        return len(self.seconds)

    def probe(self) -> None:
        """Time one kernel run in process CPU time.

        The collector is paused: a cyclic collection triggered by the
        kernel's allocations would scan whatever the last cell left
        alive and time that instead of the host.
        """
        gc.disable()
        try:
            start = time.process_time()
            self.checksum += kernel(self.rounds)
            elapsed = time.process_time() - start
        finally:
            gc.enable()
        self.seconds.append(max(elapsed, 1e-9))

    def factor(self, since: int) -> float:
        """Calibrated seconds per raw second over the probes since
        ``since``."""
        window = self.seconds[since:]
        return self.rounds * len(window) / sum(window) / REFERENCE_OPS_PER_S
