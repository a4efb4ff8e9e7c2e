"""Online SLO monitoring: windowed percentiles, burn rates, drift.

An :class:`SLOMonitor` watches a latency stream against a percentile
target (e.g. "p99 <= 250 ms") over two sliding time windows — the
multi-window burn-rate discipline from SRE practice: the *short* window
reacts fast, the *long* window filters blips, and an alert (a *breach*)
fires only when both burn their error budget faster than allowed.

It also detects **drift**: when the short-window target percentile
moves away from the long-window one by more than ``drift_factor`` in
either direction, the demand mix has shifted and any offline-derived
policy state (FM's interval table) is stale.
:class:`~repro.schedulers.reprofiling.ReprofilingFMScheduler` uses this
signal to trigger a profile rebuild immediately instead of waiting for
its timer, and :class:`~repro.runtime.server.LiveFMServer` exports the
monitor's state as ``slo.*`` gauges and a degradation signal.

The monitor is deterministic and clock-free: callers pass timestamps
(virtual ms in the simulator, tracer-clock ms in the live runtime), so
the same stream always yields the same verdicts.

Empty-quantile contract (see :mod:`repro.telemetry.histogram`): this is
a *monitoring* surface, so quantiles over an empty window return
``nan`` — never raise — and ``nan`` never signals a breach or drift.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["SLOTarget", "SLOStatus", "SLOMonitor"]


@dataclass(frozen=True)
class SLOTarget:
    """A latency objective: ``percentile`` of requests under ``threshold_ms``.

    ``percentile=0.99, threshold_ms=250`` reads "99% of requests answer
    within 250 ms"; the error budget is the remaining 1%.
    """

    percentile: float
    threshold_ms: float

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile < 1.0:
            raise ConfigurationError(
                f"percentile must be in (0, 1): {self.percentile}"
            )
        if self.threshold_ms <= 0:
            raise ConfigurationError(
                f"threshold_ms must be positive: {self.threshold_ms}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed violation fraction (``1 - percentile``)."""
        return 1.0 - self.percentile


@dataclass(frozen=True)
class SLOStatus:
    """One snapshot of the monitor (all quantiles ``nan`` when empty)."""

    at_ms: float
    #: Target percentile over the short / long window.
    short_percentile_ms: float
    long_percentile_ms: float
    #: Error-budget burn rates (1.0 = burning exactly the budget).
    short_burn_rate: float
    long_burn_rate: float
    #: Samples currently inside each window.
    short_count: int
    long_count: int
    #: Both windows over-budget: page-worthy.
    breached: bool
    #: Short-window percentile moved > drift_factor from the long one.
    drifted: bool

    def as_dict(self) -> dict[str, float | int | bool]:
        """Plain-dict view (for gauges, reports, JSON)."""
        return {
            "at_ms": self.at_ms,
            "short_percentile_ms": self.short_percentile_ms,
            "long_percentile_ms": self.long_percentile_ms,
            "short_burn_rate": self.short_burn_rate,
            "long_burn_rate": self.long_burn_rate,
            "short_count": self.short_count,
            "long_count": self.long_count,
            "breached": self.breached,
            "drifted": self.drifted,
        }


class _Window:
    """A time-bounded sliding window of ``(at_ms, latency_ms)`` samples.

    The latencies are also kept sorted (a bisect per add and eviction),
    so a percentile query reads one index instead of sorting the window.
    """

    __slots__ = ("span_ms", "samples", "ordered", "violations", "threshold_ms")

    def __init__(self, span_ms: float, threshold_ms: float) -> None:
        self.span_ms = span_ms
        self.threshold_ms = threshold_ms
        self.samples: deque[tuple[float, float]] = deque()
        self.ordered: list[float] = []
        self.violations = 0

    def add(self, at_ms: float, latency_ms: float) -> None:
        self.samples.append((at_ms, latency_ms))
        insort(self.ordered, latency_ms)
        if latency_ms > self.threshold_ms:
            self.violations += 1
        self.evict(at_ms)

    def evict(self, now_ms: float) -> None:
        cutoff = now_ms - self.span_ms
        samples = self.samples
        ordered = self.ordered
        while samples and samples[0][0] < cutoff:
            _, latency = samples.popleft()
            del ordered[bisect_left(ordered, latency)]
            if latency > self.threshold_ms:
                self.violations -= 1

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, q: float) -> float:
        """Order-statistic ``ceil(q*n)`` quantile; ``nan`` when empty."""
        n = len(self.ordered)
        if n == 0:
            return math.nan
        return self.ordered[max(0, math.ceil(q * n) - 1)]

    def violation_rate(self) -> float:
        """Fraction of windowed samples over threshold; ``nan`` when empty."""
        n = len(self.samples)
        return self.violations / n if n else math.nan

    def clear(self) -> None:
        self.samples.clear()
        self.ordered.clear()
        self.violations = 0


class SLOMonitor:
    """Streaming SLO evaluation over short and long sliding windows.

    Parameters
    ----------
    target:
        The latency objective to police.
    short_window_ms / long_window_ms:
        Spans of the two sliding windows (short must not exceed long).
    burn_rate_threshold:
        Breach when *both* windows burn the error budget at or above
        this multiple (1.0 = exactly on budget; SRE alerting typically
        pages at several x).
    drift_factor:
        Drift when the short-window target percentile is more than this
        factor above — or below ``1/factor`` of — the long-window one.
        Must be > 1.
    min_samples:
        Both windows need at least this many samples before the monitor
        will declare a breach or drift (cold monitors stay quiet).
    """

    def __init__(
        self,
        target: SLOTarget,
        short_window_ms: float = 1_000.0,
        long_window_ms: float = 10_000.0,
        burn_rate_threshold: float = 1.0,
        drift_factor: float = 1.5,
        min_samples: int = 30,
    ) -> None:
        if short_window_ms <= 0 or long_window_ms <= 0:
            raise ConfigurationError("window spans must be positive")
        if short_window_ms > long_window_ms:
            raise ConfigurationError(
                f"short window {short_window_ms} exceeds long {long_window_ms}"
            )
        if burn_rate_threshold <= 0:
            raise ConfigurationError(
                f"burn_rate_threshold must be positive: {burn_rate_threshold}"
            )
        if drift_factor <= 1.0:
            raise ConfigurationError(f"drift_factor must be > 1: {drift_factor}")
        if min_samples < 1:
            raise ConfigurationError(f"min_samples must be >= 1: {min_samples}")
        self.target = target
        self.burn_rate_threshold = burn_rate_threshold
        self.drift_factor = drift_factor
        self.min_samples = min_samples
        self._short = _Window(short_window_ms, target.threshold_ms)
        self._long = _Window(long_window_ms, target.threshold_ms)
        self._observed = 0
        self._now_ms = 0.0
        #: Total samples that violated the threshold (whole stream).
        self.total_violations = 0

    # ------------------------------------------------------------------
    @property
    def observed(self) -> int:
        """Samples observed over the monitor's lifetime."""
        return self._observed

    def observe(self, latency_ms: float, at_ms: float) -> None:
        """Feed one completion (timestamps must be non-decreasing)."""
        if not latency_ms >= 0:  # also rejects NaN, which has no rank
            raise ConfigurationError(f"latency must be >= 0: {latency_ms}")
        self._now_ms = at_ms
        self._observed += 1
        if latency_ms > self.target.threshold_ms:
            self.total_violations += 1
        self._short.add(at_ms, latency_ms)
        self._long.add(at_ms, latency_ms)

    # ------------------------------------------------------------------
    def burn_rate(self, window: str = "short") -> float:
        """Error-budget burn multiple over one window (``nan`` when empty).

        1.0 means violations arrive exactly at the budgeted rate; above
        1.0 the budget is burning down.
        """
        rate = self._window(window).violation_rate()
        return rate / self.target.error_budget if rate == rate else math.nan

    def percentile(self, window: str = "short") -> float:
        """Windowed target-percentile latency (``nan`` when empty)."""
        return self._window(window).percentile(self.target.percentile)

    def breached(self) -> bool:
        """Both windows burning at or above the threshold (and warm)."""
        if not self._warm():
            return False
        short, long = self.burn_rate("short"), self.burn_rate("long")
        # NaN comparisons are False, so empty windows never breach.
        return (
            short >= self.burn_rate_threshold and long >= self.burn_rate_threshold
        )

    def drifted(self) -> bool:
        """Short-window percentile diverged from the long-window one."""
        if not self._warm():
            return False
        short = self.percentile("short")
        long = self.percentile("long")
        if short != short or long != long or long <= 0.0:
            return False
        ratio = short / long
        return ratio > self.drift_factor or ratio < 1.0 / self.drift_factor

    def status(self, at_ms: float | None = None) -> SLOStatus:
        """Snapshot every signal at once (evicting up to ``at_ms``)."""
        if at_ms is not None:
            self._now_ms = max(self._now_ms, at_ms)
            self._short.evict(self._now_ms)
            self._long.evict(self._now_ms)
        return SLOStatus(
            at_ms=self._now_ms,
            short_percentile_ms=self.percentile("short"),
            long_percentile_ms=self.percentile("long"),
            short_burn_rate=self.burn_rate("short"),
            long_burn_rate=self.burn_rate("long"),
            short_count=len(self._short),
            long_count=len(self._long),
            breached=self.breached(),
            drifted=self.drifted(),
        )

    def reset(self) -> None:
        """Forget every sample (between runs)."""
        self._short.clear()
        self._long.clear()
        self._observed = 0
        self.total_violations = 0
        self._now_ms = 0.0

    # ------------------------------------------------------------------
    def _warm(self) -> bool:
        return (
            len(self._short) >= self.min_samples
            and len(self._long) >= self.min_samples
        )

    def _window(self, name: str) -> _Window:
        if name == "short":
            return self._short
        if name == "long":
            return self._long
        raise ConfigurationError(f"window must be short|long: {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SLOMonitor(p{self.target.percentile * 100:g}<="
            f"{self.target.threshold_ms:g}ms, observed={self._observed})"
        )
