"""Load-aware redundancy control: hedging/retry that survives overload.

The static :class:`~repro.cluster.hedging.HedgePolicy` and
:class:`~repro.cluster.hedging.RetryPolicy` knobs encode a bet about
load.  PAPERS.md documents both sides of that bet: Vulimiri et al.
("Low Latency via Redundancy") show duplicates cut the tail while
spare capacity absorbs them, and Poloczek & Ciucu ("Contrasting
Effects of Replication in Parallel Systems") prove the *same*
duplicates destabilize the system past a utilization threshold — the
latency-vs-load curve of a static hedge is non-monotone, helping at
low load and melting down past the knee.

:class:`AdaptiveReplicationController` closes the loop.  It watches
the completion stream the way :class:`~repro.observe.slo.SLOMonitor`
does (indeed it reuses one: short/long burn-rate windows, drift-safe
NaN contract) plus a capacity signal — busy core-milliseconds per
control window — and dials redundancy through four modes of
decreasing aggressiveness:

``eager``
    Low load.  Hedge after an aggressive latency percentile (large
    hedge budget), retry early with a gentle backoff.
``steady``
    Moderate load.  Hedge after a conservative percentile (classic
    "hedge after p95"), single retry.
``hedge_shed``
    Approaching the instability threshold.  Hedges are shed *first*
    (each hedge duplicates a whole shard request; a retry only fires
    on the residual tail), retries survive with a long timeout.
``brownout``
    Past the threshold, or the SLO error budget is burning at page
    rate.  All redundancy off: the retry policy is dialed to
    ``max_retries=0`` (timeout accounting only — see
    :class:`~repro.cluster.hedging.RetryPolicy`), the hedge budget is
    zero.  Every duplicate would now *add* load to a system already
    beyond saturation (Poloczek & Ciucu's regime), so the only
    winning move is not to play.

**Hysteresis.**  Escalation (toward ``brownout``) is immediate — an
overloaded system must stop hedging *now*.  Recovery is deliberately
sluggish: utilization must fall below the entry threshold minus
``hysteresis`` for ``hold_windows`` consecutive windows, and the
controller then steps down a single mode per qualifying window.  The
overload→underload flip therefore produces one clean transition
sequence instead of flapping around the threshold (where queues are
still draining and a premature hedge storm would re-tip the system).

**Determinism.**  The controller is clock-free and allocation-free of
ambient state: callers pass timestamps (virtual ms in the simulator,
tracer-clock ms in the live runtime), every decision is a pure
function of the observation stream, and the full transition history is
recorded — the same seed replays the same mode sequence bit for bit.

Telemetry (``cluster.adaptive.*``): mode and utilization gauges, a
hedge-budget gauge, window/transition/brownout counters — enough for
``repro analyze`` to attribute tail latency to controller decisions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cluster.hedging import RetryPolicy
from repro.errors import ConfigurationError
from repro.observe.slo import SLOMonitor, SLOStatus, SLOTarget
from repro.telemetry import Telemetry, resolve_telemetry

__all__ = [
    "MODES",
    "ControllerConfig",
    "ReplicationDecision",
    "ModeTransition",
    "AdaptiveReplicationController",
]

#: Modes ordered by decreasing redundancy aggressiveness.  Escalation
#: moves right (toward ``brownout``), recovery moves left one step at
#: a time.
MODES: tuple[str, ...] = ("eager", "steady", "hedge_shed", "brownout")


@dataclass(frozen=True)
class ControllerConfig:
    """Thresholds and knobs of the adaptive replication controller.

    Parameters
    ----------
    window_ms:
        Control-window span.  Observations aggregate per window; the
        state machine steps once per window close.
    cores:
        Per-server capacity used to normalize busy time into
        utilization (``busy_ms / (cores * window_ms)``).  Offered
        utilization may exceed 1.0 under overload — that is the
        signal, not an error.
    steady_at / hedge_shed_at / brownout_at:
        Utilization *entry* thresholds of the three non-eager modes
        (strictly increasing).  ``brownout_at`` is the instability
        threshold: past it, redundancy amplifies overload.
    hysteresis:
        Recovery margin: to leave a mode, utilization must fall below
        its entry threshold minus this margin.
    hold_windows:
        Consecutive qualifying windows required before each one-step
        recovery transition.
    hedge_percentile:
        Per-mode hedge-delay percentile (absent = hedging disabled in
        that mode).  The hedge budget is ``1 - percentile``: the
        fraction of shard requests allowed to duplicate.
    max_retries:
        Per-mode retry ceiling; ``brownout`` maps to 0 (timeout
        accounting only, never a re-send).
    retry_timeout_percentile:
        Retry timeouts resolve to this percentile of the rolling
        latency buffer (floored at ``retry_timeout_floor_ms``).
    backoff:
        Exponential-backoff base shared by all resolved retry
        policies.
    utilization_smoothing:
        EWMA weight of *history* in the utilization signal:
        ``u = s * u_prev + (1 - s) * window``.  0 (default) uses each
        window raw.  Heavy-tailed demand makes single-window busy time
        spiky — one tail request can fill a window on its own — so a
        moderate ``s`` (e.g. 0.5) keeps one burst from slamming the
        mode to brownout while sustained overload still crosses the
        threshold within a few windows.
    breach_floor:
        Minimum mode (by :data:`MODES` index name) while the SLO
        monitor reports a breach — both burn windows over budget
        already means redundancy is not paying for itself.
    brownout_burn_rate:
        Long-window burn rate at or above which the controller jumps
        straight to ``brownout`` regardless of utilization (the error
        budget is incinerating; capacity math is moot).
    latency_buffer:
        Rolling completion-latency samples retained for percentile
        resolution (hedge delays, retry timeouts).
    """

    window_ms: float = 250.0
    cores: int = 1
    steady_at: float = 0.45
    hedge_shed_at: float = 0.70
    brownout_at: float = 0.90
    hysteresis: float = 0.08
    hold_windows: int = 2
    hedge_percentile: Mapping[str, float] = field(
        default_factory=lambda: {"eager": 0.80, "steady": 0.95}
    )
    max_retries: Mapping[str, int] = field(
        default_factory=lambda: {
            "eager": 2, "steady": 1, "hedge_shed": 1, "brownout": 0,
        }
    )
    retry_timeout_percentile: float = 0.95
    retry_timeout_floor_ms: float = 1.0
    backoff: float = 2.0
    utilization_smoothing: float = 0.0
    breach_floor: str = "hedge_shed"
    brownout_burn_rate: float = 4.0
    latency_buffer: int = 512

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ConfigurationError(f"window_ms must be positive: {self.window_ms}")
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1: {self.cores}")
        if not 0.0 < self.steady_at < self.hedge_shed_at < self.brownout_at:
            raise ConfigurationError(
                "mode thresholds must satisfy 0 < steady_at < hedge_shed_at "
                f"< brownout_at: {self.steady_at}, {self.hedge_shed_at}, "
                f"{self.brownout_at}"
            )
        if not 0.0 <= self.hysteresis < self.steady_at:
            raise ConfigurationError(
                f"hysteresis must be in [0, steady_at): {self.hysteresis}"
            )
        if self.hold_windows < 1:
            raise ConfigurationError(
                f"hold_windows must be >= 1: {self.hold_windows}"
            )
        for mode, p in self.hedge_percentile.items():
            if mode not in MODES:
                raise ConfigurationError(f"unknown mode in hedge_percentile: {mode}")
            if not 0.0 < p < 1.0:
                raise ConfigurationError(
                    f"hedge percentile must be in (0, 1): {mode}={p}"
                )
        for mode in MODES:
            if mode not in self.max_retries:
                raise ConfigurationError(f"max_retries missing mode: {mode}")
            if self.max_retries[mode] < 0:
                raise ConfigurationError(
                    f"max_retries must be >= 0: {mode}={self.max_retries[mode]}"
                )
        if not 0.0 < self.retry_timeout_percentile < 1.0:
            raise ConfigurationError(
                "retry_timeout_percentile must be in (0, 1): "
                f"{self.retry_timeout_percentile}"
            )
        if self.retry_timeout_floor_ms <= 0:
            raise ConfigurationError(
                f"retry_timeout_floor_ms must be positive: {self.retry_timeout_floor_ms}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1: {self.backoff}")
        if not 0.0 <= self.utilization_smoothing < 1.0:
            raise ConfigurationError(
                f"utilization_smoothing must be in [0, 1): "
                f"{self.utilization_smoothing}"
            )
        if self.breach_floor not in MODES:
            raise ConfigurationError(f"unknown breach_floor: {self.breach_floor}")
        if self.brownout_burn_rate <= 0:
            raise ConfigurationError(
                f"brownout_burn_rate must be positive: {self.brownout_burn_rate}"
            )
        if self.latency_buffer < 1:
            raise ConfigurationError(
                f"latency_buffer must be >= 1: {self.latency_buffer}"
            )


@dataclass(frozen=True)
class ReplicationDecision:
    """The redundancy knobs in force for one control window.

    ``hedge_delay_ms is None`` means no hedging (mode forbids it, or
    the latency buffer is still cold); ``retry is None`` likewise.  A
    ``brownout`` retry policy carries ``max_retries=0``: timeouts are
    still accounted, nothing is ever re-sent.
    """

    mode: str
    window: int
    at_ms: float
    hedge_delay_ms: float | None = None
    hedge_percentile: float | None = None
    retry: RetryPolicy | None = None

    @property
    def hedge_budget(self) -> float:
        """Fraction of shard requests allowed to duplicate (0 = none)."""
        if self.hedge_delay_ms is None or self.hedge_percentile is None:
            return 0.0
        return 1.0 - self.hedge_percentile

    @property
    def redundancy_enabled(self) -> bool:
        """Whether any duplicate (hedge or retry re-send) may be issued."""
        return self.hedge_delay_ms is not None or (
            self.retry is not None and self.retry.max_retries > 0
        )


@dataclass(frozen=True)
class ModeTransition:
    """One state-machine edge, recorded for determinism audits."""

    at_ms: float
    window: int
    from_mode: str
    to_mode: str
    #: "utilization" | "burn_rate" | "breach" | "recovery"
    reason: str
    utilization: float

    def as_tuple(self) -> tuple:
        """Hashable view (bit-identical comparison across runs)."""
        return (
            self.at_ms, self.window, self.from_mode, self.to_mode,
            self.reason, self.utilization,
        )


class AdaptiveReplicationController:
    """Dial hedging/retry aggressiveness from live load and SLO burn.

    Feed every completion through :meth:`observe`; read the current
    knobs from :attr:`decision`.  Window boundaries are crossed by the
    observation timestamps themselves, so the controller is
    deterministic under replay and never consults a wall clock.  The
    window grid anchors at the *first* observation's timestamp — the
    timebase may be virtual ms, epoch ms, or a monotonic counter, and
    an idle span before traffic arrives closes no windows.

    Parameters
    ----------
    config:
        Thresholds and knobs (:class:`ControllerConfig`).
    slo:
        The SLO signal to reuse.  Pass the same monitor the serving
        layer already owns (:class:`~repro.runtime.server.LiveFMServer`
        does exactly this) so degradation and redundancy shedding fire
        off one view of the error budget.  ``None`` builds a private
        p99 <= 250 ms monitor with windows matched to ``window_ms``.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; resolved against
        the ambient pipeline like every other instrumented component.
    """

    def __init__(
        self,
        config: ControllerConfig | None = None,
        slo: SLOMonitor | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or ControllerConfig()
        if slo is None:
            window = self.config.window_ms
            slo = SLOMonitor(
                SLOTarget(percentile=0.99, threshold_ms=250.0),
                short_window_ms=2 * window,
                long_window_ms=8 * window,
                min_samples=10,
            )
        self.slo = slo
        self.telemetry = resolve_telemetry(telemetry)
        self.transitions: list[ModeTransition] = []
        self.reset()

    # ------------------------------------------------------------------
    # Observation stream
    # ------------------------------------------------------------------
    def observe(
        self,
        latency_ms: float,
        at_ms: float,
        busy_ms: float = 0.0,
        queue_depth: float = 0.0,
    ) -> None:
        """Feed one completion (timestamps must be non-decreasing).

        ``busy_ms`` is the core-milliseconds this completion consumed
        (per server, averaged over shards at the cluster layer);
        ``queue_depth`` the in-system count sampled alongside it.
        Crossing a window boundary closes the window and steps the
        state machine, so :attr:`decision` may change across this call.
        """
        if latency_ms < 0:
            raise ConfigurationError(f"latency must be >= 0: {latency_ms}")
        if busy_ms < 0:
            raise ConfigurationError(f"busy_ms must be >= 0: {busy_ms}")
        if self._anchor_ms is None:
            # Anchor the window grid at first traffic: timebases with a
            # large origin (wall clocks) must not replay an idle eon.
            self._anchor_ms = at_ms
            self._window_end = at_ms + self.config.window_ms
        self._roll_to(at_ms)
        self.slo.observe(latency_ms, at_ms=at_ms)
        self._latencies.append(latency_ms)
        self._busy_ms += busy_ms
        self._depth_sum += queue_depth
        self._samples += 1

    def flush(self, at_ms: float) -> None:
        """Close every window ending at or before ``at_ms``, then fold
        any remaining partial window into one final step (end of run)."""
        if self._anchor_ms is None:
            return  # never observed anything: nothing to fold
        self._roll_to(at_ms)
        if self._samples:
            self._close_window(self._window_end)
            self._window_end += self.config.window_ms

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Current mode (one of :data:`MODES`)."""
        return self._mode

    @property
    def decision(self) -> ReplicationDecision:
        """Knobs in force right now (updated at window closes)."""
        return self._decision

    @property
    def windows_observed(self) -> int:
        """Control windows closed so far."""
        return self._windows

    @property
    def brownout_entries(self) -> int:
        """Times the controller entered ``brownout``."""
        return sum(1 for t in self.transitions if t.to_mode == "brownout")

    @property
    def last_utilization(self) -> float:
        """Utilization driving the last mode decision — EWMA-smoothed
        when ``utilization_smoothing`` is set (``nan`` before any
        window closes)."""
        return self._last_utilization

    def transition_signature(self) -> tuple[tuple, ...]:
        """The full transition history as plain tuples — the object two
        runs of the same seed must reproduce bit for bit."""
        return tuple(t.as_tuple() for t in self.transitions)

    def reset(self) -> None:
        """Forget all state (between runs); config is retained."""
        self._mode = "steady"
        self._windows = 0
        self._anchor_ms: float | None = None
        self._window_end = self.config.window_ms
        self._busy_ms = 0.0
        self._depth_sum = 0.0
        self._samples = 0
        self._hold = 0
        self._last_utilization = math.nan
        self._util_smoothed = math.nan
        self._latencies: deque[float] = deque(maxlen=self.config.latency_buffer)
        self.transitions.clear()
        self.slo.reset()
        self._decision = ReplicationDecision(
            mode=self._mode, window=0, at_ms=0.0
        )

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _roll_to(self, at_ms: float) -> None:
        while at_ms >= self._window_end:
            self._close_window(self._window_end)
            self._window_end += self.config.window_ms

    def _close_window(self, end_ms: float) -> None:
        cfg = self.config
        utilization = self._busy_ms / (cfg.cores * cfg.window_ms)
        if cfg.utilization_smoothing > 0.0:
            if not math.isnan(self._util_smoothed):
                utilization = (
                    cfg.utilization_smoothing * self._util_smoothed
                    + (1.0 - cfg.utilization_smoothing) * utilization
                )
            self._util_smoothed = utilization
        status = self.slo.status(at_ms=end_ms)
        self._step(utilization, status, end_ms)
        self._last_utilization = utilization
        self._windows += 1
        self._resolve_decision(end_ms)
        self._export(utilization)
        self._busy_ms = 0.0
        self._depth_sum = 0.0
        self._samples = 0

    def _target_mode(
        self, utilization: float, status: SLOStatus, margin: float
    ) -> tuple[str, str]:
        """(target mode, reason) under entry thresholds minus ``margin``."""
        cfg = self.config
        if utilization >= cfg.brownout_at - margin:
            target = "brownout"
        elif utilization >= cfg.hedge_shed_at - margin:
            target = "hedge_shed"
        elif utilization >= cfg.steady_at - margin:
            target = "steady"
        else:
            target = "eager"
        reason = "utilization"
        # NaN burn rates compare False: cold/empty windows never escalate.
        if status.long_burn_rate >= cfg.brownout_burn_rate:
            if MODES.index("brownout") > MODES.index(target):
                target, reason = "brownout", "burn_rate"
        elif status.breached:
            if MODES.index(cfg.breach_floor) > MODES.index(target):
                target, reason = cfg.breach_floor, "breach"
        return target, reason

    def _step(self, utilization: float, status: SLOStatus, at_ms: float) -> None:
        current = MODES.index(self._mode)
        target, reason = self._target_mode(utilization, status, margin=0.0)
        if MODES.index(target) > current:
            # Escalate immediately — past the threshold every duplicate
            # makes the overload worse.
            self._transition(target, reason, utilization, at_ms)
            self._hold = 0
            return
        # Recovery is hysteretic: qualify against thresholds lowered by
        # the hysteresis margin, hold for hold_windows, step down once.
        relaxed, _ = self._target_mode(utilization, status, margin=self.config.hysteresis)
        if MODES.index(relaxed) < current:
            self._hold += 1
            if self._hold >= self.config.hold_windows:
                self._transition(MODES[current - 1], "recovery", utilization, at_ms)
                self._hold = 0
        else:
            self._hold = 0

    def _transition(
        self, to_mode: str, reason: str, utilization: float, at_ms: float
    ) -> None:
        transition = ModeTransition(
            at_ms=at_ms,
            window=self._windows,
            from_mode=self._mode,
            to_mode=to_mode,
            reason=reason,
            utilization=utilization,
        )
        self.transitions.append(transition)
        self._mode = to_mode
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.counter("cluster.adaptive.mode_transitions").inc()
            if to_mode == "brownout":
                telemetry.metrics.counter("cluster.adaptive.brownouts").inc()
            # Mode flips are first-class events on the observability
            # stream (DESIGN.md §13): `repro top` replays them onto the
            # same windows as the completions they shaped.
            telemetry.tracer.instant(
                "observe.event",
                track="observe",
                at_ms=at_ms,
                kind="mode_transition",
                from_mode=transition.from_mode,
                to_mode=to_mode,
                reason=reason,
                utilization=utilization,
            )

    def _resolve_decision(self, at_ms: float) -> None:
        cfg = self.config
        mode = self._mode
        samples = (
            np.asarray(self._latencies, dtype=float) if self._latencies else None
        )
        percentile = cfg.hedge_percentile.get(mode)
        delay: float | None = None
        retry: RetryPolicy | None = None
        if samples is not None:
            # One partition of the buffer for both percentiles (each
            # value equals its own single-percentile call).
            retry_p = cfg.retry_timeout_percentile
            hedge_p = retry_p if percentile is None else percentile
            hedge_q, retry_q = np.quantile(samples, [hedge_p, retry_p]).tolist()
            if percentile is not None:
                delay = hedge_q
            timeout = max(cfg.retry_timeout_floor_ms, retry_q)
            retry = RetryPolicy(
                timeout_ms=timeout,
                max_retries=cfg.max_retries[mode],
                backoff=cfg.backoff,
            )
        self._decision = ReplicationDecision(
            mode=mode,
            window=self._windows,
            at_ms=at_ms,
            hedge_delay_ms=delay,
            hedge_percentile=percentile if delay is not None else None,
            retry=retry,
        )

    def _export(self, utilization: float) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        gauge = telemetry.metrics.gauge
        gauge("cluster.adaptive.utilization").set(utilization)
        gauge("cluster.adaptive.hedge_budget").set(self._decision.hedge_budget)
        gauge("cluster.adaptive.mode").set(float(MODES.index(self._mode)))
        telemetry.metrics.counter("cluster.adaptive.windows").inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveReplicationController(mode={self._mode!r}, "
            f"windows={self._windows}, transitions={len(self.transitions)})"
        )
