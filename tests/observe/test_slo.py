"""Tests for the online SLO monitor (windows, burn rates, drift)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.observe import SLOMonitor, SLOTarget


def _monitor(**kwargs) -> SLOMonitor:
    defaults = dict(
        target=SLOTarget(percentile=0.9, threshold_ms=100.0),
        short_window_ms=1_000.0,
        long_window_ms=10_000.0,
        min_samples=10,
    )
    defaults.update(kwargs)
    return SLOMonitor(**defaults)


class TestValidation:
    def test_target_bounds(self):
        with pytest.raises(ConfigurationError):
            SLOTarget(percentile=1.0, threshold_ms=100.0)
        with pytest.raises(ConfigurationError):
            SLOTarget(percentile=0.99, threshold_ms=0.0)

    def test_error_budget(self):
        assert SLOTarget(0.99, 250.0).error_budget == pytest.approx(0.01)

    def test_monitor_bounds(self):
        target = SLOTarget(0.99, 250.0)
        with pytest.raises(ConfigurationError):
            SLOMonitor(target, short_window_ms=0.0)
        with pytest.raises(ConfigurationError):
            SLOMonitor(target, short_window_ms=5_000.0, long_window_ms=1_000.0)
        with pytest.raises(ConfigurationError):
            SLOMonitor(target, burn_rate_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SLOMonitor(target, drift_factor=1.0)
        with pytest.raises(ConfigurationError):
            SLOMonitor(target, min_samples=0)
        with pytest.raises(ConfigurationError):
            _monitor().observe(-1.0, at_ms=0.0)
        with pytest.raises(ConfigurationError):
            _monitor().burn_rate("medium")


class TestEmptyContract:
    """Monitoring surface: empty windows answer nan, never raise."""

    def test_quantiles_nan_when_empty(self):
        monitor = _monitor()
        assert math.isnan(monitor.percentile("short"))
        assert math.isnan(monitor.percentile("long"))
        assert math.isnan(monitor.burn_rate("short"))

    def test_nan_never_breaches_or_drifts(self):
        monitor = _monitor()
        assert not monitor.breached()
        assert not monitor.drifted()
        status = monitor.status(at_ms=0.0)
        assert not status.breached and not status.drifted

    def test_eviction_can_empty_a_window(self):
        monitor = _monitor()
        monitor.observe(50.0, at_ms=0.0)
        status = monitor.status(at_ms=50_000.0)  # everything evicted
        assert status.short_count == 0 and status.long_count == 0
        assert math.isnan(status.short_percentile_ms)


class TestWindows:
    def test_eviction_by_span(self):
        monitor = _monitor()
        for t in range(20):
            monitor.observe(10.0, at_ms=float(t) * 100.0)
        status = monitor.status()
        # Short window spans 1000 ms: samples in [900, 1900] survive
        # (the cutoff boundary is inclusive).
        assert status.short_count == 11
        assert status.long_count == 20

    def test_percentile_order_statistic(self):
        monitor = _monitor()
        for i, latency in enumerate([10.0, 20.0, 30.0, 40.0, 50.0]):
            monitor.observe(latency, at_ms=float(i))
        # ceil(0.9 * 5) = 5th of 5 -> 50.
        assert monitor.percentile("short") == 50.0

    @given(
        stream=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=400.0),  # gap to the last sample
                st.sampled_from([0.0, 5.0, 10.0, 10.0, 99.5, 250.0]),  # duplicates
            ),
            max_size=60,
        ),
        q=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_percentile_matches_a_sort(self, stream, q):
        """The sorted companion list answers exactly what sorting the
        window's samples answers, through duplicates and evictions."""
        window = _monitor()._short
        at = 0.0
        for gap, latency in stream:
            at += gap
            window.add(at, latency)
            kept = sorted(latency for _, latency in window.samples)
            assert window.ordered == kept
            expected = kept[max(0, math.ceil(q * len(kept)) - 1)]
            assert window.percentile(q) == expected
        window.evict(at + 10_000.0)
        assert window.ordered == []
        assert math.isnan(window.percentile(q))

    def test_nan_latency_is_rejected(self):
        with pytest.raises(ConfigurationError):
            _monitor().observe(math.nan, at_ms=0.0)

    def test_counts_and_violations(self):
        monitor = _monitor()
        for i in range(10):
            monitor.observe(200.0 if i % 2 else 10.0, at_ms=float(i))
        assert monitor.observed == 10
        assert monitor.total_violations == 5
        # 50% violations against a 10% budget: burning at 5x.
        assert monitor.burn_rate("short") == pytest.approx(5.0)


class TestBreach:
    def test_healthy_stream_never_breaches(self):
        monitor = _monitor()
        for i in range(100):
            monitor.observe(50.0, at_ms=float(i) * 10.0)
        assert not monitor.breached()
        assert monitor.status().long_burn_rate == 0.0

    def test_sustained_violations_breach(self):
        monitor = _monitor(burn_rate_threshold=2.0)
        for i in range(100):
            monitor.observe(500.0, at_ms=float(i) * 10.0)
        assert monitor.breached()
        assert monitor.status().breached

    def test_short_blip_does_not_breach(self):
        """The long window filters a burst the short window flags."""
        monitor = _monitor(burn_rate_threshold=3.0, min_samples=5)
        for i in range(200):
            monitor.observe(10.0, at_ms=float(i) * 100.0)
        for i in range(30):  # 300 ms burst at the end
            monitor.observe(500.0, at_ms=20_000.0 + float(i) * 10.0)
        assert monitor.burn_rate("short") >= 3.0
        assert monitor.burn_rate("long") < 3.0
        assert not monitor.breached()

    def test_cold_monitor_stays_quiet(self):
        monitor = _monitor(min_samples=50)
        for i in range(10):
            monitor.observe(500.0, at_ms=float(i))
        assert not monitor.breached()


class TestDrift:
    def test_stable_stream_does_not_drift(self):
        monitor = _monitor(drift_factor=1.5)
        for i in range(500):
            monitor.observe(100.0 + (i % 7), at_ms=float(i) * 10.0)
        assert not monitor.drifted()

    def test_upward_shift_drifts(self):
        """Doubling the mix's latency drifts the short window off the
        long baseline."""
        monitor = _monitor(drift_factor=1.5)
        for i in range(900):
            monitor.observe(100.0, at_ms=float(i) * 10.0)
        for i in range(100):
            monitor.observe(250.0, at_ms=9_000.0 + float(i) * 10.0)
        assert monitor.drifted()
        assert monitor.status().drifted

    def test_downward_shift_drifts(self):
        monitor = _monitor(drift_factor=1.5)
        for i in range(900):
            monitor.observe(100.0, at_ms=float(i) * 10.0)
        for i in range(100):
            monitor.observe(20.0, at_ms=9_000.0 + float(i) * 10.0)
        assert monitor.drifted()


class TestLifecycle:
    def test_reset_forgets_everything(self):
        monitor = _monitor()
        for i in range(50):
            monitor.observe(500.0, at_ms=float(i))
        monitor.reset()
        assert monitor.observed == 0
        assert monitor.total_violations == 0
        assert math.isnan(monitor.percentile("short"))

    def test_status_as_dict_round_trip(self):
        monitor = _monitor()
        for i in range(20):
            monitor.observe(50.0, at_ms=float(i) * 10.0)
        data = monitor.status().as_dict()
        assert data["short_count"] == 20  # all within the short span
        assert data["breached"] is False

    def test_determinism(self):
        """Same stream, same verdicts — the monitor is clock-free."""

        def run() -> list[bool]:
            monitor = _monitor(min_samples=5)
            verdicts = []
            for i in range(300):
                latency = 500.0 if i > 150 else 10.0
                monitor.observe(latency, at_ms=float(i) * 10.0)
                verdicts.append(monitor.breached())
            return verdicts

        assert run() == run()
