"""Queueing-theory formulas, and the simulator validated against them."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.queueing import (
    mg1_ps_conditional_sojourn,
    mg1_ps_mean_sojourn,
    mg1_ps_slowdown,
    utilization,
)
from repro.core.speedup import TabulatedSpeedup
from repro.errors import ConfigurationError
from repro.hetero import Topology
from repro.schedulers import SequentialScheduler
from repro.sim.engine import ArrivalSpec, simulate

_SEQ_CURVE = TabulatedSpeedup([1.0])


class TestFormulas:
    def test_utilization(self):
        assert utilization(0.05, 10.0, 1) == pytest.approx(0.5)
        assert utilization(0.05, 10.0, 2) == pytest.approx(0.25)

    def test_mean_sojourn(self):
        assert mg1_ps_mean_sojourn(10.0, 0.5) == pytest.approx(20.0)
        assert mg1_ps_mean_sojourn(10.0, 0.0) == pytest.approx(10.0)

    def test_conditional_linear_in_demand(self):
        assert mg1_ps_conditional_sojourn(30.0, 0.5) == pytest.approx(60.0)
        assert mg1_ps_conditional_sojourn(60.0, 0.5) == pytest.approx(
            2 * mg1_ps_conditional_sojourn(30.0, 0.5)
        )

    def test_slowdown(self):
        assert mg1_ps_slowdown(0.75) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mg1_ps_mean_sojourn(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            mg1_ps_mean_sojourn(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            utilization(-1.0, 10.0)
        with pytest.raises(ConfigurationError):
            mg1_ps_slowdown(-0.1)


class TestSimulatorAgainstTheory:
    """SEQ on one core with full spin is exactly M/G/1-PS."""

    def _run(self, rho: float, mean_service: float, n: int, seed: int,
             sigma: float = 0.0, speed: float | None = None):
        """SEQ on one core; with ``speed``, one core of that speed on a
        pool topology and every arrival time divided by it."""
        rng = np.random.default_rng(seed)
        rate = rho / mean_service  # arrivals per ms
        gaps = rng.exponential(1.0 / rate, size=n)
        times = np.cumsum(gaps)
        if sigma > 0:
            median = mean_service / np.exp(sigma**2 / 2)
            services = median * np.exp(sigma * rng.standard_normal(n))
        else:
            services = np.full(n, mean_service)
        specs = [
            ArrivalSpec(float(t) / (speed or 1.0), float(s), _SEQ_CURVE)
            for t, s in zip(times, services)
        ]
        topology = Topology.homogeneous(1, speed=speed) if speed else None
        return simulate(
            specs, SequentialScheduler(), cores=1, spin_fraction=1.0, topology=topology
        )

    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_mean_sojourn_deterministic_service(self, rho):
        result = self._run(rho, mean_service=10.0, n=6000, seed=1)
        predicted = mg1_ps_mean_sojourn(10.0, rho)
        assert result.mean_latency_ms() == pytest.approx(predicted, rel=0.10)

    def test_mean_sojourn_heavy_tailed_service(self):
        """PS insensitivity: the same formula holds for lognormal
        service with the same mean."""
        sigma = 1.0
        result = self._run(0.5, mean_service=10.0, n=8000, seed=2, sigma=sigma)
        predicted = mg1_ps_mean_sojourn(10.0, 0.5)
        assert result.mean_latency_ms() == pytest.approx(predicted, rel=0.12)

    def test_conditional_stretch(self):
        """Long requests are stretched by the same 1/(1-rho) factor."""
        rho = 0.5
        result = self._run(rho, mean_service=10.0, n=8000, seed=3, sigma=0.8)
        stretch = np.array(
            [r.latency_ms / r.seq_ms for r in result.records]
        )
        # Average stretch approaches 1/(1-rho); allow simulation noise.
        assert stretch.mean() == pytest.approx(mg1_ps_slowdown(rho), rel=0.12)

    @pytest.mark.parametrize(
        "rho, n, seed, sigma, rel",
        [(0.6, 6000, 1, 0.0, 0.10), (0.5, 8000, 2, 1.0, 0.12)],
        ids=["deterministic", "lognormal"],
    )
    def test_pool_speed_rescales_the_clock(self, rho, n, seed, sigma, rel):
        """A 2x core fed the same trace at half the arrival times is the
        same queue on a clock running twice as fast: every latency
        halves, and the M/G/1-PS mean holds at effective service x/2."""
        slow = self._run(rho, mean_service=10.0, n=n, seed=seed, sigma=sigma)
        fast = self._run(rho, mean_service=10.0, n=n, seed=seed, sigma=sigma, speed=2.0)
        assert [r.rid for r in fast.records] == [r.rid for r in slow.records]
        for ours, theirs in zip(fast.records, slow.records):
            half = theirs.latency_ms / 2.0
            assert abs(ours.latency_ms - half) <= 4 * math.ulp(half)
        predicted = mg1_ps_mean_sojourn(10.0 / 2.0, rho)
        assert fast.mean_latency_ms() == pytest.approx(predicted, rel=rel)

    def test_low_load_tracks_formula(self):
        result = self._run(0.05, mean_service=10.0, n=2000, seed=4)
        predicted = mg1_ps_mean_sojourn(10.0, 0.05)
        assert result.mean_latency_ms() == pytest.approx(predicted, rel=0.03)
