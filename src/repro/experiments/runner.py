"""Experiment runner: single runs and load sweeps.

Mirrors the paper's methodology: an open-loop client replays a request
trace at a configured RPS against one simulated server; each plotted
point is the 99th-percentile / mean response time over the run
(optionally averaged over independent seeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hetero.pools import Topology
from repro.sim.api import Scheduler
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.telemetry import Telemetry
from repro.telemetry.histogram import LogHistogram
from repro.workloads.arrivals import ArrivalProcess, PoissonProcess
from repro.workloads.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.plan import FaultPlan
    from repro.observe.live import LivePlane

__all__ = [
    "run_policy",
    "stream_policy",
    "run_sweep",
    "SweepResult",
    "PolicySeries",
    "cell_seed",
    "latency_histogram",
]


def cell_seed(seed: int, rps_index: int, repeat: int) -> int:
    """The RNG seed for one ``(rps, repeat)`` sweep cell.

    Depends only on the base seed and the cell coordinates — *not* on
    the policy — so every policy sees identical traces at each load
    point (the paired-comparison discipline), and so the serial and
    parallel sweep paths reproduce each other's runs exactly.
    """
    return seed + 7919 * rps_index + 104729 * repeat


def latency_histogram(result: SimulationResult) -> LogHistogram:
    """One run's completion latencies as a mergeable log histogram.

    Built per run and merged across repeats (rather than recorded
    straight into an accumulating histogram) so the serial and parallel
    sweep paths perform the identical sequence of float operations.
    """
    histogram = LogHistogram()
    for record in result.records:
        histogram.record(record.latency_ms)
    return histogram


def _named_schedulers(
    schedulers: Sequence[Scheduler] | dict[str, Scheduler],
) -> list[tuple[str, Scheduler]]:
    """Normalize a scheduler collection to unique ``(name, scheduler)``."""
    if isinstance(schedulers, dict):
        named = list(schedulers.items())
    else:
        named = [(s.name, s) for s in schedulers]
    if len({name for name, _ in named}) != len(named):
        raise ConfigurationError("duplicate policy names in sweep")
    return named


def run_policy(
    scheduler: Scheduler,
    workload: Workload,
    rps: float,
    cores: int,
    num_requests: int = 2000,
    quantum_ms: float = 5.0,
    seed: int = 42,
    process: ArrivalProcess | None = None,
    spin_fraction: float = 0.25,
    telemetry: Telemetry | None = None,
    topology: Topology | None = None,
    fault_plan: "FaultPlan | None" = None,
    live: "LivePlane | None" = None,
) -> SimulationResult:
    """One experiment run: ``num_requests`` open-loop arrivals at
    ``rps`` against a ``cores``-core server under ``scheduler``.

    ``topology`` switches the server to heterogeneous core pools with
    energy accounting (``topology.total_cores`` must equal ``cores``).
    ``fault_plan`` injects canned faults (``repro.faults``), and
    ``live`` attaches a live observability plane
    (:class:`~repro.observe.live.LivePlane`) fed by every completion.
    """
    rng = np.random.default_rng(seed)
    arrivals = workload.arrivals(num_requests, process or PoissonProcess(rps), rng)
    return simulate(
        arrivals,
        scheduler,
        cores=cores,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
        telemetry=telemetry,
        topology=topology,
        fault_plan=fault_plan,
        live=live,
    )


def stream_policy(
    scheduler: Scheduler,
    workload: Workload,
    rps: float,
    cores: int,
    num_requests: int,
    quantum_ms: float = 5.0,
    seed: int = 42,
    process: ArrivalProcess | None = None,
    spin_fraction: float = 0.25,
    fault_plan: "FaultPlan | None" = None,
    chunk_size: int = 8192,
):
    """:func:`run_policy` for million-request runs: arrivals are
    generated lazily and completions fold into a
    :class:`~repro.sim.stream.StreamSummary`, so memory stays
    O(running set) regardless of ``num_requests`` (DESIGN.md §14).

    Note the seeded universe differs from :func:`run_policy`'s —
    :meth:`~repro.workloads.workload.Workload.arrival_stream` splits
    the demand and time RNG streams (that split is what makes the
    trace chunk-size invariant), so the same seed denotes different
    traces in the two APIs.
    """
    from repro.sim.stream import simulate_stream

    arrivals = workload.arrival_stream(
        num_requests,
        process or PoissonProcess(rps),
        seed=seed,
        chunk_size=chunk_size,
    )
    return simulate_stream(
        arrivals,
        scheduler,
        cores=cores,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
        fault_plan=fault_plan,
    )


@dataclass
class PolicySeries:
    """One policy's measurements across the swept loads."""

    policy: str
    rps_values: list[float]
    tail_ms: list[float]
    mean_ms: list[float]
    results: list[list[SimulationResult]] = field(default_factory=list)
    #: Per-load-point completion-latency histograms, merged across
    #: repeats — the mergeable summary that lets the parallel sweep
    #: runner combine worker results without shipping full records.
    histograms: list[LogHistogram] = field(default_factory=list)

    def tail_points(self) -> list[tuple[float, float]]:
        """``(rps, 99th-percentile latency)`` pairs."""
        return list(zip(self.rps_values, self.tail_ms))

    def mean_points(self) -> list[tuple[float, float]]:
        """``(rps, mean latency)`` pairs."""
        return list(zip(self.rps_values, self.mean_ms))


@dataclass
class SweepResult:
    """All policies' series over one load sweep."""

    series: dict[str, PolicySeries]

    def __getitem__(self, policy: str) -> PolicySeries:
        return self.series[policy]

    def policies(self) -> list[str]:
        return list(self.series)

    def improvement(self, baseline: str, improved: str, rps: float) -> float:
        """Relative 99th-percentile reduction of ``improved`` over
        ``baseline`` at the given load: ``1 - improved/baseline``."""
        base = dict(self.series[baseline].tail_points())[rps]
        new = dict(self.series[improved].tail_points())[rps]
        return 1.0 - new / base


def run_sweep(
    schedulers: Sequence[Scheduler] | dict[str, Scheduler],
    workload: Workload,
    rps_values: Sequence[float],
    cores: int,
    num_requests: int = 2000,
    quantum_ms: float = 5.0,
    seed: int = 42,
    repeats: int = 1,
    phi: float = 0.99,
    keep_results: bool = False,
    spin_fraction: float = 0.25,
    workers: int | None = None,
    topology: Topology | None = None,
) -> SweepResult:
    """Sweep load for every policy.

    Each (policy, rps, repeat) run draws its trace from a seed that
    depends only on ``(seed, rps, repeat)`` — all policies see
    *identical traces* at each point, the paired-comparison discipline
    that makes relative improvements meaningful at small run counts.

    ``workers`` fans the policy x load grid across a process pool (see
    :mod:`repro.parallel`); ``None`` uses the ambient default installed
    by :func:`repro.parallel.default_workers` (1 — in-process serial —
    unless something like the CLI's ``--workers`` raised it).  Both
    paths produce identical results for the same seed.
    """
    if workers is None:
        from repro.parallel import get_default_workers

        workers = get_default_workers()
    if workers != 1:
        from repro.parallel import run_sweep_parallel

        return run_sweep_parallel(
            schedulers,
            workload,
            rps_values,
            cores,
            num_requests=num_requests,
            quantum_ms=quantum_ms,
            seed=seed,
            repeats=repeats,
            phi=phi,
            keep_results=keep_results,
            spin_fraction=spin_fraction,
            workers=workers,
            topology=topology,
        )

    named = _named_schedulers(schedulers)
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1: {repeats}")

    series: dict[str, PolicySeries] = {}
    for name, scheduler in named:
        tails: list[float] = []
        means: list[float] = []
        kept: list[list[SimulationResult]] = []
        histograms: list[LogHistogram] = []
        for rps_index, rps in enumerate(rps_values):
            run_tails: list[float] = []
            run_means: list[float] = []
            point_results: list[SimulationResult] = []
            point_histogram = LogHistogram()
            for repeat in range(repeats):
                result = run_policy(
                    scheduler,
                    workload,
                    rps=rps,
                    cores=cores,
                    num_requests=num_requests,
                    quantum_ms=quantum_ms,
                    seed=cell_seed(seed, rps_index, repeat),
                    spin_fraction=spin_fraction,
                    topology=topology,
                )
                run_tails.append(result.tail_latency_ms(phi))
                run_means.append(result.mean_latency_ms())
                point_histogram.update(latency_histogram(result))
                if keep_results:
                    point_results.append(result)
            tails.append(float(np.mean(run_tails)))
            means.append(float(np.mean(run_means)))
            histograms.append(point_histogram)
            if keep_results:
                kept.append(point_results)
        series[name] = PolicySeries(
            policy=name,
            rps_values=[float(r) for r in rps_values],
            tail_ms=tails,
            mean_ms=means,
            results=kept,
            histograms=histograms,
        )
    return SweepResult(series=series)
