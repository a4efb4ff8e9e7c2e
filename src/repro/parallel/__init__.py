"""Parallel load-sweep execution across a multiprocessing pool.

A load sweep is embarrassingly parallel: every cell is an independent
simulation whose trace is fully determined by
:func:`repro.experiments.runner.cell_seed`.  Two sweep shapes share one
pool runner (:func:`_map_cells`):

* :func:`run_sweep_parallel` — :func:`~repro.experiments.runner.run_sweep`
  over ``(policy, rps, repeat)`` cells;
* :func:`run_sharded_sweep` — a mega-sweep (DESIGN.md §14): each
  ``(policy, rps)`` cell of 10^6–10^7 requests is split into arrival
  *shards*, independent streamed runs of ``num_requests / shards``
  requests, reduced into one mergeable
  :class:`~repro.sim.stream.StreamSummary`.

Either result is **identical** to the serial one — same seeds, same
floats, and merges in repeat / shard-index order whatever order the
pool finishes cells in — so ``--workers`` is purely a wall-clock knob.
``--shards`` is a results knob: shard ``k`` of load point ``r`` replays
``cell_seed(seed, r, k)`` (the trace a ``repeats=shards`` sweep's repeat
``k`` would replay, identical for every policy), and ``shards=1`` is a
plain :func:`~repro.sim.stream.simulate_stream` run of the whole cell.
A shard boundary is a *statistical* cut, not a temporal one: each shard
starts from an empty server, so a sharded cell is ``shards`` samples of
the arrival law rather than one long sample (the trade ``repeats``
makes); halving ``shards`` at fixed ``num_requests`` quantifies it.

The sweep spec (schedulers, workload, grid) crosses the process
boundary once per worker, via the pool initializer; each cell returns
its summary (tail/mean floats and a mergeable
:class:`~repro.telemetry.histogram.LogHistogram`, or a
:class:`~repro.sim.stream.StreamSummary`).  Schedulers and workloads
must pickle under the ``spawn`` start method (``fork``, the default
where available, only needs the returned values to pickle).  Ambient
telemetry pipelines are deliberately not propagated into workers:
spans recorded in a child process could never reach the parent's
exporter.

The ambient defaults (:func:`default_workers`, :func:`default_shards`
and their setters) let an entry point such as the experiment CLI's
``--workers N`` parallelize *every* sweep an experiment performs
without threading a parameter through each figure function.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    PolicySeries,
    SweepResult,
    _named_schedulers,
    cell_seed,
    latency_histogram,
    run_policy,
)
from repro.faults.plan import FaultPlan
from repro.hetero.pools import Topology
from repro.sim.api import Scheduler
from repro.sim.metrics import SimulationResult
from repro.sim.stream import StreamSummary, simulate_stream
from repro.telemetry import install
from repro.telemetry.histogram import LogHistogram
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.workload import Workload

__all__ = [
    "run_sweep_parallel",
    "default_workers",
    "get_default_workers",
    "set_default_workers",
    "resolve_workers",
    "run_sharded_sweep",
    "shard_sizes",
    "ShardedSweepResult",
    "default_shards",
    "get_default_shards",
    "set_default_shards",
    "resolve_shards",
]

#: Ambient knob values, stored *raw*: ``0`` ("all CPUs" / "one shard
#: per worker") is resolved at use time by :func:`resolve_workers` /
#: :func:`resolve_shards`, so it tracks the machine a sweep runs on
#: rather than the machine it was set on.
_AMBIENT = {"workers": 1, "shards": 1}


def _set_ambient(knob: str, value: int) -> None:
    if value < 0:
        raise ConfigurationError(f"{knob} must be >= 0: {value}")
    _AMBIENT[knob] = value


@contextlib.contextmanager
def _scoped_ambient(knob: str, value: int) -> Iterator[int]:
    # Saves and restores the raw value, so nesting default_workers(4)
    # inside default_workers(0) restores the "all CPUs" sentinel, not
    # whatever CPU count it resolved to once.
    previous = _AMBIENT[knob]
    _set_ambient(knob, value)
    try:
        yield value
    finally:
        _AMBIENT[knob] = previous


def get_default_workers() -> int:
    """The ambient worker count :func:`run_sweep` consults (default 1;
    raw, so ``0`` — "all CPUs" — stays ``0``)."""
    return _AMBIENT["workers"]


def set_default_workers(workers: int) -> None:
    """Set the ambient worker count for subsequent sweeps (``0`` = all
    CPUs).  Prefer the scoped :func:`default_workers` context manager
    unless the process is single-purpose (like the CLI)."""
    _set_ambient("workers", workers)


def default_workers(workers: int) -> contextlib.AbstractContextManager[int]:
    """Scoped :func:`set_default_workers`: every sweep in the block runs
    with ``workers`` processes unless it passes an explicit count."""
    return _scoped_ambient("workers", workers)


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker count: ``None`` -> the ambient default,
    ``0`` -> all CPUs (resolved now, at use time), otherwise the
    (positive) count itself."""
    if workers is None:
        workers = _AMBIENT["workers"]
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0: {workers}")
    return workers


def get_default_shards() -> int:
    """The ambient shard count (default 1 — unsharded; raw, so ``0`` —
    "one shard per worker" — stays ``0``)."""
    return _AMBIENT["shards"]


def set_default_shards(shards: int) -> None:
    """Set the ambient shard count for subsequent sharded sweeps
    (``0`` = one shard per worker)."""
    _set_ambient("shards", shards)


def default_shards(shards: int) -> contextlib.AbstractContextManager[int]:
    """Scoped :func:`set_default_shards`."""
    return _scoped_ambient("shards", shards)


def resolve_shards(shards: int | None, workers: int) -> int:
    """Normalize a shard count: ``None`` -> ambient default, ``0`` ->
    one shard per (resolved) worker, otherwise the count itself."""
    if shards is None:
        shards = _AMBIENT["shards"]
    if shards == 0:
        return max(1, workers)
    if shards < 0:
        raise ConfigurationError(f"shards must be >= 0: {shards}")
    return shards


# ----------------------------------------------------------------------
# The pool runner shared by both sweep shapes
# ----------------------------------------------------------------------
# Per-worker-process sweep spec (a _SweepSpec or a _ShardSpec), set by
# the pool initializer.  Only the pool path uses this global (a worker
# process is single-purpose); the in-process serial path threads the
# spec explicitly so nested and re-entrant sweeps never observe a
# foreign or torn-down spec.
_SPEC: Any = None


def _init_worker(spec: Any) -> None:
    global _SPEC
    _SPEC = spec


def _run_pooled(
    run: Callable[[tuple[int, int, int], Any], Any], cell: tuple[int, int, int]
) -> Any:
    """Pool entry point: bind the worker-process spec, then run."""
    spec = _SPEC
    assert spec is not None, "worker used before initialization"
    return run(cell, spec)


def _require_axes(caller: str, named: list, rps_values: Sequence[float]) -> None:
    """Reject an empty grid, which would otherwise surface as a bare
    ValueError from multiprocessing (``Pool(processes=0)``), with a
    message that names the missing axis."""
    if not named:
        raise ConfigurationError(f"{caller} needs at least one scheduler")
    if not rps_values:
        raise ConfigurationError(f"{caller} needs at least one rps value")


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, no pickling of the spec's
    schedulers/workload), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _map_cells(
    run: Callable[[tuple[int, int, int], Any], Any],
    cells: list[tuple[int, int, int]],
    spec: Any,
    workers: int,
) -> list[Any]:
    """``[run(cell, spec) for cell in cells]``, across a pool of up to
    ``workers`` processes; results come back in ``cells`` order."""
    # No telemetry pipeline, serial or pooled, so ``workers`` never
    # changes what is recorded.  The pipeline is a context variable:
    # forked workers inherit this None, spawned ones start with none.
    with install(None):
        if workers <= 1 or len(cells) == 1:
            # Not worth a pool; run the cells in-process through the
            # same code path (so workers=1 still exercises ``run``).
            # The spec is passed explicitly — no module global is
            # touched, so a sweep may run inside another sweep's cell.
            return [run(cell, spec) for cell in cells]
        with _pool_context().Pool(
            processes=min(workers, len(cells)),
            initializer=_init_worker,
            initargs=(spec,),
        ) as pool:
            # chunksize=1: cells are heterogeneous (high-RPS cells
            # simulate far more events), so fine-grained dispatch is
            # what makes the speedup near-linear.
            return pool.map(functools.partial(_run_pooled, run), cells, chunksize=1)


# ----------------------------------------------------------------------
# Cell sweeps
# ----------------------------------------------------------------------
@dataclass
class _SweepSpec:
    """Everything a worker needs, shipped once via the pool initializer."""

    named: list[tuple[str, Scheduler]]
    workload: Workload
    rps_values: list[float]
    cores: int
    num_requests: int
    quantum_ms: float
    seed: int
    phi: float
    keep_results: bool
    spin_fraction: float
    topology: Topology | None = None


def _run_cell(
    cell: tuple[int, int, int],
    spec: _SweepSpec,
) -> tuple[float, float, LogHistogram, SimulationResult | None]:
    """Run one ``(policy, rps, repeat)`` cell and summarize it."""
    policy_index, rps_index, repeat = cell
    _, scheduler = spec.named[policy_index]
    result = run_policy(
        scheduler,
        spec.workload,
        rps=spec.rps_values[rps_index],
        cores=spec.cores,
        num_requests=spec.num_requests,
        quantum_ms=spec.quantum_ms,
        seed=cell_seed(spec.seed, rps_index, repeat),
        spin_fraction=spec.spin_fraction,
        topology=spec.topology,
    )
    return (
        result.tail_latency_ms(spec.phi),
        result.mean_latency_ms(),
        latency_histogram(result),
        result if spec.keep_results else None,
    )


def run_sweep_parallel(
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
    """:func:`repro.experiments.runner.run_sweep`, fanned across a
    process pool.

    Accepts the same arguments plus ``workers`` (``None`` -> ambient
    default, ``0`` -> all CPUs) and returns an identical
    :class:`~repro.experiments.runner.SweepResult`: each cell runs with
    the seed :func:`cell_seed` assigns it, and per-load-point
    histograms merge in repeat order, exactly as the serial loop does.
    """
    named = _named_schedulers(schedulers)
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1: {repeats}")
    _require_axes("run_sweep_parallel", named, rps_values)
    workers = resolve_workers(workers)

    cells = list(itertools.product(range(len(named)), range(len(rps_values)), range(repeats)))
    spec = _SweepSpec(
        named=named,
        workload=workload,
        rps_values=[float(r) for r in rps_values],
        cores=cores,
        num_requests=num_requests,
        quantum_ms=quantum_ms,
        seed=seed,
        phi=phi,
        keep_results=keep_results,
        spin_fraction=spin_fraction,
        topology=topology,
    )
    by_cell = dict(zip(cells, _map_cells(_run_cell, cells, spec, workers)))
    series: dict[str, PolicySeries] = {}
    for policy_index, (name, _) in enumerate(named):
        tails: list[float] = []
        means: list[float] = []
        kept: list[list[SimulationResult]] = []
        histograms: list[LogHistogram] = []
        for rps_index in range(len(rps_values)):
            run_tails: list[float] = []
            run_means: list[float] = []
            point_results: list[SimulationResult] = []
            point_histogram = LogHistogram()
            for repeat in range(repeats):
                tail, mean, histogram, result = by_cell[
                    (policy_index, rps_index, repeat)
                ]
                run_tails.append(tail)
                run_means.append(mean)
                point_histogram.update(histogram)
                if keep_results:
                    point_results.append(result)
            tails.append(float(np.mean(run_tails)))
            means.append(float(np.mean(run_means)))
            histograms.append(point_histogram)
            if keep_results:
                kept.append(point_results)
        series[name] = PolicySeries(
            policy=name,
            rps_values=list(spec.rps_values),
            tail_ms=tails,
            mean_ms=means,
            results=kept,
            histograms=histograms,
        )
    return SweepResult(series=series)


# ----------------------------------------------------------------------
# Sharded sweeps (DESIGN.md §14)
# ----------------------------------------------------------------------
def shard_sizes(total: int, shards: int) -> list[int]:
    """Split ``total`` requests into ``shards`` near-equal positive
    sizes, deterministically (the first ``total % shards`` shards take
    the extra request)."""
    if total < 1:
        raise ConfigurationError(f"total must be >= 1: {total}")
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1: {shards}")
    if shards > total:
        raise ConfigurationError(
            f"cannot split {total} requests into {shards} non-empty shards"
        )
    base, extra = divmod(total, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


@dataclass
class _ShardSpec:
    """Everything a shard worker needs, shipped once per pool."""

    named: list[tuple[str, Scheduler]]
    workload: Workload
    rps_values: list[float]
    sizes: list[int]
    cores: int
    quantum_ms: float
    seed: int
    spin_fraction: float
    chunk_size: int
    fault_plan: FaultPlan | None = None


def _run_shard(cell: tuple[int, int, int], spec: _ShardSpec) -> StreamSummary:
    """Simulate one ``(policy, rps, shard)`` slice as a streamed run."""
    policy_index, rps_index, shard_index = cell
    _, scheduler = spec.named[policy_index]
    arrivals = spec.workload.arrival_stream(
        spec.sizes[shard_index],
        PoissonProcess(spec.rps_values[rps_index]),
        seed=cell_seed(spec.seed, rps_index, shard_index),
        chunk_size=spec.chunk_size,
    )
    return simulate_stream(
        arrivals,
        scheduler,
        cores=spec.cores,
        quantum_ms=spec.quantum_ms,
        spin_fraction=spec.spin_fraction,
        fault_plan=spec.fault_plan,
    )


@dataclass
class ShardedSweepResult:
    """Per-policy, per-load-point merged shard summaries."""

    series: dict[str, list[StreamSummary]]
    rps_values: list[float]
    shards: int
    num_requests: int

    def __getitem__(self, policy: str) -> list[StreamSummary]:
        return self.series[policy]

    def policies(self) -> list[str]:
        return list(self.series)

    def tail_points(self, policy: str, phi: float = 0.99) -> list[tuple[float, float]]:
        """``(rps, φ-percentile latency)`` pairs for one policy."""
        return [
            (rps, summary.tail_latency_ms(phi))
            for rps, summary in zip(self.rps_values, self.series[policy])
        ]

    def mean_points(self, policy: str) -> list[tuple[float, float]]:
        return [
            (rps, summary.mean_latency_ms())
            for rps, summary in zip(self.rps_values, self.series[policy])
        ]


def run_sharded_sweep(
    schedulers: Sequence[Scheduler] | dict[str, Scheduler],
    workload: Workload,
    rps_values: Sequence[float],
    cores: int,
    num_requests: int,
    shards: int | None = None,
    workers: int | None = None,
    quantum_ms: float = 5.0,
    seed: int = 42,
    spin_fraction: float = 0.25,
    chunk_size: int = 8192,
    fault_plan: FaultPlan | None = None,
) -> ShardedSweepResult:
    """Sweep load with each ``(policy, rps)`` cell split into streamed
    arrival shards across a process pool.

    ``num_requests`` is the *total* per cell; ``shards`` (``None`` ->
    ambient default via :func:`default_shards`, ``0`` -> one per
    worker) controls the split and — unlike ``workers`` — is a results
    knob: different shard counts simulate different trace
    decompositions.  ``workers`` remains purely a wall-clock knob: the
    merged summaries are bit-identical for any worker count.
    """
    named = _named_schedulers(schedulers)
    _require_axes("run_sharded_sweep", named, rps_values)
    workers = resolve_workers(workers)
    shards = resolve_shards(shards, workers)
    sizes = shard_sizes(num_requests, shards)

    cells = list(itertools.product(range(len(named)), range(len(rps_values)), range(shards)))
    spec = _ShardSpec(
        named=named,
        workload=workload,
        rps_values=[float(r) for r in rps_values],
        sizes=sizes,
        cores=cores,
        quantum_ms=quantum_ms,
        seed=seed,
        spin_fraction=spin_fraction,
        chunk_size=chunk_size,
        fault_plan=fault_plan,
    )
    by_cell = dict(zip(cells, _map_cells(_run_shard, cells, spec, workers)))
    series: dict[str, list[StreamSummary]] = {}
    for policy_index, (name, _) in enumerate(named):
        points: list[StreamSummary] = []
        for rps_index in range(len(rps_values)):
            merged = by_cell[(policy_index, rps_index, 0)]
            # Merge in shard-index order — pool completion order must
            # not leak into the result (histogram merge is exact, but
            # the float integrals sum sequentially).
            for shard_index in range(1, shards):
                merged.update(by_cell[(policy_index, rps_index, shard_index)])
            points.append(merged)
        series[name] = points
    return ShardedSweepResult(
        series=series,
        rps_values=list(spec.rps_values),
        shards=shards,
        num_requests=num_requests,
    )
