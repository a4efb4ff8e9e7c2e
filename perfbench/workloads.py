"""The benchmark's four workloads, built on the public ``repro`` APIs.

Every workload is an open loop: Poisson arrivals in virtual time, drawn
from seeds derived from the benchmark's ``--seed``.  Its *set-up* builds
the profiles, the offline interval table (FULL-scale search settings),
topologies, and ``INPUTS`` independent input sets, each a list of
*cells*.  A cell is one operation: one simulation run, or one cluster
run for the fleet.  ``Cell.run`` is the timed call into the program;
``Cell.check`` applies the correctness oracles afterwards, untimed.

Simulated metrics pool the latencies of a cell over the ``INPUTS`` input
sets: as many samples as a run that long can afford, and still the same
numbers for the same seed whatever the host's speed.

Oracles trust only the inputs the benchmark generated and the
timestamps the program reports:

* conservation - every attempted request is completed or shed;
* latency floor - no latency is below
  ``seq_ms / (max speedup * fastest pool speed)``;
* sample-path Little's law - the engine's integral of the in-system
  count lies between the summed execution times and the summed response
  times (it equals the latter when nothing waits in the ``e1`` backlog,
  which the count excludes), to a relative ``LITTLE_RTOL``;
* time shift (``lucene-longrun``) - a cell replayed at a later simulated
  uptime reproduces the epoch-0 latencies to within ``SHIFT_ULPS`` ulps
  of the epoch clock.

A cell that raises, or breaks an oracle, is a failed operation.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.cluster import simulation as cluster_simulation
from repro.cluster.adaptive import AdaptiveReplicationController, ControllerConfig
from repro.core.search import SearchConfig, build_interval_table
from repro.experiments.config import FULL
from repro.faults import FaultPlan
from repro.faults.scenarios import overload_flip
from repro.hetero import Topology
from repro.observe.anomaly import ChangepointDetector
from repro.observe.diff import diff_runs
from repro.observe.ledger import entry_from_result
from repro.observe.live import LivePlane
from repro.observe.slo import SLOMonitor, SLOTarget
from repro.schedulers import (
    AdaptiveScheduler,
    EnergyAwareFMScheduler,
    FixedScheduler,
    FMScheduler,
    SequentialScheduler,
)
from repro.sim import ArrivalSpec, Engine, MetricsCollector, StreamingCollector
from repro.telemetry import Telemetry
from repro.workloads import bing as bing_mod
from repro.workloads import lucene as lucene_mod
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.workload import Workload

from tracing import Proxy, Tracer, traced_iter

__all__ = ["WORKLOADS", "Outcome", "Cell", "BenchWorkload"]

SCHEDULER_HOOKS = ("on_arrival", "on_wait_check", "on_quantum", "on_exit", "reset")
#: Relative slack of the Little's-law sandwich (float accumulation).
LITTLE_RTOL = 1e-6
#: Absolute slack of the latency floor: the engine finishes a request
#: with up to 1e-6 ms of residual work.
FLOOR_ATOL_MS = 1e-6
#: Time-shift tolerance, in ulps of the epoch clock (``math.ulp(1e6)``
#: is 1.2e-10 ms; seeded replays at 1e6 agree to a few ulps).
SHIFT_ULPS = 1e4
#: Bing's offline-search step: ``repro.experiments.tables`` shrinks the
#: scale's step tenfold for Bing's tenfold shorter demand.
BING_STEP_MS = max(1.0, FULL.step_ms / 10)


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, fixed by ``seed`` and ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def quantile(latencies: np.ndarray, q: float) -> float:
    """The order-statistic quantile the repo's histograms match."""
    return float(np.quantile(latencies, q, method="inverted_cdf"))


@dataclass
class Outcome:
    """What one cell produced."""

    #: Simulated requests finished (completed or shed); for the fleet,
    #: queries answered.  Counted for failed cells too: that work ran.
    finished: int = 0
    #: Simulated values of the cell (exact for a fixed seed).
    values: dict[str, float] = field(default_factory=dict)
    #: Exact model-behaviour counts of the cell.
    counts: dict[str, int] = field(default_factory=dict)
    #: Response times, for quantiles pooled across input sets.
    latencies: np.ndarray | None = None
    #: The exception the program raised, if any.
    error: str | None = None
    #: Oracles the cell broke.
    violations: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.violations)


class Cell:
    """One operation: ``run`` calls the program, ``check`` judges it."""

    key: str

    def run(self, tracer: Tracer | None) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def check(self, error: str | None) -> Outcome:  # pragma: no cover - interface
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _span(tracer: Tracer | None, layer: str, name: str):
    return tracer.span(layer, name) if tracer is not None else nullcontext()


def build_table(workload: Workload, step_ms: float, target: float, max_degree: int,
                tracer: Tracer | None):
    """Profile ``workload`` and run the offline search at FULL settings."""
    with _span(tracer, "workloads", "workloads.profile"):
        profile = workload.profile
    config = SearchConfig(
        max_degree=max_degree, target_parallelism=target, step_ms=step_ms,
        num_bins=FULL.num_bins,
    )
    with _span(tracer, "core.search", "core.search.build"):
        table = build_interval_table(profile, config)
    if tracer is not None:
        tracer.counts["core.search.table_rows"] += len(table)
    return table


def make_arrivals(workload: Workload, n: int, rps: float, seed: int,
                  tracer: Tracer | None) -> list[ArrivalSpec]:
    """``n`` materialized Poisson arrivals, tagged with their index."""
    with _span(tracer, "workloads", "workloads.arrivals"):
        specs = workload.arrivals(n, PoissonProcess(rps), np.random.default_rng(seed))
        specs = [ArrivalSpec(s.time_ms, s.seq_ms, s.speedup, tag=i) for i, s in enumerate(specs)]
    if tracer is not None:
        tracer.counts["workloads.items"] += n
    return specs


def floor_violations(workload: Workload, latency: np.ndarray, seq_ms: np.ndarray,
                     cores: int, speed: float) -> list[str]:
    """Latencies below ``seq / (max speedup over 1..cores * speed)``."""
    best = workload.speedup_model.tables_for(seq_ms, cores).max(axis=1)
    floor = seq_ms / (best * speed)
    short = latency < floor * (1.0 - 1e-9) - FLOOR_ATOL_MS
    if short.any():
        i = int(np.argmax(short))
        return [f"latency floor: {int(short.sum())} requests, e.g. {latency[i]!r} < {floor[i]!r}"]
    return []


def little_violations(integral: float, exec_sum: float, response_sum: float) -> list[str]:
    low = exec_sum * (1.0 - LITTLE_RTOL)
    high = response_sum * (1.0 + LITTLE_RTOL)
    if not low <= integral <= high:
        return [f"little's law: integral {integral!r} outside [{low!r}, {high!r}]"]
    return []


def interpolated_capacity(rates: list[float], p99s: list[float], limit_ms: float) -> float:
    """Highest offered rate whose p99 meets ``limit_ms``: linear in p99
    between the last grid rate that meets it and the first that does
    not; the top rate if all meet it; below the grid, the lowest rate
    scaled by ``limit / p99``."""
    if p99s[0] > limit_ms:
        return rates[0] * limit_ms / p99s[0]
    for i in range(1, len(rates)):
        if p99s[i] > limit_ms:
            lo, hi = p99s[i - 1], p99s[i]
            return rates[i - 1] + (rates[i] - rates[i - 1]) * (limit_ms - lo) / (hi - lo)
    return rates[-1]


def run_engine(tracer: Tracer | None, arrivals, scheduler, cores: int, *,
               collector, collector_layer: str, **kwargs):
    """Construct an :class:`Engine` directly (to read its event count)
    and run it; a traced run wraps the scheduler and the collector."""
    if tracer is not None:
        scheduler = Proxy(scheduler, tracer, "schedulers", SCHEDULER_HOOKS)
        collector = Proxy(collector, tracer, collector_layer, ("record", "record_shed", "finalize"))
    engine = Engine(cores, scheduler, collector=collector, **kwargs)
    with _span(tracer, "sim.engine", "sim.engine.run"):
        result = engine.run(arrivals)
    if tracer is not None:
        tracer.counts["sim.engine.events"] += engine.events_processed
    return engine, result


def engine_values(engine: Engine, result, first_arrival_ms: float) -> dict[str, float]:
    """Event count and the in-system integral over the busy span."""
    return {
        "events": float(engine.events_processed),
        "system_integral": result.average_system_count() * result.duration_ms,
        "active_ms": result.duration_ms - first_arrival_ms,
    }


def fault_counts(stats: dict) -> dict[str, int]:
    return {
        "faults.stalls": int(stats["stalls_injected"]),
        "faults.stragglers": int(stats["stragglers_injected"]),
    }


# ---------------------------------------------------------------------------
# Materialized single-server cells (bing-sweep, hetero-live)
# ---------------------------------------------------------------------------
class SimCell(Cell):
    """A materialized run: every :class:`RequestRecord` is kept."""

    def __init__(self, key: str, workload: Workload, arrivals: list[ArrivalSpec],
                 make_scheduler: Callable[[], Any], cores: int, speed: float = 1.0,
                 make_live: Callable[[Tracer | None], Any] | None = None,
                 **engine_kwargs: Any) -> None:
        self.key = key
        self.workload = workload
        self.arrivals = arrivals
        self.make_scheduler = make_scheduler
        self.cores = cores
        self.speed = speed
        self.make_live = make_live
        self.engine_kwargs = engine_kwargs
        #: Whether a later cell of the pass reads ``result`` (the diff).
        self.keep = False

    def run(self, tracer: Tracer | None) -> None:
        self.result = self.live = None
        kwargs = dict(self.engine_kwargs)
        if self.make_live is not None:
            self.live = kwargs["live"] = self.make_live(tracer)
        self.engine, self.result = run_engine(
            tracer, self.arrivals, self.make_scheduler(), self.cores,
            collector=MetricsCollector(self.cores), collector_layer="sim.metrics", **kwargs,
        )
        with _span(tracer, "sim.metrics", "sim.metrics.summarize"):
            self.latencies = self.result.latencies_ms()
            self.p99 = self.result.tail_latency_ms(0.99)

    def check(self, error: str | None) -> Outcome:
        out = Outcome(error=error)
        result = self.result
        if result is None:
            return out
        records, sheds = result.records, result.shed_records
        out.finished = len(records) + len(sheds)
        if out.finished != len(self.arrivals):
            out.violations.append(
                f"conservation: {len(self.arrivals)} attempted, {len(records)} "
                f"completed + {len(sheds)} shed"
            )
        seq = np.array([self.arrivals[r.tag].seq_ms for r in records])
        out.violations += floor_violations(
            self.workload, self.latencies, seq, self.cores, self.speed
        )
        values = engine_values(self.engine, result, self.arrivals[0].time_ms)
        out.violations += little_violations(
            values["system_integral"],
            math.fsum(r.finish_ms - r.start_ms for r in records),
            math.fsum(self.latencies) + math.fsum(s.waited_ms for s in sheds),
        )
        out.latencies = self.latencies
        out.values = {"p99_ms": self.p99, **values}
        if result.energy is not None:
            out.values["energy_j"] = result.energy.total_j
        out.counts = fault_counts(result.fault_stats.as_dict())
        out.counts["hetero.migrations"] = sum(r.migrations for r in records)
        if self.live is not None:
            out.counts["observe.live.windows"] = len(self.live.windows())
        # Keep peak memory independent of how many passes ran.
        self.engine = self.live = None
        if not self.keep:
            self.result = None
        return out


class DiffCell(Cell):
    """The analysis phase: ledger entries for two runs, then a diff."""

    def __init__(self, key: str, a: SimCell, b: SimCell, seed: int) -> None:
        self.key = key
        self.a, self.b = a, b
        a.keep = b.keep = True
        self.seed = seed

    def run(self, tracer: Tracer | None) -> None:
        self.diff = None
        entries = []
        for cell in (self.a, self.b):
            with _span(tracer, "observe.ledger", "observe.ledger.entry"):
                entries.append(
                    entry_from_result(
                        cell.key, cell.result, config={"cell": cell.key},
                        seed=self.seed, scheduler=cell.key.split("@")[0],
                    )
                )
        with _span(tracer, "observe.diff", "observe.diff.diff_runs"):
            self.diff = diff_runs(*entries)

    def check(self, error: str | None) -> Outcome:
        out = Outcome(error=error)
        if self.diff is not None:
            out.values["identical"] = float(self.diff.identical)
        self.a.result = self.b.result = self.diff = None
        return out


# ---------------------------------------------------------------------------
# Streamed cells (lucene-longrun)
# ---------------------------------------------------------------------------
class OracleStreamingCollector(StreamingCollector):
    """The streaming collector, plus the per-request facts the oracles
    need (kept by the benchmark; the program still holds only the
    running set)."""

    def __init__(self, cores: int) -> None:
        super().__init__(cores)
        self.rids: list[int] = []
        self.latency: list[float] = []
        self.seq: list[float] = []
        self.exec_ms: list[float] = []
        self.shed_waits: list[float] = []

    def record(self, request) -> None:
        super().record(request)
        self.rids.append(request.rid)
        self.latency.append(request.finish_ms - request.arrival_ms)
        self.seq.append(request.seq_ms)
        self.exec_ms.append(request.finish_ms - request.start_ms)

    def record_shed(self, request, deadline: bool) -> None:
        super().record_shed(request, deadline)
        self.shed_waits.append(request.shed_ms - request.arrival_ms)


def shifted(stream: Iterator[ArrivalSpec], epoch_ms: float) -> Iterator[ArrivalSpec]:
    """The same trace, starting at simulated uptime ``epoch_ms``."""
    for spec in stream:
        yield ArrivalSpec(spec.time_ms + epoch_ms, spec.seq_ms, spec.speedup, spec.tag)


class StreamCell(Cell):
    """A streamed run: lazy arrivals, histogram-only program memory."""

    def __init__(self, key: str, workload: Workload, n: int, rps: float, seed: int,
                 epoch_ms: float, make_scheduler: Callable[[], Any], cores: int,
                 reference: "StreamCell | None", **engine_kwargs: Any) -> None:
        self.key = key
        self.workload = workload
        self.n = n
        self.rps = rps
        self.seed = seed
        self.epoch_ms = epoch_ms
        self.make_scheduler = make_scheduler
        self.cores = cores
        self.reference = reference
        self.engine_kwargs = engine_kwargs
        self.by_rid: np.ndarray | None = None

    def run(self, tracer: Tracer | None) -> None:
        self.summary = None
        self.collector = OracleStreamingCollector(self.cores)
        stream = shifted(
            self.workload.arrival_stream(self.n, PoissonProcess(self.rps), self.seed),
            self.epoch_ms,
        )
        if tracer is not None:
            stream = traced_iter(stream, tracer, "workloads")
        self.engine, self.summary = run_engine(
            tracer, stream, self.make_scheduler(), self.cores,
            collector=self.collector, collector_layer="sim.stream", **self.engine_kwargs,
        )
        with _span(tracer, "sim.stream", "sim.stream.summarize"):
            self.p99 = self.summary.tail_latency_ms(0.99)

    def check(self, error: str | None) -> Outcome:
        col = self.collector
        out = Outcome(error=error, finished=len(col.rids) + len(col.shed_waits))
        self.by_rid = None
        if error is not None:
            return out
        if out.finished != self.n:
            out.violations.append(
                f"conservation: {self.n} attempted, {len(col.rids)} completed "
                f"+ {len(col.shed_waits)} shed"
            )
        latency = np.array(col.latency)
        out.violations += floor_violations(
            self.workload, latency, np.array(col.seq), self.cores, 1.0
        )
        values = engine_values(self.engine, self.summary, self.epoch_ms)
        out.violations += little_violations(
            values["system_integral"],
            math.fsum(col.exec_ms),
            math.fsum(latency) + math.fsum(col.shed_waits),
        )
        self.by_rid = np.full(self.n, np.nan)
        self.by_rid[np.array(col.rids, dtype=int)] = latency
        ref = self.reference
        if ref is not None:
            if ref.by_rid is None:
                out.violations.append("time shift: the epoch-0 reference cell failed")
            else:
                tol = SHIFT_ULPS * math.ulp(self.epoch_ms)
                drift = float(np.nanmax(np.abs(self.by_rid - ref.by_rid)))
                if not drift <= tol:
                    out.violations.append(
                        f"time shift: latency moved {drift!r} ms at epoch "
                        f"{self.epoch_ms:g} (tolerance {tol!r})"
                    )
        out.latencies = latency
        out.values = {"p99_ms": self.p99, **values}
        out.counts = fault_counts(self.summary.fault_stats.as_dict())
        self.collector = self.engine = self.summary = None
        return out


# ---------------------------------------------------------------------------
# Fleet cells (fleet-adaptive)
# ---------------------------------------------------------------------------
class RecordingSampler:
    """A demand sampler that keeps what it drew (the oracle's inputs)."""

    def __init__(self, inner: Callable[[np.random.Generator, int], np.ndarray]) -> None:
        self.inner = inner
        self.draws: list[np.ndarray] = []

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        demands = self.inner(rng, n)
        self.draws.append(demands)
        return demands


class TracedSimulate:
    """Stands in for ``repro.sim.simulate`` inside the cluster module
    during a traced run: the same Engine, constructed here so that its
    scheduler and collector are wrapped and its events counted."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __call__(self, arrivals, scheduler, cores, **kwargs):
        engine, result = run_engine(
            self.tracer, arrivals, scheduler, cores,
            collector=MetricsCollector(cores), collector_layer="sim.metrics", **kwargs,
        )
        for key, value in engine_values(engine, result, arrivals[0].time_ms).items():
            self.tracer.counts[f"fleet.{key}"] += value
        return result


class ClusterCell(Cell):
    """One ``simulate_cluster_robust`` run with shared replicas and an
    adaptive replication controller."""

    def __init__(self, key: str, base: Workload, table, rps: float, queries: int,
                 seed: int, servers: int, fault_factory: Callable[[int], FaultPlan],
                 make_controller: Callable[[Tracer | None], Any]) -> None:
        self.key = key
        self.base = base
        self.table = table
        self.rps = rps
        self.queries = queries
        self.seed = seed
        self.servers = servers
        self.fault_factory = fault_factory
        self.make_controller = make_controller

    def run(self, tracer: Tracer | None) -> None:
        self.result = self.telemetry = None
        self.sampler = RecordingSampler(self.base.sampler)
        sampler: Any = self.sampler
        kwargs: dict[str, Any] = {}
        if tracer is not None:
            sampler = tracer.wrap(sampler, "workloads.sample", "workloads")
            # Hedge outcomes are only visible as telemetry spans.
            self.telemetry = kwargs["telemetry"] = Telemetry()
        workload = Workload(
            name=self.base.name, sampler=sampler, speedup_model=self.base.speedup_model,
            max_degree=self.base.max_degree, profile_size=self.base.profile_size,
            profile_seed=self.base.profile_seed,
        )
        table = self.table
        restore = cluster_simulation.simulate
        if tracer is not None:
            cluster_simulation.simulate = TracedSimulate(tracer)
        try:
            with _span(tracer, "cluster.simulation", "cluster.simulation.run"):
                self.result = cluster_simulation.simulate_cluster_robust(
                    scheduler_factory=lambda: FMScheduler(table, boosting=False),
                    workload=workload,
                    num_servers=self.servers,
                    num_queries=self.queries,
                    process=PoissonProcess(self.rps),
                    cores=bing_mod.CORES,
                    quantum_ms=bing_mod.QUANTUM_MS,
                    spin_fraction=bing_mod.SPIN_FRACTION,
                    seed=self.seed,
                    fault_plan_factory=self.fault_factory,
                    controller=self.make_controller(tracer),
                    replica_mode="shared",
                    **kwargs,
                )
        finally:
            cluster_simulation.simulate = restore
        with _span(tracer, "cluster.simulation", "cluster.simulation.summarize"):
            self.p99 = self.result.cluster_tail_ms(0.99)
        if tracer is not None:
            tracer.counts["workloads.items"] += sum(len(d) for d in self.sampler.draws)
            tracer.counts["cluster.simulation.hedges_won"] += sum(
                1 for span in self.telemetry.tracer.spans
                if span.track == "cluster.hedge" and span.attrs.get("won")
            )

    def check(self, error: str | None) -> Outcome:
        out = Outcome(error=error)
        result = self.result
        if result is None:
            return out
        latency = np.asarray(result.query_latencies_ms, dtype=float)
        out.finished = int(np.isfinite(latency).sum())
        if out.finished != self.queries or not np.all(np.asarray(result.quality) == 1.0):
            out.violations.append(
                f"conservation: {self.queries} queries, {out.finished} answered in full"
            )
        # The floor applies to the first-pass shard latencies: a retried
        # shard's latency is re-drawn from the server's latency marginal
        # (a documented approximation), so it has no per-request floor.
        draws = self.sampler.draws[: self.servers]
        if len(draws) == self.servers and all(len(d) == self.queries for d in draws):
            for shard, demands in zip(result.server_latencies_ms, draws):
                out.violations += floor_violations(
                    self.base, np.asarray(shard), demands, bing_mod.CORES, 1.0
                )
        else:
            out.violations.append("latency floor: shard demands were not drawn as expected")
        out.latencies = latency
        out.values = {"p99_ms": self.p99}
        out.counts = {
            "cluster.adaptive.transitions": len(result.controller.transitions),
            "cluster.simulation.hedges_sent": int(result.hedges_sent),
        }
        for stats in result.server_fault_stats:
            for key, value in fault_counts(stats).items():
                out.counts[key] = out.counts.get(key, 0) + value
        self.result = self.sampler = self.telemetry = None
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class BenchWorkload:
    """A set-up, ``INPUTS`` input sets of cells, and the simulated
    metrics pooled over them."""

    name = ""
    #: Independent input sets per run (sub-seeds of ``--seed``).
    INPUTS = 1
    #: p99 limit behind ``fm_capacity_rps``.
    LIMIT_MS = 200.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: list[list[Cell]] = []

    def setup(self, tracer: Tracer | None) -> None:
        self.prepare(tracer)
        self.inputs = [self.cells(k, tracer) for k in range(self.INPUTS)]

    def prepare(self, tracer: Tracer | None) -> None:
        """Build what every input set shares (tables, topologies)."""

    def cells(self, k: int, tracer: Tracer | None) -> list[Cell]:
        raise NotImplementedError  # pragma: no cover - interface

    def simulated(self, runs: list[dict[str, Outcome]]) -> dict[str, float]:
        """``sim_p50_ms``, ``sim_p99_ms``, ``fm_capacity_rps`` and any
        ``model.*`` values, pooled over the input sets' outcomes."""
        raise NotImplementedError  # pragma: no cover - interface

    @staticmethod
    def pooled(runs: list[dict[str, Outcome]], key: str) -> np.ndarray:
        parts = [run[key].latencies for run in runs if run[key].latencies is not None]
        if not parts:
            raise RuntimeError(f"cell {key} failed in every input set")
        return np.concatenate(parts)

    def headline(self, runs, reference: str, grid: dict[float, str]) -> dict[str, float]:
        """Quantiles at the reference cell; capacity over the grid."""
        latencies = self.pooled(runs, reference)
        p99s = [quantile(self.pooled(runs, key), 0.99) for key in grid.values()]
        return {
            "sim_p50_ms": quantile(latencies, 0.50),
            "sim_p99_ms": quantile(latencies, 0.99),
            "fm_capacity_rps": interpolated_capacity(list(grid), p99s, self.LIMIT_MS),
        }


class BingSweep(BenchWorkload):
    name = "bing-sweep"
    INPUTS = 5
    #: Requests per cell, by offered rate.  One size on the 100-350 grid
    #: keeps common random numbers across rates (the same demands and
    #: the same unit gaps, rescaled), which steadies the interpolated
    #: capacity; the overloaded run past saturation is shorter, because
    #: its backlog makes every event cost O(requests in system).
    REQUESTS = {100.0: 1500, 180.0: 1500, 280.0: 1500, 350.0: 1500, 450.0: 1000}
    REFERENCE_RPS = 180.0

    def prepare(self, tracer: Tracer | None) -> None:
        self.workload = bing_mod.bing_workload(profile_size=FULL.profile_size)
        self.table = build_table(
            self.workload, BING_STEP_MS, bing_mod.TARGET_PARALLELISM, bing_mod.MAX_DEGREE,
            tracer,
        )

    def cells(self, k: int, tracer: Tracer | None) -> list[Cell]:
        table = self.table
        policies: dict[str, Callable[[], Any]] = {
            "FM": lambda: FMScheduler(table, boosting=False),
            "FIX-3": lambda: FixedScheduler(3, load_protection=30),
            "Adaptive": lambda: AdaptiveScheduler(
                bing_mod.MAX_DEGREE, bing_mod.TARGET_PARALLELISM
            ),
            "SEQ": SequentialScheduler,
        }
        cells: dict[str, SimCell] = {}
        for rps, n in self.REQUESTS.items():
            arrivals = make_arrivals(self.workload, n, rps, derive_seed(self.seed, 1, k), tracer)
            for policy, make in policies.items():
                key = f"{policy}@{rps:g}"
                cells[key] = SimCell(
                    key, self.workload, arrivals, make, bing_mod.CORES,
                    quantum_ms=bing_mod.QUANTUM_MS, spin_fraction=bing_mod.SPIN_FRACTION,
                )
        ref = f"@{self.REFERENCE_RPS:g}"
        return [
            *cells.values(),
            DiffCell("diff" + ref, cells["FM" + ref], cells["FIX-3" + ref], self.seed),
        ]

    def simulated(self, runs: list[dict[str, Outcome]]) -> dict[str, float]:
        ref = f"@{self.REFERENCE_RPS:g}"
        grid = {rps: f"FM@{rps:g}" for rps in self.REQUESTS if rps <= 350.0}
        out = self.headline(runs, "FM" + ref, grid)
        adaptive = quantile(self.pooled(runs, "Adaptive" + ref), 0.99)
        out["model.fm_tail_cut_pct"] = 100.0 * (1.0 - out["sim_p99_ms"] / adaptive)
        return out


class LuceneLongrun(BenchWorkload):
    name = "lucene-longrun"
    INPUTS = 4
    RATES = (30.0, 33.0, 36.0)
    EPOCHS_MS = (0.0, 1e6, 1e7, 1e8)
    REFERENCE_RPS = 36.0
    REQUESTS = 2000
    #: The grid sits below Lucene's knee (45-48 RPS), where FM's p99 is
    #: set by the demand tail, not queueing: capacity reads the top grid
    #: rate unless the p99 passes this limit.
    LIMIT_MS = 600.0

    def prepare(self, tracer: Tracer | None) -> None:
        self.workload = lucene_mod.lucene_workload(profile_size=FULL.profile_size)
        self.table = build_table(
            self.workload, FULL.step_ms, lucene_mod.TARGET_PARALLELISM,
            lucene_mod.MAX_DEGREE, tracer,
        )

    def cells(self, k: int, tracer: Tracer | None) -> list[Cell]:
        table = self.table
        cells: list[Cell] = []
        for rps in self.RATES:
            reference = None
            for epoch in self.EPOCHS_MS:
                cell = StreamCell(
                    f"FM@{rps:g}+{epoch:g}", self.workload, self.REQUESTS, rps,
                    derive_seed(self.seed, 2, k), epoch, lambda: FMScheduler(table),
                    lucene_mod.CORES, reference,
                    quantum_ms=lucene_mod.QUANTUM_MS, spin_fraction=lucene_mod.SPIN_FRACTION,
                    attribution=False,
                )
                reference = reference or cell
                cells.append(cell)
        return cells

    def simulated(self, runs: list[dict[str, Outcome]]) -> dict[str, float]:
        grid = {rps: f"FM@{rps:g}+0" for rps in self.RATES}
        return self.headline(runs, f"FM@{self.REFERENCE_RPS:g}+0", grid)


def traced_slo(slo: SLOMonitor, tracer: Tracer | None):
    if tracer is None:
        return slo
    return Proxy(slo, tracer, "observe.slo", ("observe", "status", "reset"))


class FleetAdaptive(BenchWorkload):
    name = "fleet-adaptive"
    INPUTS = 4
    SERVERS = 3
    SATURATION_RPS = 400.0
    RHOS = (0.3, 0.5, 0.7, 0.9)
    #: The controller's mode is still settled at low load; the cluster
    #: p99 at 0.5 swings with its mode history from seed to seed.
    REFERENCE_RHO = 0.3
    FLIP_RHO = 0.4
    QUERIES = 1000
    FLIP_QUERIES = 600
    WINDOW_MS = 100.0
    LIMIT_MS = 500.0

    def _controller(self, tracer: Tracer | None):
        slo = SLOMonitor(
            SLOTarget(percentile=0.99, threshold_ms=self.LIMIT_MS),
            short_window_ms=2 * self.WINDOW_MS,
            long_window_ms=8 * self.WINDOW_MS,
            min_samples=10,
        )
        controller = AdaptiveReplicationController(
            ControllerConfig(
                window_ms=self.WINDOW_MS, cores=bing_mod.CORES, steady_at=0.60,
                utilization_smoothing=0.75,
            ),
            slo=traced_slo(slo, tracer),
        )
        if tracer is None:
            return controller
        return Proxy(controller, tracer, "cluster.adaptive", ("observe", "flush", "reset"))

    def prepare(self, tracer: Tracer | None) -> None:
        self.workload = bing_mod.bing_workload(profile_size=FULL.profile_size)
        self.table = build_table(
            self.workload, BING_STEP_MS, bing_mod.TARGET_PARALLELISM, bing_mod.MAX_DEGREE,
            tracer,
        )

    def cells(self, k: int, tracer: Tracer | None) -> list[Cell]:
        straggler_seed = derive_seed(self.seed, 3, k, 0)

        def stragglers(server: int) -> FaultPlan:
            return FaultPlan(
                straggler_rate=0.08, straggler_mu=1.0, straggler_sigma=0.4,
                seed=straggler_seed + 1009 * server,
            )

        cells: list[Cell] = [
            ClusterCell(
                f"adaptive@{rho:g}", self.workload, self.table, rho * self.SATURATION_RPS,
                self.QUERIES, derive_seed(self.seed, 3, k, 1), self.SERVERS,
                stragglers, self._controller,
            )
            for rho in self.RHOS
        ]
        flip_rps = self.FLIP_RHO * self.SATURATION_RPS
        flip = overload_flip(
            seed=derive_seed(self.seed, 3, k, 2),
            horizon_ms=self.FLIP_QUERIES / flip_rps * 1000.0,
            cores_lost=bing_mod.CORES - 2,
            stall_ms=2 * bing_mod.QUANTUM_MS,
        )
        cells.append(
            ClusterCell(
                f"flip@{self.FLIP_RHO:g}", self.workload, self.table, flip_rps,
                self.FLIP_QUERIES, derive_seed(self.seed, 3, k, 3), self.SERVERS, flip,
                self._controller,
            )
        )
        return cells

    def simulated(self, runs: list[dict[str, Outcome]]) -> dict[str, float]:
        grid = {rho * self.SATURATION_RPS: f"adaptive@{rho:g}" for rho in self.RHOS}
        return self.headline(runs, f"adaptive@{self.REFERENCE_RHO:g}", grid)


class HeteroLive(BenchWorkload):
    name = "hetero-live"
    INPUTS = 8
    CORES = 16
    RATES = (150.0, 250.0, 350.0)
    REFERENCE_RPS = 250.0
    REQUESTS = 2000
    WINDOWS = 60
    #: Cores the flip takes away: it dents capacity without pushing the
    #: reference load past it (a deep overload makes the p99 a coin toss
    #: on how much backlog piles up).
    FLIP_CORES_LOST = 4

    def prepare(self, tracer: Tracer | None) -> None:
        self.workload = bing_mod.bing_workload(profile_size=FULL.profile_size)
        with _span(tracer, "hetero", "hetero.topology"):
            self.topology = Topology.big_little(
                big=4, little=12, big_idle_power_w=0.25, little_idle_power_w=0.1
            )
        self.table = build_table(
            self.workload, BING_STEP_MS, self.topology.equivalent_capacity(),
            bing_mod.MAX_DEGREE, tracer,
        )

    def cells(self, k: int, tracer: Tracer | None) -> list[Cell]:
        table = self.table
        fastest = max(pool.effective_speed for pool in self.topology.pools)
        cells: list[Cell] = []
        for rps in self.RATES:
            arrivals = make_arrivals(
                self.workload, self.REQUESTS, rps, derive_seed(self.seed, 4, k), tracer
            )
            horizon_ms = self.REQUESTS / rps * 1000.0
            plan = overload_flip(
                seed=derive_seed(self.seed, 4, k, 1), horizon_ms=horizon_ms,
                cores_lost=self.FLIP_CORES_LOST, stall_ms=2 * bing_mod.QUANTUM_MS,
            )(0)
            cells.append(
                SimCell(
                    f"EA-FM@{rps:g}", self.workload, arrivals,
                    lambda: EnergyAwareFMScheduler(table), self.CORES, speed=fastest,
                    make_live=self._live_plane(horizon_ms / self.WINDOWS),
                    quantum_ms=bing_mod.QUANTUM_MS, spin_fraction=bing_mod.SPIN_FRACTION,
                    topology=self.topology, fault_plan=plan,
                )
            )
        return cells

    def _live_plane(self, window_ms: float) -> Callable[[Tracer | None], Any]:
        def make(tracer: Tracer | None):
            slo = SLOMonitor(
                SLOTarget(percentile=0.99, threshold_ms=120.0),
                short_window_ms=2 * window_ms,
                long_window_ms=8 * window_ms,
                min_samples=20,
            )
            plane = LivePlane(
                window_ms=window_ms, capacity=2 * self.WINDOWS, slo=traced_slo(slo, tracer),
                detector=ChangepointDetector(warmup=4, threshold=3.5),
            )
            if tracer is None:
                return plane
            return Proxy(plane, tracer, "observe.live", ("observe", "annotate", "flush"))

        return make

    def simulated(self, runs: list[dict[str, Outcome]]) -> dict[str, float]:
        reference = f"EA-FM@{self.REFERENCE_RPS:g}"
        out = self.headline(runs, reference, {rps: f"EA-FM@{rps:g}" for rps in self.RATES})
        energy = sum(run[reference].values["energy_j"] for run in runs)
        out["model.j_per_query"] = energy / len(self.pooled(runs, reference))
        return out


WORKLOADS: dict[str, type[BenchWorkload]] = {
    cls.name: cls for cls in (BingSweep, LuceneLongrun, FleetAdaptive, HeteroLive)
}
