"""Time-shift invariance: a server's latencies must not depend on its
uptime.  Replaying the same trace offset by a large epoch may move each
latency only by clock rounding — a few ulps of the epoch, not a
different outcome and never an error.

An oracle independent of the engine's implementation; it catches the
long-horizon completion crash (uptimes >= 1e7 ms raised
``SimulationError`` before the first completion).
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.experiments.config import TINY
from repro.experiments.tables import lucene_table
from repro.hetero import Topology
from repro.schedulers import (
    AdaptiveScheduler,
    FixedScheduler,
    FMScheduler,
    SequentialScheduler,
)
from repro.sim import ArrivalSpec, Engine, SimRequest, StreamingCollector
from repro.workloads import lucene as lucene_mod
from repro.workloads.arrivals import PoissonProcess
from tests.sim.test_engine import _CURVE

REQUESTS = 100
RPS = 36.0
SEED = 11
#: Allowed drift of each latency, in ulps of the epoch clock.  A latency
#: is the difference of two rounded epoch-scale clock readings; this
#: trace drifts by about one ulp at every epoch.
SHIFT_ULPS = 16


class _LatencyByRid(StreamingCollector):
    """The streaming collector, plus each completed request's latency."""

    def __init__(self, cores: int) -> None:
        super().__init__(cores)
        self.latency: dict[int, float] = {}

    def record(self, request) -> None:
        super().record(request)
        self.latency[request.rid] = request.finish_ms - request.arrival_ms


#: The two rate-refresh paths: the homogeneous server, and per-pool
#: processor sharing on a big/little split of the same 15 cores.
TOPOLOGIES = {
    "homogeneous": None,
    "big-little": Topology.big_little(big=4, little=lucene_mod.CORES - 4),
}


#: FM, plus the fixed and adaptive baselines: the crash hit every
#: policy, each reaching completions through its own degree changes.
POLICIES = {
    "fm": lambda: FMScheduler(lucene_table(TINY)),
    "fix4": lambda: FixedScheduler(4),
    "adaptive": lambda: AdaptiveScheduler(
        max_degree=4, target_parallelism=float(lucene_mod.CORES)
    ),
}


def _run(
    epoch_ms: float,
    topology: Topology | None,
    policy: str = "fm",
    engine_cls: type[Engine] = Engine,
) -> dict[int, float]:
    """Stream the seeded Lucene trace, shifted to ``epoch_ms``, through
    ``policy`` on the 15-core server; return ``{rid: latency}``."""
    workload = lucene_mod.lucene_workload(profile_size=TINY.profile_size)
    stream = (
        ArrivalSpec(spec.time_ms + epoch_ms, spec.seq_ms, spec.speedup, spec.tag)
        for spec in workload.arrival_stream(REQUESTS, PoissonProcess(RPS), seed=SEED)
    )
    collector = _LatencyByRid(lucene_mod.CORES)
    engine_cls(
        cores=lucene_mod.CORES,
        scheduler=POLICIES[policy](),
        quantum_ms=lucene_mod.QUANTUM_MS,
        spin_fraction=lucene_mod.SPIN_FRACTION,
        attribution=False,
        collector=collector,
        topology=topology,
    ).run(stream)
    return collector.latency


@pytest.fixture(
    scope="module",
    params=[(t, p) for t in sorted(TOPOLOGIES) for p in POLICIES],
    ids=lambda param: "-".join(param),
)
def server(request) -> tuple[Topology | None, str, dict[int, float]]:
    """A topology, a policy, and their epoch-0 latencies."""
    name, policy = request.param
    topology = TOPOLOGIES[name]
    latency = _run(0.0, topology, policy)
    assert len(latency) == REQUESTS
    return topology, policy, latency


@pytest.mark.parametrize("epoch_ms", [1e6, 1e7, 1e8, 1e9])
def test_latencies_invariant_under_time_shift(server, epoch_ms):
    topology, policy, reference = server
    shifted = _run(epoch_ms, topology, policy)
    assert shifted.keys() == reference.keys()
    tolerance = SHIFT_ULPS * math.ulp(epoch_ms)
    drift = max(abs(shifted[rid] - reference[rid]) for rid in reference)
    assert drift <= tolerance, (
        f"latency moved {drift!r} ms at epoch {epoch_ms:g} (tolerance {tolerance!r})"
    )


class _NamingCheck(Engine):
    """Asserts that each live completion event names a request that
    finishes at it."""

    def _handle_completion(self, event) -> None:
        before = set(self._running)
        super()._handle_completion(event)
        assert event.request_id in before - set(self._running)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("epoch_ms", [0.0, 1e8])
def test_completion_event_names_a_finishing_request(topology, epoch_ms):
    """Both rate-refresh paths put the earliest-ETA rid on the event."""
    latency = _run(epoch_ms, TOPOLOGIES[topology], engine_cls=_NamingCheck)
    assert len(latency) == REQUESTS


class TestRoundedCompletion:
    """The completion event names the request whose ETA fired it; when
    no running request passed the absolute finish tolerance, that
    request finishes only if its residue is clock rounding."""

    @staticmethod
    def _engine_with(remaining: float, rate: float, now_ms: float) -> Engine:
        engine = Engine(cores=4, scheduler=SequentialScheduler())
        request = SimRequest(7, arrival_ms=now_ms - 50.0, seq_ms=40.0, speedup=_CURVE)
        request.start(now_ms - 50.0, degree=2)
        request.remaining_work = remaining
        request.rate = rate
        engine._running[request.rid] = request
        engine.now_ms = now_ms
        return engine

    def test_rounding_residue_finishes_the_named_request(self):
        now = 1e8
        residue = 1.5 * math.ulp(now)  # > the absolute 1e-9 finish tolerance
        engine = self._engine_with(residue, rate=2.0, now_ms=now)
        request = engine._rounded_completion(7)
        assert request.rid == 7
        assert request.remaining_work == 0.0

    def test_real_leftover_work_raises_with_context(self):
        engine = self._engine_with(0.25, rate=1.5, now_ms=1e8)
        with pytest.raises(SimulationError) as excinfo:
            engine._rounded_completion(7)
        message = str(excinfo.value)
        for fact in ("request 7", "now_ms=100000000.0", "0.25", "rate 1.5"):
            assert fact in message
