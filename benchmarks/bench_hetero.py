"""Heterogeneous-engine benches -> ``BENCH_hetero.json``.

Four sections, two purposes:

* ``bit_identity`` attests the acceptance gate of the hetero subsystem:
  a single-pool speed-1.0 topology must reproduce the frozen
  ``repro.sim._baseline`` reference under the engine's contract
  (``repro.sim.contract``: the same decisions, every float within its
  bound) — energy accounting is an observer, never a perturbation.
* ``frontier`` re-runs the ``hetero-energy`` big/little sweep and
  records, per load point, whether EA-FM strictly dominates FIX-3
  (lower p99 AND fewer joules/query).  Seeded, so the dominated-point
  count is *hardware-independent*; the regression gate
  (``check_regression.py``) pins it ``>= 1``.
* ``determinism`` runs the same sweep serially and across 2 worker
  processes and attests identical tails and energy bills.
* ``engine_throughput`` times a saturated big/little run (requests/sec,
  hardware-dependent, wide regression band) and the cost of the pool
  machinery: the same trace and FM policy on a single-pool topology vs
  no topology (same schedule, so the difference is pure bookkeeping).

Run through the harness::

    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only hetero
"""

from __future__ import annotations

import platform

import numpy as np

from repro.experiments.config import Scale
from repro.experiments.hetero_energy import (
    RPS_SWEEP,
    big_little_topology,
    hetero_policies,
    run_hetero_sweep,
)
from repro.experiments.tables import bing_table, bing_table_for_capacity
from repro.hetero import Topology
from repro.parallel import default_workers
from repro.schedulers import FMScheduler
from repro.sim.contract import check_against_reference
from repro.sim.engine import Engine, simulate
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess

from run_all import TIMING_REPEATS, best_of



def _arrivals(scale: Scale, rps: float, seed: int):
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    return workload.arrivals(
        scale.num_requests * 2, PoissonProcess(rps), np.random.default_rng(seed)
    )


def bench_bit_identity(scale: Scale) -> dict:
    """Single-pool hetero run vs the frozen baseline, under the
    engine's contract."""
    table = bing_table(scale)
    arrivals = _arrivals(scale, 180.0, seed=42)
    contract = check_against_reference(
        arrivals,
        lambda: FMScheduler(table),
        topology=Topology.homogeneous(bing_mod.CORES),
        cores=bing_mod.CORES,
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )
    if not contract.holds:
        raise AssertionError(
            "hetero engine diverged from repro.sim._baseline on the "
            "degenerate single-pool topology — the energy/pool machinery "
            "is perturbing the homogeneous hot path"
        )
    return {
        "num_requests": len(arrivals),
        "decisions_identical": contract.mismatch is None,
        "max_rel_diff": max(contract.max_time_diff, contract.max_integral_diff),
        "energy_accounted": contract.result.energy is not None,
    }


def bench_frontier(scale: Scale) -> dict:
    """EA-FM vs FIX-3 on the big/little latency-energy frontier."""
    sweep = run_hetero_sweep(scale, big_little_topology())
    fix, ea = sweep["FIX-3"], sweep["EA-FM"]

    def jpq(series, i: int) -> float:
        values = [r.joules_per_query() for r in series.results[i]]
        return float(sum(values) / len(values))

    points = []
    for i, rps in enumerate(RPS_SWEEP):
        fix_jpq, ea_jpq = jpq(fix, i), jpq(ea, i)
        points.append(
            {
                "rps": rps,
                "fix3_p99_ms": round(fix.tail_ms[i], 2),
                "eafm_p99_ms": round(ea.tail_ms[i], 2),
                "fix3_j_per_query": round(fix_jpq, 5),
                "eafm_j_per_query": round(ea_jpq, 5),
                "dominates": bool(
                    ea.tail_ms[i] <= fix.tail_ms[i] and ea_jpq <= fix_jpq
                ),
            }
        )
    return {
        "topology": "4 big (2x) + 12 little",
        "points": points,
        "dominated_points": sum(1 for p in points if p["dominates"]),
    }


def bench_determinism(scale: Scale) -> dict:
    """The big/little sweep must not depend on the worker count."""
    topology = big_little_topology()
    with default_workers(1):
        serial = run_hetero_sweep(scale, topology)
    with default_workers(2):
        parallel = run_hetero_sweep(scale, topology)
    identical = all(
        serial[name].tail_ms == parallel[name].tail_ms
        and [
            r.energy.total_j for kept in serial[name].results for r in kept
        ]
        == [r.energy.total_j for kept in parallel[name].results for r in kept]
        for name in serial.policies()
    )
    if not identical:
        raise AssertionError("hetero sweep diverged across worker counts")
    return {
        "policies": sorted(serial.policies()),
        "load_points": len(RPS_SWEEP),
        "workers_compared": [1, 2],
        "results_identical": identical,
    }


def bench_engine_throughput(scale: Scale) -> dict:
    """Saturated big/little EA-FM run: events/sec; plus the single-pool
    topology's overhead over no topology on one trace and policy."""
    topology = big_little_topology()
    single_pool = Topology.homogeneous(topology.total_cores)
    fm_table = bing_table_for_capacity(scale, single_pool.equivalent_capacity())
    arrivals = _arrivals(scale, 600.0, seed=7)
    policies = hetero_policies(scale, topology)
    kwargs = dict(
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )

    state: dict = {}

    def hetero_run():
        engine = Engine(
            cores=topology.total_cores,
            scheduler=hetero_policies(scale, topology)["EA-FM"],
            topology=topology,
            **kwargs,
        )
        engine.run(arrivals)
        state["events"] = engine.events_processed

    def fm_run(pools):
        simulate(
            arrivals, FMScheduler(fm_table),
            cores=single_pool.total_cores, topology=pools, **kwargs,
        )

    hetero_s = best_of(hetero_run)
    single_pool_s = best_of(lambda: fm_run(single_pool))
    no_topology_s = best_of(lambda: fm_run(None))
    return {
        "num_requests": len(arrivals),
        "rps": 600.0,
        "policy": policies["EA-FM"].name,
        "events_processed": state["events"],
        "wall_s": round(hetero_s, 6),
        "events_per_s": round(state["events"] / hetero_s, 1),
        "requests_per_s": round(len(arrivals) / hetero_s, 1),
        "single_pool_wall_s": round(single_pool_s, 6),
        "no_topology_wall_s": round(no_topology_s, 6),
        "single_pool_overhead_pct": round(
            100.0 * (single_pool_s / no_topology_s - 1.0), 2
        ),
    }


def build_report(scale: Scale) -> dict:
    return {
        "benchmark": "hetero",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "bit_identity": bench_bit_identity(scale),
        "frontier": bench_frontier(scale),
        "determinism": bench_determinism(scale),
        "engine_throughput": bench_engine_throughput(scale),
        "notes": (
            "bit_identity, frontier, and determinism are fully seeded "
            "simulations: their attestations and the dominated-point "
            "count are hardware-independent and gated by "
            "check_regression.py (single-pool runs must make "
            "repro.sim._baseline's decisions with max_rel_diff <= "
            "1e-11; EA-FM must dominate "
            "FIX-3 at >= 1 big/little load point; worker counts must "
            "not change results). engine_throughput varies with "
            "hardware; the gate gives it a wide band. "
            "single_pool_overhead_pct runs one trace and one FM policy "
            "on 16 cores as a single-pool topology and with no "
            "topology: the schedules are bit-identical, so it is the "
            "cost of energy settlement alone (ungated, best-of-3 wall "
            "time, so within host noise of zero)."
        ),
    }
