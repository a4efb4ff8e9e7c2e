"""The repository benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bing-sweep --seed 1 --seconds 16 --trace 0

The run has three phases, all in this one process and thread:

1. *Set-up*, repeated ``SETUP_REPEATS`` times from cold: profiles, the
   offline interval-table search at FULL-scale settings (called
   directly, so no memoized table is reused), topologies, and the
   workload's input sets with their materialized arrivals.
   ``setup_s`` is the median.
2. *Measurement*: one pass over each input set's cells, then further
   passes cycling through the input sets while the next would still
   end within ``--seconds``.  A cell's time is process CPU time
   rescaled by the calibration kernel probed between cells (see
   ``calib.py``); ``sim_req_per_s`` sums, over every input set and
   cell, the median over the passes that ran it.  Simulated metrics pool the first pass of every
   input set, so they do not depend on how many passes ran.
3. *Checks*: each cell's oracles (``workloads.py``), and every repeated
   pass must reproduce its input set's first pass bit for bit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs a
traced pass over each input set, prints the per-layer metrics, and
writes the spans under ``.perfbench/`` in the working directory.

The last line of standard output is the result: ``correct`` (no oracle
broken, every pass identical), ``attempted`` and ``failed`` cells
(a cell fails when the program raises or an oracle breaks), and the
metrics with their units.  Exit status 0 means the line was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRACE_DIR = ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")


class Pass:
    """Timing and outcomes of one pass over one input set's cells."""

    def __init__(self, input_set: int) -> None:
        #: Which input set the pass ran.
        self.input_set = input_set
        self.raw: dict[str, float] = {}
        self.calibrated: dict[str, float] = {}
        self.outcomes: dict = {}
        #: Calibrated seconds per raw second, from the pass's probes.
        self.factor = 1.0

    @property
    def calibrated_total(self) -> float:
        return sum(self.calibrated.values())


def run_pass(workload, index: int, calibrator, tracer=None) -> Pass:
    """Run every cell of one input set; time only the program calls."""
    gc.collect()
    result = Pass(index % workload.INPUTS)
    mark = calibrator.mark()
    calibrator.probe()
    for position, cell in enumerate(workload.inputs[result.input_set]):
        if tracer is not None:
            tracer.cell = position
        error = None
        start = time.process_time()
        try:
            cell.run(tracer)
        except Exception as exc:  # the program failed this operation
            error = f"{type(exc).__name__}: {exc}"
        result.raw[cell.key] = time.process_time() - start
        calibrator.probe()
        result.outcomes[cell.key] = cell.check(error)
    result.factor = calibrator.factor(mark)
    result.calibrated = {key: raw * result.factor for key, raw in result.raw.items()}
    return result


def fingerprint(outcome) -> tuple:
    return (
        outcome.finished,
        tuple(sorted(outcome.values.items())),
        tuple(sorted(outcome.counts.items())),
        outcome.error,
        tuple(outcome.violations),
    )


def throughput(passes: list[Pass], attr: str) -> float:
    """Requests finished per second over all input sets: each cell of
    each input set contributes its median time (and count) over the
    passes that ran that input set."""
    groups: dict[int, list[Pass]] = {}
    for cell_pass in passes:
        groups.setdefault(cell_pass.input_set, []).append(cell_pass)
    finished = time_s = 0.0
    for group in groups.values():
        for key in group[0].raw:
            finished += statistics.median(p.outcomes[key].finished for p in group)
            time_s += statistics.median(getattr(p, attr)[key] for p in group)
    return finished / time_s


def layer_metrics(traced: list[tuple[Pass, object]], setup_tracer) -> dict:
    """Per-layer self times (calibrated), calls and exact counts, summed
    over the traced passes (one per input set)."""
    own: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    layer_calls: Counter = Counter()
    outcome_counts: Counter = Counter()
    integral = active = 0.0
    for cell_pass, tracer in traced:
        for layer, seconds in tracer.self_seconds().items():
            own[layer] += seconds * cell_pass.factor
        for name, n in tracer.calls().items():
            calls[name] += n
            layer_calls[tracer.layers[tracer.names.index(name)]] += n
        counts.update(tracer.counts)
        for outcome in cell_pass.outcomes.values():
            outcome_counts.update(outcome.counts)
            integral += outcome.values.get("system_integral", 0.0)
            active += outcome.values.get("active_ms", 0.0)
    integral += counts["fleet.system_integral"]
    active += counts["fleet.active_ms"]
    factor = statistics.median(p.factor for p, _ in traced)
    setup_own = {k: v * factor for k, v in setup_tracer.self_seconds().items()}
    events = counts["sim.engine.events"]
    hedges = outcome_counts["cluster.simulation.hedges_sent"]
    return {
        "sim.engine.self_s": (own["sim.engine"], "s"),
        "sim.engine.events": (events, "count"),
        "sim.engine.us_per_event": (1e6 * own["sim.engine"] / events if events else 0.0, "us"),
        "sim.engine.mean_in_system": (integral / active if active else 0.0, "requests"),
        "schedulers.self_s": (own["schedulers"], "s"),
        "schedulers.calls": (layer_calls["schedulers"], "count"),
        "schedulers.on_quantum.calls": (calls["schedulers.on_quantum"], "count"),
        "workloads.gen_s": (own["workloads"] + setup_own.get("workloads", 0.0), "s"),
        "workloads.arrivals": (
            counts["workloads.items"] + setup_tracer.counts["workloads.items"], "count"
        ),
        "core.search.build_s": (setup_own.get("core.search", 0.0), "s"),
        "core.search.table_rows": (setup_tracer.counts["core.search.table_rows"], "count"),
        "sim.metrics.summarize_s": (own["sim.metrics"], "s"),
        "sim.metrics.records": (calls["sim.metrics.record"], "count"),
        "sim.stream.record_s": (own["sim.stream"], "s"),
        "sim.stream.records": (calls["sim.stream.record"], "count"),
        "observe.slo.self_s": (own["observe.slo"], "s"),
        "observe.slo.calls": (layer_calls["observe.slo"], "count"),
        "cluster.adaptive.self_s": (own["cluster.adaptive"], "s"),
        "cluster.adaptive.calls": (layer_calls["cluster.adaptive"], "count"),
        "cluster.adaptive.transitions": (outcome_counts["cluster.adaptive.transitions"], "count"),
        "cluster.simulation.self_s": (own["cluster.simulation"], "s"),
        "cluster.simulation.hedges_sent": (hedges, "count"),
        "cluster.simulation.hedge_win_ratio": (
            counts["cluster.simulation.hedges_won"] / hedges if hedges else 0.0, "ratio"
        ),
        "observe.live.self_s": (own["observe.live"], "s"),
        "observe.live.calls": (layer_calls["observe.live"], "count"),
        "observe.live.windows": (outcome_counts["observe.live.windows"], "count"),
        "hetero.migrations": (outcome_counts["hetero.migrations"], "count"),
        "faults.stalls": (outcome_counts["faults.stalls"], "count"),
        "faults.stragglers": (outcome_counts["faults.stragglers"], "count"),
        "observe.ledger.self_s": (own["observe.ledger"], "s"),
        "observe.diff.self_s": (own["observe.diff"], "s"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from calib import Calibrator
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    calibrator = Calibrator()
    calibrator.probe()

    # -- 1. set-up, from cold, several times ---------------------------
    setup_raw = []
    setup_tracer = Tracer()
    mark = calibrator.mark()
    for repeat in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload](args.seed)
        traced = args.trace and repeat == SETUP_REPEATS - 1
        gc.collect()
        calibrator.probe()
        start = time.process_time()
        workload.setup(setup_tracer if traced else None)
        setup_raw.append(time.process_time() - start)
    calibrator.probe()
    setup_factor = calibrator.factor(mark)

    # -- 2. measurement ------------------------------------------------
    # Every input set runs once; then passes cycle through them again
    # while the next one would still end within the time.
    plain: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        index = len(plain)
        plain.append(run_pass(workload, index, calibrator))
        if args.trace and index < workload.INPUTS:
            tracer = Tracer()
            traced.append((run_pass(workload, index, calibrator, tracer), tracer))
        now = time.monotonic()
        if len(plain) >= workload.INPUTS and now + (now - start) / len(plain) > deadline:
            break

    # -- 3. checks -----------------------------------------------------
    every = plain + [p for p, _ in traced]
    correct = True
    for cell_pass in every:
        reference = plain[cell_pass.input_set]
        for key, outcome in cell_pass.outcomes.items():
            if outcome.violations:
                correct = False
                print(f"perfbench: {key}: {'; '.join(outcome.violations)}", file=sys.stderr)
            if fingerprint(outcome) != fingerprint(reference.outcomes[key]):
                correct = False
                print(f"perfbench: {key}: differs between passes", file=sys.stderr)
    for cell_pass in plain[: workload.INPUTS]:
        for key, outcome in cell_pass.outcomes.items():
            if outcome.error is not None:
                print(f"perfbench: {key}: failed: {outcome.error}", file=sys.stderr)
    attempted = sum(len(p.outcomes) for p in every)
    failed = sum(o.failed for p in every for o in p.outcomes.values())
    simulated = workload.simulated([p.outcomes for p in plain[: workload.INPUTS]])

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_raw) * setup_factor, "s"),
            "sim_req_per_s": (throughput(plain, "calibrated"), "req/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "cell_pass_ratio": (1.0 - failed / attempted, "ratio"),
            "sim_p50_ms": (simulated["sim_p50_ms"], "ms"),
            "sim_p99_ms": (simulated["sim_p99_ms"], "ms"),
            "fm_capacity_rps": (simulated["fm_capacity_rps"], "req/s"),
        }
    else:
        matching = plain[: len(traced)]
        overhead = sum(p.calibrated_total for p, _ in traced) / sum(
            p.calibrated_total for p in matching
        )
        metrics = layer_metrics(traced, setup_tracer)
        metrics.update({
            "model.fm_tail_cut_pct": (simulated.get("model.fm_tail_cut_pct", 0.0), "%"),
            "model.j_per_query": (simulated.get("model.j_per_query", 0.0), "J"),
            "host.calib_ops_per_s": (statistics.median(calibrator.rates), "1/s"),
            "host.setup_s_raw": (statistics.median(setup_raw), "s"),
            "host.sim_req_per_s_raw": (throughput(plain, "raw"), "req/s"),
            "host.trace_overhead_pct": (100.0 * (overhead - 1.0), "%"),
        })
        out_dir = Path.cwd() / TRACE_DIR / f"{args.workload}-seed{args.seed}"
        setup_tracer.save(out_dir / "setup.npz")
        for cell_pass, pass_tracer in traced:
            pass_tracer.save(out_dir / f"input{cell_pass.input_set}.npz")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
