"""Command-line entry point: ``python -m repro`` / ``repro-fm``.

Runs any experiment from the EXPERIMENTS.md index and prints its
tables, e.g.::

    repro-fm fig8 --scale quick
    repro-fm all --scale full
    repro-fm robustness --trace trace.json   # then open chrome://tracing

``--trace`` installs an ambient :class:`~repro.telemetry.Telemetry`
pipeline for the run and writes every span the instrumented layers
emit (sim, search, runtime, cluster) as Chrome/Perfetto trace-event
JSON.

The ``repro`` alias adds subcommands for offline analysis::

    repro analyze trace.json --phi 0.99      # tail attribution report
    repro diff fig8#1 fig8#2                 # cross-run diff with CIs

(any other ``repro ...`` invocation behaves exactly like ``repro-fm``).

``--ledger DIR`` persists every :class:`~repro.observe.ledger.RunEntry`
an experiment offers (config fingerprint, seed, histogram state,
attribution, events) into the append-only run ledger at ``DIR``, making
the run a ``repro diff`` operand.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.ablations import ABLATIONS
from repro.experiments.config import FULL, QUICK, TINY, Scale, default_scale
from repro.experiments.extensions import EXTENSIONS
from repro.experiments.figures import ALL_EXPERIMENTS
from repro.experiments.hetero_energy import HETERO_ENERGY
from repro.experiments.live_tail import LIVE_TAIL
from repro.experiments.mega_sweep import MEGA_SWEEP
from repro.experiments.replication_phase import REPLICATION_PHASE
from repro.experiments.robustness import ROBUSTNESS
from repro.experiments.run_diff import RUN_DIFF
from repro.experiments.tail_attribution import TAIL_ATTRIBUTION
from repro.experiments.telemetry import TELEMETRY
from repro.telemetry import Telemetry, install
from repro.telemetry.export import write_chrome_trace

#: Every runnable experiment: the paper's figures/tables, the ablation
#: studies, the extension experiments, the robustness and replication
#: studies, the telemetry overhead study, and the tail-attribution study.
EXPERIMENTS = {
    **ALL_EXPERIMENTS,
    **ABLATIONS,
    **EXTENSIONS,
    **HETERO_ENERGY,
    **LIVE_TAIL,
    **MEGA_SWEEP,
    **REPLICATION_PHASE,
    **ROBUSTNESS,
    **RUN_DIFF,
    **TELEMETRY,
    **TAIL_ATTRIBUTION,
}

__all__ = ["main", "build_parser"]

_SCALES: dict[str, Scale] = {"tiny": TINY, "quick": QUICK, "full": FULL}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-fm",
        description=(
            "Reproduce tables/figures from 'Few-to-Many: Incremental "
            "Parallelism for Reducing Tail Latency in Interactive Services' "
            "(ASPLOS 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id from DESIGN.md / EXPERIMENTS.md, or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default=None,
        help="fidelity preset (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help=(
            "record telemetry spans from every instrumented layer and "
            "write Chrome/Perfetto trace-event JSON (open in "
            "chrome://tracing or ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=1,
        help=(
            "fan every load sweep across N worker processes "
            "(0 = all CPUs; results are identical to serial runs — "
            "see repro.parallel). Incompatible with --trace: sweep "
            "telemetry cannot cross process boundaries."
        ),
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        default=None,
        help=(
            "persist each experiment's run entries (RunCard + histogram/"
            "attribution/event artifacts) to the append-only ledger at "
            "DIR, ready for `repro diff`"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="K",
        default=1,
        help=(
            "split each sharded-sweep cell (e.g. mega-sweep) into K "
            "arrival shards (0 = one per worker). Unlike --workers "
            "this is a results knob: the shard decomposition defines "
            "which traces are simulated. See repro.parallel.run_sharded_sweep."
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``analyze`` dispatches to the trace-analysis CLI
    (:mod:`repro.observe.analyze`); everything else is an experiment id.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        from repro.observe.analyze import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "top":
        from repro.observe.top import main as top_main

        return top_main(argv[1:])
    if argv and argv[0] == "diff":
        from repro.observe.diff import main as diff_main

        return diff_main(argv[1:])
    args = build_parser().parse_args(argv)
    scale = _SCALES[args.scale] if args.scale else default_scale()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.trace and args.workers != 1:
        print(
            "error: --trace requires --workers 1 (worker processes "
            "cannot feed the parent's telemetry pipeline)",
            file=sys.stderr,
        )
        return 2
    telemetry = Telemetry() if args.trace else None
    from repro.parallel import default_shards, default_workers

    ledger = None
    if args.ledger:
        from repro.observe.ledger import RunLedger

        ledger = RunLedger(args.ledger)
    with install(telemetry), default_workers(args.workers), default_shards(args.shards):
        for name in names:
            started = time.perf_counter()
            result = EXPERIMENTS[name](scale)
            elapsed = time.perf_counter() - started
            print(result.render())
            if ledger is not None:
                run_ids = [ledger.append(entry) for entry in result.entries]
                if run_ids:
                    print(
                        f"[ledger: {len(run_ids)} entries -> {args.ledger} "
                        f"({run_ids[0]} .. {run_ids[-1]})]"
                    )
            print(f"\n[{name} completed in {elapsed:.1f}s at scale={scale.name}]\n")
    if telemetry is not None:
        write_chrome_trace(args.trace, telemetry)
        print(
            f"[trace: {len(telemetry.tracer.spans)} spans from "
            f"{len(telemetry.tracer.tracks())} tracks -> {args.trace}]"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
