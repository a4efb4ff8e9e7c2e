"""CI gate: fail when any ``run_all.py`` section regresses.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --scale quick --out-dir fresh
    python benchmarks/check_regression.py fresh/BENCH_*.json

Every argument is a fresh report.  Its baseline is the committed
repo-root ``BENCH_<report["benchmark"]>.json``.  ``CHECKS`` is the whole
gate: one ``(benchmark, dotted path, op, bound)`` row per check.  A
``*`` path segment maps over a list.  The ops:

* ``true`` / ``false``: the value is that boolean.
* ``>=`` / ``<=`` / ``==``: the value compared with ``bound``.
* ``all<=``: a non-empty list whose every element is ``<= bound``.
* ``band``: ``fresh >= committed * (1 - bound)``, the cross-run
  throughput floor.
* ``ceiling``: ``fresh <= committed * (1 + bound)``, the cross-run
  cost ceiling.

The two cross-run widths absorb runner-to-runner hardware variance;
every other row is seeded or same-machine, so it holds on any host.

A row fails when its value is missing, of the wrong type, non-finite
or an empty list.  After the rows the gate prints the largest relative
deltas over both reports' numeric leaves (informational, never gated).

Exit code 0 = pass, 1 = regression, 2 = bad input (unreadable report,
unknown benchmark, or a missing path).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECKS = (
    # Engine hot path (DESIGN.md §10, §14).  Requests, not events: tick
    # elision shrinks the event count by design.
    ("engine", "single_process.requests_per_s", "band", 0.25),
    # Same host, same run as the frozen repro.sim._baseline reference,
    # and the engine's contract with it.
    ("engine", "single_process.speedup_vs_reference", ">=", 1.5),
    ("engine", "single_process.decisions_identical", "true", None),
    ("engine", "single_process.max_rel_diff", "<=", 1e-11),
    # A streamed mega-run holds O(running set) memory (MiB).
    ("engine", "mega.stream.peak_traced_mb", "<=", 64.0),
    ("engine", "mega.sharded.workers_identical", "true", None),
    # Big/little pools and energy accounting (DESIGN.md §12).
    ("hetero", "bit_identity.decisions_identical", "true", None),
    ("hetero", "bit_identity.max_rel_diff", "<=", 1e-11),
    ("hetero", "bit_identity.energy_accounted", "true", None),
    # EA-FM strictly dominates FIX-3 (p99 and J/query) at some load.
    ("hetero", "frontier.dominated_points", ">=", 1),
    ("hetero", "determinism.results_identical", "true", None),
    ("hetero", "engine_throughput.requests_per_s", "band", 0.30),
    # Live observability plane (DESIGN.md §13).
    ("observe", "live_tail.flag_leads_breach", "true", None),
    ("observe", "live_tail.replay_matches_analyze", "true", None),
    # A fully armed plane's fixed price per completion, in µs.
    ("observe", "live_plane.on_minus_off_us_per_completion", "ceiling", 0.50),
    ("observe", "analyzer.spans_per_s", "band", 0.30),
    ("observe", "live_plane.off_requests_per_s", "band", 0.30),
    # Adaptive replication (DESIGN.md §11): adaptive p99 over the best
    # static policy's at every load point of the phase diagram.
    ("replication", "phase_diagram.points.*.adaptive_vs_best_static", "all<=", 1.10),
    ("replication", "flip.deterministic_replay", "true", None),
    ("replication", "flip.brownouts", ">=", 1),
    ("replication", "observe_path.observations_per_s", "band", 0.30),
    # Run ledger and repro diff (DESIGN.md §15).
    ("diff", "null_test.self_identical", "true", None),
    ("diff", "null_test.self_null", "true", None),
    ("diff", "null_test.cross_identical", "false", None),
    ("diff", "versus.p99_significant", "true", None),
    # FIX admits at once, so its overload is booked as contention.
    ("diff", "versus.top_phase", "==", "contention_ms"),
    ("diff", "determinism.repeat_identical", "true", None),
    ("diff", "determinism.workers_identical", "true", None),
    ("diff", "determinism.workers_diff_identical", "true", None),
    ("diff", "throughput.diffs_per_s", "band", 0.40),
    ("diff", "throughput.ledger_roundtrips_per_s", "band", 0.40),
)

_MISSING = object()
#: Ops judged against the committed report's value.
_CROSS_RUN = ("band", "ceiling")


class BadInput(Exception):
    """A report the gate cannot read (exit 2)."""


def resolve(report, path: str):
    """Walk dotted ``path`` into ``report``; ``*`` maps over a list.

    Returns ``_MISSING`` when a key is absent or a ``*`` meets a
    non-list.
    """
    node = report
    keys = path.split(".")
    for i, key in enumerate(keys):
        if key == "*":
            if not isinstance(node, list):
                return _MISSING
            rest = ".".join(keys[i + 1:])
            items = [resolve(item, rest) if rest else item for item in node]
            return _MISSING if _MISSING in items else items
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def evaluate(op: str, bound, value, committed=None) -> bool:
    """One row's verdict; malformed values fail rather than pass."""
    if op == "true":
        return value is True
    if op == "false":
        return value is False
    if op == "==":
        return type(value) is type(bound) and value == bound
    if op == "all<=":
        return (
            isinstance(value, list)
            and bool(value)
            and all(_finite(v) and v <= bound for v in value)
        )
    if not _finite(value):
        return False
    if op == ">=":
        return value >= bound
    if op == "<=":
        return value <= bound
    if op == "band":
        return _finite(committed) and value >= committed * (1.0 - bound)
    if op == "ceiling":
        return _finite(committed) and value <= committed * (1.0 + bound)
    raise ValueError(f"unknown op {op!r}")


def check(report: dict, baseline: dict) -> list[tuple[str, bool | None]]:
    """``(line, verdict)`` for each ``CHECKS`` row of ``report``'s
    benchmark; the verdict is ``None`` when the path is absent from
    the report or, for a band or ceiling, from the baseline."""
    benchmark = report.get("benchmark")
    verdicts = []
    for row_benchmark, path, op, bound in CHECKS:
        if row_benchmark != benchmark:
            continue
        value = resolve(report, path)
        committed = resolve(baseline, path) if op in _CROSS_RUN else None
        if value is _MISSING or committed is _MISSING:
            side = "report" if value is _MISSING else "baseline"
            verdicts.append((f"MISSING {benchmark} {path} (not in {side})", None))
            continue
        passed = evaluate(op, bound, value, committed)
        if op == "band":
            floor = committed * (1.0 - bound) if _finite(committed) else math.nan
            rule = f"band -{bound:.0%}: {value!r} vs committed {committed!r}, floor {floor:,.1f}"
        elif op == "ceiling":
            cap = committed * (1.0 + bound) if _finite(committed) else math.nan
            rule = f"ceiling +{bound:.0%}: {value!r} vs committed {committed!r}, cap {cap:,.3f}"
        elif op in ("true", "false"):
            rule = f"is {op}: {value!r}"
        else:
            rule = f"{op} {bound!r}: {value!r}"
        verdicts.append((f"{'ok  ' if passed else 'FAIL'} {benchmark} {path} {rule}", passed))
    return verdicts


def numeric_leaves(node, prefix: str = "") -> dict[str, float]:
    """Every finite non-boolean number in ``node``, by dotted path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {prefix[:-1]: float(node)} if _finite(node) else {}
    leaves = {}
    for key, value in items:
        leaves.update(numeric_leaves(value, f"{prefix}{key}."))
    return leaves


def top_deltas(report: dict, baseline: dict, max_rows: int = 10) -> list[str]:
    """The largest relative deltas of ``report`` vs ``baseline``."""
    fresh, committed = numeric_leaves(report), numeric_leaves(baseline)
    deltas = []
    for name in sorted(set(fresh) & set(committed)):
        a, b = fresh[name], committed[name]
        if a != b:
            deltas.append((abs(a - b) / max(abs(a), abs(b)), name, a, b))
    deltas.sort(reverse=True)
    lines = [
        f"  {name}: {a:g} vs {b:g} ({(a - b) / max(abs(b), 1e-12):+.1%})"
        for _, name, a, b in deltas[:max_rows]
    ]
    if len(deltas) > max_rows:
        lines.append(f"  ... and {len(deltas) - max_rows} more changed metrics")
    return lines


def load(path: str | Path) -> dict:
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadInput(f"{path}: {exc}") from exc
    if not isinstance(report, dict):
        raise BadInput(f"{path}: not a JSON object")
    return report


def baseline_for(report: dict, path: str | Path) -> dict:
    benchmark = report.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark.isidentifier():
        raise BadInput(f"{path}: no valid 'benchmark' name")
    return load(REPO_ROOT / f"BENCH_{benchmark}.json")


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths or any(p.startswith("-") for p in paths):
        print(__doc__, file=sys.stderr)
        return 2
    verdicts = []
    try:
        for path in paths:
            report = load(path)
            baseline = baseline_for(report, path)
            print(f"{path} vs committed BENCH_{report['benchmark']}.json:")
            for line, verdict in check(report, baseline):
                print(line)
                verdicts.append(verdict)
            deltas = top_deltas(report, baseline)
            print("  top deltas vs committed:" if deltas else "  no deltas vs committed")
            for line in deltas:
                print(line)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if None in verdicts:
        print("error: a checked path is missing", file=sys.stderr)
        return 2
    if False in verdicts:
        print("FAIL", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
