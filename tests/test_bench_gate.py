"""The benchmark regression gate (``benchmarks/check_regression.py``).

The committed ``BENCH_<section>.json`` reports pin every checked path:
each passes against itself, and a one-value mutation fails exactly the
row that reads it.  Malformed values (NaN, wrong type, empty lists)
fail rather than pass, and unreadable input exits 2.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SECTIONS = ("engine", "hetero", "observe", "replication", "diff")
ROWS = [pytest.param(row, id=f"{row[0]}:{row[1]}") for row in gate.CHECKS]
NUMERIC_ROWS = [
    pytest.param(row, id=f"{row[0]}:{row[1]}")
    for row in gate.CHECKS
    if row[2] in (">=", "<=", "band", "ceiling", "all<=")
]


def committed(section: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{section}.json").read_text())


def mutate(report: dict, path: str, fn) -> dict:
    """A copy of ``report`` with the value at ``path`` replaced by
    ``fn(value)``; a ``*`` segment picks the list's first element."""
    mutated = copy.deepcopy(report)
    node = mutated
    keys = [0 if key == "*" else key for key in path.split(".")]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = fn(node[keys[-1]])
    return mutated


def failing_value(op: str, bound, value):
    """A value that must fail a row with ``op`` and ``bound``."""
    return {
        "true": lambda: False,
        "false": lambda: True,
        ">=": lambda: bound - 1,
        "<=": lambda: bound + 1,
        "==": lambda: "queue_ms",
        "all<=": lambda: bound + 1,
        "band": lambda: value * (1.0 - bound) * 0.99,
        "ceiling": lambda: value * (1.0 + bound) * 1.01,
    }[op]()


def failed_paths(report: dict) -> list[str]:
    baseline = committed(report["benchmark"])
    rows = [row for row in gate.CHECKS if row[0] == report["benchmark"]]
    verdicts = gate.check(report, baseline)
    assert len(verdicts) == len(rows)
    return [row[1] for row, (_, verdict) in zip(rows, verdicts) if verdict is not True]


def run_gate(tmp_path: Path, report, name: str = "report.json") -> int:
    path = tmp_path / name
    path.write_text(report if isinstance(report, str) else json.dumps(report))
    return gate.main([str(path)])


def test_the_table_holds_31_rows_across_five_sections():
    counts = {s: sum(1 for row in gate.CHECKS if row[0] == s) for s in SECTIONS}
    assert counts == {"engine": 6, "hetero": 6, "observe": 5, "replication": 4, "diff": 10}


@pytest.mark.parametrize("section", SECTIONS)
def test_committed_report_passes_against_itself(section, capsys):
    assert failed_paths(committed(section)) == []
    assert gate.main([str(REPO_ROOT / f"BENCH_{section}.json")]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_all_committed_reports_pass_in_one_call():
    paths = [str(REPO_ROOT / f"BENCH_{s}.json") for s in (*SECTIONS, "telemetry")]
    assert gate.main(paths) == 0


@pytest.mark.parametrize("row", ROWS)
def test_one_value_mutation_fails_exactly_its_row(row, tmp_path):
    section, path, op, bound = row
    report = mutate(committed(section), path, lambda v: failing_value(op, bound, v))
    assert failed_paths(report) == [path]
    assert run_gate(tmp_path, report) == 1


@pytest.mark.parametrize("row", NUMERIC_ROWS)
def test_nan_fails_its_row(row, tmp_path):
    section, path, _, _ = row
    report = mutate(committed(section), path, lambda v: math.nan)
    assert failed_paths(report) == [path]
    # json.loads accepts NaN, so a report file can carry one.
    assert "NaN" in json.dumps(report)
    assert run_gate(tmp_path, report) == 1


def test_empty_phase_diagram_fails(tmp_path):
    report = committed("replication")
    report["phase_diagram"]["points"] = []
    assert failed_paths(report) == ["phase_diagram.points.*.adaptive_vs_best_static"]
    assert run_gate(tmp_path, report) == 1


@pytest.mark.parametrize(
    "section, path, value",
    [
        ("engine", "single_process.decisions_identical", 1),
        ("diff", "null_test.cross_identical", None),
        ("hetero", "frontier.dominated_points", "2"),
        ("hetero", "frontier.dominated_points", True),
        ("observe", "live_plane.on_minus_off_us_per_completion", math.inf),
        ("diff", "versus.top_phase", ["contention_ms"]),
    ],
)
def test_wrong_type_or_non_finite_fails(section, path, value):
    report = mutate(committed(section), path, lambda v: value)
    assert failed_paths(report) == [path]


def test_band_floor_is_inclusive():
    assert gate.evaluate("band", 0.25, 75.0, 100.0)
    assert not gate.evaluate("band", 0.25, 74.999, 100.0)
    assert not gate.evaluate("band", 0.25, 90.0, math.nan)


def test_ceiling_cap_is_inclusive():
    assert gate.evaluate("ceiling", 0.5, 15.0, 10.0)
    assert not gate.evaluate("ceiling", 0.5, 15.001, 10.0)
    assert not gate.evaluate("ceiling", 0.5, 5.0, math.nan)


def test_missing_path_exits_2(tmp_path, capsys):
    report = committed("engine")
    del report["mega"]["stream"]["peak_traced_mb"]
    assert run_gate(tmp_path, report) == 2
    assert "MISSING engine mega.stream.peak_traced_mb" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    ["{not json", "[1, 2]", '{"benchmark": "nope"}', '{"scale": "quick"}'],
    ids=["unparsable", "not-an-object", "unknown-benchmark", "no-benchmark"],
)
def test_unreadable_report_exits_2(text, tmp_path):
    assert run_gate(tmp_path, text) == 2


def test_missing_file_and_no_arguments_exit_2(tmp_path):
    assert gate.main([str(tmp_path / "absent.json")]) == 2
    assert gate.main([]) == 2
