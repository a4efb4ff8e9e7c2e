"""End-to-end CLI smokes: a traced experiment, then the trace or ledger
through ``repro analyze`` / ``repro top`` / ``repro diff``.

Each runs in-process through :func:`repro.cli.main` at tiny scale and
pins the telemetry, replay and ledger contracts the analysis commands
read.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.slow


def metric_names(trace_path) -> set[str]:
    metrics = json.loads(trace_path.read_text())["otherData"]["metrics"]
    return set(metrics["counters"]) | set(metrics["gauges"])


def test_replication_phase_trace_carries_controller_telemetry(tmp_path, capsys):
    trace = tmp_path / "replication-trace.json"
    assert main(["replication-phase", "--scale", "tiny", "--trace", str(trace)]) == 0
    assert main(["analyze", str(trace), "--json", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    missing = {
        "cluster.adaptive.mode",
        "cluster.adaptive.windows",
        "cluster.adaptive.brownouts",
    } - metric_names(trace)
    assert not missing, f"controller telemetry missing: {missing}"


def test_live_tail_trace_replays_through_top_and_analyze(tmp_path, capsys):
    trace = tmp_path / "live-tail-trace.json"
    assert main(["live-tail", "--scale", "tiny", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["top", "--replay", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(w["count"] for w in payload["windows"]) > 0, "replay produced no completions"
    kinds = {e["kind"] for e in payload["events"]}
    assert "fault" in kinds, f"no fault events in replay: {kinds}"
    assert main(["analyze", str(trace), "--json", str(tmp_path / "report.json")]) == 0


def test_hetero_energy_trace_keeps_the_energy_surface(tmp_path, capsys):
    trace = tmp_path / "hetero-trace.json"
    report = tmp_path / "hetero-report.json"
    assert main(["hetero-energy", "--scale", "tiny", "--trace", str(trace)]) == 0
    assert main(["analyze", str(trace), "--json", str(report)]) == 0
    capsys.readouterr()
    names = metric_names(trace)
    assert any(n.startswith("sim.energy.") for n in names), (
        f"no sim.energy.* metrics in trace: {sorted(names)[:10]}"
    )
    assert "joules_per_query" in json.loads(report.read_text())["tracks"]["sim"], (
        "analyzer dropped the energy surface"
    )


def test_run_diff_ledger_self_diff_is_null_and_versus_is_not(tmp_path, capsys):
    runs = str(tmp_path / "runs")
    assert main(["run-diff", "--scale", "tiny", "--ledger", runs]) == 0
    capsys.readouterr()

    assert main(["diff", "FM@45", "FM@45", "--runs", runs, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True, "self-diff not identical"
    assert report["null"] is True, "self-diff not null"
    deltas = [q["delta_ms"] for q in report["quantiles"]]
    assert deltas == [0.0] * len(deltas), f"nonzero deltas: {deltas}"

    assert main(["diff", "FM@45", "FIX-3@45", "--runs", runs, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is False, "distinct runs read identical"
    assert report["quantiles"], "no quantile deltas in report"
