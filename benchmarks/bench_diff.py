"""Diff-engine benches -> ``BENCH_diff.json``.

Four sections, two purposes (DESIGN.md §15):

* ``null_test`` (seeded, hardware-independent): the contract the whole
  diff plane rests on.  A run self-diffed through a ledger round-trip
  must be an *exact* null (bit-identical histogram state, zero deltas,
  zero significant verdicts), and two runs with different seeds must
  NOT short-circuit to the identical path.
* ``versus`` (seeded, hardware-independent): FM vs FIX-3 on an
  identical Lucene trace at 45 RPS with 500 requests — fixed size
  regardless of ``--scale``, because the attestation is about
  statistical power, not speed.  The p99 delta must be significant and
  the explanation ranking must put the over-subscription phase
  (contention — the simulator books FIX's overload there) first.
* ``determinism`` (seeded, hardware-independent): the same two ledger
  entries diffed twice, and entries rebuilt from a ``--workers 2``
  sweep, must serialize byte-identically — diffs are functions of
  (entries, seed), never of wall clock or process count.
* ``throughput`` (same-machine trajectory): ``diff_runs`` calls per
  second on realistic entries, and ledger append+get round-trips per
  second.  Gated with a wide cross-run band by
  ``check_regression.py``.

Run through the harness::

    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only diff
"""

from __future__ import annotations

import json
import platform
import tempfile
from pathlib import Path

from repro.experiments.config import QUICK, Scale
from repro.experiments.runner import run_sweep
from repro.experiments.tables import lucene_table
from repro.observe.diff import diff_runs
from repro.observe.ledger import RunEntry, RunLedger, entry_from_result
from repro.schedulers import FixedScheduler, FMScheduler
from repro.workloads import lucene as lucene_mod

from run_all import TIMING_REPEATS, best_of


#: The attestation runs are fixed-size (the statistical-power claims
#: depend on sample count, so scaling them with --scale would move the
#: attested facts around); throughput cells scale normally.
ATTEST_REQUESTS = 500
ATTEST_RPS = 45.0
ATTEST_SEED = 4100


def _attest_entries(workers: int = 1) -> dict[str, RunEntry]:
    """FM and FIX-3 entries on the identical 45 RPS Lucene trace."""
    scale = Scale(
        "attest",
        num_requests=ATTEST_REQUESTS,
        profile_size=QUICK.profile_size,
        num_bins=QUICK.num_bins,
        step_ms=QUICK.step_ms,
    )
    table = lucene_table(scale)
    workload = lucene_mod.lucene_workload(profile_size=scale.profile_size)
    policies = {"FM": FMScheduler(table), "FIX-3": FixedScheduler(3)}
    sweep = run_sweep(
        policies,
        workload,
        rps_values=[ATTEST_RPS],
        cores=lucene_mod.CORES,
        num_requests=scale.num_requests,
        quantum_ms=lucene_mod.QUANTUM_MS,
        seed=ATTEST_SEED,
        repeats=1,
        keep_results=True,
        spin_fraction=lucene_mod.SPIN_FRACTION,
        workers=workers,
    )
    return {
        policy: entry_from_result(
            f"bench:{policy}",
            sweep[policy].results[0][0],
            config={"policy": policy, "rps": ATTEST_RPS, "seed": ATTEST_SEED},
            seed=ATTEST_SEED,
            scheduler=policy,
            workload=workload,
            scale=scale.name,
        )
        for policy in policies
    }


def bench_null_test(entries: dict[str, RunEntry]) -> dict:
    """The self-diff null attestation."""
    fm = entries["FM"]
    round_trip = RunEntry.from_dict(fm.to_dict())
    self_diff = diff_runs(fm, round_trip)
    cross = diff_runs(fm, entries["FIX-3"])
    return {
        "self_identical": self_diff.identical,
        "self_null": self_diff.is_null(),
        "self_max_abs_delta_ms": max(
            abs(q.delta_ms) for q in self_diff.quantiles
        ),
        "cross_identical": cross.identical,
    }


def bench_versus(entries: dict[str, RunEntry]) -> dict:
    """FM vs FIX-3 significance + explanation-ranking attestation."""
    diff = diff_runs(entries["FM"], entries["FIX-3"])
    p99 = diff.quantile(0.99)
    top = diff.phases[0] if diff.phases else None
    return {
        "num_requests": ATTEST_REQUESTS,
        "rps": ATTEST_RPS,
        "p99_delta_ms": p99.delta_ms,
        "p99_ci_ms": [p99.ci_lo, p99.ci_hi],
        "p99_significant": p99.significant,
        "top_phase": top.component if top else "",
        "top_phase_share": top.share_of_p99_delta if top else 0.0,
        "explanation": diff.explanation(),
    }


def bench_determinism(entries: dict[str, RunEntry]) -> dict:
    """Diffs must be pure functions of (entries, seed) — repeated calls
    and worker-pooled entry construction change nothing."""
    first = diff_runs(entries["FM"], entries["FIX-3"]).to_dict()
    second = diff_runs(entries["FM"], entries["FIX-3"]).to_dict()
    pooled = _attest_entries(workers=2)
    pooled_identical = all(
        entries[policy].to_dict() == pooled[policy].to_dict()
        for policy in entries
    )
    pooled_diff = diff_runs(pooled["FM"], pooled["FIX-3"]).to_dict()
    return {
        "repeat_identical": first == second,
        "workers_identical": pooled_identical,
        "workers_diff_identical": first == pooled_diff,
    }


def bench_throughput(entries: dict[str, RunEntry]) -> dict:
    """Same-machine trajectory: diffs/sec and ledger round-trips/sec."""
    diff_calls = 20

    def diffs() -> None:
        for _ in range(diff_calls):
            diff_runs(entries["FM"], entries["FIX-3"])

    diff_s = best_of(diffs)

    ledger_ops = 50
    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(Path(tmp) / "runs")

        def roundtrips() -> None:
            for _ in range(ledger_ops):
                run_id = ledger.append(entries["FM"])
                ledger.get(run_id)

        ledger_s = best_of(roundtrips, repeats=1)
        entry_bytes = len(json.dumps(entries["FM"].to_dict()))

    return {
        "diff_calls": diff_calls,
        "diffs_per_s": round(diff_calls / diff_s, 1),
        "ledger_roundtrips": ledger_ops,
        "ledger_roundtrips_per_s": round(ledger_ops / ledger_s, 1),
        "entry_bytes": entry_bytes,
    }


def build_report(scale: Scale) -> dict:
    """The full ``BENCH_diff.json`` payload."""
    entries = _attest_entries()
    return {
        "benchmark": "diff",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "null_test": bench_null_test(entries),
        "versus": bench_versus(entries),
        "determinism": bench_determinism(entries),
        "throughput": bench_throughput(entries),
        "notes": (
            "null_test, versus, and determinism are seeded and "
            "hardware-independent: the self-diff must be an exact null, "
            "the FM-vs-FIX-3 p99 delta at 45 RPS x 500 requests must be "
            "significant with the over-subscription phase ranked first "
            "(contention — this simulator books FIX's overload there; "
            "only FM's admission control produces queue spans, see "
            "DESIGN.md §15), and diffs must be byte-identical across "
            "repeats and --workers counts. throughput is the "
            "same-machine trajectory gated with a wide band by "
            "check_regression.py."
        ),
    }
