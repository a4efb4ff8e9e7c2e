"""Every table and figure of the evaluation, plus the ablations, the
extensions and the robustness study, one parametrized bench each.

Each case is named by its experiment id (the ``repro-fm`` CLI id), runs
that experiment once under pytest-benchmark and writes
``benchmarks/output/<id>.txt``.  Select cases with ``-k <id>``; ``-k``
matches substrings, so ``-k fig1`` also runs fig10-fig12 while
``-k "[fig1]"`` runs fig1 alone.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import ABLATIONS
from repro.experiments.extensions import EXTENSIONS
from repro.experiments.figures import ALL_EXPERIMENTS
from repro.experiments.robustness import ROBUSTNESS

from conftest import run_figure

FIGURES = {**ALL_EXPERIMENTS, **ABLATIONS, **EXTENSIONS, **ROBUSTNESS}


@pytest.mark.parametrize("name", FIGURES)
def test_figure(benchmark, scale, save_figure, name):
    result = run_figure(benchmark, FIGURES[name], scale, save_figure)
    if name == "robustness":
        # Straggler hedging, hedging vs load, and shedding: one table each.
        assert len(result.tables) == 3
    else:
        assert result.tables
