"""Tests for the interval table container."""

from __future__ import annotations

import pytest

from repro.core.schedule import Schedule, ScheduleStep
from repro.core.table import IntervalTable, TableMetadata
from repro.errors import ConfigurationError


def _rows() -> list[Schedule]:
    return [
        Schedule([ScheduleStep(0.0, 4)]),
        Schedule([ScheduleStep(0.0, 4)]),
        Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 4)]),
        Schedule([ScheduleStep(0.0, 1), ScheduleStep(100.0, 4)]),
        Schedule([ScheduleStep(0.0, 1), ScheduleStep(100.0, 4)], wait_for_exit=True),
    ]


class TestLookup:
    def test_lookup_by_load(self):
        table = IntervalTable(_rows())
        assert table.lookup(1).initial_degree == 4
        assert table.lookup(3).steps[1].time_ms == 50.0

    def test_lookup_clamps_above_max(self):
        table = IntervalTable(_rows())
        assert table.lookup(100) == table.lookup(5)
        assert table.lookup(100).wait_for_exit

    def test_lookup_rejects_nonpositive(self):
        table = IntervalTable(_rows())
        with pytest.raises(ValueError):
            table.lookup(0)

    def test_requires_rows(self):
        with pytest.raises(ConfigurationError):
            IntervalTable([])

    def test_admission_capacity(self):
        table = IntervalTable(_rows())
        assert table.admission_capacity() == 5

    def test_admission_capacity_none_without_e1(self):
        table = IntervalTable(_rows()[:3])
        assert table.admission_capacity() is None

    def test_top_degree_is_the_largest_row_degree(self):
        assert IntervalTable(_rows()).top_degree == 4
        rows = [Schedule([ScheduleStep(0.0, 2)]), Schedule([ScheduleStep(10.0, 3)])]
        assert IntervalTable(rows).top_degree == 3

    def test_iteration_and_len(self):
        table = IntervalTable(_rows())
        assert len(table) == 5
        assert len(list(table)) == 5
        assert table.rows()[0][0] == 1


class TestSerialization:
    def test_dict_roundtrip(self):
        meta = TableMetadata(
            target_parallelism=24.0, max_degree=4, step_ms=5.0, extra={"y": 1100}
        )
        table = IntervalTable(_rows(), metadata=meta)
        back = IntervalTable.from_dict(table.to_dict())
        assert back.rows() == table.rows()
        assert back.metadata.target_parallelism == 24.0
        assert back.metadata.extra["y"] == 1100

    def test_file_roundtrip(self, tmp_path):
        table = IntervalTable(_rows())
        path = tmp_path / "table.json"
        table.save(path)
        back = IntervalTable.load(path)
        assert back.rows() == table.rows()

    def test_roundtrip_without_metadata(self):
        table = IntervalTable(_rows())
        assert IntervalTable.from_dict(table.to_dict()).metadata is None


class TestFormat:
    def test_collapses_equal_rows(self):
        text = IntervalTable(_rows()).format()
        assert "1-2" in text
        assert "e1, d1" in text

    def test_last_group_shows_open_range(self):
        rows = _rows() + [_rows()[-1]]
        text = IntervalTable(rows).format()
        assert ">=5" in text

    def test_no_collapse_mode(self):
        text = IntervalTable(_rows()).format(collapse=False)
        assert "1-2" not in text
        assert text.count("\n") == 5  # header + 5 rows
