"""The FM interval table (Section 4.1, Table 2).

An :class:`IntervalTable` maps instantaneous system load ``q_r`` (the
number of requests in the system) to a σ-form :class:`Schedule`.  The
offline search produces one row per load level from 1 up to the system's
admission capacity; at loads beyond the last row the last row applies
(by construction it carries the ``e1`` admission-control marker, so
excess requests queue).

Tables serialize to JSON so the offline phase can run "daily, weekly, or
at any other coarse granularity" and ship its output to servers, and
pretty-print in the layout of Table 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.schedule import Schedule
from repro.errors import ConfigurationError

__all__ = ["IntervalTable", "TableMetadata"]


@dataclass(frozen=True)
class TableMetadata:
    """Provenance of an interval table: the offline-search inputs."""

    target_parallelism: float
    max_degree: int
    step_ms: float
    phi: float = 0.99
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target_parallelism": self.target_parallelism,
            "max_degree": self.max_degree,
            "step_ms": self.step_ms,
            "phi": self.phi,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TableMetadata":
        return cls(
            target_parallelism=float(data["target_parallelism"]),
            max_degree=int(data["max_degree"]),
            step_ms=float(data["step_ms"]),
            phi=float(data.get("phi", 0.99)),
            extra=dict(data.get("extra", {})),
        )


class IntervalTable:
    """Load-indexed schedule table — the offline phase's output.

    Parameters
    ----------
    schedules:
        ``schedules[i]`` is the schedule for load ``q_r = i + 1``; the
        list must be non-empty.  Loads above ``len(schedules)`` resolve
        to the last entry.
    metadata:
        Optional :class:`TableMetadata` recording the search inputs.
    """

    def __init__(
        self, schedules: list[Schedule], metadata: TableMetadata | None = None
    ) -> None:
        if not schedules:
            raise ConfigurationError("interval table needs at least one row")
        self._schedules: tuple[Schedule, ...] = tuple(schedules)
        self.metadata = metadata
        #: The largest degree any row prescribes: FM never raises a
        #: request past it.
        self.top_degree = max(schedule.max_degree for schedule in self._schedules)

    @property
    def max_load(self) -> int:
        """Largest load with an explicit row."""
        return len(self._schedules)

    def lookup(self, q_r: int) -> Schedule:
        """Schedule for instantaneous load ``q_r`` (clamped to the last
        row above :attr:`max_load`)."""
        if q_r < 1:
            raise ValueError(f"load must be >= 1, got {q_r}")
        schedules = self._schedules
        return schedules[min(q_r, len(schedules)) - 1]

    def __len__(self) -> int:
        return len(self._schedules)

    def __iter__(self):
        return iter(self._schedules)

    def rows(self) -> list[tuple[int, Schedule]]:
        """All ``(load, schedule)`` pairs."""
        return [(i + 1, s) for i, s in enumerate(self._schedules)]

    def admission_capacity(self) -> int | None:
        """Smallest load whose row says ``e1`` (wait for an exit), i.e.
        the number of requests the table admits concurrently; ``None``
        if the table never applies admission control."""
        for load, schedule in self.rows():
            if schedule.wait_for_exit:
                return load
        return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "metadata": self.metadata.to_dict() if self.metadata else None,
            "schedules": [s.to_dict() for s in self._schedules],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IntervalTable":
        meta = data.get("metadata")
        return cls(
            [Schedule.from_dict(s) for s in data["schedules"]],
            metadata=TableMetadata.from_dict(meta) if meta else None,
        )

    def save(self, path: str | Path) -> None:
        """Write the table as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "IntervalTable":
        """Read a table written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    # Display (Table 2 layout)
    # ------------------------------------------------------------------
    def format(self, collapse: bool = True) -> str:
        """Render in the paper's Table 2 layout.

        One line per load (or per run of equal-schedule loads when
        ``collapse`` is set, shown as ``4-6``), columns ``t0 t1 ...``
        with entries like ``50, d3`` and ``e1, d1`` for admission
        control.
        """
        width = max(len(s.steps) for s in self._schedules)
        groups: list[tuple[int, int, Schedule]] = []
        for load, schedule in self.rows():
            if collapse and groups and groups[-1][2] == schedule:
                start, _, existing = groups[-1]
                groups[-1] = (start, load, existing)
            else:
                groups.append((load, load, schedule))

        header = ["q_r"] + [f"t{i}" for i in range(width)]
        table_rows: list[list[str]] = [header]
        last_index = len(groups) - 1
        for i, (start, end, schedule) in enumerate(groups):
            if i == last_index and end == self.max_load and start != end:
                label = f">={start}"
            elif start == end:
                label = f"{start}"
            else:
                label = f"{start}-{end}"
            cells = [label]
            for j, step in enumerate(schedule.steps):
                time_txt = "e1" if (schedule.wait_for_exit and j == 0) else f"{step.time_ms:g}"
                cells.append(f"{time_txt}, d{step.degree}")
            cells.extend([""] * (width + 1 - len(cells)))
            table_rows.append(cells)

        widths = [max(len(row[c]) for row in table_rows) for c in range(width + 1)]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table_rows
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"IntervalTable(rows={self.max_load})"
