"""Speedup-curve models for intra-request parallelism.

The paper's offline phase consumes, for every profiled request, its
sequential execution time and its speedup at each parallelism degree
(Section 2, Figures 1(b) and 2(b)).  Three facts from those measurements
shape the models here:

* speedup is *sublinear*: parallel efficiency ``s(d) / d`` decreases as
  the degree ``d`` grows (the premise of Theorem 1);
* speedup *plateaus*: beyond some degree extra threads do not help
  (degree 4 for Bing, degree 5 for Lucene);
* *long requests parallelize better than short ones* (the longest 5 % of
  Bing requests reach 2.2x at degree 3; the shortest 5 % only 1.2x).

:class:`SpeedupCurve` is the per-request view (``s(d)`` for one request)
and :class:`SpeedupModel` maps a request's sequential demand to its
curve, capturing the length dependence.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.errors import InvalidSpeedupError

__all__ = [
    "SpeedupCurve",
    "TabulatedSpeedup",
    "AmdahlSpeedup",
    "LinearSpeedup",
    "SpeedupModel",
    "UniformSpeedupModel",
    "LengthDependentSpeedupModel",
]


class SpeedupCurve(ABC):
    """Speedup of a single request as a function of parallelism degree.

    Implementations must satisfy ``speedup(1) == 1.0`` and be
    non-decreasing in the degree.  Degrees beyond the largest modelled
    degree return the plateau value (extra threads never slow the
    request down in this model; contention is the simulator's job).
    """

    @abstractmethod
    def speedup(self, degree: int) -> float:
        """Return ``s(degree)``, the factor by which ``degree`` threads
        shorten the request relative to sequential execution."""

    def efficiency(self, degree: int) -> float:
        """Parallel efficiency ``s(d) / d`` at the given degree."""
        return self.speedup(degree) / degree

    def is_sublinear(self, max_degree: int) -> bool:
        """Check the Theorem 1 premise: efficiency strictly decreases
        over ``1..max_degree``."""
        effs = [self.efficiency(d) for d in range(1, max_degree + 1)]
        return all(a > b for a, b in zip(effs, effs[1:]))

    def table(self, max_degree: int) -> np.ndarray:
        """Return ``[s(1), ..., s(max_degree)]`` as a float array."""
        return np.array(
            [self.speedup(d) for d in range(1, max_degree + 1)], dtype=float
        )

    def validate(self, max_degree: int = 8) -> None:
        """Raise :class:`InvalidSpeedupError` on a malformed curve."""
        _check_values([self.speedup(d) for d in range(1, max(max_degree, 1) + 1)])


def _check_values(values: Sequence[float]) -> None:
    """The curve checks over ``values = [s(1), ..., s(n)]``: s(1) is 1,
    and every later value is a number, not below its predecessor and
    not superlinear."""
    if not math.isclose(values[0], 1.0, rel_tol=1e-9):
        raise InvalidSpeedupError(f"s(1) must be 1.0, got {values[0]}")
    prev = 1.0
    for degree, value in enumerate(values[1:], start=2):
        if value != value:
            raise InvalidSpeedupError(f"speedup must be a number: s({degree}) = {value}")
        if value < prev - 1e-12:
            raise InvalidSpeedupError(
                f"speedup must be non-decreasing: s({degree}) = {value} "
                f"< s({degree - 1}) = {prev}"
            )
        if value > degree + 1e-9:
            raise InvalidSpeedupError(
                f"superlinear speedup unsupported: s({degree}) = {value}"
            )
        prev = value


class TabulatedSpeedup(SpeedupCurve):
    """Speedup curve given by explicit measurements ``s(1)..s(n)``.

    This mirrors the paper's input format: profiled speedups at each
    degree.  Degrees above ``len(values)`` return the last entry
    (plateau).

    Parameters
    ----------
    values:
        ``values[j]`` is the speedup at degree ``j + 1``; ``values[0]``
        must be 1.0.
    """

    def __init__(self, values: Sequence[float]) -> None:
        if len(values) == 0:
            raise InvalidSpeedupError("tabulated curve needs at least s(1)")
        self._values = tuple(map(float, values))
        _check_values(self._values)

    def speedup(self, degree: int) -> float:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        index = min(degree, len(self._values)) - 1
        return self._values[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TabulatedSpeedup({list(self._values)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TabulatedSpeedup) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)


class AmdahlSpeedup(SpeedupCurve):
    """Amdahl's-law curve with a per-thread coordination overhead.

    ``s(d) = (1 - overhead * (d - 1)) / (serial_fraction + (1 - serial_fraction) / d)``

    The overhead term models synchronization cost per added worker
    (Section 3.3: "FM must consider any overhead due to parallelism").
    The curve is clamped to be non-decreasing so that an overhead large
    enough to make extra threads counterproductive shows up as a plateau
    rather than a decline (idle extra threads, not slowdown).
    """

    def __init__(self, serial_fraction: float, overhead: float = 0.0) -> None:
        if not 0.0 <= serial_fraction <= 1.0:
            raise InvalidSpeedupError(
                f"serial_fraction must be in [0, 1], got {serial_fraction}"
            )
        if not 0.0 <= overhead < 1.0:
            raise InvalidSpeedupError(f"overhead must be in [0, 1), got {overhead}")
        self.serial_fraction = float(serial_fraction)
        self.overhead = float(overhead)

    def speedup(self, degree: int) -> float:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        best = 1.0
        f = self.serial_fraction
        for d in range(2, degree + 1):
            scale = max(0.0, 1.0 - self.overhead * (d - 1))
            raw = scale / (f + (1.0 - f) / d)
            best = max(best, raw)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AmdahlSpeedup(serial_fraction={self.serial_fraction}, overhead={self.overhead})"


class LinearSpeedup(SpeedupCurve):
    """Perfect linear speedup up to a cap — useful in tests and as the
    degenerate case where Theorem 1's strict inequality becomes equality."""

    def __init__(self, max_effective_degree: int | None = None) -> None:
        if max_effective_degree is not None and max_effective_degree < 1:
            raise InvalidSpeedupError("max_effective_degree must be >= 1")
        self.max_effective_degree = max_effective_degree

    def speedup(self, degree: int) -> float:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if self.max_effective_degree is not None:
            degree = min(degree, self.max_effective_degree)
        return float(degree)


class SpeedupModel(ABC):
    """Maps a request's sequential demand to its speedup curve.

    The paper profiles every request individually; synthetic workloads
    instead draw the curve from the demand, reproducing the observed
    long-requests-scale-better effect.
    """

    @abstractmethod
    def curve_for(self, seq_ms: float) -> SpeedupCurve:
        """Return the speedup curve of a request whose sequential
        execution time is ``seq_ms`` milliseconds."""

    def tables_for(self, seq_ms: np.ndarray, max_degree: int) -> np.ndarray:
        """Vectorized helper: ``(len(seq_ms), max_degree)`` array whose
        row ``i`` is the speedup table of request ``i``."""
        out = np.empty((len(seq_ms), max_degree), dtype=float)
        for i, seq in enumerate(seq_ms):
            out[i] = self.curve_for(float(seq)).table(max_degree)
        return out


class UniformSpeedupModel(SpeedupModel):
    """Every request shares one speedup curve, regardless of length."""

    def __init__(self, curve: SpeedupCurve) -> None:
        self.curve = curve

    def curve_for(self, seq_ms: float) -> SpeedupCurve:
        return self.curve


class LengthDependentSpeedupModel(SpeedupModel):
    """Interpolates between a short-request and a long-request curve.

    Requests at or below ``short_ms`` get ``short_curve``; at or above
    ``long_ms`` they get ``long_curve``; in between, the per-degree
    speedups are log-linearly interpolated in the demand.  This
    reproduces the spread between the "shortest 5 %" and "longest 5 %"
    curves in Figures 1(b)/2(b).
    """

    def __init__(
        self,
        short_curve: SpeedupCurve,
        long_curve: SpeedupCurve,
        short_ms: float,
        long_ms: float,
        max_degree: int = 8,
    ) -> None:
        if short_ms <= 0 or long_ms <= short_ms:
            raise InvalidSpeedupError(
                f"need 0 < short_ms < long_ms, got {short_ms}, {long_ms}"
            )
        self.short_ms = float(short_ms)
        self.long_ms = float(long_ms)
        self.max_degree = int(max_degree)
        self._short_table = short_curve.table(self.max_degree)
        self._long_table = long_curve.table(self.max_degree)
        #: ``(s_short(d), s_long(d))`` for d >= 2 as plain floats, the
        #: operands of :meth:`curve_for`'s per-arrival blend.
        self._blend_pairs = tuple(
            zip(self._short_table[1:].tolist(), self._long_table[1:].tolist())
        )

    def _weight(self, seq_ms: float) -> float:
        """Interpolation weight in [0, 1]: 0 = short curve, 1 = long curve."""
        if seq_ms <= self.short_ms:
            return 0.0
        if seq_ms >= self.long_ms:
            return 1.0
        return math.log(seq_ms / self.short_ms) / math.log(self.long_ms / self.short_ms)

    def curve_for(self, seq_ms: float) -> SpeedupCurve:
        """The blend ``(1 - w) * short + w * long`` with ``s(1) = 1``,
        made non-decreasing by a running maximum.

        Called once per arrival, so it runs over plain floats: the same
        multiplies and adds numpy does element by element, hence
        bit-identical to the numpy blend.  Interpolation of two
        valid curves is non-decreasing, but the running max guards
        against float drift; it is written so a NaN propagates (as
        ``np.maximum`` does) and the curve check rejects it.
        """
        w = self._weight(seq_ms)
        keep = 1.0 - w
        running = 1.0
        values = [1.0]
        for short, long_ in self._blend_pairs:
            value = keep * short + w * long_
            if not value <= running:
                running = value
            values.append(running)
        return TabulatedSpeedup(values)

    def tables_for(self, seq_ms: np.ndarray, max_degree: int) -> np.ndarray:
        seq = np.asarray(seq_ms, dtype=float)
        weights = np.clip(
            np.log(np.maximum(seq, 1e-12) / self.short_ms)
            / math.log(self.long_ms / self.short_ms),
            0.0,
            1.0,
        )
        short = self._extend(self._short_table, max_degree)
        long_ = self._extend(self._long_table, max_degree)
        tables = (1.0 - weights[:, None]) * short[None, :] + weights[:, None] * long_[None, :]
        tables[:, 0] = 1.0
        np.maximum.accumulate(tables, axis=1, out=tables)
        return tables

    @staticmethod
    def _extend(table: np.ndarray, max_degree: int) -> np.ndarray:
        """Extend a speedup table to ``max_degree`` by plateauing."""
        if max_degree <= len(table):
            return table[:max_degree]
        pad = np.full(max_degree - len(table), table[-1])
        return np.concatenate([table, pad])
