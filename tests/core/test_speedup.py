"""Tests for speedup-curve models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.speedup import (
    AmdahlSpeedup,
    LengthDependentSpeedupModel,
    LinearSpeedup,
    TabulatedSpeedup,
    UniformSpeedupModel,
)
from repro.errors import InvalidSpeedupError
from repro.workloads.bing import bing_workload
from repro.workloads.lucene import lucene_workload


class TestTabulatedSpeedup:
    def test_returns_tabulated_values(self):
        curve = TabulatedSpeedup([1.0, 1.5, 2.0])
        assert curve.speedup(1) == 1.0
        assert curve.speedup(2) == 1.5
        assert curve.speedup(3) == 2.0

    def test_plateaus_beyond_table(self):
        curve = TabulatedSpeedup([1.0, 1.5, 2.0])
        assert curve.speedup(4) == 2.0
        assert curve.speedup(10) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidSpeedupError):
            TabulatedSpeedup([])

    def test_rejects_bad_s1(self):
        with pytest.raises(InvalidSpeedupError):
            TabulatedSpeedup([1.2, 1.5])

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidSpeedupError):
            TabulatedSpeedup([1.0, 2.0, 1.5])

    def test_rejects_superlinear(self):
        with pytest.raises(InvalidSpeedupError):
            TabulatedSpeedup([1.0, 2.5])

    def test_rejects_degree_below_one(self):
        curve = TabulatedSpeedup([1.0, 1.5])
        with pytest.raises(ValueError):
            curve.speedup(0)

    def test_accepts_numpy_array(self):
        curve = TabulatedSpeedup(np.array([1.0, 1.9, 2.5]))
        assert curve.speedup(3) == 2.5

    def test_equality_and_hash(self):
        a = TabulatedSpeedup([1.0, 1.5])
        b = TabulatedSpeedup([1.0, 1.5])
        assert a == b
        assert hash(a) == hash(b)

    def test_table_roundtrip(self):
        curve = TabulatedSpeedup([1.0, 1.8, 2.2])
        assert list(curve.table(3)) == [1.0, 1.8, 2.2]

    def test_is_sublinear(self):
        assert TabulatedSpeedup([1.0, 1.8, 2.2]).is_sublinear(3)
        assert not LinearSpeedup().is_sublinear(3)


class TestAmdahlSpeedup:
    def test_zero_serial_fraction_is_linear(self):
        curve = AmdahlSpeedup(0.0)
        assert curve.speedup(4) == pytest.approx(4.0)

    def test_full_serial_fraction_is_flat(self):
        curve = AmdahlSpeedup(1.0)
        assert curve.speedup(4) == pytest.approx(1.0)

    def test_known_value(self):
        # f = 0.5: s(2) = 1 / (0.5 + 0.25) = 4/3
        assert AmdahlSpeedup(0.5).speedup(2) == pytest.approx(4.0 / 3.0)

    def test_overhead_creates_plateau_not_decline(self):
        curve = AmdahlSpeedup(0.1, overhead=0.2)
        values = [curve.speedup(d) for d in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidSpeedupError):
            AmdahlSpeedup(-0.1)
        with pytest.raises(InvalidSpeedupError):
            AmdahlSpeedup(0.5, overhead=1.0)

    @given(
        f=st.floats(min_value=0.01, max_value=0.99),
        degree=st.integers(min_value=2, max_value=16),
    )
    def test_efficiency_decreases(self, f: float, degree: int):
        """Amdahl curves satisfy the Theorem 1 sublinearity premise."""
        curve = AmdahlSpeedup(f)
        assert curve.efficiency(degree) < curve.efficiency(degree - 1)

    @given(f=st.floats(min_value=0.0, max_value=1.0))
    def test_always_valid(self, f: float):
        AmdahlSpeedup(f).validate(max_degree=8)


class TestLengthDependentSpeedupModel:
    def _model(self) -> LengthDependentSpeedupModel:
        return LengthDependentSpeedupModel(
            short_curve=TabulatedSpeedup([1.0, 1.2, 1.3]),
            long_curve=TabulatedSpeedup([1.0, 1.9, 2.6]),
            short_ms=10.0,
            long_ms=1000.0,
            max_degree=3,
        )

    def test_extremes_match_anchor_curves(self):
        model = self._model()
        assert model.curve_for(5.0).speedup(3) == pytest.approx(1.3)
        assert model.curve_for(2000.0).speedup(3) == pytest.approx(2.6)

    def test_midpoint_interpolates(self):
        model = self._model()
        # Geometric midpoint of [10, 1000] is 100 -> weight 0.5.
        assert model.curve_for(100.0).speedup(2) == pytest.approx(1.55)

    def test_monotone_in_length(self):
        model = self._model()
        values = [model.curve_for(x).speedup(3) for x in [5, 20, 100, 400, 2000]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tables_for_matches_curve_for(self):
        model = self._model()
        seq = np.array([5.0, 50.0, 500.0, 5000.0])
        tables = model.tables_for(seq, 3)
        for i, s in enumerate(seq):
            expected = model.curve_for(float(s)).table(3)
            assert np.allclose(tables[i], expected)

    def test_tables_extend_beyond_anchor_width(self):
        model = self._model()
        tables = model.tables_for(np.array([100.0]), 5)
        assert tables.shape == (1, 5)
        assert tables[0, 4] == pytest.approx(tables[0, 2])  # plateau

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidSpeedupError):
            LengthDependentSpeedupModel(
                TabulatedSpeedup([1.0]), TabulatedSpeedup([1.0]), 100.0, 50.0
            )

    @given(seq=st.floats(min_value=0.1, max_value=1e5))
    def test_curves_always_valid(self, seq: float):
        self._model().curve_for(seq).validate(max_degree=3)


class TestUniformSpeedupModel:
    def test_same_curve_for_all(self):
        curve = TabulatedSpeedup([1.0, 1.5])
        model = UniformSpeedupModel(curve)
        assert model.curve_for(1.0) is curve
        assert model.curve_for(1e6) is curve

    def test_tables_for(self):
        model = UniformSpeedupModel(TabulatedSpeedup([1.0, 1.5]))
        tables = model.tables_for(np.array([1.0, 2.0]), 2)
        assert tables.shape == (2, 2)
        assert np.allclose(tables, [[1.0, 1.5], [1.0, 1.5]])


class TestNonFiniteSpeedups:
    @pytest.mark.parametrize(
        "values",
        [[1.0, float("nan"), 2.0], [float("nan"), 1.5], [1.0, float("inf")]],
    )
    def test_tabulated_rejects_non_finite(self, values):
        with pytest.raises(InvalidSpeedupError):
            TabulatedSpeedup(values)

    def test_curve_for_rejects_nan_demand(self):
        model = LengthDependentSpeedupModel(
            TabulatedSpeedup([1.0, 1.2, 1.3]), TabulatedSpeedup([1.0, 1.9, 2.6]),
            10.0, 1000.0, max_degree=3,
        )
        with pytest.raises(InvalidSpeedupError):
            model.curve_for(float("nan"))


class TestCurveForOracle:
    """``curve_for`` blends in plain floats; it must equal the numpy
    blend plus ``np.maximum.accumulate`` bit for bit."""

    @staticmethod
    def _numpy_curve(model: LengthDependentSpeedupModel, seq_ms: float) -> list[float]:
        w = model._weight(seq_ms)
        blended = (1.0 - w) * model._short_table + w * model._long_table
        blended[0] = 1.0
        np.maximum.accumulate(blended, out=blended)
        return blended.tolist()

    @pytest.mark.parametrize("name", ["bing", "lucene", "drift"])
    def test_matches_numpy_blend(self, name):
        if name == "drift":
            # Anchors that dip within the curve check's 1e-12
            # tolerance, so the blend dips too and the running max
            # does real work.
            model = LengthDependentSpeedupModel(
                TabulatedSpeedup([1.0, 1.0 - 5e-13, 1.9, 1.9 - 5e-13]),
                TabulatedSpeedup([1.0, 1.1, 3.0 - 5e-13, 3.0]),
                10.0, 1000.0, max_degree=6,
            )
        else:
            workload = bing_workload() if name == "bing" else lucene_workload()
            model = workload.speedup_model
        rng = np.random.default_rng(2024)
        demands = rng.lognormal(np.log(model.short_ms * 4), 1.5, size=2000).tolist()
        lo, hi = model.short_ms, model.long_ms
        demands += [
            lo, hi, lo / 2, hi * 2, 1e-9, 1e12,
            np.nextafter(lo, 0.0), np.nextafter(lo, np.inf),
            np.nextafter(hi, 0.0), np.nextafter(hi, np.inf),
        ]
        for seq_ms in demands:
            curve = model.curve_for(float(seq_ms))
            assert list(curve._values) == self._numpy_curve(model, float(seq_ms)), seq_ms
