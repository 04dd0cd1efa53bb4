"""Tests for the workload trace model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workloads.base import Phase, QoSClass, ResourceDemand, WorkloadTrace


def phases_from(spec):
    return [
        Phase(d, ResourceDemand(sm=s, mem_mb=m, tx_mbps=0.0, rx_mbps=0.0))
        for d, s, m in spec
    ]


def assert_both_reject(duration, sm, mem):
    """``Phase`` and ``WorkloadTrace.from_table`` (bad row second) reject
    the same phase with the same message."""
    with pytest.raises(ValueError) as by_phase:
        Phase(duration, ResourceDemand(sm, mem, 0, 0))
    with pytest.raises(ValueError) as by_table:
        WorkloadTrace.from_table("t", [5.0, duration], [[0.2, 1.0, 0, 0], [sm, mem, 0, 0]])
    assert str(by_table.value) == str(by_phase.value)


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace("t", [])

    def test_bad_phase_duration(self):
        assert_both_reject(0.0, 0.1, 10)
        assert_both_reject(-1.0, 0.1, 10)

    def test_bad_sm_demand(self):
        assert_both_reject(1.0, 1.5, 10)
        assert_both_reject(1.0, -0.1, 10)
        assert_both_reject(1.0, float("nan"), 10)

    def test_negative_memory(self):
        assert_both_reject(1.0, 0.1, -5)

    def test_table_constructor_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            WorkloadTrace.from_table("t", [], np.empty((0, 4)))
        with pytest.raises(ValueError):
            WorkloadTrace.from_table("t", [1.0, 2.0], [[0.1, 1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            WorkloadTrace.from_table("t", [1.0], [[0.1, 1.0, 0.0]])


class TestTableAdapter:
    """``WorkloadTrace(name, phases)`` and ``from_table`` build the same trace."""

    SPEC = [(10, 0.1, 100), (20, 0.5, 500.5), (5, 0.3, 7)]

    def test_adapter_matches_table_constructor(self):
        by_phases = WorkloadTrace("t", phases_from(self.SPEC), requested_mem_mb=900)
        by_table = WorkloadTrace.from_table(
            "t", [d for d, _, _ in self.SPEC], [[s, m, 0.0, 0.0] for _, s, m in self.SPEC],
            requested_mem_mb=900,
        )
        for a, b in zip(by_phases.demand_table(), by_table.demand_table()):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
        assert by_table.phases == by_phases.phases
        assert by_table.total_ms == by_phases.total_ms == 35.0

    def test_phases_built_lazily_from_the_table(self):
        trace = WorkloadTrace.from_table("t", [1.0, 2.0], [[0.1, 10.0, 1.0, 2.0], [0.9, 20.0, 3.0, 4.0]])
        assert trace._phases is None
        trace.demand_at(1.5)
        trace.peak_mem_mb()
        assert trace._phases is None
        assert trace.phases == (
            Phase(1.0, ResourceDemand(0.1, 10.0, 1.0, 2.0)),
            Phase(2.0, ResourceDemand(0.9, 20.0, 3.0, 4.0)),
        )
        assert trace.phases is trace.phases

    def test_demand_at_returns_python_floats(self):
        trace = WorkloadTrace.from_table("t", [1.0], [[0.25, 10.0, 1.0, 2.0]])
        demand = trace.demand_at(0.5)
        assert demand == ResourceDemand(0.25, 10.0, 1.0, 2.0)
        assert all(type(v) is float for v in (demand.sm, demand.mem_mb, demand.tx_mbps, demand.rx_mbps))


class TestDemandLookup:
    def test_demand_at_selects_phase(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100), (20, 0.5, 500)]))
        assert trace.demand_at(5).mem_mb == 100
        assert trace.demand_at(15).mem_mb == 500

    def test_demand_at_boundary_belongs_to_next_phase(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100), (20, 0.5, 500)]))
        assert trace.demand_at(10).mem_mb == 500

    def test_demand_past_end_holds_last(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100)]))
        assert trace.demand_at(999).mem_mb == 100

    def test_negative_progress_rejected(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100)]))
        with pytest.raises(ValueError):
            trace.demand_at(-1)

    def test_total_is_sum_of_durations(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 1), (15, 0.2, 2), (5, 0.3, 3)]))
        assert trace.total_ms == 30


class TestStatistics:
    def test_peak_and_percentile(self):
        # 90 ms at 100 MB, 10 ms at 1000 MB
        trace = WorkloadTrace("t", phases_from([(90, 0.1, 100), (10, 0.9, 1000)]))
        assert trace.peak_mem_mb() == 1000
        assert trace.mem_percentile(80) == 100   # peak occupies only 10 %
        assert trace.mem_percentile(95) == 1000

    def test_mean_duration_weighted(self):
        trace = WorkloadTrace("t", phases_from([(90, 0.1, 100), (10, 0.9, 1000)]))
        assert trace.mean_mem_mb() == pytest.approx(0.9 * 100 + 0.1 * 1000)

    def test_requested_defaults_to_peak(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]))
        assert trace.requested_mem_mb == 700

    def test_requested_override(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]), requested_mem_mb=50)
        assert trace.requested_mem_mb == 50

    def test_percentile_bounds_validated(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]))
        with pytest.raises(ValueError):
            trace.mem_percentile(101)

    def test_default_qos_is_batch(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]))
        assert trace.qos_class is QoSClass.BATCH

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=10_000.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_bounded_by_extremes(self, spec, q):
        trace = WorkloadTrace("t", phases_from(spec))
        p = trace.mem_percentile(q)
        mems = [m for _, _, m in spec]
        assert min(mems) <= p <= max(mems)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=10_000.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_percentile_monotone_in_q(self, spec):
        trace = WorkloadTrace("t", phases_from(spec))
        values = [trace.mem_percentile(q) for q in (10, 50, 80, 100)]
        assert values == sorted(values)


class TestSampling:
    def test_sample_series_length(self):
        trace = WorkloadTrace("t", phases_from([(100, 0.3, 500)]))
        series = trace.sample_series(step_ms=10)
        assert len(series["sm"]) == 10
        assert set(series) == {"sm", "mem_mb", "tx_mbps", "rx_mbps"}

    def test_sample_series_values(self):
        trace = WorkloadTrace("t", phases_from([(50, 0.2, 100), (50, 0.8, 900)]))
        series = trace.sample_series(step_ms=25)
        assert list(series["mem_mb"]) == [100, 100, 900, 900]

    def test_bad_step_rejected(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 1)]))
        with pytest.raises(ValueError):
            trace.sample_series(0.0)


def _sample_series_by_demand_at(trace: WorkloadTrace, step_ms: float) -> dict[str, np.ndarray]:
    """The per-sample ``demand_at`` loop ``sample_series`` batches."""
    times = np.arange(0.0, trace.total_ms, step_ms)
    out = {k: np.empty(times.shape) for k in ("sm", "mem_mb", "tx_mbps", "rx_mbps")}
    for i, t in enumerate(times):
        d = trace.demand_at(float(t))
        out["sm"][i], out["mem_mb"][i] = d.sm, d.mem_mb
        out["tx_mbps"][i], out["rx_mbps"][i] = d.tx_mbps, d.rx_mbps
    return out


class TestSampleSeriesMatchesDemandAt:
    """The vectorized sampler returns exactly what ``demand_at`` does."""

    @staticmethod
    def assert_bit_identical(trace: WorkloadTrace, step_ms: float) -> None:
        got = trace.sample_series(step_ms)
        want = _sample_series_by_demand_at(trace, step_ms)
        assert set(got) == set(want)
        for key, series in want.items():
            assert got[key].dtype == series.dtype
            assert got[key].tobytes() == series.tobytes(), key

    def test_phase_boundary_on_a_sample_time(self):
        # Boundaries at 30 and 50 are multiples of the 10 ms step: the
        # sample at a boundary belongs to the next phase.
        trace = WorkloadTrace("t", [
            Phase(30, ResourceDemand(0.1, 100.0, 1.0, 2.0)),
            Phase(20, ResourceDemand(0.7, 900.5, 3.0, 4.0)),
            Phase(25, ResourceDemand(0.3, 400.25, 5.0, 6.0)),
        ])
        self.assert_bit_identical(trace, 10.0)
        assert list(trace.sample_series(10.0)["mem_mb"][2:4]) == [100.0, 900.5]

    def test_single_phase(self):
        self.assert_bit_identical(WorkloadTrace("t", phases_from([(95, 0.4, 321.5)])), 10.0)

    def test_step_larger_than_trace(self):
        trace = WorkloadTrace("t", phases_from([(5, 0.2, 10), (3, 0.9, 50)]))
        self.assert_bit_identical(trace, 100.0)
        assert list(trace.sample_series(100.0)["mem_mb"]) == [10.0]

    @given(
        spec=st.lists(
            st.tuples(
                st.floats(0.5, 80.0),
                st.floats(0.0, 1.0),
                st.floats(0.0, 16_000.0),
            ),
            min_size=1,
            max_size=8,
        ),
        step_ms=st.floats(0.25, 50.0),
    )
    def test_random_traces(self, spec, step_ms):
        self.assert_bit_identical(WorkloadTrace("t", phases_from(spec)), step_ms)
