"""Tests for the Rodinia batch workload models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import Phase, QoSClass, ResourceDemand
from repro.workloads.rodinia import (
    RODINIA_PROFILES,
    RODINIA_SUITE_ORDER,
    make_rodinia_trace,
    suite_timeline,
)


class TestProfiles:
    def test_all_suite_apps_have_profiles(self):
        assert set(RODINIA_SUITE_ORDER) <= set(RODINIA_PROFILES)

    def test_profile_invariants(self):
        for p in RODINIA_PROFILES.values():
            assert 0 < p.steady_sm < p.peak_sm <= 1.0
            assert 0 < p.steady_mem_mb < p.peak_mem_mb
            assert p.base_ms > 0
            assert 0 < p.peak_fraction < 0.5


class TestTraceGeneration:
    def test_unknown_app_rejected(self, rng):
        with pytest.raises(KeyError):
            make_rodinia_trace("nonexistent", rng)

    def test_trace_is_batch_class(self, rng):
        assert make_rodinia_trace("lud", rng).qos_class is QoSClass.BATCH

    def test_runtime_scales_with_problem_size(self, rng):
        short = make_rodinia_trace("kmeans", np.random.default_rng(5), scale=1.0)
        long = make_rodinia_trace("kmeans", np.random.default_rng(5), scale=10.0)
        assert long.total_ms > 5 * short.total_ms

    def test_mem_scale_multiplies_footprint(self):
        base = make_rodinia_trace("lud", np.random.default_rng(5), mem_scale=1.0)
        big = make_rodinia_trace("lud", np.random.default_rng(5), mem_scale=3.0)
        assert big.peak_mem_mb() == pytest.approx(3 * base.peak_mem_mb())

    def test_requested_headroom_overstates(self, rng):
        trace = make_rodinia_trace("lud", rng, requested_headroom=1.5)
        assert trace.requested_mem_mb == pytest.approx(min(trace.peak_mem_mb() * 1.5, 16_384))

    def test_underrequest_headroom_understates(self, rng):
        trace = make_rodinia_trace("lud", rng, requested_headroom=0.5)
        assert trace.requested_mem_mb < trace.peak_mem_mb()

    def test_same_rng_state_reproducible(self):
        a = make_rodinia_trace("heartwall", np.random.default_rng(9))
        b = make_rodinia_trace("heartwall", np.random.default_rng(9))
        assert a.total_ms == b.total_ms
        assert a.peak_mem_mb() == b.peak_mem_mb()

    def test_peak_memory_is_transient(self, rng):
        """The paper: peak residency is a few percent of runtime."""
        trace = make_rodinia_trace("mummergpu", rng, scale=10)
        p80 = trace.mem_percentile(80)
        assert p80 < 0.5 * trace.peak_mem_mb()

    def test_bandwidth_led_phases_exist(self, rng):
        """An rx burst precedes compute peaks (PP's early marker)."""
        trace = make_rodinia_trace("leukocyte", rng)
        rx = [p.demand.rx_mbps for p in trace.phases]
        assert max(rx) > 1_000.0


class TestSuiteTimeline:
    def test_boundaries_cover_all_apps(self):
        timeline = suite_timeline(np.random.default_rng(0), step_ms=1.0)
        assert len(timeline["boundaries_ms"]) == len(RODINIA_SUITE_ORDER) + 1
        assert timeline["boundaries_ms"][0] == 0.0

    def test_series_lengths_consistent(self):
        timeline = suite_timeline(np.random.default_rng(0), step_ms=1.0)
        n = len(timeline["time_ms"])
        for key in ("sm_util", "mem_used_mb", "tx_mbps", "rx_mbps"):
            assert len(timeline[key]) == n

    def test_bandwidth_median_to_peak_gap(self):
        """Fig. 3: ~400x between median and peak bandwidth."""
        timeline = suite_timeline(np.random.default_rng(42), step_ms=1.0)
        bw = timeline["rx_mbps"] + timeline["tx_mbps"]
        assert bw.max() / max(np.median(bw), 1e-9) > 50

    def test_memory_stays_on_card(self):
        timeline = suite_timeline(np.random.default_rng(0), step_ms=1.0)
        assert timeline["mem_used_mb"].max() <= 16_384


# -- the array-native generator against the phase-by-phase reference ---------


def _reference_rodinia_phases(
    name: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    requested_headroom: float = 1.25,
    mem_scale: float = 1.0,
) -> tuple[list[Phase], float]:
    """The phase-by-phase construction ``make_rodinia_trace`` replaced:
    one scalar draw per jitter, one :class:`Phase` per phase.  Returns
    the phases and the requested memory."""
    p = RODINIA_PROFILES[name]
    jitter = lambda v, frac: float(v * rng.uniform(1.0 - frac, 1.0 + frac))  # noqa: E731
    total_ms = max(jitter(p.base_ms * scale, 0.15), 2.0)
    steady_sm = min(jitter(p.steady_sm, 0.10), 1.0)
    peak_sm = min(jitter(p.peak_sm, 0.05), 1.0)
    steady_mem = jitter(p.steady_mem_mb, 0.10) * mem_scale
    peak_mem = max(jitter(p.peak_mem_mb, 0.10) * mem_scale, steady_mem * 1.5)
    phases: list[Phase] = []
    load_ms = max(total_ms * 0.08, 0.5)
    phases.append(
        Phase(load_ms, ResourceDemand(sm=0.03, mem_mb=steady_mem * 0.5, tx_mbps=10.0, rx_mbps=jitter(p.load_rx_mbps, 0.10)))
    )
    body_ms = total_ms * 0.86
    iter_ms = max(jitter(p.iter_ms, 0.10), 1.0)
    n_iters = max(int(body_ms / iter_ms), 1)
    peak_ms_per_iter = max(total_ms * p.peak_fraction / n_iters, 0.2)
    prelude_ms = max(peak_ms_per_iter * 0.5, 0.1)
    steady_ms = max(iter_ms - peak_ms_per_iter - prelude_ms, 0.2)
    for _ in range(n_iters):
        phases.append(
            Phase(steady_ms, ResourceDemand(sm=steady_sm, mem_mb=steady_mem, tx_mbps=5.0, rx_mbps=8.0))
        )
        phases.append(
            Phase(
                prelude_ms,
                ResourceDemand(sm=steady_sm, mem_mb=steady_mem, tx_mbps=5.0, rx_mbps=jitter(p.load_rx_mbps * 0.6, 0.15)),
            )
        )
        phases.append(
            Phase(peak_ms_per_iter, ResourceDemand(sm=peak_sm, mem_mb=peak_mem, tx_mbps=20.0, rx_mbps=30.0))
        )
    store_ms = max(total_ms * 0.06, 0.3)
    phases.append(
        Phase(store_ms, ResourceDemand(sm=0.02, mem_mb=steady_mem * 0.4, tx_mbps=jitter(p.store_tx_mbps, 0.10), rx_mbps=5.0))
    )
    return phases, min(peak_mem * requested_headroom, 16_384.0)


def _reference_weighted_percentile(values: list[float], weights: list[float], q: float) -> float:
    vals = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(vals)
    vals, w = vals[order], w[order]
    cdf = np.cumsum(w) / w.sum()
    idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
    return float(vals[min(idx, len(vals) - 1)])


class TestMatchesPhaseByPhaseReference:
    """``make_rodinia_trace`` builds its table in one batched draw; the
    trace, its statistics and the caller's stream position must be
    exactly those of the per-phase construction."""

    @settings(max_examples=60, deadline=None)
    @given(
        app=st.sampled_from(sorted(RODINIA_PROFILES)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 12.0),
        headroom=st.floats(0.3, 3.0),
        mem_scale=st.floats(0.1, 8.0),
    )
    def test_bit_identical(self, app, seed, scale, headroom, mem_scale):
        ref_rng = np.random.default_rng(seed)
        phases, requested = _reference_rodinia_phases(app, ref_rng, scale, headroom, mem_scale)
        rng = np.random.default_rng(seed)
        trace = make_rodinia_trace(app, rng, scale=scale, requested_headroom=headroom, mem_scale=mem_scale)

        # Same stream position: the next draw agrees.
        assert rng.uniform() == ref_rng.uniform()

        durations = [ph.duration_ms for ph in phases]
        ref_cum = np.cumsum(durations)
        ref_rows = np.array(
            [(ph.demand.sm, ph.demand.mem_mb, ph.demand.tx_mbps, ph.demand.rx_mbps) for ph in phases]
        )
        cum, rows = trace.demand_table()
        assert cum.dtype == rows.dtype == np.float64
        assert cum.tobytes() == ref_cum.tobytes()
        assert rows.tobytes() == ref_rows.tobytes()
        assert trace.phases == tuple(phases)
        assert trace.total_ms == float(ref_cum[-1])
        assert trace.requested_mem_mb == requested

        mems = [ph.demand.mem_mb for ph in phases]
        sms = [ph.demand.sm for ph in phases]
        assert trace.peak_mem_mb() == max(mems)
        assert trace.peak_sm() == max(sms)
        for q in (0.0, 50.0, 80.0, 95.0, 100.0):
            assert trace.mem_percentile(q) == _reference_weighted_percentile(mems, durations, q)
            assert trace.sm_percentile(q) == _reference_weighted_percentile(sms, durations, q)
        assert trace.mean_mem_mb() == float(np.average(np.asarray(mems), weights=np.asarray(durations)))

        # demand_at on every phase boundary belongs to the next phase;
        # at and past the end it holds the last one.
        assert trace.demand_at(0.0) == phases[0].demand
        for i, end in enumerate(ref_cum[:-1].tolist()):
            assert trace.demand_at(end) == phases[i + 1].demand
        assert trace.demand_at(float(ref_cum[-1])) == phases[-1].demand
        assert trace.demand_at(float(ref_cum[-1]) * 2.0 + 1.0) == phases[-1].demand
