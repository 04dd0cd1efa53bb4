"""Tests for the Djinn & Tonic inference workload models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.base import Phase, QoSClass, ResourceDemand
from repro.workloads.djinn_tonic import (
    DEVICE_MEM_MB,
    DJINN_TONIC_PROFILES,
    QOS_THRESHOLD_MS,
    TF_EARMARK_FRACTION,
    inference_memory_mb,
    make_inference_trace,
    tf_managed_memory_mb,
)


class TestMemoryModel:
    def test_single_queries_under_ten_percent(self):
        """Fig. 4: single-query footprints are below ~10 % of the device."""
        for name in DJINN_TONIC_PROFILES:
            assert inference_memory_mb(name, 1) < 0.10 * DEVICE_MEM_MB

    def test_batch128_mostly_under_half(self):
        """Fig. 4: even batch 128 stays under 50 % for every class."""
        under = [
            name
            for name in DJINN_TONIC_PROFILES
            if inference_memory_mb(name, 128) < 0.5 * DEVICE_MEM_MB
        ]
        assert len(under) == len(DJINN_TONIC_PROFILES)

    def test_memory_monotone_in_batch(self):
        for name in DJINN_TONIC_PROFILES:
            sizes = [inference_memory_mb(name, b) for b in (1, 2, 4, 8, 16)]
            assert sizes == sorted(sizes)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            inference_memory_mb("face", 0)

    def test_tf_earmark_grabs_nearly_everything(self):
        assert tf_managed_memory_mb() == pytest.approx(TF_EARMARK_FRACTION * DEVICE_MEM_MB)


class TestTraceGeneration:
    def test_latency_critical_class(self, rng):
        trace = make_inference_trace("face", rng)
        assert trace.qos_class is QoSClass.LATENCY_CRITICAL

    def test_tf_managed_requests_earmark_but_uses_little(self, rng):
        """Observation 5: the TF request is fragmentation, not need."""
        trace = make_inference_trace("ner", rng, tf_managed=True)
        assert trace.requested_mem_mb == pytest.approx(tf_managed_memory_mb())
        assert trace.peak_mem_mb() < 0.1 * trace.requested_mem_mb

    def test_unmanaged_request_tracks_usage(self, rng):
        trace = make_inference_trace("ner", rng, tf_managed=False)
        assert trace.requested_mem_mb < 2 * trace.peak_mem_mb()

    def test_latency_grows_with_batch(self):
        small = make_inference_trace("imc", np.random.default_rng(3), batch_size=1)
        large = make_inference_trace("imc", np.random.default_rng(3), batch_size=64)
        assert large.total_ms > 2 * small.total_ms

    def test_text_queries_faster_than_image(self, rng):
        pos = make_inference_trace("pos", np.random.default_rng(3))
        imc = make_inference_trace("imc", np.random.default_rng(3))
        assert pos.total_ms < imc.total_ms

    def test_trace_has_load_compute_store_structure(self, rng):
        trace = make_inference_trace("face", rng)
        assert len(trace.phases) == 3
        rx = [p.demand.rx_mbps for p in trace.phases]
        assert rx[0] == max(rx)   # weights/input transfer leads

    def test_serving_latency_within_slo_margin(self, rng):
        """An uncontended small-batch query must fit its 150 ms budget."""
        for name in DJINN_TONIC_PROFILES:
            trace = make_inference_trace(name, np.random.default_rng(1), batch_size=8)
            assert trace.total_ms < QOS_THRESHOLD_MS


class TestMatchesPhaseListReference:
    """The 3-row table ``make_inference_trace`` builds directly equals the
    phase list it replaced, with the same draws in the same order."""

    @pytest.mark.parametrize("name", sorted(DJINN_TONIC_PROFILES))
    @pytest.mark.parametrize("batch_size, tf_managed", [(1, False), (32, False), (8, True)])
    def test_bit_identical(self, name, batch_size, tf_managed):
        ref_rng = np.random.default_rng(11)
        p = DJINN_TONIC_PROFILES[name]
        mem = inference_memory_mb(name, batch_size)
        latency = float(p.base_latency_ms * (0.35 + 0.65 * np.sqrt(batch_size)) * ref_rng.uniform(0.9, 1.1))
        phases = (
            Phase(max(latency * 0.25, 0.5), ResourceDemand(0.05, p.base_mem_mb, 20.0, 3500.0)),
            Phase(max(latency * 0.65, 0.5),
                  ResourceDemand(min(p.sm_demand * ref_rng.uniform(0.9, 1.1), 1.0), mem, 30.0, 50.0)),
            Phase(max(latency * 0.10, 0.2), ResourceDemand(0.03, p.base_mem_mb * 0.8, 600.0, 10.0)),
        )
        rng = np.random.default_rng(11)
        trace = make_inference_trace(name, rng, batch_size=batch_size, tf_managed=tf_managed)
        assert rng.uniform() == ref_rng.uniform()
        assert trace.phases == phases
        assert trace.total_ms == float(np.cumsum([ph.duration_ms for ph in phases])[-1])
        assert trace.requested_mem_mb == (
            tf_managed_memory_mb() if tf_managed else min(mem * 1.2, DEVICE_MEM_MB)
        )
