"""Tests for the online per-image profile store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiles import PROFILE_SERIES_POINTS, ImageProfile, ProfileStore
from tests.conftest import make_trace


class TestImageProfile:
    def test_update_accumulates(self):
        profile = ImageProfile("img")
        trace = make_trace(mem_mb=1_000, peak_mem_mb=4_000)
        profile.update(trace.sample_series(5.0), runtime_ms=trace.total_ms)
        assert profile.observations == 1
        assert profile.mem_series.shape == (PROFILE_SERIES_POINTS,)
        assert profile.peak_mem_mb() == pytest.approx(4_000)
        assert profile.mean_runtime_ms == pytest.approx(trace.total_ms)

    def test_running_mean_of_series(self):
        profile = ImageProfile("img")
        lo = make_trace(mem_mb=1_000, peak_mem_mb=1_000)
        hi = make_trace(mem_mb=3_000, peak_mem_mb=3_000)
        profile.update(lo.sample_series(5.0), runtime_ms=100)
        profile.update(hi.sample_series(5.0), runtime_ms=100)
        assert profile.mem_series.mean() == pytest.approx(2_000, rel=0.01)

    def test_percentile_pools_samples(self):
        profile = ImageProfile("img")
        trace = make_trace(mem_mb=1_000, peak_mem_mb=8_000)  # peak 10 % of time
        profile.update(trace.sample_series(1.0), runtime_ms=trace.total_ms)
        assert profile.mem_percentile(80) == pytest.approx(1_000)
        assert profile.mem_percentile(99) > 6_000

    def test_no_observations_raises(self):
        with pytest.raises(ValueError):
            ImageProfile("img").peak_mem_mb()

    def test_sample_history_bounded(self):
        profile = ImageProfile("img")
        trace = make_trace()
        for _ in range(40):
            profile.update(trace.sample_series(10.0), runtime_ms=1.0)
        assert len(profile._mem_samples) <= 32
        assert profile.observations == 40

    def test_cached_stats_equal_fresh_recomputation(self):
        """Over 40 updates (crossing the 32-sample eviction), every cached
        accessor equals the statistic recomputed from scratch, and the
        cache refreshes after each update."""
        profile = ImageProfile("img")
        rng = np.random.default_rng(7)
        previous = None
        for k in range(40):
            trace = make_trace(
                duration_ms=float(rng.integers(50, 400)),
                sm=float(rng.uniform(0.05, 0.6)),
                mem_mb=float(rng.uniform(500, 4_000)),
                peak_mem_mb=4_000.0 + 100.0 * k,     # a new peak each run
            )
            profile.update(trace.sample_series(5.0), runtime_ms=trace.total_ms)
            pooled = np.concatenate(profile._mem_samples)
            fresh = {
                "sm_p75": float(np.percentile(profile.sm_series, 75)),
                "sm_max": float(profile.sm_series.max()),
                "peak_mem_mb": float(max(s.max() for s in profile._mem_samples)),
                "mem_p80": float(np.percentile(pooled, 80)),
                "mem_p50": float(np.percentile(pooled, 50)),
                "mean_mem_mb": float(pooled.mean()),
            }
            for _ in range(2):          # the second read is served by the cache
                cached = {
                    "sm_p75": profile.sm_p75(),
                    "sm_max": profile.sm_max(),
                    "peak_mem_mb": profile.peak_mem_mb(),
                    "mem_p80": profile.mem_percentile(80),
                    "mem_p50": profile.mem_percentile(50),
                    "mean_mem_mb": profile.mean_mem_mb(),
                }
                assert cached == fresh, k
            if previous is not None:
                # Each run moves these, so a stale cache could not pass
                # the equality above.
                for key in ("sm_p75", "sm_max", "peak_mem_mb", "mean_mem_mb"):
                    assert cached[key] != previous[key], (k, key)
            previous = cached
        assert len(profile._mem_samples) == 32

    def test_cached_stats_raise_without_observations(self):
        profile = ImageProfile("img")
        for read in (profile.peak_mem_mb, profile.mean_mem_mb, lambda: profile.mem_percentile(80)):
            with pytest.raises(ValueError):
                read()


class TestProfileStore:
    def test_record_creates_profile(self):
        store = ProfileStore()
        store.record_trace("img/a", make_trace())
        assert "img/a" in store
        assert store.get("img/a").observations == 1
        assert store.images() == ["img/a"]

    def test_provision_unknown_image_uses_request(self):
        store = ProfileStore()
        assert store.provision_mb("ghost", 5_000) == 5_000

    def test_provision_known_image_uses_percentile(self):
        store = ProfileStore()
        store.record_trace("img", make_trace(mem_mb=1_000, peak_mem_mb=8_000))
        alloc = store.provision_mb("img", requested_mb=10_000, percentile=80)
        assert alloc == pytest.approx(1_000, rel=0.05)

    def test_provision_never_exceeds_request(self):
        """Harvesting only shrinks reservations."""
        store = ProfileStore()
        store.record_trace("img", make_trace(mem_mb=4_000, peak_mem_mb=4_000))
        assert store.provision_mb("img", requested_mb=500) == 500

    def test_correlation_series_none_for_unknown(self):
        assert ProfileStore().correlation_series("ghost") is None

    def test_correlation_series_fixed_length(self):
        store = ProfileStore()
        store.record_trace("img", make_trace(duration_ms=333.0))
        series = store.correlation_series("img")
        assert series.shape == (PROFILE_SERIES_POINTS,)

    def test_correlation_ranks_none_for_unknown(self):
        assert ProfileStore().correlation_ranks("ghost") is None

    def test_correlation_ranks_cached_per_observation_count(self):
        store = ProfileStore()
        store.record_trace("img", make_trace(mem_mb=1_000, peak_mem_mb=4_000))
        ranks1, _ = store.correlation_ranks("img")
        ranks2, _ = store.correlation_ranks("img")
        assert ranks2 is ranks1                   # same cached vector
        assert not ranks1.flags.writeable         # shared -> immutable

        store.record_trace("img", make_trace(mem_mb=3_000, peak_mem_mb=3_000))
        ranks3, _ = store.correlation_ranks("img")
        assert ranks3 is not ranks1               # new observation invalidates

    def test_version_tracks_observations(self):
        store = ProfileStore()
        assert store.version("ghost") == 0
        store.record_trace("img", make_trace())
        assert store.version("img") == 1
        store.record_trace("img", make_trace())
        assert store.version("img") == 2
