"""Tests for the benchmark regression gate (``repro bench --baseline``)."""

from __future__ import annotations

from repro.bench.hotpath import check_regression


def payload(**entries: float) -> dict:
    return {"benchmarks": {name: {"ms_per_pass": ms} for name, ms in entries.items()}}


class TestCheckRegression:
    def test_within_ratio_passes(self):
        assert check_regression(payload(cbp_pass=1.9), payload(cbp_pass=1.0), 2.0) == []

    def test_over_ratio_fails(self):
        failures = check_regression(payload(cbp_pass=2.1), payload(cbp_pass=1.0), 2.0)
        assert len(failures) == 1 and "cbp_pass.ms_per_pass regressed" in failures[0]

    def test_gated_benchmark_missing_from_current_run_fails(self):
        failures = check_regression(payload(), payload(cbp_pass=1.0, pp_pass=1.0), 2.0)
        assert failures == [
            "cbp_pass.ms_per_pass missing from the current run",
            "pp_pass.ms_per_pass missing from the current run",
        ]

    def test_gated_field_missing_from_current_entry_fails(self):
        current = {"benchmarks": {"cbp_pass": {"ms": 1.0}}}
        failures = check_regression(current, payload(cbp_pass=1.0), 2.0)
        assert failures == ["cbp_pass.ms_per_pass missing from the current run"]

    def test_benchmark_missing_from_baseline_is_not_gated(self):
        assert check_regression(payload(cbp_pass=50.0), payload(), 2.0) == []

    def test_ungated_benchmarks_are_ignored(self):
        current = {"benchmarks": {"tsdb_window_query": {"ms_per_pass": 9.0}}}
        baseline = {"benchmarks": {"tsdb_window_query": {"ms_per_pass": 1.0}}}
        assert check_regression(current, baseline, 2.0) == []
