"""Tests for the benchmark's own judging and tracing code.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.tracing import LayerStats, SpanRecorder, wrap  # noqa: E402

REQUIRED = {"setup_s": "s", "pods_per_s": "pods/s", "peak_rss_mb": "MB"}


def _stdout(metrics: dict, correct: bool = True, failed: int = 0, extra: dict | None = None) -> str:
    lines = []
    if extra is not None:
        lines.append(run.EXTRA_PREFIX + json.dumps(extra))
    lines.append(json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }))
    return "\n".join(lines) + "\n"


def test_complete_run_passes():
    out = _stdout({"setup_s": 0.5, "pods_per_s": 100.0, "peak_rss_mb": 80.0})
    result, _, problems = run.parse_run(0, out, REQUIRED, {})
    assert problems == []
    assert result["metrics"]["pods_per_s"]["value"] == 100.0


def test_crashed_workload_is_a_failure():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print('partial'); sys.exit(3)"],
        capture_output=True, text=True, timeout=60,
    )
    result, _, problems = run.parse_run(proc.returncode, proc.stdout, REQUIRED, {})
    assert result is None
    assert problems == ["no result (exit code 3)"]


def test_missing_metric_is_a_failure():
    out = _stdout({"setup_s": 0.5, "peak_rss_mb": 80.0})
    _, _, problems = run.parse_run(0, out, REQUIRED, {})
    assert problems == ["missing metric pods_per_s"]


def test_non_finite_metric_is_a_failure():
    out = _stdout({"setup_s": 0.5, "pods_per_s": float("nan"), "peak_rss_mb": 80.0})
    _, _, problems = run.parse_run(0, out, REQUIRED, {})
    assert problems == ["missing metric pods_per_s"]


def test_missing_workload_output_is_a_failure():
    extra = {"http_p50_ms": {"value": 2.0, "unit": "ms"}}
    out = _stdout({"setup_s": 0.5, "pods_per_s": 100.0, "peak_rss_mb": 80.0}, extra=extra)
    _, _, problems = run.parse_run(0, out, REQUIRED, {"http_p50_ms": "ms", "http_p99_ms": "ms"})
    assert problems == ["missing output http_p99_ms"]


def test_failed_check_is_a_failure_even_with_exit_zero():
    out = _stdout({"setup_s": 0.5, "pods_per_s": 100.0, "peak_rss_mb": 80.0}, correct=False, failed=3)
    _, _, problems = run.parse_run(0, out, REQUIRED, {})
    assert problems == ["check failed: 3 of 10 failed"]


def test_digest_mismatch_fails_the_whole_subrun():
    def outcome(digest: str, failed: int = 0) -> SimpleNamespace:
        return SimpleNamespace(digest=digest, attempted=50, failed=failed)

    rounds = [[outcome("a"), outcome("b")], [outcome("a"), outcome("c")]]
    assert run.check(rounds) == (200, 50)
    assert run.check([[outcome("a", failed=2)], [outcome("a", failed=2)]]) == (100, 4)


def test_benchmark_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weak-1024", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    ticks = iter(range(0, 1_000_000, 1_000))
    rec = SpanRecorder(clock=lambda: next(ticks))

    class Layer:
        def inner(self) -> None:
            pass

        def outer(self) -> None:
            self.inner()
            self.inner()

    obj = Layer()
    wrap(rec, obj, "inner", "inner")
    wrap(rec, obj, "outer", "outer")
    obj.outer()
    stats = LayerStats(rec)
    assert rec.parent.tolist() == [-1, 0, 0]
    assert stats.calls("inner") == 2
    # outer spans 5 clock reads (5 us); its two children cover 2 us.
    assert stats.self_ms("outer") == 3_000 / 1e6
    assert stats.self_ms("inner") == 2_000 / 1e6
