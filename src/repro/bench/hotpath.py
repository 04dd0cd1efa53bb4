"""Hot-path micro/meso benchmarks for the Kube-Knots reproduction.

Every scheduling decision flows through the same heartbeat loop:
Algorithm 1 queries five metric windows per device, CBP runs Spearman
against every resident, PP re-fits AR(1) per device.  These benchmarks
measure exactly those inner loops, at the 32-node x 8-GPU scale the
acceptance numbers are quoted at:

* ``tsdb_window_query`` — the five-second sliding-window query, new
  in-ring binary-search path vs. the legacy copy-then-slice path (which
  materialized the whole ring per query and is retained as
  ``_RingSeries.ordered()``).
* ``correlation_matrix`` — all-pairs Spearman over one profile series
  per device, vectorized rank-matrix multiply vs. the pairwise loop.
* ``ar1_heartbeat_fit`` — PP's per-heartbeat Eq. 3 fit over a sliding
  window, incremental sufficient statistics vs. the batch fit.
* ``cbp_pass`` / ``pp_pass`` — one full scheduler pass inside a real
  simulation (scheduler time only, measured around ``schedule()``).
* ``simulate_e2e`` — the same simulation wall-clock end to end.

The module lives outside the sim-critical packages on purpose: it reads
the host clock (``time.perf_counter``), which KK001 bans everywhere the
simulators live.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable

import numpy as np

from repro.forecast.arima import Ar1Cache, fit_ar1
from repro.forecast.correlation import correlation_matrix, correlation_matrix_pairwise
from repro.telemetry.tsdb import SeriesWindow, TimeSeriesDB

__all__ = ["run_benchmarks", "check_regression", "GATED_BENCHMARKS"]

#: Benchmarks whose regression CI fails on, and the field that is gated.
#: The scheduler-pass benchmarks gate against ``BENCH_hotpath.json``;
#: the simulator-loop benchmarks (:mod:`repro.bench.simloop`) gate
#: against ``BENCH_simloop.json`` — :func:`check_regression` gates
#: exactly the benchmarks a baseline file contains, and fails when one
#: of them is missing from the current run.
GATED_BENCHMARKS = {
    "cbp_pass": "ms_per_pass",
    "pp_pass": "ms_per_pass",
    "sim_dense": "ms_run",
    "sim_sparse": "ms_run",
    "dlsim_loop": "ms_run",
    # Gated on the warm-cache read path (``BENCH_sweep.json``): stable
    # across runner core counts, unlike the parallel speedup, which is
    # recorded for information alongside ``host_cpus``.
    "sweep_parallel": "ms_warm",
    # Gated per submission (``BENCH_serve.json``): stable across the
    # benchmark's window length, unlike total wall.
    "serve_loop": "ms_per_submission",
    # Gated against ``BENCH_clusterscale.json``: the scheduling pass and
    # the dense end-to-end run at the 1024x8 scale.
    "cluster_scale_pass": "ms_per_pass",
    "cluster_scale_dense": "ms_run",
    # Gated against ``BENCH_scenario.json``: the 256-node diurnal run
    # and the gang-aware scheduling pass.
    "scenario_diurnal": "ms_run",
    "scenario_gang_pass": "ms_per_pass",
    # Gated against ``BENCH_quantum.json``: the vectorized dense
    # kubelet tick at the 1024x8 scale.
    "quantum_tick": "ms_per_tick",
}

#: The scale the acceptance numbers are quoted at.
NODES, GPUS_PER_NODE, METRICS_PER_GPU = 32, 8, 5

#: Simulated telemetry cadence (matches KnotsConfig defaults).
HEARTBEAT_S, WINDOW_S = 0.01, 5.0


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds of ``repeats`` calls (min filters noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- TSDB windowed query ----------------------------------------------------


def _legacy_query(db: TimeSeriesDB, metric: str, since: float, until: float) -> SeriesWindow:
    """The pre-optimization query: materialize the ring, then slice."""
    series = db._series.get(metric)
    if series is None:
        empty = np.empty(0)
        return SeriesWindow(empty, empty)
    times, values = series.ordered()
    lo = int(np.searchsorted(times, since, side="left"))
    hi = int(np.searchsorted(times, until, side="right"))
    return SeriesWindow(times[lo:hi], values[lo:hi])


def bench_tsdb_query(quick: bool) -> dict:
    """One scheduling pass's worth of windowed queries (1280 at 32x8x5).

    The store is one node's TSDB (8 GPUs x 5 metrics) filled to
    realistic depth; the query mix cycles every series at advancing
    ``now`` values, so the one-entry per-series cache cannot serve
    repeats — this measures the in-ring search itself.
    """
    # Rings are written past capacity: a wrapped ring is the steady
    # state of any long simulation, and exactly where the legacy path's
    # O(ring-capacity) materialization hurt (the default capacity is
    # 65,536 slots; every query paid for all of them).
    capacity = 8_192 if quick else 65_536
    points = int(capacity * 1.25)
    n_queries = NODES * GPUS_PER_NODE * METRICS_PER_GPU
    db = TimeSeriesDB(capacity=capacity)
    metrics = [
        f"gpu{g}.m{m}" for g in range(GPUS_PER_NODE) for m in range(METRICS_PER_GPU)
    ]
    for metric in metrics:
        for i in range(points):
            db.write(metric, i * HEARTBEAT_S, (i % 97) / 97.0)
    t_end = (points - 1) * HEARTBEAT_S
    t_oldest = (points - capacity) * HEARTBEAT_S       # oldest surviving point
    nows = np.linspace(t_oldest + WINDOW_S, t_end, n_queries)

    def run_new() -> None:
        for i, now in enumerate(nows):
            db.last_window(metrics[i % len(metrics)], WINDOW_S, float(now))

    def run_old() -> None:
        for i, now in enumerate(nows):
            _legacy_query(db, metrics[i % len(metrics)], float(now) - WINDOW_S, float(now))

    repeats = 3 if quick else 5
    before = _best_of(run_old, repeats)
    after = _best_of(run_new, repeats)
    return {
        "queries": n_queries,
        "ring_capacity": capacity,
        "points_per_series": points,
        "window_points": int(WINDOW_S / HEARTBEAT_S),
        "before_us_per_query": before / n_queries * 1e6,
        "after_us_per_query": after / n_queries * 1e6,
        "speedup": before / after,
    }


# -- correlation matrix -----------------------------------------------------


def bench_correlation_matrix(quick: bool) -> dict:
    """All-pairs Spearman over one 64-point profile per device (32x8)."""
    from repro.core.profiles import PROFILE_SERIES_POINTS

    n_series = NODES * GPUS_PER_NODE
    rng = np.random.default_rng(7)
    series = {
        f"gpu{i:03d}": rng.random(PROFILE_SERIES_POINTS) for i in range(n_series)
    }
    # A few tied/constant series keep the tie-handling path honest.
    series["gpu000"] = np.round(series["gpu000"], 1)
    series["gpu001"] = np.zeros(PROFILE_SERIES_POINTS)

    before = _best_of(lambda: correlation_matrix_pairwise(series), 1 if quick else 2)
    after = _best_of(lambda: correlation_matrix(series), 3 if quick else 5)
    return {
        "series": n_series,
        "points": PROFILE_SERIES_POINTS,
        "before_ms": before * 1e3,
        "after_ms": after * 1e3,
        "speedup": before / after,
    }


# -- incremental AR(1) ------------------------------------------------------


def bench_ar1(quick: bool) -> dict:
    """PP's per-heartbeat AR(1) re-fit over a sliding window."""
    window_pts = int(WINDOW_S / HEARTBEAT_S)          # 500, as in the paper setup
    steps = 500 if quick else 2_000
    rng = np.random.default_rng(11)
    n_total = window_pts + steps
    values = np.clip(
        0.5 + 0.3 * np.sin(np.arange(n_total) * 0.05) + rng.normal(0, 0.05, n_total),
        0.0, 1.0,
    )
    times = np.arange(n_total) * HEARTBEAT_S

    def run_batch() -> None:
        for i in range(steps):
            fit_ar1(values[i : i + window_pts])

    def run_incremental() -> None:
        cache = Ar1Cache()
        for i in range(steps):
            cache.fit("gpu", times[i : i + window_pts], values[i : i + window_pts])

    repeats = 2 if quick else 3
    before = _best_of(run_batch, repeats)
    after = _best_of(run_incremental, repeats)
    return {
        "window_points": window_pts,
        "heartbeats": steps,
        "before_us_per_fit": before / steps * 1e6,
        "after_us_per_fit": after / steps * 1e6,
        "speedup": before / after,
    }


# -- scheduler passes and end-to-end simulation -----------------------------


def _timed_simulate(scheduler_name: str, quick: bool) -> tuple[dict, float]:
    """Run one app-mix simulation, timing scheduler passes separately.

    Returns (pass stats, end-to-end seconds).  The scheduler's
    ``schedule`` is wrapped on the instance so the measurement covers
    exactly Algorithm 1's decision loop — telemetry queries, CBP's
    correlation gate, PP's forecasts — and none of the event-loop
    bookkeeping around it.
    """
    from repro.core.schedulers import make_scheduler
    from repro.sim.simulator import run_appmix

    scheduler = make_scheduler(scheduler_name)
    inner = scheduler.schedule
    stats = {"calls": 0, "seconds": 0.0}

    def timed_schedule(ctx):
        t0 = time.perf_counter()
        actions = inner(ctx)
        stats["seconds"] += time.perf_counter() - t0
        stats["calls"] += 1
        return actions

    scheduler.schedule = timed_schedule  # type: ignore[method-assign]
    # The pass benchmarks are the CI regression gate, so they run at the
    # same scale in quick and full mode — the committed full-mode
    # baseline must be directly comparable to the CI quick run.
    del quick
    t0 = time.perf_counter()
    run_appmix("app-mix-1", scheduler, duration_s=8.0, seed=1, num_nodes=8)
    e2e = time.perf_counter() - t0
    return stats, e2e


def bench_scheduler_pass(scheduler_name: str, quick: bool) -> tuple[dict, float]:
    stats, e2e = _timed_simulate(scheduler_name, quick)
    passes = max(stats["calls"], 1)
    return (
        {
            "scheduler": scheduler_name,
            "passes": stats["calls"],
            "ms_per_pass": stats["seconds"] / passes * 1e3,
            "total_ms": stats["seconds"] * 1e3,
        },
        e2e,
    )


# -- harness ---------------------------------------------------------------


def run_benchmarks(quick: bool = False, only: list[str] | None = None) -> dict:
    """Run the hot-path suite; returns the ``BENCH_hotpath.json`` payload."""
    from repro.bench.simloop import (
        SIMLOOP_BENCHMARKS,
        bench_dlsim_loop,
        bench_sim_dense,
        bench_sim_sparse,
    )
    from repro.bench.clusterscale import (
        CLUSTERSCALE_BENCHMARKS,
        bench_cluster_scale_dense,
        bench_cluster_scale_pass,
    )
    from repro.bench.scenario import (
        SCENARIO_BENCHMARKS,
        bench_scenario_diurnal,
        bench_scenario_gang_pass,
    )
    from repro.bench.quantum import QUANTUM_BENCHMARKS, bench_quantum_tick
    from repro.bench.serve import SERVE_BENCHMARKS, bench_serve_loop
    from repro.bench.sweep import SWEEP_BENCHMARKS, bench_sweep_parallel

    all_benches = ("tsdb_window_query", "correlation_matrix", "ar1_heartbeat_fit",
                   "cbp_pass", "pp_pass", "simulate_e2e") \
        + SIMLOOP_BENCHMARKS + SWEEP_BENCHMARKS + SERVE_BENCHMARKS \
        + CLUSTERSCALE_BENCHMARKS + SCENARIO_BENCHMARKS + QUANTUM_BENCHMARKS
    selected = set(only) if only else set(all_benches)
    unknown = selected - set(all_benches)
    if unknown:
        raise ValueError(f"unknown benchmarks: {sorted(unknown)}; known: {list(all_benches)}")

    results: dict[str, dict] = {}
    if "tsdb_window_query" in selected:
        results["tsdb_window_query"] = bench_tsdb_query(quick)
    if "correlation_matrix" in selected:
        results["correlation_matrix"] = bench_correlation_matrix(quick)
    if "ar1_heartbeat_fit" in selected:
        results["ar1_heartbeat_fit"] = bench_ar1(quick)
    if "cbp_pass" in selected:
        results["cbp_pass"], _ = bench_scheduler_pass("cbp", quick)
    if "pp_pass" in selected or "simulate_e2e" in selected:
        pp, e2e = bench_scheduler_pass("peak-prediction", quick)
        if "pp_pass" in selected:
            results["pp_pass"] = pp
        if "simulate_e2e" in selected:
            results["simulate_e2e"] = {
                "scheduler": "peak-prediction",
                "ms": e2e * 1e3,
                "quick": quick,
            }
    if "sim_dense" in selected:
        results["sim_dense"] = bench_sim_dense(quick)
    if "sim_sparse" in selected:
        results["sim_sparse"] = bench_sim_sparse(quick)
    if "dlsim_loop" in selected:
        results["dlsim_loop"] = bench_dlsim_loop(quick)
    if "sweep_parallel" in selected:
        results["sweep_parallel"] = bench_sweep_parallel(quick)
    if "serve_loop" in selected:
        results["serve_loop"] = bench_serve_loop(quick)
    if "cluster_scale_pass" in selected:
        results["cluster_scale_pass"] = bench_cluster_scale_pass(quick)
    if "cluster_scale_dense" in selected:
        results["cluster_scale_dense"] = bench_cluster_scale_dense(quick)
    if "scenario_diurnal" in selected:
        results["scenario_diurnal"] = bench_scenario_diurnal(quick)
    if "scenario_gang_pass" in selected:
        results["scenario_gang_pass"] = bench_scenario_gang_pass(quick)
    if "quantum_tick" in selected:
        results["quantum_tick"] = bench_quantum_tick(quick)
    return {
        "schema": "kube-knots/bench-hotpath/v1",
        "mode": "quick" if quick else "full",
        "scale": {"nodes": NODES, "gpus_per_node": GPUS_PER_NODE,
                  "metrics_per_gpu": METRICS_PER_GPU},
        "python": platform.python_version(),
        "benchmarks": results,
    }


def check_regression(current: dict, baseline: dict, max_ratio: float) -> list[str]:
    """Compare gated benchmarks against a committed baseline.

    Returns a list of human-readable failures (empty means the gate
    passes).  Only the scheduler-pass benchmarks are gated — the
    micro-benchmarks' before/after ratios are informational, and
    absolute micro timings are too host-dependent to gate on; the pass
    benchmarks are gated at a deliberately loose ``max_ratio`` (2x by
    default) so only an algorithmic regression, not runner noise,
    trips CI.  The gate fails closed: a gated benchmark the baseline
    records but the current run lacks is a failure, not a pass; one the
    baseline lacks is not gated by that baseline.
    """
    failures: list[str] = []
    for name, field in GATED_BENCHMARKS.items():
        cur = current.get("benchmarks", {}).get(name)
        base = baseline.get("benchmarks", {}).get(name)
        if base is None:
            continue
        if cur is None or field not in cur:
            failures.append(f"{name}.{field} missing from the current run")
            continue
        if base[field] > 0 and cur[field] > max_ratio * base[field]:
            failures.append(
                f"{name}.{field} regressed: {cur[field]:.3f} ms vs baseline "
                f"{base[field]:.3f} ms (> {max_ratio:.1f}x)"
            )
    return failures


def format_report(payload: dict) -> str:
    """ASCII rendition of a benchmark payload."""
    from repro.metrics.report import format_table

    rows = []
    for name, b in payload["benchmarks"].items():
        if "speedup" in b:
            before = b.get("before_ms") or b.get("before_us_per_query") or b.get("before_us_per_fit")
            after = b.get("after_ms") or b.get("after_us_per_query") or b.get("after_us_per_fit")
            unit = "ms" if "before_ms" in b else "us"
            rows.append((name, f"{before:.2f} {unit}", f"{after:.2f} {unit}",
                         f"{b['speedup']:.1f}x"))
        elif "ms_per_tick" in b:
            detail = "  ".join(
                f"{p['nodes']}n:{p['ms_per_tick_vec']:.2f}/{p['ms_per_tick_obj']:.2f}"
                for p in b["sweep"]
            )
            rows.append((name, f"{b['ms_per_tick']:.3f} ms/tick @ {b['nodes']}n",
                         f"vec/obj per scale: {detail}",
                         f"{b['speedup_1024']:.1f}x"))
        elif "sweep" in b:
            detail = "  ".join(
                f"{p['nodes']}n:{p['ms_per_pass']:.2f}" for p in b["sweep"]
            )
            rows.append((name, f"{b['ms_per_pass']:.3f} ms/pass @ {b['nodes']}n",
                         detail, ""))
        elif "ms_per_pass" in b:
            rows.append((name, f"{b['ms_per_pass']:.3f} ms/pass", f"{b['passes']} passes", ""))
        elif "ratio_1024_vs_32" in b:
            rows.append((name, f"{b['ms_run_32']:.0f} ms @ 32n",
                         f"{b['ms_run']:.0f} ms @ 1024n",
                         f"{b['ratio_1024_vs_32']:.1f}x"))
        elif "ms_warm" in b:
            rows.append((name,
                         f"{b['ms_cold_serial']:.0f} ms cold serial",
                         f"{b['ms_cold_parallel']:.0f} ms cold x{b['jobs']} / "
                         f"{b['ms_warm']:.1f} ms warm",
                         f"{b['warm_speedup']:.0f}x warm"))
        elif "ms_per_submission" in b:
            rows.append((name,
                         f"{b['ms_per_submission']:.3f} ms/submission",
                         f"{b['submissions']} pods / {b['sustained_qps']:.0f} qps / "
                         f"p99 {b['p99_decision_sim_ms']:.0f} ms sim",
                         ""))
        else:
            rows.append((name, f"{b['ms']:.0f} ms", "", ""))
    return format_table(
        ["benchmark", "before / value", "after / detail", "speedup"],
        rows,
        title=f"hot-path benchmarks ({payload['mode']}, "
              f"{payload['scale']['nodes']}x{payload['scale']['gpus_per_node']} scale)",
    )


def save_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
