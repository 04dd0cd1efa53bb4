#!/usr/bin/env python3
"""Kube-Knots repository benchmark.

One workload, one process::

    python3 perfbench/run.py --workload weak-1024 --seed 1 --seconds 10 --trace 0

repeats the workload's rounds (see ``workloads.py``) until ``--seconds``
of measuring have passed, checks every sub-run's outputs, and prints as
its last stdout line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics
declared in ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer table, including the tracing
overhead, and writes the spans to ``perfbench/out/``.  The line before
the result carries the workload-specific outputs (modelled QoS, GPU
utilization, energy; HTTP and decision latency for ``serve-32``).

Every workload, each in its own process::

    python3 perfbench/run.py --all --seed 1 --seconds 10

prints every metric with its unit and exits non-zero if a workload
crashed, failed a check, or left a named metric out.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A run starts no new round once this much of its 180 s allowance
#: would be exceeded.
BUDGET_S = 150.0
EXTRA_PREFIX = "perfbench-extra "

#: Workload-specific outputs (not gated, printed on the extra line), by
#: workload kind, with their units.
EXTRA_UNITS = {
    "sim": {
        "qos_viol_per_k": "per_1k_LC_pods",
        "gpu_util_pct": "%",
        "energy_kj": "kJ",
    },
    "serve": {
        "qos_viol_per_k": "per_1k_LC_pods",
        "http_p50_ms": "ms",
        "http_p99_ms": "ms",
        "decide_p50_ms": "ms",
        "decide_p99_ms": "ms",
        "requests": "count",
    },
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def missing_metrics(metrics: dict, required: dict[str, str]) -> list[str]:
    """Names in ``required`` absent from ``metrics`` or not a finite number."""
    missing = []
    for name in required:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else entry
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            missing.append(name)
    return missing


def parse_run(returncode: int, stdout: str, required: dict[str, str], extras: dict[str, str]):
    """Judge one workload process: ``(result, extra, problems)``.

    A crash, an unparsable last line, a failed check or a missing named
    metric is a problem, never a pass.
    """
    lines = stdout.strip().splitlines()
    problems: list[str] = []
    result = extra = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return None, None, [f"no result (exit code {returncode})"]
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"check failed: {result.get('failed')} of {result.get('attempted')} failed")
    problems += [f"missing metric {m}" for m in missing_metrics(result["metrics"], required)]
    for line in lines[:-1]:
        if line.startswith(EXTRA_PREFIX):
            extra = json.loads(line[len(EXTRA_PREFIX):])
    problems += [f"missing output {m}" for m in missing_metrics(extra or {}, extras)]
    return result, extra, problems


# -- one workload ------------------------------------------------------------


def _per_subrun_median(rounds: list, attr: str) -> float:
    """Sum over sub-runs of each sub-run's median ``attr`` across rounds:
    a spike in one round's measurement of one input is filtered out."""
    return sum(
        statistics.median(getattr(r[i], attr) for r in rounds) for i in range(len(rounds[0]))
    )


def _rate(rounds: list) -> float:
    return sum(o.pods for o in rounds[0]) / _per_subrun_median(rounds, "run_s")


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run rounds until ``seconds`` have passed; returns the untraced
    rounds, the traced rounds and the span recorder (or ``None``)."""
    from perfbench.tracing import SpanRecorder

    subs = [seed * 1_000 + i for i in range(workload.subruns)]
    rec = SpanRecorder() if trace else None
    plain: list[list] = []
    traced: list[list] = []
    start = time.perf_counter()
    while True:
        plain.append([workload.execute(s) for s in subs])
        if rec is not None:
            traced.append([workload.execute(s, rec) for s in subs])
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed * (len(plain) + 1) / len(plain) > BUDGET_S:
            return plain, traced, rec


def check(rounds: list) -> tuple[int, int]:
    """``(attempted, failed)`` over every sub-run.  A sub-run whose
    output digest differs from the first run of the same input fails as
    a whole (nondeterminism)."""
    attempted = failed = 0
    first = [o.digest for o in rounds[0]]
    for r in rounds:
        for i, o in enumerate(r):
            attempted += o.attempted
            failed += o.attempted if o.digest != first[i] else o.failed
    return attempted, failed


def end_to_end(plain: list) -> dict[str, float]:
    return {
        "setup_s": _per_subrun_median(plain, "setup_s"),
        "pods_per_s": _rate(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def extras(plain: list) -> dict[str, float]:
    """Workload outputs: modelled values (identical across rounds when
    the run is deterministic) and latencies, as medians across rounds;
    HTTP percentiles over every request of every round."""
    out = {
        k: statistics.median(statistics.fmean(o.modelled[k] for o in r) for r in plain)
        for k in plain[0][0].modelled
    }
    pooled = [x for r in plain for o in r for x in o.latency_ms]
    if pooled:
        out["http_p50_ms"] = float(np.percentile(pooled, 50))
        out["http_p99_ms"] = float(np.percentile(pooled, 99))
        out["requests"] = float(len(pooled))
    return out


def per_layer(plain: list, traced: list, rec) -> dict[str, float]:
    from perfbench.tracing import LayerStats

    st = LayerStats(rec)
    n = len(traced)
    c: dict[str, float] = {}
    for o in traced[0]:
        for k, v in o.counts.items():
            c[k] = c.get(k, 0) + v
    ticks = st.calls("kube.tick") / n
    sched_calls = st.calls("core.schedule") / n
    out = {
        "core.schedule.self_ms": st.self_ms("core.schedule") / n,
        "core.schedule.p50_us": st.pct_us("core.schedule", 50),
        "core.schedule.p99_us": st.pct_us("core.schedule", 99),
        "core.schedule.pending_mean": c["pending"] / sched_calls if sched_calls else 0.0,
        "core.schedule.binds": c["binds"],
        "core.schedule.bind_ratio": c["binds"] / c["pending"] if c["pending"] else 0.0,
        "core.schedule.resizes": c["resizes"],
        "core.context.self_ms": st.self_ms("core.context") / n,
        "core.pass.calls": st.calls("core.pass") / n,
        "core.pass.self_ms": st.self_ms("core.pass") / n,
        "kube.tick.calls": ticks,
        "kube.tick.self_ms": st.self_ms("kube.tick") / n,
        "kube.tick.p50_us": st.pct_us("kube.tick", 50),
        "kube.tick.p99_us": st.pct_us("kube.tick", 99),
        "cluster.quantum.fast_ticks": c["fast_ticks"],
        "cluster.quantum.fallbacks": c["fallbacks"],
        "cluster.quantum.fast_share": c["fast_ticks"] / ticks if ticks else 0.0,
        "telemetry.heartbeat.calls": st.calls("telemetry.heartbeat") / n,
        "telemetry.heartbeat.self_ms": st.self_ms("telemetry.heartbeat") / n,
        "telemetry.heartbeat.p99_us": st.pct_us("telemetry.heartbeat", 99),
        "sim.result.self_ms": st.self_ms("sim.result") / n,
        "sim.result.samples": c.get("samples", 0),
        "sim.engine.events": c["events"],
        "sim.engine.self_ms": st.self_ms("sim.engine") / n,
        "sim.ff.spans": c.get("ff_spans", 0),
        "sim.ff.ticks_skipped": c.get("ticks_skipped", 0),
        "serve.frontdoor.self_ms": st.self_ms("serve.frontdoor") / n,
        "serve.frontdoor.p50_us": st.pct_us("serve.frontdoor", 50),
        "serve.frontdoor.p99_us": st.pct_us("serve.frontdoor", 99),
        "serve.spec_from_json.self_ms": st.self_ms("serve.spec_from_json") / n,
        "serve.submit_spec.self_ms": st.self_ms("serve.submit_spec") / n,
        "serve.queue.depth_max": c.get("queue_depth_max", 0),
        "serve.rejected": c.get("rejected", 0),
        "scenario.capacity.events": st.calls("scenario.capacity") / n,
        "scenario.capacity.self_ms": st.self_ms("scenario.capacity") / n,
        "scenario.gang.pods": c.get("gang_pods", 0),
        "kube.api.evictions": c["evictions"],
        "kube.api.oom_kills": c["oom_kills"],
        "workloads.generate_ms": 1e3 * _per_subrun_median(plain + traced, "gen_s"),
        "setup.build_ms": 1e3 * _per_subrun_median(plain + traced, "build_s"),
        "trace.spans": len(rec) / n,
        "trace.overhead_pct": 100.0 * (_rate(plain) / _rate(traced) - 1.0),
    }
    return {k: float(v) for k, v in out.items()}


def run_one(args: argparse.Namespace, workload) -> int:
    spec = load_spec()
    trace = bool(args.trace)
    plain, traced, rec = measure(workload, args.seed, args.seconds, trace)
    attempted, failed = check(plain + traced)
    units = metric_units(spec, trace)
    values = per_layer(plain, traced, rec) if trace else end_to_end(plain)
    extra_units = EXTRA_UNITS[workload.kind]
    extra = {k: {"value": v, "unit": extra_units[k]} for k, v in extras(plain).items()}
    if rec is not None:
        rec.dump(
            ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{args.seed}.json",
            {"workload": workload.name, "seed": args.seed, "traced_rounds": len(traced)},
        )
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    missing = missing_metrics(metrics, units) + missing_metrics(extra, extra_units)
    for name in missing:
        print(f"perfbench: metric {name} missing from {workload.name}", file=sys.stderr)
    correct = failed == 0 and not missing
    for k, m in {**metrics, **extra}.items():
        print(f"{workload.name:10s} {k:32s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(f"{workload.name:10s} rounds untraced={len(plain)} traced={len(traced)} "
          f"digest={plain[0][0].digest[:16]}", file=sys.stderr)
    print(EXTRA_PREFIX + json.dumps(extra))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


# -- every workload ----------------------------------------------------------


def run_all(args: argparse.Namespace, workloads: dict) -> int:
    spec = load_spec()
    bad = 0
    for trace in (0, 1) if args.trace else (0,):
        required = metric_units(spec, bool(trace))
        for name, workload in workloads.items():
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            result, extra, problems = parse_run(
                proc.returncode, proc.stdout, required,
                EXTRA_UNITS[workload.kind] if trace == 0 else {},
            )
            if result is not None:
                for k, m in {**result["metrics"], **(extra or {})}.items():
                    print(f"{name:10s} {k:32s} {m['value']:14.4f} {m['unit']}")
            for p in problems:
                print(f"{name:10s} FAILED: {p}")
            if problems:
                sys.stderr.write(proc.stderr[-2000:])
                bad += 1
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    return run_all(args, WORKLOADS) if args.all else run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
