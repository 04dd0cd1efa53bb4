"""End-to-end observability: a real simulation run feeds all three sinks."""

from __future__ import annotations

import json

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import PeakPredictionScheduler
from repro.obs.context import NOOP, Observability
from repro.sim.engine import EventLoop
from repro.sim.simulator import KubeKnotsSimulator
from repro.workloads.appmix import generate_appmix_workload


def device_walk(cluster) -> dict[str, dict[str, float]]:
    """The traced counters recomputed by a left-to-right walk over the
    device objects (``gpu.last_sample`` and the power/fault flags)."""
    sm = mem = power = 0.0
    n = 0
    for gpu in cluster.gpus():
        s = gpu.last_sample
        sm += s.sm_util
        mem += s.mem_util
        power += (
            s.power_w if s.num_containers or not gpu.asleep
            else gpu.power_model.sleep_watts
        )
        n += 1
    return {
        "cluster_utilization": {"sm_util_mean": sm / n, "mem_util_mean": mem / n},
        "cluster_power_w": {"total": power},
    }


@pytest.fixture(scope="module")
def traced_sim():
    """A traced app-mix run, plus the device walk taken right after
    each accounting record (later passes may still sleep devices)."""
    obs = Observability()
    cluster = make_paper_cluster(num_nodes=3)
    workload = generate_appmix_workload("app-mix-1", duration_s=3.0, seed=2)
    sim = KubeKnotsSimulator(cluster, PeakPredictionScheduler(), workload, obs=obs)
    walks: list[tuple[float, dict]] = []
    record = sim._record

    def record_and_walk(t, dt_ms):
        record(t, dt_ms)
        walks.append((t, device_walk(cluster)))

    sim._record = record_and_walk
    result = sim.run()
    return obs, result, walks


@pytest.fixture(scope="module")
def traced_run(traced_sim):
    obs, result, _ = traced_sim
    return obs, result


class TestTraceFromRun:
    def test_duration_spans_balance(self, traced_run):
        obs, _ = traced_run
        assert obs.tracer.depth == 0
        begins = sum(1 for ev in obs.tracer.events if ev["ph"] == "B")
        ends = sum(1 for ev in obs.tracer.events if ev["ph"] == "E")
        assert begins == ends > 0

    def test_pod_async_spans_close_for_completed_pods(self, traced_run):
        obs, result = traced_run
        opened = {ev["id"] for ev in obs.tracer.events if ev["ph"] == "b"}
        closed = {ev["id"] for ev in obs.tracer.events if ev["ph"] == "e"}
        done = {p.uid for p in result.completed()}
        assert done <= opened
        assert done <= closed

    def test_timestamps_are_monotone_sim_time(self, traced_run):
        obs, result = traced_run
        ts = [ev["ts"] for ev in obs.tracer.events]
        assert ts == sorted(ts)
        assert ts[-1] <= result.makespan_ms

    def test_counter_tracks_present(self, traced_sim):
        obs, _, walks = traced_sim
        counters = [ev for ev in obs.tracer.events if ev["ph"] == "C"]
        names = {ev["name"] for ev in counters}
        assert {"cluster_utilization", "cluster_power_w", "pending_pods"} <= names
        # The values, not just the names: at the final recorded tick the
        # array-summed counters equal the walk over the devices exactly.
        t_last, expected = walks[-1]
        for name, args in expected.items():
            last = [ev for ev in counters if ev["name"] == name][-1]
            assert last["ts"] == t_last
            assert last["args"] == args, name

    def test_chrome_export_loads(self, traced_run, tmp_path):
        obs, _ = traced_run
        path = tmp_path / "run.trace.json"
        n = obs.tracer.to_chrome(path)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == n == len(obs.tracer)
        phases = {ev["ph"] for ev in payload["traceEvents"]}
        assert phases <= {"B", "E", "i", "b", "e", "C"}


class TestMetricsFromRun:
    def test_core_series_populated(self, traced_run):
        obs, result = traced_run
        m = obs.metrics
        assert m.get("scheduler_passes_total").value() > 0
        assert m.get("knots_heartbeats_total").value() > 0
        assert m.get("pods_completed_total").value() == len(result.completed())
        assert m.get("pods_oom_killed_total").value() == result.oom_kills
        assert m.get("pod_resizes_total").value() == result.resizes
        wait = m.get("pod_queue_wait_ms")
        assert wait.count() == m.get("pods_admitted_total").value()

    def test_prometheus_exposition(self, traced_run):
        obs, _ = traced_run
        text = obs.metrics.render()
        assert "# TYPE scheduler_passes_total counter" in text
        assert "# TYPE pod_queue_wait_ms histogram" in text
        assert 'pod_queue_wait_ms_bucket{le="+Inf"}' in text


class TestObservabilityBundle:
    def test_export_writes_all_requested_sinks(self, traced_run, tmp_path):
        obs, _ = traced_run
        written = obs.export(
            trace_path=tmp_path / "t.json",
            metrics_path=tmp_path / "m.prom",
            audit_path=tmp_path / "a.jsonl",
        )
        assert written["trace_events"] == len(obs.tracer)
        assert written["metrics"] == len(obs.metrics.names())
        assert written["audit_records"] == len(obs.audit)
        assert (tmp_path / "m.prom").read_text() == obs.metrics.render()

    def test_partial_export(self, traced_run, tmp_path):
        obs, _ = traced_run
        written = obs.export(metrics_path=tmp_path / "only.prom")
        assert set(written) == {"metrics"}

    def test_noop_bundle_is_disabled(self):
        assert NOOP.enabled is False
        assert NOOP.tracer.enabled is False
        assert NOOP.metrics.enabled is False
        assert NOOP.audit.enabled is False

    def test_selectively_disabled_sinks(self):
        obs = Observability(trace=False, metrics=True, audit=False)
        assert obs.enabled
        assert not obs.tracer.enabled
        assert obs.metrics.enabled
        assert not obs.audit.enabled


class TestEngineInstrumentation:
    def test_fired_events_counted_and_traced(self):
        obs = Observability()
        loop = EventLoop(obs=obs)
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run()
        assert obs.metrics.get("engine_events_fired_total").value() == 2
        spans = [ev for ev in obs.tracer.events if ev["ph"] in ("B", "E")]
        assert len(spans) == 4
        assert obs.clock.now == 2.0

    def test_disabled_obs_leaves_no_trace(self):
        loop = EventLoop()        # defaults to NOOP
        loop.schedule(1.0, lambda: None)
        loop.run()
        assert len(NOOP.tracer) == 0
        assert NOOP.metrics.render() == ""
