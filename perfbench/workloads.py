"""The benchmark's four workloads: inputs, one timed execution, checks.

Every workload is a fixed list of *sub-runs* derived from the seed.  One
pass over the list is a *round*; ``run.py`` repeats rounds
to fill its measuring window.  Each sub-run is set up (timed apart: the
workload is generated, then the cluster/service built), executed, and
reduced to an :class:`Outcome` carrying the pods it finished, the
checks' verdict and a digest of its outputs.

Why each workload exists, and which layer it loads, is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import Bind, Resize
from repro.kube.api import EventType
from repro.scenario.gangs import apply_gang_mix
from repro.scenario.spec import make_scenario
from repro.serve import server as serve_server
from repro.serve.loadgen import synthesize_workload
from repro.serve.server import FrontDoor, KnotsService, ServeConfig
from repro.sim.harness import PHASE_SUBMIT
from repro.sim.simulator import KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload

from perfbench.tracing import SpanRecorder, wrap

__all__ = ["WORKLOADS", "Outcome", "ServeWorkload", "SimWorkload"]


@dataclass
class Outcome:
    """One executed sub-run."""

    pods: int                 # completed (sims) or placed (serve)
    attempted: int
    failed: int
    digest: str
    gen_s: float              # workload generation
    build_s: float            # cluster / service construction
    run_s: float              # first simulated event to result
    modelled: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: Client-side HTTP round trips (serve only), pooled across rounds.
    latency_ms: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.build_s


def _pods_digest(h: "hashlib._Hash", pods: list) -> None:
    for p in pods:
        h.update(repr((
            p.uid, p.spec.name, p.spec.image, p.phase.name, p.gpu_id, p.alloc_mb,
            p.submitted_ms, p.scheduled_ms, p.started_ms, p.finished_ms,
            p.restart_count,
        )).encode())


def _schedule_counts(counts: dict[str, float]):
    """``after`` hook for ``Scheduler.schedule``: pending, binds, resizes."""

    def after(args: tuple, actions: list) -> None:
        counts["pending"] += len(args[0].pending)
        for action in actions:
            kind = type(action)
            if kind is Bind:
                counts["binds"] += 1
            elif kind is Resize:
                counts["resizes"] += 1

    return after


def _instrument_orchestrator(rec: SpanRecorder, orch: Any, counts: dict[str, float]) -> None:
    wrap(rec, orch, "scheduling_pass", "core.pass")
    wrap(rec, orch, "build_context", "core.context")
    wrap(rec, orch.scheduler, "schedule", "core.schedule", _schedule_counts(counts))
    wrap(rec, orch, "step_kubelets", "kube.tick")
    wrap(rec, orch, "heartbeat", "telemetry.heartbeat")
    for attr in ("cordon_node", "reclaim_node", "restore_node"):
        wrap(rec, orch, attr, "scenario.capacity")


def _quantum_counts(orch: Any) -> dict[str, float]:
    quantum = orch.quantum
    return {
        "fast_ticks": quantum.fast_ticks if quantum is not None else 0,
        "fallbacks": quantum.fallbacks if quantum is not None else 0,
    }


@dataclass(frozen=True)
class SimWorkload:
    """``KubeKnotsSimulator`` on one app mix, cluster size and policy."""

    name: str
    mix: str
    nodes: int
    scheduler: str
    load_factor: float
    window_s: float
    subruns: int
    scenario: str | None = None
    #: When set, a seeded random subset of exactly this many arrivals is
    #: kept (thinning keeps the trace's burst shape and time span), so
    #: the pod count, not just its expectation, is the same for every
    #: seed.
    keep: int | None = None
    kind: str = "sim"

    def execute(self, sub_seed: int, rec: SpanRecorder | None = None) -> Outcome:
        t0 = time.perf_counter()
        scenario = make_scenario(self.scenario) if self.scenario else None
        workload = generate_appmix_workload(
            self.mix, duration_s=self.window_s, seed=sub_seed, load_factor=self.load_factor
        )
        if self.keep is not None and len(workload) > self.keep:
            rng = np.random.default_rng(sub_seed)
            picks = np.sort(rng.choice(len(workload), size=self.keep, replace=False))
            workload = [workload[i] for i in picks]
        if scenario is not None and scenario.gangs is not None:
            workload = apply_gang_mix(workload, scenario.gangs)
        t1 = time.perf_counter()
        sim = KubeKnotsSimulator(
            make_paper_cluster(num_nodes=self.nodes, gpus_per_node=8),
            make_scheduler(self.scheduler),
            workload,
            SimConfig(scenario=scenario),
        )
        t2 = time.perf_counter()
        counts = {"pending": 0, "binds": 0, "resizes": 0}
        if rec is not None:
            _instrument_orchestrator(rec, sim.orchestrator, counts)
            wrap(rec, sim, "collect_result", "sim.result")
            wrap(rec, sim, "run", "sim.engine")
        result = sim.run()
        t3 = time.perf_counter()

        submitted = len(sim.workload)
        done = len(result.completed())
        sm = list(result.gpu_util_series.values())
        h = hashlib.sha256()
        _pods_digest(h, result.pods)
        h.update(repr((
            result.makespan_ms, result.oom_kills, result.evictions, result.resizes,
        )).encode())
        h.update(np.fromiter(result.energy_j_per_gpu.values(), dtype=np.float64).tobytes())
        for series in (result.gpu_util_series, result.gpu_mem_series):
            for row in series.values():
                h.update(row.tobytes())
        h.update(result.sample_times_ms.tobytes())
        samples = sum(row.size for row in sm)
        counts.update(_quantum_counts(sim.orchestrator))
        counts.update(
            events=sim.events_fired,
            ff_spans=sim.fast_forwards,
            ticks_skipped=sim.ticks_skipped,
            samples=samples,
            evictions=result.evictions,
            oom_kills=result.oom_kills,
            gang_pods=sum(1 for p in result.pods if p.spec.gang is not None),
        )
        return Outcome(
            pods=done,
            attempted=submitted,
            failed=submitted - done,
            digest=h.hexdigest(),
            gen_s=t1 - t0,
            build_s=t2 - t1,
            run_s=t3 - t2,
            modelled={
                "qos_viol_per_k": result.qos_violations_per_kilo(),
                "gpu_util_pct": (
                    100.0 * sum(float(row.sum()) for row in sm) / samples if samples else 0.0
                ),
                "energy_kj": result.total_energy_j() / 1_000.0,
            },
            counts=counts,
        )


@dataclass(frozen=True)
class ServeWorkload:
    """``KnotsService`` behind its HTTP front door, driven open loop on
    the sim clock: the engine thread POSTs each arrival when the loop
    reaches its arrival time and blocks until the reply."""

    name: str
    nodes: int
    qps: float
    window_s: float
    subruns: int = 1
    kind: str = "serve"

    def execute(self, sub_seed: int, rec: SpanRecorder | None = None) -> Outcome:
        t0 = time.perf_counter()
        items = synthesize_workload(self.qps, self.window_s, seed=sub_seed)
        # The request carries image + seed; the front door synthesizes
        # the trace itself (``spec_from_json``), as for a real client.
        bodies = [
            (arrival_ms, json.dumps(
                {"image": spec.image, "name": spec.name, "seed": sub_seed * 100_000 + i}
            ).encode())
            for i, (arrival_ms, spec) in enumerate(items)
        ]
        t1 = time.perf_counter()
        service = KnotsService(
            ServeConfig(
                nodes=self.nodes,
                duration_s=self.window_s,
                paced=False,
                http=False,
                status_interval_s=0.0,
                seed=sub_seed,
            )
        )
        front = FrontDoor(service).start()
        try:
            client = _Client(front.host, front.port, service, rec)
            for arrival_ms, body in bodies:
                service.loop.schedule_at(arrival_ms, client.post, body, priority=PHASE_SUBMIT)
            t2 = time.perf_counter()
            counts = {"pending": 0, "binds": 0, "resizes": 0}
            spec_from_json = serve_server.spec_from_json
            if rec is not None:
                _instrument_orchestrator(rec, service.orchestrator, counts)
                wrap(rec, service, "submit_spec", "serve.submit_spec")
                wrap(rec, service, "run", "sim.engine")
                wrap(rec, serve_server, "spec_from_json", "serve.spec_from_json")
            try:
                report = service.run()
            finally:
                serve_server.spec_from_json = spec_from_json
            t3 = time.perf_counter()
        finally:
            front.stop()

        c = report.counts
        accepted = client.statuses.count(202)
        rejected_http = len(bodies) - accepted
        pods = service.orchestrator.api.pods()
        h = hashlib.sha256()
        _pods_digest(h, pods)
        h.update(repr(client.statuses).encode())
        lc = [p for p in pods if p.done and p.spec.qos_threshold_ms is not None]
        counts.update(_quantum_counts(service.orchestrator))
        counts.update(
            events=report.events_fired,
            queue_depth_max=client.depth_max,
            rejected=c["rejected"] + c["draining"] + c["invalid"],
            evictions=len(service.orchestrator.api.events_of(EventType.EVICTED)),
            oom_kills=len(service.orchestrator.api.events_of(EventType.OOM_KILLED)),
        )
        return Outcome(
            pods=c["placed"],
            attempted=len(bodies),
            failed=rejected_http + max(accepted - c["placed"], 0),
            digest=h.hexdigest(),
            gen_s=t1 - t0,
            build_s=t2 - t1,
            run_s=t3 - t2,
            modelled={
                "qos_viol_per_k": (
                    1_000.0 * sum(p.violates_qos() for p in lc) / len(lc) if lc else 0.0
                ),
                "decide_p50_ms": report.p50_wall_ms,
                "decide_p99_ms": report.p99_wall_ms,
            },
            counts=counts,
            latency_ms=client.latency_ms,
        )


class _Client:
    """Blocking HTTP client run on the engine thread, one connection at
    a time.  A request's latency counts from when the engine dispatched
    its arrival event (its due time on the unpaced sim clock)."""

    def __init__(self, host: str, port: int, service: KnotsService, rec: SpanRecorder | None) -> None:
        self.host = host
        self.port = port
        self.service = service
        self.rec = rec
        self.nid = rec.name_id("serve.frontdoor") if rec is not None else -1
        self.statuses: list[int] = []
        self.latency_ms: list[float] = []
        self.depth_max = 0

    def post(self, body: bytes) -> None:
        due = time.perf_counter()
        rec = self.rec
        if rec is not None:
            sid = rec.open(self.nid)
            rec.remote_parent = sid
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
        try:
            conn.request("POST", "/v1/pods", body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            status = resp.status
        finally:
            conn.close()
            if rec is not None:
                rec.remote_parent = -1
                rec.close(sid)
        self.latency_ms.append((time.perf_counter() - due) * 1_000.0)
        self.statuses.append(status)
        self.depth_max = max(self.depth_max, len(self.service.queue))


WORKLOADS: dict[str, SimWorkload | ServeWorkload] = {
    w.name: w
    for w in (
        SimWorkload(
            name="weak-1024",
            mix="app-mix-1",
            nodes=1024,
            scheduler="peak-prediction",
            load_factor=1024 * 8 / 10,
            window_s=0.2,
            subruns=1,
        ),
        SimWorkload(
            name="sparse-32",
            mix="app-mix-3",
            nodes=32,
            scheduler="cbp",
            load_factor=0.4,
            window_s=150.0,
            subruns=12,
            keep=40,
        ),
        ServeWorkload(
            name="serve-32",
            nodes=32,
            qps=100.0,
            window_s=5.0,
        ),
        SimWorkload(
            name="churn-256",
            mix="app-mix-1",
            nodes=256,
            scheduler="cbp",
            load_factor=12.8,
            window_s=1.5,
            subruns=3,
            scenario="diurnal-gang",
        ),
    )
}
