"""A finished simulation or service is freed by reference counting alone.

A dropped :class:`KubeKnotsSimulator` or :class:`KnotsService` must not
wait for the cyclic garbage collector.  Bound methods held by the event
loop, the tick harness, the fault and capacity plans and the HTTP front
door can close reference cycles; any such cycle left after a run keeps
that run — its telemetry ring, its recorded series — resident until a
full collection happens to run.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import make_scheduler
from repro.scenario.gangs import apply_gang_mix
from repro.scenario.spec import make_scenario
from repro.serve.loadgen import synthesize_workload
from repro.serve.server import FrontDoor, KnotsService, ServeConfig
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload


@pytest.fixture
def gc_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _simulator(kind: str) -> KubeKnotsSimulator:
    cluster = make_paper_cluster(num_nodes=8, gpus_per_node=2)
    workload = generate_appmix_workload("app-mix-1", duration_s=1.0, seed=3, load_factor=3.0)
    config = SimConfig()
    if kind == "faults":
        gpu_ids = [gpu.gpu_id for node in cluster for gpu in node.gpus]
        faults = [
            DeviceFault(at_ms=50.0 * i, gpu_id=gpu_ids[i], duration_ms=200.0) for i in range(4)
        ]
        # Past the horizon: still queued when the run ends.
        faults.append(DeviceFault(at_ms=1e9, gpu_id=gpu_ids[5], duration_ms=10.0))
        config = SimConfig(faults=faults)
    elif kind == "diurnal-gang":
        scenario = make_scenario("diurnal-gang")
        workload = apply_gang_mix(workload, scenario.gangs)
        config = SimConfig(scenario=scenario)
    return KubeKnotsSimulator(cluster, make_scheduler("cbp"), workload, config)


@pytest.mark.parametrize("kind", ["plain", "faults", "diurnal-gang"])
def test_dropped_simulation_is_freed_without_cyclic_gc(gc_off, kind):
    sim = _simulator(kind)
    result = sim.run()
    assert result.completed()
    if kind == "faults":
        # The fault past the horizon never fired, and still reads so.
        assert sim._faults.pending == 1
    sim_ref = weakref.ref(sim)
    matrix_ref = weakref.ref(sim.orchestrator.knots.matrix)
    del sim
    assert sim_ref() is None
    assert matrix_ref() is None


@pytest.mark.parametrize("front_door", [False, True], ids=["engine", "http"])
def test_finished_service_is_freed_without_cyclic_gc(gc_off, front_door):
    """The serving loop shares the harness and gets the same teardown;
    a stopped front door lets go of its service too."""
    service = KnotsService(ServeConfig(
        nodes=2, gpus_per_node=2, duration_s=0.5, paced=False, http=False,
        status_interval_s=0.0,
    ))
    front = FrontDoor(service).start() if front_door else None
    service.inject_workload(synthesize_workload(20.0, 0.5, seed=1))
    report = service.run()
    if front is not None:
        front.stop()
        del front
    assert report.counts["placed"] > 0
    service_ref = weakref.ref(service)
    matrix_ref = weakref.ref(service.orchestrator.knots.matrix)
    del service
    assert service_ref() is None
    assert matrix_ref() is None
