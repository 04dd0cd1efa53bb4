"""A/B equivalence and scale smokes for the vectorized scheduling pass.

The SoA fast paths must be *invisible*: with metrics on the schedulers
take the original dict/object pass, and at the paper scale (32 nodes x
8 GPUs) every decision, sample series and energy figure must come out
bit-identical either way — including under injected device faults.
The sanitizer pins the legacy semantics by disabling every fast path,
so sanitized runs at 256 and 1024 nodes double as scale smokes of the
slow path; a plain 1024-node run smokes the fast one.
"""

from __future__ import annotations

import pytest

from repro.core.schedulers import make_scheduler
from repro.core.schedulers.vectorized import ArrayPassState
from repro.obs.context import Observability
from repro.sim.simulator import DeviceFault, SimConfig, run_appmix

from tests.test_sim_equivalence import assert_kk_identical

VECTORIZED_SCHEDULERS = ["cbp", "peak-prediction"]


def _slow_obs():
    """Metrics on: the scheduling fast pass and the execution quantum
    stand down, so the run takes the object path end to end."""
    return Observability(trace=False, metrics=True, audit=False)


def _run(sched, *, nodes=32, gpus=8, duration_s=2.0, seed=3,
         horizon=10_000.0, faults=(), obs=None):
    return run_appmix(
        "app-mix-1",
        make_scheduler(sched),
        duration_s=duration_s,
        seed=seed,
        num_nodes=nodes,
        gpus_per_node=gpus,
        config=SimConfig(min_horizon_ms=horizon, faults=tuple(faults)),
        obs=obs,
    )


class TestPaperScaleAB:
    @pytest.mark.parametrize("sched", VECTORIZED_SCHEDULERS)
    def test_32x8_bit_identical(self, sched):
        fast = _run(sched)
        slow = _run(sched, obs=_slow_obs())
        assert_kk_identical(fast, slow, sched)
        assert fast.completed(), sched      # the run did real work

    def test_32x8_with_faults_bit_identical(self):
        faults = [
            DeviceFault(at_ms=300.0, gpu_id="node3/gpu1", duration_ms=800.0),
            DeviceFault(at_ms=500.0, gpu_id="node17/gpu6", duration_ms=600.0),
        ]
        fast = _run("cbp", faults=faults)
        slow = _run("cbp", faults=faults, obs=_slow_obs())
        assert_kk_identical(fast, slow, "faults")

    def test_fast_pass_actually_engages(self, monkeypatch):
        """Guard the A/B test against silently comparing slow vs slow."""
        built = []
        orig = ArrayPassState.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(ArrayPassState, "__init__", spy)
        _run("cbp", nodes=4, gpus=2, duration_s=1.0, horizon=5_000.0)
        assert built

    def test_slow_side_never_builds_pass_state(self, monkeypatch):
        built = []
        orig = ArrayPassState.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(ArrayPassState, "__init__", spy)
        _run("cbp", nodes=4, gpus=2, duration_s=1.0, horizon=5_000.0,
             obs=_slow_obs())
        assert not built


class TestScaleSmokes:
    @pytest.mark.parametrize("nodes,duration_s,horizon", [
        (256, 0.5, 1_500.0),
        (1024, 0.25, 1_000.0),
    ])
    def test_sanitized_large_cluster(self, nodes, duration_s, horizon):
        """The sanitizer forces the legacy per-object path on every node
        every tick; it must stay clean at scale."""
        obs = Observability(trace=False, metrics=False, audit=False, sanitize=True)
        result = _run("cbp", nodes=nodes, gpus=8,
                      duration_s=duration_s, horizon=horizon, obs=obs)
        assert obs.sanitizer.violations == []
        assert obs.sanitizer.checks > 0
        assert result.pods

    def test_1024_node_fast_path_smoke(self):
        result = _run("cbp", nodes=1024, gpus=8,
                      duration_s=1.0, horizon=5_000.0)
        assert len(result.energy_j_per_gpu) == 1024 * 8
        assert result.completed()
        assert all(e >= 0.0 for e in result.energy_j_per_gpu.values())
