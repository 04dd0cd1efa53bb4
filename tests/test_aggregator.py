"""Tests for node monitors and the head-node utilization aggregator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, make_paper_cluster
from repro.cluster.node import GpuNode
from repro.core.knots import Knots
from repro.telemetry.aggregator import UtilizationAggregator
from repro.telemetry.nvml import METRICS, NvmlSampler
from repro.workloads.base import ResourceDemand


def tick(node: GpuNode, sm: float = 0.3) -> None:
    """Run one arbitration on every device of a node."""
    for gpu in node.gpus:
        demands = {}
        if gpu.containers:
            uid = next(iter(gpu.containers))
            demands[uid] = ResourceDemand(sm=sm, mem_mb=1_000, tx_mbps=0, rx_mbps=0)
        gpu.arbitrate(demands)


@pytest.fixture
def monitored_nodes():
    nodes = [GpuNode.build(f"node{i}") for i in (1, 2)]
    nodes[0].gpus[0].attach("p", 4_000)
    knots = Knots(Cluster(nodes))
    monitors = list(knots.monitors.values())
    return nodes, monitors, knots


class TestNodeMonitor:
    def test_heartbeat_logs_all_metrics(self, monitored_nodes):
        nodes, monitors, knots = monitored_nodes
        tick(nodes[0])
        knots.heartbeat(now=10.0)
        for node, mon in zip(nodes, monitors):
            for gpu in node.gpus:
                for metric in METRICS:
                    assert f"{gpu.gpu_id}.{metric}" in mon.tsdb

    def test_series_window(self, monitored_nodes):
        nodes, monitors, knots = monitored_nodes
        for t in range(20):
            tick(nodes[0])
            knots.heartbeat(float(t))
        w = monitors[0].series("node1/gpu0", "sm_util", window=5.0, now=19.0)
        assert len(w) == 6

    def test_series_many_matches_individual_series(self, monitored_nodes):
        nodes, monitors, knots = monitored_nodes
        for t in range(20):
            tick(nodes[0])
            knots.heartbeat(float(t))
        metrics = ("sm_util", "mem_util", "power_w")
        batch = monitors[0].series_many("node1/gpu0", metrics, window=5.0, now=19.0)
        assert set(batch) == set(metrics)
        for m in metrics:
            single = monitors[0].series("node1/gpu0", m, window=5.0, now=19.0)
            np.testing.assert_array_equal(batch[m].times, single.times)
            np.testing.assert_array_equal(batch[m].values, single.values)


class TestAggregator:
    def test_requires_monitors(self):
        with pytest.raises(ValueError):
            UtilizationAggregator([])

    def test_query_routes_to_node(self, monitored_nodes):
        nodes, _, knots = monitored_nodes
        tick(nodes[0])
        knots.heartbeat(1.0)
        w = knots.aggregator.query("node1/gpu0", "sm_util", window=10.0, now=1.0)
        assert w.latest() == pytest.approx(0.3)

    def test_query_unknown_node(self, monitored_nodes):
        _, _, knots = monitored_nodes
        with pytest.raises(KeyError):
            knots.aggregator.query("node9/gpu0", "sm_util", 1.0, 1.0)

    def test_query_node_stats_covers_five_metrics(self, monitored_nodes):
        nodes, _, knots = monitored_nodes
        tick(nodes[0])
        knots.heartbeat(1.0)
        stats = knots.aggregator.query_node_stats("node1/gpu0", window=10.0, now=1.0)
        assert set(stats) == {"sm_util", "mem_util", "power_w", "tx_mbps", "rx_mbps"}

    def test_snapshot_reflects_allocations(self, monitored_nodes):
        _, _, knots = monitored_nodes
        views = {v.gpu_id: v for v in knots.aggregator.snapshot()}
        assert views["node1/gpu0"].free_alloc_mb == 16_384 - 4_000
        assert views["node2/gpu0"].free_alloc_mb == 16_384

    def test_sorted_by_free_memory_descending(self, monitored_nodes):
        _, _, knots = monitored_nodes
        order = [v.gpu_id for v in knots.aggregator.sorted_by_free_memory()]
        assert order == ["node2/gpu0", "node1/gpu0"]

    def test_active_views_exclude_sleepers(self, monitored_nodes):
        nodes, _, knots = monitored_nodes
        nodes[1].gpus[0].sleep()
        assert [v.gpu_id for v in knots.aggregator.active_views()] == ["node1/gpu0"]

    def test_cluster_utilization_matrix(self, monitored_nodes):
        nodes, _, knots = monitored_nodes
        for t in range(10):
            for n in nodes:
                tick(n)
            knots.heartbeat(float(t))
        mat = knots.aggregator.cluster_utilization(window=20.0, now=9.0)
        assert mat.shape == (2, 10)
        assert mat[0].max() > 0          # node1 busy
        assert np.all(mat[1] == 0.0)     # node2 idle

    def test_cluster_utilization_batch_matches_per_series_queries(self, monitored_nodes):
        nodes, monitors, knots = monitored_nodes
        for t in range(12):
            for n in nodes:
                tick(n)
            knots.heartbeat(float(t))
        mat = knots.aggregator.cluster_utilization(window=50.0, now=11.0, metric="sm_util")

        rows = []
        for mon in monitors:
            for gpu in mon.node.gpus:
                w = mon.series(gpu.gpu_id, "sm_util", window=50.0, now=11.0)
                rows.append(w.values)
        n = min(len(r) for r in rows)
        expected = np.stack([r[len(r) - n:] for r in rows])
        np.testing.assert_array_equal(mat, expected)


class TestMatrixMatchesNvmlReference:
    """The telemetry ring stores exactly what the scalar NVML sampler
    reads from each device — the quantization is applied once, in
    :meth:`MatrixTelemetry.append_from_state`, and must not drift."""

    @staticmethod
    def _demand(sm, mem_mb, tx=0.0, rx=0.0):
        return ResourceDemand(sm=sm, mem_mb=mem_mb, tx_mbps=tx, rx_mbps=rx)

    def _busy(self, gpu, scale: float) -> None:
        gpu.arbitrate({
            "a": self._demand(0.37 * scale, 1_234.567 * scale, 123.456 * scale, 78.9),
            "b": self._demand(0.29, 987.654321, 3.3, 1_111.1),
        })

    def _drive(self, cluster) -> None:
        """One arbitration round over the device zoo on node1."""
        busy, idle, sleeping, failed, overcommit = (
            cluster.find_gpu(f"node1/gpu{i}") for i in range(5)
        )
        self._busy(busy, 1.0)
        idle.arbitrate({})
        sleeping.arbitrate({})
        failed.arbitrate({})
        overcommit.arbitrate({
            "c": self._demand(0.81, 9_876.5, 17_000.0, 0.1),
            "d": self._demand(0.77, 8_765.4, 0.2, 16_500.0),
        })

    def _assert_matches(self, cluster, knots) -> None:
        for node in cluster:
            reference = NvmlSampler(node.gpus).sample()
            tsdb = knots.monitors[node.node_id].tsdb
            for gpu_id, metrics in reference.items():
                for metric, value in metrics.items():
                    assert tsdb.latest(f"{gpu_id}.{metric}")[1] == value, (gpu_id, metric)

    def test_latest_row_equals_nvml_sample(self):
        cluster = make_paper_cluster(num_nodes=2, gpus_per_node=8)
        knots = Knots(cluster)
        busy = cluster.find_gpu("node1/gpu0")
        busy.attach("a", 2_000.0)
        busy.attach("b", 1_500.0)
        cluster.find_gpu("node1/gpu2").sleep()
        cluster.find_gpu("node1/gpu3").fail()
        overcommit = cluster.find_gpu("node1/gpu4")
        overcommit.attach("c", 8_000.0)
        overcommit.attach("d", 8_000.0)

        # The first heartbeat requantizes every column; the second moves
        # one device of 16, which takes the sparse-append path.
        self._drive(cluster)
        knots.heartbeat(10.0)
        self._assert_matches(cluster, knots)
        self._busy(busy, 1.13)
        assert len(cluster.state.sample_dirty) * 8 < len(cluster.state)
        knots.heartbeat(20.0)
        self._assert_matches(cluster, knots)
