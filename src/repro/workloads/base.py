"""Workload trace model.

Every application in the reproduction — Rodinia batch kernels, Djinn &
Tonic inference queries, synthetic Alibaba containers — is described by
a :class:`WorkloadTrace`: a sequence of :class:`Phase` segments, each
demanding a level of the four GPU resources the paper's Knots monitor
samples (SM occupancy, device memory, PCIe transmit/receive bandwidth).

Demand is indexed by *progress* (milliseconds of work completed), not
wall-clock time: when the SM is contended the kubelet grants a pod only
a share of its demand and progress advances proportionally slower.
This is how co-location interference and slowdown emerge in the
simulator without any per-application special-casing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Phase", "QoSClass", "ResourceDemand", "WorkloadTrace"]


class QoSClass(Enum):
    """Scheduling class of a pod, mirroring the paper's workload split."""

    LATENCY_CRITICAL = "latency-critical"
    BATCH = "batch"


@dataclass(frozen=True)
class ResourceDemand:
    """Instantaneous resource demand of one container.

    Attributes
    ----------
    sm:
        Fraction of the GPU's streaming multiprocessors demanded, in
        [0, 1].  Time-shared under contention.
    mem_mb:
        Device memory resident, in MB.  Space-shared; the sum across
        co-located containers must fit in the device.
    tx_mbps / rx_mbps:
        PCIe transmit / receive bandwidth, MB/s.
    """

    sm: float
    mem_mb: float
    tx_mbps: float
    rx_mbps: float

    def scaled(self, factor: float) -> "ResourceDemand":
        """Uniformly scale all demands (used by load generators)."""
        return ResourceDemand(
            sm=self.sm * factor,
            mem_mb=self.mem_mb * factor,
            tx_mbps=self.tx_mbps * factor,
            rx_mbps=self.rx_mbps * factor,
        )


@dataclass(frozen=True)
class Phase:
    """One execution phase with constant resource demand."""

    duration_ms: float
    demand: ResourceDemand

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError(f"phase duration must be positive, got {self.duration_ms}")
        if not (0.0 <= self.demand.sm <= 1.0):
            raise ValueError(f"SM demand must be in [0, 1], got {self.demand.sm}")
        if self.demand.mem_mb < 0:
            raise ValueError("memory demand must be non-negative")


class WorkloadTrace:
    """A piecewise-constant resource demand trace.

    Parameters
    ----------
    name:
        Application name (e.g. ``"lud"``, ``"face"``).
    phases:
        Ordered phase list.  Total work is the sum of phase durations.
    qos_class:
        Latency-critical or batch.
    requested_mem_mb:
        Memory the *user* requests for the container.  Applications
        overstate their needs (Observation 2); defaults to the peak of
        the trace if not given.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        qos_class: QoSClass = QoSClass.BATCH,
        requested_mem_mb: float | None = None,
    ) -> None:
        if not phases:
            raise ValueError("a workload needs at least one phase")
        self.name = name
        self.phases: tuple[Phase, ...] = tuple(phases)
        self.qos_class = qos_class
        # Cumulative end-times of phases, for O(log n) progress lookup.
        self._cum = np.cumsum([p.duration_ms for p in self.phases])
        # Lazily-compiled phase table for the array-native execution
        # quantum (see :meth:`demand_table`).
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self.requested_mem_mb = (
            float(requested_mem_mb) if requested_mem_mb is not None else self.peak_mem_mb()
        )

    # -- basic properties -------------------------------------------------

    @property
    def total_ms(self) -> float:
        """Total work in the trace, in milliseconds of uncontended execution."""
        return float(self._cum[-1])

    def demand_at(self, progress_ms: float) -> ResourceDemand:
        """Demand after ``progress_ms`` of work has been completed."""
        if progress_ms < 0:
            raise ValueError("progress cannot be negative")
        if progress_ms >= self._cum[-1]:
            return self.phases[-1].demand
        idx = int(np.searchsorted(self._cum, progress_ms, side="right"))
        return self.phases[idx].demand

    def demand_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Compile the trace into arrays for batched progress lookups.

        Returns ``(cum_ends, rows)``: ``cum_ends`` is the float64
        cumulative phase end-times (``cum_ends[-1] == total_ms``) and
        ``rows`` is a ``(num_phases, 4)`` float64 matrix whose columns
        are ``sm, mem_mb, tx_mbps, rx_mbps`` — the exact values
        :meth:`demand_at` returns for a progress inside each phase.
        Compiled once and cached; the arrays are shared, do not mutate.
        """
        table = self._table
        if table is None:
            cum = np.asarray(self._cum, dtype=float)
            rows = np.array(
                [
                    (p.demand.sm, p.demand.mem_mb, p.demand.tx_mbps, p.demand.rx_mbps)
                    for p in self.phases
                ],
                dtype=float,
            )
            self._table = table = (cum, rows)
        return table

    # -- summary statistics used by the schedulers ------------------------

    def peak_mem_mb(self) -> float:
        """Worst-case device memory across the trace."""
        return max(p.demand.mem_mb for p in self.phases)

    def peak_sm(self) -> float:
        return max(p.demand.sm for p in self.phases)

    def mem_percentile(self, q: float) -> float:
        """Duration-weighted percentile of the memory series.

        CBP resizes containers to the 80th percentile of this
        distribution (``q=80``) rather than the peak.
        """
        return self._weighted_percentile([p.demand.mem_mb for p in self.phases], q)

    def sm_percentile(self, q: float) -> float:
        return self._weighted_percentile([p.demand.sm for p in self.phases], q)

    def _weighted_percentile(self, values: Iterable[float], q: float) -> float:
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        vals = np.asarray(list(values), dtype=float)
        weights = np.asarray([p.duration_ms for p in self.phases], dtype=float)
        order = np.argsort(vals)
        vals, weights = vals[order], weights[order]
        cdf = np.cumsum(weights) / weights.sum()
        idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
        return float(vals[min(idx, len(vals) - 1)])

    def mean_mem_mb(self) -> float:
        """Duration-weighted mean memory footprint."""
        mems = np.asarray([p.demand.mem_mb for p in self.phases])
        weights = np.asarray([p.duration_ms for p in self.phases])
        return float(np.average(mems, weights=weights))

    # -- sampled series (for correlation analysis) ------------------------

    def sample_series(self, step_ms: float = 100.0) -> dict[str, np.ndarray]:
        """Sample the trace at a fixed cadence.

        Returns a dict of equal-length arrays keyed ``sm``, ``mem_mb``,
        ``tx_mbps``, ``rx_mbps``.  Used by CBP to build correlation
        profiles for an application class.
        """
        if step_ms <= 0:
            raise ValueError("step must be positive")
        times = np.arange(0.0, self.total_ms, step_ms)
        # demand_at, batched: the phase whose end is the first past t,
        # clamped to the last phase.
        cum, rows = self.demand_table()
        idx = np.minimum(np.searchsorted(cum, times, side="right"), len(rows) - 1)
        return {
            "sm": rows[idx, 0],
            "mem_mb": rows[idx, 1],
            "tx_mbps": rows[idx, 2],
            "rx_mbps": rows[idx, 3],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadTrace({self.name!r}, {len(self.phases)} phases, "
            f"{self.total_ms:.0f} ms, peak {self.peak_mem_mb():.0f} MB, "
            f"{self.qos_class.value})"
        )
