"""Workload trace model.

Every application in the reproduction — Rodinia batch kernels, Djinn &
Tonic inference queries, synthetic Alibaba containers — is described by
a :class:`WorkloadTrace`: a sequence of constant-demand phases, each
demanding a level of the four GPU resources the paper's Knots monitor
samples (SM occupancy, device memory, PCIe transmit/receive bandwidth).
The trace stores them as one array table (durations plus an ``(n, 4)``
demand matrix); :class:`Phase` is the per-phase view of one row.

Demand is indexed by *progress* (milliseconds of work completed), not
wall-clock time: when the SM is contended the kubelet grants a pod only
a share of its demand and progress advances proportionally slower.
This is how co-location interference and slowdown emerge in the
simulator without any per-application special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    """A piecewise-constant resource demand trace, stored as a phase table.

    The table is three arrays: phase durations, their cumulative end
    times (``cum[-1] == total_ms``), and an ``(n, 4)`` float64 demand
    matrix whose columns are ``sm, mem_mb, tx_mbps, rx_mbps``.  The
    generators (:mod:`repro.workloads.rodinia`,
    :mod:`repro.workloads.djinn_tonic`) fill it directly through
    :meth:`from_table`; the execution quantum reads it as is
    (:meth:`demand_table`), and every summary statistic is a column
    reduction.  :class:`Phase` objects exist only on request
    (:attr:`phases`).

    Parameters
    ----------
    name:
        Application name (e.g. ``"lud"``, ``"face"``).
    phases:
        Ordered phase list.  Total work is the sum of phase durations.
        A thin adapter onto the table, for hand-built traces.
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
        phases = tuple(phases)
        durations = np.array([p.duration_ms for p in phases], dtype=float)
        rows = np.array(
            [(p.demand.sm, p.demand.mem_mb, p.demand.tx_mbps, p.demand.rx_mbps) for p in phases],
            dtype=float,
        )
        self._set_table(name, durations, rows, qos_class, requested_mem_mb)
        self._phases: tuple[Phase, ...] | None = phases

    @classmethod
    def from_table(
        cls,
        name: str,
        durations: np.ndarray,
        rows: np.ndarray,
        qos_class: QoSClass = QoSClass.BATCH,
        requested_mem_mb: float | None = None,
    ) -> "WorkloadTrace":
        """Build a trace straight from its phase table.

        ``durations`` has one entry per phase and ``rows`` is the
        matching ``(n, 4)`` demand matrix (``sm, mem_mb, tx_mbps,
        rx_mbps``).  Both are taken as float64 and must not be mutated
        afterwards.  Validation is :class:`Phase`'s, vectorized.
        """
        trace = cls.__new__(cls)
        trace._set_table(
            name, np.asarray(durations, dtype=float), np.asarray(rows, dtype=float),
            qos_class, requested_mem_mb,
        )
        trace._phases = None
        return trace

    def _set_table(
        self,
        name: str,
        durations: np.ndarray,
        rows: np.ndarray,
        qos_class: QoSClass,
        requested_mem_mb: float | None,
    ) -> None:
        if durations.size == 0:
            raise ValueError("a workload needs at least one phase")
        if durations.ndim != 1 or rows.shape != (len(durations), 4):
            raise ValueError(
                f"phase table needs n durations and an (n, 4) demand matrix, "
                f"got {durations.shape} and {rows.shape}"
            )
        bad = durations <= 0
        if bad.any():
            raise ValueError(f"phase duration must be positive, got {durations[bad][0]}")
        sm = rows[:, 0]
        bad = ~((sm >= 0.0) & (sm <= 1.0))
        if bad.any():
            raise ValueError(f"SM demand must be in [0, 1], got {sm[bad][0]}")
        if (rows[:, 1] < 0).any():
            raise ValueError("memory demand must be non-negative")
        self.name = name
        self.qos_class = qos_class
        self._durations = durations
        # Cumulative end-times of phases, for O(log n) progress lookup.
        self._cum = np.cumsum(durations)
        self._rows = rows
        self.requested_mem_mb = (
            float(requested_mem_mb) if requested_mem_mb is not None else self.peak_mem_mb()
        )

    # -- basic properties -------------------------------------------------

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The table as :class:`Phase` objects, built on first access."""
        phases = self._phases
        if phases is None:
            self._phases = phases = tuple(
                Phase(d, ResourceDemand(*row))
                for d, row in zip(self._durations.tolist(), self._rows.tolist())
            )
        return phases

    @property
    def total_ms(self) -> float:
        """Total work in the trace, in milliseconds of uncontended execution."""
        return float(self._cum[-1])

    def demand_at(self, progress_ms: float) -> ResourceDemand:
        """Demand after ``progress_ms`` of work has been completed."""
        if progress_ms < 0:
            raise ValueError("progress cannot be negative")
        cum = self._cum
        if progress_ms >= cum[-1]:
            idx = len(cum) - 1
        else:
            idx = int(np.searchsorted(cum, progress_ms, side="right"))
        return ResourceDemand(*self._rows[idx].tolist())

    def demand_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The phase table for batched progress lookups.

        Returns ``(cum_ends, rows)``: ``cum_ends`` is the float64
        cumulative phase end-times (``cum_ends[-1] == total_ms``) and
        ``rows`` is the ``(num_phases, 4)`` float64 demand matrix whose
        columns are ``sm, mem_mb, tx_mbps, rx_mbps`` — the exact values
        :meth:`demand_at` returns for a progress inside each phase.
        These are the stored arrays, shared: do not mutate.
        """
        return self._cum, self._rows

    # -- summary statistics used by the schedulers ------------------------

    def peak_mem_mb(self) -> float:
        """Worst-case device memory across the trace."""
        return float(self._rows[:, 1].max())

    def peak_sm(self) -> float:
        return float(self._rows[:, 0].max())

    def mem_percentile(self, q: float) -> float:
        """Duration-weighted percentile of the memory series.

        CBP resizes containers to the 80th percentile of this
        distribution (``q=80``) rather than the peak.
        """
        return self._weighted_percentile(self._rows[:, 1], q)

    def sm_percentile(self, q: float) -> float:
        return self._weighted_percentile(self._rows[:, 0], q)

    def _weighted_percentile(self, vals: np.ndarray, q: float) -> float:
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        weights = self._durations
        order = np.argsort(vals)
        vals, weights = vals[order], weights[order]
        cdf = np.cumsum(weights) / weights.sum()
        idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
        return float(vals[min(idx, len(vals) - 1)])

    def mean_mem_mb(self) -> float:
        """Duration-weighted mean memory footprint."""
        return float(np.average(self._rows[:, 1], weights=self._durations))

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
        cum, rows = self._cum, self._rows
        idx = np.minimum(np.searchsorted(cum, times, side="right"), len(rows) - 1)
        return {
            "sm": rows[idx, 0],
            "mem_mb": rows[idx, 1],
            "tx_mbps": rows[idx, 2],
            "rx_mbps": rows[idx, 3],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadTrace({self.name!r}, {len(self._durations)} phases, "
            f"{self.total_ms:.0f} ms, peak {self.peak_mem_mb():.0f} MB, "
            f"{self.qos_class.value})"
        )
