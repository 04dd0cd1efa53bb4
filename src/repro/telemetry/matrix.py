"""Cluster-wide matrix telemetry: one ring of `(rows, gpus)` metric matrices.

The per-node :class:`~repro.telemetry.tsdb.TimeSeriesDB` stores one ring
per (gpu, metric) series and the monitor writes them point by point —
five Python-level ring appends per device per heartbeat.  At 32x8 that
is 1,280 appends per heartbeat; at 1024x8 it is 41k, and the heartbeat
becomes the simulation's dominant cost.

:class:`MatrixTelemetry` replaces the *storage* with struct-of-arrays:

* one shared time ring ``times[rows]`` (every series is written every
  heartbeat, so all series share timestamps), and
* one ``(rows, gpus)`` float64 matrix per metric,

so a heartbeat is five vectorized row writes from the
:class:`~repro.cluster.state.ClusterState` sample mirrors.  The NVML
quantization of the legacy path (percent scaling, byte-granular memory,
milliwatt power, KB/s PCIe — see :mod:`repro.telemetry.nvml`) is applied
elementwise with the exact same operations, so stored values are
bit-identical to what the per-object sampler produces.

Reads keep the node-local TSDB *surface*: each node's monitor holds a
read-only :class:`TsdbFacade` that resolves ``"<gpu_id>.<metric>"``
queries to a column window of the shared ring (zero-copy read-only
views, binary search over the ring's two physical segments — the same
query shape as ``_RingSeries``).  The ring is the only telemetry store
in every run mode; :meth:`MatrixTelemetry.append_from_state` is its
only writer.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.nvml import METRICS
from repro.telemetry.tsdb import SeriesWindow, _EMPTY_WINDOW, _readonly

__all__ = ["MatrixTelemetry", "TsdbFacade"]

#: Extra ring rows beyond one query window: covers the sanitizer's
#: staleness slack and the fast-forward observable-tail replay.
_MARGIN_ROWS = 64


class MatrixTelemetry:
    """Shared telemetry ring over every GPU of a cluster."""

    def __init__(self, state, heartbeat_ms: float, window_ms: float) -> None:
        self.state = state
        n = len(state)
        rows = int(window_ms / heartbeat_ms) + 1 + _MARGIN_ROWS
        self.capacity = max(rows, 256)
        self.times = np.empty(self.capacity)
        self.data = {m: np.empty((self.capacity, n)) for m in METRICS}
        #: Quantized value of every device's *current* sample, kept hot
        #: across appends so a sparse heartbeat only requantizes the
        #: devices whose samples moved, then bulk-copies one row.
        self._cur = {m: np.empty(n) for m in METRICS}
        self.head = 0          # next write row
        self.count = 0
        self.version = 0       # total appends (== legacy per-series version)
        self.last_t = -np.inf
        #: Facade guards (``--race-detect``), checked on each append.
        self.guards: dict[str, object] = {}

    # -- writes -------------------------------------------------------------

    def append_from_state(self, now: float) -> None:
        """One heartbeat: quantized sample row per metric, vectorized.

        Each expression mirrors the legacy NVML round trip exactly:
        percent scaling for utilizations, truncation to bytes/milliwatts
        (``np.floor`` == ``int()`` for non-negative values), KB/s PCIe.
        """
        for guard in self.guards.values():
            guard.check("write")
        if now < self.last_t:
            raise ValueError(
                f"non-monotonic heartbeat: t={now!r} is before the ring's last "
                f"timestamp {self.last_t!r}"
            )
        s = self.state
        n = len(s.gpu_ids)
        row = self.head
        self.times[row] = now
        data = self.data
        cur = self._cur
        dirty = s.sample_dirty
        if self.version > 0 and len(dirty) * 8 < n:
            # Sparse heartbeat: a non-dirty device's mirror is unchanged
            # since the previous append, so its quantized value in the
            # hot ``_cur`` row is still exact — requantize only the
            # devices whose samples moved (the same elementwise IEEE
            # ops, over the dirty index vector).
            if dirty:
                idx = np.fromiter(dirty, dtype=np.intp, count=len(dirty))
                cur["sm_util"][idx] = (s.sm_util[idx] * 100.0) / 100.0
                cur["mem_util"][idx] = (
                    np.floor(s.mem_used_mb[idx] * 1048576.0) / s.cap_total_bytes[idx]
                )
                cur["power_w"][idx] = np.floor(s.power_w[idx] * 1000.0) / 1000.0
                cur["tx_mbps"][idx] = (s.tx_mbps[idx] * 1024.0) / 1024.0
                cur["rx_mbps"][idx] = (s.rx_mbps[idx] * 1024.0) / 1024.0
        else:
            # Full requantization into the hot row: the same elementwise
            # IEEE ops as the scalar NVML round trip, without 64 KB
            # temporaries per metric at the 8k-GPU scale.
            r = cur["sm_util"]
            np.multiply(s.sm_util, 100.0, out=r)
            r /= 100.0
            r = cur["mem_util"]
            np.multiply(s.mem_used_mb, 1048576.0, out=r)
            np.floor(r, out=r)
            r /= s.cap_total_bytes
            r = cur["power_w"]
            np.multiply(s.power_w, 1000.0, out=r)
            np.floor(r, out=r)
            r /= 1000.0
            r = cur["tx_mbps"]
            np.multiply(s.tx_mbps, 1024.0, out=r)
            r /= 1024.0
            r = cur["rx_mbps"]
            np.multiply(s.rx_mbps, 1024.0, out=r)
            r /= 1024.0
        dirty.clear()
        for metric in METRICS:
            np.copyto(data[metric][row], cur[metric])
        self.head = (row + 1) % self.capacity
        if self.count < self.capacity:
            self.count += 1
        self.last_t = now
        self.version += 1

    # -- ring search (same shape as _RingSeries) ----------------------------

    def _logical_searchsorted(self, t: float, side: str) -> int:
        if self.count < self.capacity:
            return int(np.searchsorted(self.times[: self.count], t, side=side))
        older = self.times[self.head:]
        pos = int(np.searchsorted(older, t, side=side))
        if pos < len(older):
            return pos
        return len(older) + int(np.searchsorted(self.times[: self.head], t, side=side))

    def window_bounds(self, since: float | None, until: float | None) -> tuple[int, int]:
        """Logical row range [lo, hi) with ``since <= t <= until``."""
        lo = 0 if since is None else self._logical_searchsorted(since, "left")
        hi = self.count if until is None else self._logical_searchsorted(until, "right")
        return lo, hi

    def column_window(self, metric: str, col: int, lo: int, hi: int) -> SeriesWindow:
        """Rows [lo, hi) of one device's series as a (times, values) window.

        Zero-copy read-only views when the range is physically
        contiguous; a seam-straddling range copies at most ``hi - lo``
        points of the one column, never the ring.
        """
        n = hi - lo
        if n <= 0:
            return _EMPTY_WINDOW
        values = self.data[metric]
        if self.count < self.capacity:
            return SeriesWindow(
                _readonly(self.times[lo:hi]), _readonly(values[lo:hi, col])
            )
        start = self.head + lo
        end = start + n
        if start >= self.capacity:               # entirely in the newer segment
            start -= self.capacity
            end -= self.capacity
        elif end > self.capacity:                # straddles the seam: bounded copy
            wrap = end - self.capacity
            times = np.concatenate([self.times[start:], self.times[:wrap]])
            vals = np.concatenate([values[start:, col], values[:wrap, col]])
            return SeriesWindow(_readonly(times), _readonly(vals))
        return SeriesWindow(
            _readonly(self.times[start:end]), _readonly(values[start:end, col])
        )


class TsdbFacade:
    """One node's read-only :class:`~repro.telemetry.tsdb.TimeSeriesDB`
    query surface over the matrix."""

    def __init__(self, matrix: MatrixTelemetry, node) -> None:
        self._matrix = matrix
        self._node_id = node.node_id
        #: ``"<gpu_id>.<metric>" -> (metric, column)``.
        self._series: dict[str, tuple[str, int]] = {}
        for gpu in node.gpus:
            col = matrix.state.index[gpu.gpu_id]
            for metric in METRICS:
                self._series[f"{gpu.gpu_id}.{metric}"] = (metric, col)
        self._cache: dict[str, tuple[tuple, SeriesWindow]] = {}
        self._guard = None

    # The race detector installs ``monitor.tsdb.guard``; mirror it into
    # the matrix so the vectorized heartbeat append is checked too.
    @property
    def guard(self):
        return self._guard

    @guard.setter
    def guard(self, value) -> None:
        self._guard = value
        if value is None:
            self._matrix.guards.pop(self._node_id, None)
        else:
            self._matrix.guards[self._node_id] = value

    # -- TimeSeriesDB query surface ----------------------------------------

    def metrics(self) -> list[str]:
        if self._matrix.count == 0:
            return []
        return sorted(self._series)

    def __contains__(self, metric: str) -> bool:
        return self._matrix.count > 0 and metric in self._series

    def version(self, metric: str) -> int:
        if metric not in self._series:
            return 0
        return self._matrix.version

    def query(
        self, metric: str, since: float | None = None, until: float | None = None
    ) -> SeriesWindow:
        if self._guard is not None:
            self._guard.check("query")
        series = self._series.get(metric)
        if series is None:
            return _EMPTY_WINDOW
        m = self._matrix
        key = (m.version, since, until)
        cached = self._cache.get(metric)
        if cached is not None and cached[0] == key:
            return cached[1]
        lo, hi = m.window_bounds(since, until)
        window = m.column_window(series[0], series[1], lo, hi)
        self._cache[metric] = (key, window)
        return window

    def query_many(
        self,
        metrics: list[str] | tuple[str, ...],
        since: float | None = None,
        until: float | None = None,
    ) -> dict[str, SeriesWindow]:
        if self._guard is not None:
            self._guard.check("query_many")
        out: dict[str, SeriesWindow] = {}
        m = self._matrix
        bounds: tuple[int, int] | None = None
        for metric in metrics:
            series = self._series.get(metric)
            if series is None:
                out[metric] = _EMPTY_WINDOW
                continue
            key = (m.version, since, until)
            cached = self._cache.get(metric)
            if cached is not None and cached[0] == key:
                out[metric] = cached[1]
                continue
            if bounds is None:
                bounds = m.window_bounds(since, until)
            window = m.column_window(series[0], series[1], bounds[0], bounds[1])
            self._cache[metric] = (key, window)
            out[metric] = window
        return out

    def last_window(self, metric: str, window: float, now: float) -> SeriesWindow:
        return self.query(metric, since=now - window, until=now)

    def last_windows(
        self, metrics: list[str] | tuple[str, ...], window: float, now: float
    ) -> dict[str, SeriesWindow]:
        return self.query_many(metrics, since=now - window, until=now)

    def latest(self, metric: str) -> tuple[float, float] | None:
        series = self._series.get(metric)
        m = self._matrix
        if series is None or m.count == 0:
            return None
        row = (m.head - 1) % m.capacity
        return float(m.times[row]), float(m.data[series[0]][row, series[1]])
