"""Rodinia-like batch workload traces (paper Sec. II-C1, Fig. 3).

The paper runs eight Rodinia applications sequentially on a P100 and
observes (Fig. 3):

* resource consumption is low on average with rare surges;
* phase changes are deterministic: a PCIe-input burst reliably precedes
  the compute/memory ramp by a few milliseconds;
* SM utilization has a ~90x median-to-peak gap, PCIe bandwidth ~400x;
* an application occupies its full allocation only ~6 % of its runtime
  yet is provisioned for the peak.

Each profile below generates a phased :class:`WorkloadTrace` with those
properties: a load phase (rx burst), repeated compute iterations whose
short peaks follow a bandwidth-led prelude, and a write-back phase (tx
burst).  Per-instance jitter comes from the caller's RNG so no two pods
are identical, while class-level shape (what CBP correlates on) is
stable.

:func:`make_rodinia_trace` writes the phase table straight into arrays
(:meth:`WorkloadTrace.from_table`): the ~3 x ``n_iters`` body rows are
one broadcast, and the per-iteration prelude jitters are one batched
``rng.uniform`` draw that consumes the stream exactly as the scalar
per-phase draws did, so traces and the caller's later draws are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import QoSClass, WorkloadTrace

__all__ = ["RodiniaProfile", "RODINIA_PROFILES", "RODINIA_SUITE_ORDER", "make_rodinia_trace", "suite_timeline"]


@dataclass(frozen=True)
class RodiniaProfile:
    """Shape parameters for one Rodinia application."""

    name: str
    base_ms: float          # nominal uncontended runtime
    steady_sm: float        # SM demand between peaks
    peak_sm: float          # SM demand during surges
    steady_mem_mb: float
    peak_mem_mb: float
    load_rx_mbps: float     # input-transfer burst bandwidth
    store_tx_mbps: float
    iter_ms: float          # length of one compute iteration
    peak_fraction: float = 0.06   # fraction of runtime at peak demand


#: Calibrated to the relative magnitudes visible in Fig. 3.  Peak memory
#: stays in the hundreds-of-MB to ~2.5 GB band (Fig. 3 right panel tops
#: out near 2 500 MB), steady demand is far lower, and bandwidth bursts
#: reach a few GB/s against a near-zero median.
RODINIA_PROFILES: dict[str, RodiniaProfile] = {
    "leukocyte": RodiniaProfile("leukocyte", 80.0, 0.40, 0.95, 350.0, 1800.0, 4000.0, 900.0, 16.0),
    "heartwall": RodiniaProfile("heartwall", 20.0, 0.45, 0.90, 420.0, 2100.0, 4800.0, 1200.0, 5.0),
    "particlefilter": RodiniaProfile("particlefilter", 40.0, 0.22, 0.85, 180.0, 1400.0, 3600.0, 700.0, 8.0),
    "mummergpu": RodiniaProfile("mummergpu", 40.0, 0.35, 0.98, 600.0, 2500.0, 5200.0, 1500.0, 10.0),
    "pathfinder": RodiniaProfile("pathfinder", 140.0, 0.18, 0.70, 150.0, 900.0, 2500.0, 500.0, 20.0),
    "lud": RodiniaProfile("lud", 20.0, 0.28, 0.80, 200.0, 1100.0, 3000.0, 600.0, 5.0),
    "kmeans": RodiniaProfile("kmeans", 70.0, 0.30, 0.75, 260.0, 1300.0, 2800.0, 650.0, 12.0),
    "streamcluster": RodiniaProfile("streamcluster", 280.0, 0.15, 0.65, 120.0, 800.0, 2200.0, 450.0, 30.0),
    "myocyte": RodiniaProfile("myocyte", 60.0, 0.10, 0.60, 80.0, 700.0, 1800.0, 350.0, 10.0),
}

#: The eight apps run sequentially for Fig. 3, in gridline order.
RODINIA_SUITE_ORDER = (
    "leukocyte",
    "heartwall",
    "particlefilter",
    "mummergpu",
    "pathfinder",
    "lud",
    "kmeans",
    "streamcluster",
)


def make_rodinia_trace(
    name: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    requested_headroom: float = 1.25,
    mem_scale: float = 1.0,
) -> WorkloadTrace:
    """Build one batch pod's trace from a profile.

    Parameters
    ----------
    name:
        Profile key from :data:`RODINIA_PROFILES`.
    rng:
        Source of per-instance jitter (runtimes +-15 %, demands +-10 %).
    scale:
        Multiplies the runtime (problem size).  Demands are unchanged —
        the paper notes consumption stays low "without increasing the
        problem size"; bigger problems run longer, not hotter.
    requested_headroom:
        How much the user over-requests beyond true peak memory
        (Observation 2: applications overstate their requirements).
    mem_scale:
        Multiplies the memory footprint.  The single-node
        characterization (Fig. 3) uses 1.0 — the stock Rodinia problem
        sizes touch at most ~2.5 GB of a P100; the cluster experiments
        scale the working sets up (datacenter batch jobs fill a larger
        share of device memory) so that packing decisions face real
        capacity pressure.
    """
    try:
        p = RODINIA_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown Rodinia app {name!r}; known: {sorted(RODINIA_PROFILES)}") from None

    jitter = lambda v, frac: float(v * rng.uniform(1.0 - frac, 1.0 + frac))  # noqa: E731
    # The draws happen in a fixed order — total, steady_sm, peak_sm,
    # steady_mem, peak_mem, load_rx, iter_ms, the n_iters prelude
    # jitters, store_tx.  The caller's stream position after the call,
    # and so every later pod of a workload, depends on it
    # (tests/test_rodinia.py pins it against a per-phase reference).
    total_ms = max(jitter(p.base_ms * scale, 0.15), 2.0)
    steady_sm = min(jitter(p.steady_sm, 0.10), 1.0)
    peak_sm = min(jitter(p.peak_sm, 0.05), 1.0)
    steady_mem = jitter(p.steady_mem_mb, 0.10) * mem_scale
    peak_mem = max(jitter(p.peak_mem_mb, 0.10) * mem_scale, steady_mem * 1.5)

    # -- load phase: input transfer dominates, compute near-idle ----------
    load_ms = max(total_ms * 0.08, 0.5)
    load_rx = jitter(p.load_rx_mbps, 0.10)
    # -- compute iterations: steady body with a bandwidth-led peak --------
    body_ms = total_ms * 0.86
    iter_ms = max(jitter(p.iter_ms, 0.10), 1.0)
    n_iters = max(int(body_ms / iter_ms), 1)
    # Peak occupies `peak_fraction` of total runtime, split across iters;
    # each peak is preceded by a short rx prelude (the early marker PP
    # exploits: bandwidth rises a few ms before compute/memory).
    peak_ms_per_iter = max(total_ms * p.peak_fraction / n_iters, 0.2)
    prelude_ms = max(peak_ms_per_iter * 0.5, 0.1)
    steady_ms = max(iter_ms - peak_ms_per_iter - prelude_ms, 0.2)
    # One batched draw: a Generator fills it in stream order, value for
    # value what n_iters scalar draws would return.
    prelude_rx = (p.load_rx_mbps * 0.6) * rng.uniform(0.85, 1.15, size=n_iters)
    # -- write-back phase --------------------------------------------------
    store_ms = max(total_ms * 0.06, 0.3)
    store_tx = jitter(p.store_tx_mbps, 0.10)

    # Phase table: load, n_iters x (steady, prelude, peak), store.
    durations = np.empty(3 * n_iters + 2)
    rows = np.empty((3 * n_iters + 2, 4))
    durations[0] = load_ms
    rows[0] = (0.03, steady_mem * 0.5, 10.0, load_rx)
    durations[1:-1].reshape(n_iters, 3)[:] = (steady_ms, prelude_ms, peak_ms_per_iter)
    body = rows[1:-1].reshape(n_iters, 3, 4)
    body[:, 0] = (steady_sm, steady_mem, 5.0, 8.0)
    body[:, 1, :3] = (steady_sm, steady_mem, 5.0)
    body[:, 1, 3] = prelude_rx
    body[:, 2] = (peak_sm, peak_mem, 20.0, 30.0)
    durations[-1] = store_ms
    rows[-1] = (0.02, steady_mem * 0.4, store_tx, 5.0)

    return WorkloadTrace.from_table(
        name,
        durations,
        rows,
        qos_class=QoSClass.BATCH,
        requested_mem_mb=min(peak_mem * requested_headroom, 16_384.0),
    )


def suite_timeline(
    rng: np.random.Generator | None = None,
    step_ms: float = 1.0,
    scale: float = 1.0,
) -> dict[str, np.ndarray]:
    """Fig. 3's input: the eight-app suite run back-to-back on one GPU.

    Returns arrays ``time_ms``, ``sm_util``, ``mem_used_mb``,
    ``tx_bytes``, ``rx_bytes`` plus ``boundaries_ms`` (the gridlines
    between consecutive benchmarks).
    """
    rng = rng or np.random.default_rng(42)
    times: list[np.ndarray] = []
    sm: list[np.ndarray] = []
    mem: list[np.ndarray] = []
    tx: list[np.ndarray] = []
    rx: list[np.ndarray] = []
    boundaries = [0.0]
    offset = 0.0
    for name in RODINIA_SUITE_ORDER:
        trace = make_rodinia_trace(name, rng, scale=scale)
        samples = trace.sample_series(step_ms)
        n = len(samples["sm"])
        times.append(offset + np.arange(n) * step_ms)
        sm.append(samples["sm"])
        mem.append(samples["mem_mb"])
        tx.append(samples["tx_mbps"])
        rx.append(samples["rx_mbps"])
        offset += trace.total_ms
        boundaries.append(offset)
    return {
        "time_ms": np.concatenate(times),
        "sm_util": np.concatenate(sm),
        "mem_used_mb": np.concatenate(mem),
        "tx_mbps": np.concatenate(tx),
        "rx_mbps": np.concatenate(rx),
        "boundaries_ms": np.asarray(boundaries),
    }
