"""Array-native scheduling pass state (the 1024-node fast path).

The legacy pass materializes one :class:`~repro.telemetry.aggregator.GpuView`
per device per pass, five ``PassState`` dicts keyed by gpu_id, and a
full Python ``sorted`` of every device per pending pod.  At 32x8 that
is noise; at 1024x8 the pass spends milliseconds building views of
devices it will never touch.

:class:`ArrayPassState` keeps the same accounting as column vectors
over the :class:`~repro.cluster.state.ClusterState` index, so

* pass setup is four O(n) vector ops plus a sparse walk of the
  *occupied* devices (``ctx.residents``), and
* candidate selection per pod is a vectorized fit mask plus a
  lexicographic arg-min — O(n) flat instead of O(n log n) sort.

Decision equivalence with the dict path is exact, not approximate:

* the fit mask evaluates the same float predicates elementwise
  (``cap - (free - alloc)``, the two-peak guard, the SM ceilings);
* the two-peak guard tracks the top-2 overshoots ``o1 >= o2`` per
  device; ``max(o1, c) + min(max(c, o2), o1)`` equals the legacy
  ``sum(sorted(overshoots + [c], reverse=True)[:2])`` for every case of
  the candidate overshoot ``c`` (c >= o1, o2 <= c < o1, c < o2);
* tie-breaks on gpu_id use ``ClusterState.id_rank`` (the precomputed
  lexicographic rank of the id strings), so arg-min picks exactly the
  device the legacy full sort would visit first.

The fast path only runs with observability fully off (no audit, no
metrics, no sanitizer): the audit trail records per-candidate attempt
lines whose enumeration the arg-min deliberately skips.  The dict path
remains the single source of truth for audited/sanitized passes and
for scheduler subclasses that override candidate ordering.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.base import SchedulingContext
from repro.workloads.base import QoSClass

__all__ = ["ArrayPassState"]


class ArrayPassState:
    """Per-pass accounting as column vectors over the ClusterState index."""

    __slots__ = (
        "cs",
        "included",
        "free",
        "caps",
        "count",
        "sm",
        "sm_peak",
        "lc_count",
        "o1",
        "o2",
        "planned_images",
        "_tried",
    )

    def __init__(self, cs, included: np.ndarray) -> None:
        n = len(cs)
        self.cs = cs
        self.included = included
        #: Same float op the per-object path performs in ``free_mem_mb``
        #: (capacity minus the summed reservations), elementwise.
        self.free = cs.mem_capacity_mb - cs.alloc_mb
        self.caps = cs.mem_capacity_mb
        self.count = np.zeros(n, dtype=np.int64)
        self.sm = np.zeros(n)
        self.sm_peak = np.zeros(n)
        self.lc_count = np.zeros(n, dtype=np.int64)
        #: Top-2 per-device peak overshoots, ``o1 >= o2``.
        self.o1 = np.zeros(n)
        self.o2 = np.zeros(n)
        #: gpu_id -> images bound this pass (the correlation gate reads it).
        self.planned_images: dict[str, list[str]] = {}
        #: Scratch mask: candidates already rejected by the admission
        #: gate for the pod currently being placed.
        self._tried = np.zeros(n, dtype=bool)

    # -- setup ---------------------------------------------------------------

    def load_residents(self, ctx: SchedulingContext, knots) -> None:
        """Sparse equivalent of ``_load_pressure`` + the view counts.

        Devices without residents keep the zero defaults — exactly what
        the dict path computes for them (empty loop, ``pressure = 0``).
        """
        index = self.cs.index
        included = self.included
        profiles = knots.profiles
        for gpu_id, residents in ctx.residents.items():
            i = index.get(gpu_id)
            if i is None or not included[i]:
                continue
            self.count[i] = len(residents)
            pressure = 0.0
            peak_pressure = 0.0
            lc = 0
            for res in residents:
                if res.qos_class is QoSClass.LATENCY_CRITICAL:
                    lc += 1
                profile = profiles.get(res.image)
                if profile is not None and profile.observations:
                    pressure += profile.sm_p75()
                    peak_pressure += profile.sm_max()
                    self.push_overshoot(i, max(profile.peak_mem_mb() - res.alloc_mb, 0.0))
                else:
                    pressure += 0.3
                    peak_pressure += 0.5
            self.sm[i] = pressure
            self.sm_peak[i] = peak_pressure
            self.lc_count[i] = lc

    def push_overshoot(self, i: int, c: float) -> None:
        if c > self.o1[i]:
            self.o2[i] = self.o1[i]
            self.o1[i] = c
        elif c > self.o2[i]:
            self.o2[i] = c

    # -- the fit mask (vectorized ``_fits``) ----------------------------------

    def fits_mask(
        self,
        alloc: float,
        peak: float,
        expected_sm: float,
        is_batch: bool,
        max_pods_per_gpu: int,
        usage_headroom: float,
        batch_sm_ceiling: float,
    ) -> np.ndarray:
        """Devices passing every ``_fits`` predicate, elementwise."""
        free = self.free
        m = self.included & (self.count < max_pods_per_gpu) & (alloc <= free)
        c = max(peak - alloc, 0.0)
        allocated_after = self.caps - (free - alloc)
        worst_two = np.maximum(self.o1, c) + np.minimum(np.maximum(self.o2, c), self.o1)
        m &= ~(allocated_after + worst_two > usage_headroom * self.caps)
        if is_batch:
            m &= (self.lc_count == 0) & (self.sm + expected_sm <= batch_sm_ceiling)
        return m

    # -- candidate selection (lexicographic arg-min over a mask) --------------

    def _argbest(self, m: np.ndarray, key1: np.ndarray, key2: np.ndarray) -> int:
        """Index minimizing ``(key1, key2, id_rank)`` over mask ``m``; -1 if empty."""
        if not m.any():
            return -1
        m = m & (key1 == key1[m].min())
        m &= key2 == key2[m].min()
        idx = np.nonzero(m)[0]
        if len(idx) == 1:
            return int(idx[0])
        return int(idx[np.argmin(self.cs.id_rank[idx])])

    def begin_pod(self) -> None:
        self._tried[:] = False

    def reject(self, i: int) -> None:
        self._tried[i] = True

    def pick_batch(self, fits: np.ndarray) -> int:
        """First device of the batch order ``(lc_count, free, gpu_id)``
        that fits and was not rejected for this pod yet."""
        return self._argbest(fits & ~self._tried, self.lc_count, self.free)

    def pick_lc(self, fits: np.ndarray, ceiling: float, hot: bool) -> int:
        """First device of the LC order that fits: devices under the SM
        budget ordered ``(-sm_peak, -free, gpu_id)``; with ``hot`` the
        over-budget remainder ordered ``(sm_peak, -free, gpu_id)``."""
        m = fits & ~self._tried
        under = self.sm_peak < ceiling
        if hot:
            return self._argbest(m & ~under, self.sm_peak, -self.free)
        return self._argbest(m & under, -self.sm_peak, -self.free)

    # -- booking (``PassState.book`` + ``_book_pod`` bookkeeping) -------------

    def book(
        self,
        i: int,
        gpu_id: str,
        image: str,
        is_lc: bool,
        alloc: float,
        expected_sm: float,
        peak: float,
        peak_sm: float,
    ) -> None:
        self.free[i] -= alloc
        self.sm[i] += expected_sm
        self.sm_peak[i] += max(peak_sm, expected_sm)
        self.count[i] += 1
        self.push_overshoot(i, max(peak - alloc, 0.0))
        self.planned_images.setdefault(gpu_id, []).append(image)
        if is_lc:
            self.lc_count[i] += 1

    # -- PP hooks --------------------------------------------------------------

    def wake(self, i: int) -> None:
        """Bring a sleeping device into the pass (``PassState.add_gpu``
        plus the zeroed pressure entries PP writes after a wake)."""
        self.included[i] = True
        self.free[i] = self.caps[i] - self.cs.alloc_mb[i]
        self.count[i] = 0
        self.sm[i] = 0.0
        self.sm_peak[i] = 0.0
        self.lc_count[i] = 0
        self.o1[i] = 0.0
        self.o2[i] = 0.0

    def empty_included(self) -> np.ndarray:
        """Included devices with no residents and no bind this pass, in
        gpu_id order — PP's consolidation candidates."""
        idx = np.nonzero(self.included & (self.count == 0))[0]
        if len(idx) <= 1:
            return idx
        return idx[np.argsort(self.cs.id_rank[idx])]

    def n_included(self) -> int:
        return int(np.count_nonzero(self.included))
