"""Online per-image resource profiles.

Kube-Knots needs *no a priori profiling* (Sec. I, contribution list):
instead, Knots observes containers as they run and accumulates a
profile per docker image — the "container resource usage profiles"
box in the design figure (Fig. 5).  CBP consults these profiles to

* resize new pods of a known image to the 80th-percentile footprint of
  what that image has actually used, and
* compute correlation between a candidate and the pods already resident
  on a device.

The first pod of an image has no profile; the schedulers then fall back
to the user's request, exactly as a cold production system would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.forecast.correlation import rank_with_ties
from repro.workloads.base import WorkloadTrace

__all__ = ["ImageProfile", "ProfileStore", "PROFILE_SERIES_POINTS"]

#: Length all correlation series are resampled to, so any two profiles
#: can be compared regardless of the underlying runtimes.
PROFILE_SERIES_POINTS = 64


def _resample_to(series: np.ndarray, n: int) -> np.ndarray:
    """Linear resample of a series to exactly ``n`` points."""
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        return np.zeros(n)
    if len(series) == 1:
        return np.full(n, series[0])
    x_old = np.linspace(0.0, 1.0, len(series))
    x_new = np.linspace(0.0, 1.0, n)
    return np.interp(x_new, x_old, series)


@dataclass
class ImageProfile:
    """Accumulated usage statistics for one image."""

    image: str
    observations: int = 0
    # Normalized-time series, running mean over observations.
    mem_series: np.ndarray = field(default_factory=lambda: np.zeros(PROFILE_SERIES_POINTS))
    sm_series: np.ndarray = field(default_factory=lambda: np.zeros(PROFILE_SERIES_POINTS))
    mean_runtime_ms: float = 0.0
    # Pooled percentile inputs.
    _mem_samples: list[np.ndarray] = field(default_factory=list)
    # Rank cache for the correlation hot path, keyed on `observations`
    # (the profile's version: mem_series is replaced on every update).
    _rank_cache: tuple[int, np.ndarray, bool] | None = field(
        default=None, repr=False, compare=False
    )
    # Scalar statistics cache, keyed on `observations` the same way:
    # (version, {stat key: value}), filled lazily per stat.
    _stats: tuple[int, dict[object, float]] = field(
        default_factory=lambda: (-1, {}), repr=False, compare=False
    )

    def update(self, sampled: dict[str, np.ndarray], runtime_ms: float = 0.0) -> None:
        """Fold one completed run's sampled series into the profile."""
        mem = _resample_to(sampled["mem_mb"], PROFILE_SERIES_POINTS)
        sm = _resample_to(sampled["sm"], PROFILE_SERIES_POINTS)
        n = self.observations
        self.mem_series = (self.mem_series * n + mem) / (n + 1)
        self.sm_series = (self.sm_series * n + sm) / (n + 1)
        self.mean_runtime_ms = (self.mean_runtime_ms * n + runtime_ms) / (n + 1)
        self.observations = n + 1
        self._mem_samples.append(np.asarray(sampled["mem_mb"], dtype=float))
        if len(self._mem_samples) > 32:       # bound memory
            self._mem_samples.pop(0)

    def correlation_ranks(self) -> tuple[np.ndarray, bool]:
        """(average ranks of ``mem_series``, tie flag), ranked once.

        CBP's admission gate Spearman-correlates this profile against
        every resident of every candidate device; caching the ranks per
        profile version makes each comparison a dot product instead of
        a re-ranking.  The cached vector is read-only — it is shared by
        every consumer.
        """
        cache = self._rank_cache
        if cache is None or cache[0] != self.observations:
            ranks, ties = rank_with_ties(self.mem_series)
            ranks.flags.writeable = False
            cache = self._rank_cache = (self.observations, ranks, ties)
        return cache[1], cache[2]

    # -- the statistics the schedulers read ---------------------------------
    #
    # A profile only changes when a pod of its image completes, but every
    # scheduling pass reads these for every resident of every device.
    # Each is computed at most once per profile version; every scheduler
    # reads them only through these accessors.

    def _cached(self, key: object, compute: Callable[[], float]) -> float:
        version, stats = self._stats
        if version != self.observations:
            stats = {}
            self._stats = (self.observations, stats)
        value = stats.get(key)
        if value is None:
            value = stats[key] = compute()
        return value

    def _samples(self) -> list[np.ndarray]:
        if not self._mem_samples:
            raise ValueError(f"no observations for image {self.image!r}")
        return self._mem_samples

    def sm_p75(self) -> float:
        """75th percentile of the SM series: the expected compute load
        (compute phases are where co-location interference happens)."""
        return self._cached("sm_p75", lambda: float(np.percentile(self.sm_series, 75)))

    def sm_max(self) -> float:
        return self._cached("sm_max", lambda: float(self.sm_series.max()))

    def mem_percentile(self, q: float) -> float:
        return self._cached(
            ("mem", q), lambda: float(np.percentile(np.concatenate(self._samples()), q))
        )

    def peak_mem_mb(self) -> float:
        return self._cached("peak_mem", lambda: float(max(s.max() for s in self._samples())))

    def mean_mem_mb(self) -> float:
        return self._cached("mean_mem", lambda: float(np.concatenate(self._samples()).mean()))


class ProfileStore:
    """All image profiles known to the head node."""

    def __init__(self) -> None:
        self._profiles: dict[str, ImageProfile] = {}

    def __contains__(self, image: str) -> bool:
        return image in self._profiles

    def get(self, image: str) -> ImageProfile | None:
        return self._profiles.get(image)

    def images(self) -> list[str]:
        return sorted(self._profiles)

    def record_trace(self, image: str, trace: WorkloadTrace, step_ms: float = 10.0) -> None:
        """Record a completed pod's observed usage (runtime feedback)."""
        profile = self._profiles.get(image)
        if profile is None:
            profile = self._profiles[image] = ImageProfile(image=image)
        profile.update(trace.sample_series(step_ms), runtime_ms=trace.total_ms)

    def provision_mb(self, image: str, requested_mb: float, percentile: float = 80.0) -> float:
        """The reservation CBP grants a new pod of ``image``.

        With history: the image's ``percentile``-th memory footprint
        (never above the request — harvesting only shrinks).  Without
        history: the request, untouched.
        """
        profile = self._profiles.get(image)
        if profile is None or profile.observations == 0:
            return requested_mb
        return min(profile.mem_percentile(percentile), requested_mb)

    def correlation_series(self, image: str) -> np.ndarray | None:
        """Normalized-time memory series for correlation checks, or None."""
        profile = self._profiles.get(image)
        if profile is None or profile.observations == 0:
            return None
        return profile.mem_series

    def correlation_ranks(self, image: str) -> tuple[np.ndarray, bool] | None:
        """Cached (ranks, tie flag) of ``image``'s correlation series.

        ``None`` under exactly the conditions :meth:`correlation_series`
        returns ``None`` — no profile or no observations yet.
        """
        profile = self._profiles.get(image)
        if profile is None or profile.observations == 0:
            return None
        return profile.correlation_ranks()

    def version(self, image: str) -> int:
        """Profile version (observation count; 0 if unknown image).

        Keys cross-pass memoization: a (candidate, resident) rho is
        valid as long as both profiles' versions are unchanged.
        """
        profile = self._profiles.get(image)
        return 0 if profile is None else profile.observations
