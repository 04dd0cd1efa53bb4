"""Process-pool fan-out over the content-addressed result store.

:func:`run_tasks` is the single entry point every experiment module
funnels through.  Each task resolves in three steps:

1. **memo** — a small in-process LRU keyed by task key, so figure
   modules that re-request the same grid entry don't even touch disk;
2. **store** — the persistent ``.repro-cache/`` (shared across
   processes and invocations);
3. **simulate** — remaining misses run on a
   ``concurrent.futures.ProcessPoolExecutor`` when more than one
   worker is configured, else inline.  A single worker (``jobs=1``)
   never spawns a pool, so serial runs stay deterministic under a
   debugger and on CI boxes without spare cores.

Results are bit-identical across all three resolution paths — the
simulators are seeded and the store round-trips exact pickles — and
``tests/test_sweep.py`` pins that with byte-level comparisons.

Error handling preserves the CLI contract:
:class:`~repro.analysis.sanitizer.SanitizerError` raised inside a
worker survives the pool's pickle round-trip (the exception defines
``__reduce__``) and re-raises here unchanged, so ``python -m repro``
still exits 3 on an invariant breach no matter where it fired.  A
worker that *dies* (crash, ``os._exit``) surfaces as
:class:`SweepError` naming the task that poisoned the pool instead of
hanging the sweep.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable

from repro.sweep.store import ResultStore, task_key
from repro.sweep.tasks import execute_task

__all__ = ["SweepError", "run_tasks", "configure", "clear", "clear_memo", "last_stats"]


class SweepError(RuntimeError):
    """A sweep failed for an infrastructure reason (e.g. a dead worker)."""


#: Session-wide defaults, set from CLI flags (``--jobs``/``--no-cache``)
#: so experiment modules pick them up without threading parameters
#: through every ``run_figN`` signature.
_config: dict[str, Any] = {"jobs": None, "cache": True}

#: In-process memo over the store: task key -> result.  Bounded so a
#: long-lived session can't pin an unbounded set of multi-MB results
#: (the failure mode of the old ``lru_cache(maxsize=64)`` — same bound,
#: but now evictable via :func:`clear` and backed by disk).
_MEMO_MAX = 64
_memo: OrderedDict[str, Any] = OrderedDict()

_last_stats: dict[str, int] = {"tasks": 0, "hits": 0, "misses": 0, "workers": 0}

#: Guards every mutation of the module-level state above (``_config``,
#: ``_memo``, ``_last_stats``).  ``run_tasks`` may be driven from
#: several threads (e.g. a notebook kernel plus a background sweep);
#: the lock is held only around dict/OrderedDict touches — never across
#: store I/O or a simulation — so contention stays negligible.
_state_lock = threading.Lock()


def configure(jobs: int | None = None, cache: bool | None = None) -> None:
    """Set session defaults for :func:`run_tasks` (the CLI hook)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    with _state_lock:
        if jobs is not None:
            _config["jobs"] = jobs
        if cache is not None:
            _config["cache"] = bool(cache)


def clear_memo() -> None:
    """Drop the in-process memo (results on disk are untouched)."""
    with _state_lock:
        _memo.clear()


def clear(disk: bool = False, store: ResultStore | None = None) -> None:
    """Invalidate cached results.

    Always drops the in-process memo; with ``disk=True`` also deletes
    the persistent ``.repro-cache/`` entries (of ``store``, or the
    default store).
    """
    clear_memo()
    if disk:
        (store or ResultStore()).clear()


def last_stats() -> dict[str, int]:
    """Counters from the most recent :func:`run_tasks` call."""
    with _state_lock:
        return dict(_last_stats)


def _memo_put(key: str, result: Any) -> None:
    with _state_lock:
        _memo[key] = result
        _memo.move_to_end(key)
        while len(_memo) > _MEMO_MAX:
            _memo.popitem(last=False)


def _resolve_jobs(jobs: int | None) -> int:
    import os

    if jobs is None:
        with _state_lock:
            jobs = _config["jobs"]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_tasks(
    tasks: Iterable[Any],
    *,
    jobs: int | None = None,
    cache: bool | None = None,
    store: ResultStore | None = None,
    memo: bool = True,
    obs=None,
) -> list[Any]:
    """Resolve every task (memo -> store -> simulate), preserving order.

    Parameters
    ----------
    jobs:
        Worker processes for cache misses.  Defaults to the session
        value set by :func:`configure`, else ``os.cpu_count()``;
        ``jobs=1`` executes inline (no pool).
    cache:
        ``False`` bypasses the persistent store entirely (misses are
        recomputed and not written).  Defaults to the session value.
    store:
        Override the store instance (benchmarks and tests point this at
        scratch directories).
    memo:
        ``False`` skips the in-process memo — used where the point is
        to exercise the store or the pool (benchmarks, determinism
        tests).
    obs:
        Optional :class:`repro.obs.Observability`; when metrics are
        enabled the sweep bumps ``sweep_tasks_total``,
        ``sweep_cache_hits_total`` and ``sweep_cache_misses_total``.

    Duplicate tasks inside one batch are computed once and fanned back
    to every position.
    """
    task_list = list(tasks)
    if not task_list:
        return []
    if cache is None:
        with _state_lock:
            use_cache = _config["cache"]
    else:
        use_cache = cache
    n_jobs = _resolve_jobs(jobs)
    store_obj = (store if store is not None else ResultStore()) if use_cache else None

    keys = [task_key(t) for t in task_list]
    # Duplicate tasks in one batch share a single resolution.
    unique: dict[str, int] = {}
    for i, key in enumerate(keys):
        unique.setdefault(key, i)

    resolved: dict[str, Any] = {}
    miss_keys: list[str] = []
    hits = 0
    for key in unique:
        if memo:
            with _state_lock:
                memoized = key in _memo
                if memoized:
                    resolved[key] = _memo[key]
                    _memo.move_to_end(key)
            if memoized:
                hits += 1
                continue
        if store_obj is not None:
            result = store_obj.get(key)
            if result is not None:
                if memo:
                    _memo_put(key, result)
                resolved[key] = result
                hits += 1
                continue
        miss_keys.append(key)

    misses = len(miss_keys)
    if misses:
        miss_tasks = [task_list[unique[key]] for key in miss_keys]
        workers = min(n_jobs, misses)
        if workers > 1:
            computed = _run_pool(miss_tasks, workers)
        else:
            computed = [execute_task(t) for t in miss_tasks]
        for key, task, result in zip(miss_keys, miss_tasks, computed):
            if store_obj is not None:
                store_obj.put(key, task, result)
            if memo:
                _memo_put(key, result)
            resolved[key] = result

    results = [resolved[key] for key in keys]
    with _state_lock:
        _last_stats.update(
            tasks=len(task_list), hits=hits, misses=misses,
            workers=min(n_jobs, misses) if misses else 0,
        )
    if obs is not None and getattr(obs, "enabled", False):
        metrics = obs.metrics
        metrics.counter("sweep_tasks_total", "Tasks requested from the sweep fabric").inc(
            len(task_list)
        )
        metrics.counter("sweep_cache_hits_total", "Sweep tasks served from memo/store").inc(hits)
        metrics.counter("sweep_cache_misses_total", "Sweep tasks that ran a simulation").inc(
            misses
        )
    return results


def _run_pool(miss_tasks: list[Any], workers: int) -> list[Any]:
    """Fan ``miss_tasks`` across a fresh process pool, order-preserving."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.analysis.sanitizer import SanitizerError

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        try:
            for task in miss_tasks:
                # An earlier task's worker may already have died: the
                # pool then refuses new work at submission.
                try:
                    futures.append(pool.submit(execute_task, task))
                except BrokenProcessPool as exc:
                    raise SweepError(
                        f"sweep worker died before {task!r} could be submitted; "
                        "the remaining tasks were aborted"
                    ) from exc
            computed = []
            for task, future in zip(miss_tasks, futures):
                try:
                    computed.append(future.result())
                except SanitizerError:
                    raise  # the CLI's exit-3 contract: re-raise untouched
                except BrokenProcessPool as exc:
                    raise SweepError(
                        f"sweep worker died while executing {task!r}; "
                        "the remaining tasks were aborted"
                    ) from exc
            return computed
        finally:
            for future in futures:
                future.cancel()
