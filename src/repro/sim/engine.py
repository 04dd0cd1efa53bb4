"""Discrete-event simulation engine.

A minimal, allocation-light event loop used by every simulator in this
package: :class:`~repro.sim.simulator.KubeKnotsSimulator` drives its
tick quantum, heartbeats, scheduling passes, submissions and
fault/repair plan through it (via :mod:`repro.sim.harness`), and
:class:`~repro.sim.dlsim.DLClusterSimulator` runs its
advance-and-recompute cycle as wakeup/arrival/finalize events.

Events are ``(time, priority, seq)``-ordered entries kept in a binary
heap; ``priority`` breaks ties between events at the same instant
(lower fires first) and ``seq`` is a monotonically increasing
tie-breaker so equal-(time, priority) events fire in FIFO order, which
keeps runs deterministic.

Time is a ``float`` in **milliseconds** throughout the package unless a
module documents otherwise (the DL simulator in :mod:`repro.sim.dlsim`
uses seconds, matching the Tiresias simulator it replaces; it passes
``clock_scale=1000`` so observability timestamps stay in the
package-wide millisecond convention).

Because time only advances to the next *scheduled* event, an idle
stretch costs whatever events are scheduled across it — the cluster
simulator exploits this by fast-forwarding its tick chains over
quiescent spans (see ``docs/performance.md``).

The loop can carry an :class:`repro.obs.Observability` bundle: each
fired event then advances the shared sim clock, bumps the
``engine_events_fired_total`` counter and (when tracing) emits a span
named after the callback.  With the default disabled bundle the only
overhead is one boolean check per event.

When the bundle carries a runtime sanitizer
(``Observability(sanitize=True)``), the loop additionally checks that
no event is scheduled behind the clock, that fired events never move
time backwards, and — every ``heap_audit_interval`` events — that the
O(1) live-event counter agrees with a full heap census.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.obs.context import NOOP, Observability

__all__ = ["EventHandle", "EventLoop", "RepeatingEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the event loop (e.g. scheduling in the past)."""


class EventHandle:
    """One scheduled event, doubling as the caller's cancellation handle.

    Returned by :meth:`EventLoop.schedule`; holding it allows the caller
    to :meth:`cancel` the event before it fires.  Cancelling an
    already-fired or already-cancelled event is a no-op.

    Once fired or cancelled, a handle drops its ``callback`` and
    ``args`` (as ``asyncio.Handle.cancel`` does): a handle kept past its
    event — a component's "current occurrence" slot — then holds no
    reference back to that component, so a finished simulation is freed
    by reference counting, without waiting for the cyclic collector.

    The heap itself stores plain ``(time, priority, seq, handle)``
    tuples so event ordering is decided by C tuple comparison — ``seq``
    is unique, so two entries never tie into comparing handles.  Merging
    the event record and the handle into one object (instead of the old
    ``_Event`` + wrapper pair) halves the per-schedule allocations on
    the dense dispatch path.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "fired", "_loop")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        loop: "EventLoop",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self.callback = self.args = None
            self._loop._pending -= 1


class RepeatingEvent:
    """A self-rescheduling periodic event, created by :meth:`EventLoop.every`.

    The next occurrence is scheduled *before* the callback runs, so
    :attr:`next_time` is always valid inside the callback and
    :meth:`skip_to` may be called from within it (the pre-scheduled
    occurrence is cancelled and replaced).  A cancelled recurrence drops
    its callback.
    """

    __slots__ = ("_loop", "interval", "callback", "priority", "_handle", "_cancelled")

    def __init__(
        self,
        loop: "EventLoop",
        interval: float,
        callback: Callable[[float], None],
        start_at: float,
        priority: int,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._loop = loop
        self.interval = float(interval)
        self.callback = callback
        self.priority = priority
        self._cancelled = False
        self._handle = loop.schedule_at(start_at, self._fire, priority=priority)

    @property
    def next_time(self) -> float:
        """Time of the next scheduled occurrence."""
        return self._handle.time

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        loop = self._loop
        now = loop._now
        self._handle = loop._schedule_fast(now + self.interval, self._fire, self.priority)
        self.callback(now)

    def cancel(self) -> None:
        """Stop the recurrence.  Idempotent."""
        self._cancelled = True
        self.callback = None
        self._handle.cancel()

    def skip_to(self, when: float) -> None:
        """Move the next occurrence to ``when``, dropping occurrences
        in between (the idle fast-forward hook)."""
        if self._cancelled:
            raise SimulationError("cannot skip a cancelled periodic event")
        self._handle.cancel()
        self._handle = self._loop.schedule_at(when, self._fire, priority=self.priority)


class EventLoop:
    """A deterministic discrete-event loop.

    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(5.0, fired.append, "b")
    >>> _ = loop.schedule(1.0, fired.append, "a")
    >>> loop.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(
        self,
        start_time: float = 0.0,
        obs: Observability | None = None,
        clock_scale: float = 1.0,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._stop_requested = False
        self._stop_hooks: list[Callable[[], None]] = []
        # Live count of pending (scheduled, neither fired nor cancelled)
        # events, maintained on schedule/cancel/fire so ``len(loop)`` is
        # O(1) instead of an O(n) heap scan.
        self._pending = 0
        self.obs = obs or NOOP
        #: Factor applied to event times when stamping the shared obs
        #: clock — lets a simulator keep its native time unit while
        #: traces/metrics stay in the package-wide milliseconds.
        self.clock_scale = float(clock_scale)
        self._san = self.obs.sanitizer
        # Owner-thread affinity guard (only when a race detector rides
        # on the bundle): the loop is single-threaded by contract —
        # cross-thread interaction goes through stop()/add_stop_hook()
        # exclusively — and the guard turns a silent heap race into a
        # reported "owner_thread" violation.
        race = getattr(self.obs, "race", None)
        self._affinity = race.affinity("EventLoop") if race is not None else None
        self._fired_total = 0
        self._m_fired = self.obs.metrics.counter(
            "engine_events_fired_total", "Events fired by the discrete-event loop"
        )

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events.  O(1)."""
        return self._pending

    def count_inline_advances(self, n: int) -> None:
        """Fold externally-advanced instants into the fired counter.

        The DL simulator's drive cycle moves the clock across provably
        event-free spans without a heap event; those jumps are engine
        advances all the same, so drivers report them here to keep
        ``engine_events_fired_total`` an honest instant count.
        """
        if n and self.obs.enabled:
            self._m_fired.inc(n)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            if self._san is not None:
                self._san.check_schedule(self._now, self._now + delay)
            raise SimulationError(f"cannot schedule event {delay} units in the past")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self, when: float, callback: Callable[..., None], *args: Any, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute time ``when``.

        ``priority`` orders events at the same instant: lower values
        fire first; equal priorities fire in FIFO order.
        """
        if self._affinity is not None and self._running:
            # Mutating a running loop is only legal from the thread
            # driving it; other threads must go through stop().
            self._affinity.check("schedule_at")
        if when < self._now:
            if self._san is not None:
                # Audits the breach and (by default) raises SanitizerError.
                self._san.check_schedule(self._now, when)
            raise SimulationError(
                f"cannot schedule event at t={when} before current time t={self._now}"
            )
        when = float(when)
        seq = next(self._seq)
        event = EventHandle(when, priority, seq, callback, args, self)
        heapq.heappush(self._heap, (when, priority, seq, event))
        self._pending += 1
        return event

    def _schedule_fast(
        self, when: float, callback: Callable[[], None], priority: int
    ) -> EventHandle:
        """Internal re-scheduling path for the periodic chains.

        Callers guarantee ``when >= now`` (it is always ``now`` plus a
        positive interval, or an already-validated future grid tick),
        so the past-time guard and float coercion of
        :meth:`schedule_at` are skipped — this runs once per fired
        chain event on the dense dispatch path.
        """
        seq = next(self._seq)
        event = EventHandle(when, priority, seq, callback, (), self)
        heapq.heappush(self._heap, (when, priority, seq, event))
        self._pending += 1
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[float], None],
        *,
        start_at: float | None = None,
        priority: int = 0,
    ) -> RepeatingEvent:
        """Schedule ``callback(now)`` every ``interval`` time units.

        The first occurrence fires at ``start_at`` (default: one
        interval from now).  Returns a :class:`RepeatingEvent` whose
        :meth:`~RepeatingEvent.cancel` stops the recurrence and whose
        :meth:`~RepeatingEvent.skip_to` jumps it forward.
        """
        first = self._now + interval if start_at is None else start_at
        return RepeatingEvent(self, interval, callback, first, priority)

    def stop(self) -> None:
        """Ask the current (or next) :meth:`run` to halt after the
        in-flight event.  Pending events stay scheduled.

        Idempotent and safe to call from any thread (and from signal
        handlers): it only sets a flag and notifies the registered stop
        hooks.  A hook that blocks a paced run's sleep (see
        :meth:`run_paced`) is woken so a cross-thread stop cannot hang
        behind the pacer.
        """
        self._stop_requested = True
        for hook in self._stop_hooks:
            hook()

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`stop` has been called and not yet consumed
        by a plain :meth:`run`."""
        return self._stop_requested

    def add_stop_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook()`` to run on every :meth:`stop` call.

        Hooks must be idempotent and thread-safe — the serving layer
        uses one to wake its wall-clock pacer out of a sleep.
        """
        self._stop_hooks.append(hook)

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the loop is empty.
        """
        heap = self._heap
        while heap:
            when, _priority, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue          # already uncounted at cancel time
            san = self._san
            if san is not None:
                san.check_event_time(self._now, when)
            self._now = when
            event.fired = True
            self._pending -= 1
            if san is not None:
                self._fired_total += 1
                if self._fired_total % san.heap_audit_interval == 0:
                    live = sum(1 for entry in heap if not entry[3].cancelled)
                    san.check_heap(self._pending, live)
            callback, args = event.callback, event.args
            event.callback = event.args = None
            obs = self.obs
            if obs.enabled:
                obs.clock.now = when * self.clock_scale
                self._m_fired.inc()
                tracer = obs.tracer
                if tracer.enabled:
                    name = getattr(callback, "__qualname__", repr(callback))
                    tracer.begin(name, cat="engine")
                    try:
                        callback(*args)
                    finally:
                        tracer.end()
                    return True
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event lies strictly after
            ``until`` (the clock is then advanced to ``until``).
        max_events:
            Safety valve: stop after firing this many events.

        Returns
        -------
        int
            The number of events fired.  The run also ends when a
            callback calls :meth:`stop` (pending events stay queued).
        """
        if self._running:
            raise SimulationError("event loop is already running (re-entrant run())")
        if self._affinity is not None:
            self._affinity.rebind()   # sanctioned hand-off: the runner owns the loop
        self._running = True
        self._stop_requested = False
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        # The plain path — no sanitizer, observability disabled — is the
        # dense-dispatch hot loop: pop and fire inline, no step() call,
        # no per-event instrumentation checks.
        plain = self._san is None and not self.obs.enabled
        try:
            if plain and until is None and max_events is None:
                # run_until_idle's shape: no bound checks at all, pop
                # directly instead of peek-then-pop.
                while heap:
                    if self._stop_requested:
                        break
                    entry = pop(heap)
                    event = entry[3]
                    if event.cancelled:
                        continue
                    self._now = entry[0]
                    event.fired = True
                    self._pending -= 1
                    callback, args = event.callback, event.args
                    event.callback = event.args = None
                    callback(*args)
                    fired += 1
                return fired
            while heap:
                if self._stop_requested:
                    break
                if max_events is not None and fired >= max_events:
                    break
                head = heap[0]
                if head[3].cancelled:
                    pop(heap)
                    continue
                if until is not None and head[0] > until:
                    break
                if plain:
                    pop(heap)
                    event = head[3]
                    self._now = head[0]
                    event.fired = True
                    self._pending -= 1
                    callback, args = event.callback, event.args
                    event.callback = event.args = None
                    callback(*args)
                else:
                    self.step()
                fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return fired

    def run_paced(self, pacer: Callable[[float], None], max_events: int | None = None) -> int:
        """Run events in time order, pacing each against a wall clock.

        ``pacer(when)`` is called with the absolute sim time of the next
        pending event *before* it fires; the pacer blocks until that sim
        instant is due in wall-clock terms (the engine itself never
        reads a host clock — determinism-critical packages ban it, so
        the clock lives with the injected pacer, e.g.
        :class:`repro.serve.server.WallClockPacer`).  A pacer must
        return promptly once :meth:`stop` is called — register a wakeup
        via :meth:`add_stop_hook`.

        Unlike :meth:`run`, a stop requested *before* entry is honoured
        (a signal may land between constructing the loop and pacing it),
        so the stop flag is not reset here.  Returns the number of
        events fired.
        """
        if self._running:
            raise SimulationError("event loop is already running (re-entrant run_paced())")
        if self._affinity is not None:
            self._affinity.rebind()   # sanctioned hand-off: the runner owns the loop
        self._running = True
        fired = 0
        heap = self._heap
        try:
            while heap:
                if self._stop_requested:
                    break
                if max_events is not None and fired >= max_events:
                    break
                head = heap[0]
                if head[3].cancelled:
                    heapq.heappop(heap)
                    continue
                pacer(head[0])
                if self._stop_requested:
                    break
                if self.step():
                    fired += 1
        finally:
            self._running = False
        return fired

    def cancel_pending(self) -> None:
        """Cancel every pending event and empty the heap.

        The end-of-run teardown: cancelled handles drop their callbacks,
        so nothing left queued keeps its owner (and whatever that owner
        references) alive after the run.
        """
        heap = self._heap
        for entry in heap:
            entry[3].cancel()
        heap.clear()

    def _peek(self) -> EventHandle | None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][3] if heap else None
