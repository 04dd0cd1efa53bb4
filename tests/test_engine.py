"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import EventLoop, SimulationError


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(5.0, fired.append, "late")
    loop.schedule(1.0, fired.append, "early")
    loop.schedule(3.0, fired.append, "middle")
    loop.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_fifo():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule(1.0, fired.append, i)
    loop.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(2.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [2.5]
    assert loop.now == 2.5


def test_run_until_stops_before_future_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(10.0, fired.append, "b")
    n = loop.run(until=5.0)
    assert n == 1
    assert fired == ["a"]
    assert loop.now == 5.0  # clock advanced to the boundary
    loop.run()
    assert fired == ["a", "b"]


def test_schedule_in_past_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)
    loop.schedule(5.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(1.0, lambda: None)


def test_cancel_prevents_firing():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(1.0, fired.append, "cancelled")
    loop.schedule(2.0, fired.append, "kept")
    handle.cancel()
    assert handle.cancelled
    loop.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert loop.run() == 0


def test_events_scheduled_during_run_fire():
    loop = EventLoop()
    fired = []

    def chain(depth: int) -> None:
        fired.append(depth)
        if depth < 3:
            loop.schedule(1.0, chain, depth + 1)

    loop.schedule(0.0, chain, 0)
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_max_events_bounds_execution():
    loop = EventLoop()
    fired = []
    for i in range(100):
        loop.schedule(float(i), fired.append, i)
    assert loop.run(max_events=10) == 10
    assert len(fired) == 10


def test_len_counts_pending_non_cancelled():
    loop = EventLoop()
    handles = [loop.schedule(float(i), lambda: None) for i in range(5)]
    handles[0].cancel()
    assert len(loop) == 4


def test_step_returns_false_when_empty():
    loop = EventLoop()
    assert loop.step() is False


def test_reentrant_run_rejected():
    loop = EventLoop()

    def nested():
        with pytest.raises(SimulationError):
            loop.run()

    loop.schedule(1.0, nested)
    loop.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_arbitrary_schedules_fire_sorted(delays):
    loop = EventLoop()
    fired = []
    for d in delays:
        loop.schedule(d, lambda t=d: fired.append(t))
    loop.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


def test_len_tracks_schedule_cancel_fire_sequence():
    """The live pending counter survives interleaved cancels and fires."""
    loop = EventLoop()
    handles = [loop.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert len(loop) == 5
    handles[1].cancel()
    handles[3].cancel()
    assert len(loop) == 3
    assert loop.step() is True      # fires t=1
    assert len(loop) == 2
    assert loop.step() is True      # skips cancelled t=2, fires t=3
    assert loop.now == 3.0
    assert len(loop) == 1
    loop.run()
    assert len(loop) == 0


def test_cancel_after_fire_does_not_corrupt_count():
    """Cancelling a handle whose event already fired must be a no-op —
    in particular it must not decrement the pending count again."""
    loop = EventLoop()
    fired = []
    early = loop.schedule(1.0, fired.append, "early")
    loop.schedule(2.0, fired.append, "late")
    loop.step()                     # "early" fires
    assert fired == ["early"]
    early.cancel()                  # too late: no effect
    assert not early.cancelled
    assert len(loop) == 1
    loop.run()
    assert fired == ["early", "late"]
    assert len(loop) == 0


def test_double_cancel_decrements_once():
    loop = EventLoop()
    keep = loop.schedule(2.0, lambda: None)
    victim = loop.schedule(1.0, lambda: None)
    victim.cancel()
    victim.cancel()
    assert len(loop) == 1
    assert loop.run() == 1
    assert len(loop) == 0


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=40))
def test_len_matches_heap_survivors(plan):
    """len(loop) equals a brute-force count of live events at every point."""
    loop = EventLoop()
    handles = []
    for delay, _ in plan:
        handles.append(loop.schedule(delay, lambda: None))
    for handle, (_, cancel) in zip(handles, plan):
        if cancel:
            handle.cancel()
    live = sum(1 for h, (_, cancel) in zip(handles, plan) if not cancel)
    assert len(loop) == live
    fired = loop.run()
    assert fired == live
    assert len(loop) == 0

# -- same-instant priorities --------------------------------------------------


def test_priority_orders_same_instant_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "late-phase", priority=7)
    loop.schedule(1.0, fired.append, "early-phase", priority=0)
    loop.schedule(1.0, fired.append, "mid-phase", priority=3)
    loop.run()
    assert fired == ["early-phase", "mid-phase", "late-phase"]


def test_equal_priority_same_instant_is_fifo():
    loop = EventLoop()
    fired = []
    for i in range(8):
        loop.schedule(2.0, fired.append, i, priority=4)
    loop.run()
    assert fired == list(range(8))


def test_priority_does_not_override_time():
    loop = EventLoop()
    fired = []
    loop.schedule(2.0, fired.append, "later", priority=0)
    loop.schedule(1.0, fired.append, "earlier", priority=9)
    loop.run()
    assert fired == ["earlier", "later"]


# -- stop() -------------------------------------------------------------------


def test_stop_halts_run_and_keeps_pending_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(2.0, lambda: (fired.append("b"), loop.stop()))
    loop.schedule(3.0, fired.append, "c")
    n = loop.run()
    assert n == 2
    assert fired == ["a", "b"]
    assert len(loop) == 1           # "c" stays queued
    assert loop.run() == 1          # a fresh run drains it
    assert fired == ["a", "b", "c"]


def test_stop_request_cleared_on_run_entry():
    loop = EventLoop()
    loop.stop()                     # stale request before run()
    fired = []
    loop.schedule(1.0, fired.append, "x")
    assert loop.run() == 1
    assert fired == ["x"]


# -- every() / RepeatingEvent -------------------------------------------------


def test_every_fires_on_interval_grid():
    loop = EventLoop()
    ticks = []
    rep = loop.every(10.0, ticks.append, start_at=0.0)
    loop.schedule(35.0, loop.stop)
    loop.run()
    assert ticks == [0.0, 10.0, 20.0, 30.0]
    assert rep.next_time == 40.0


def test_every_default_start_is_one_interval_out():
    loop = EventLoop()
    ticks = []
    loop.every(5.0, ticks.append)
    loop.schedule(11.0, loop.stop)
    loop.run()
    assert ticks == [5.0, 10.0]


def test_repeating_cancel_stops_recurrence():
    loop = EventLoop()
    ticks = []
    rep = loop.every(1.0, ticks.append, start_at=1.0)
    loop.schedule(3.5, rep.cancel)
    loop.run()
    assert ticks == [1.0, 2.0, 3.0]
    assert rep.cancelled
    assert len(loop) == 0


def test_repeating_skip_to_from_within_callback():
    """skip_to must be callable from inside the callback: the next
    occurrence is pre-scheduled before the callback runs, and skip_to
    replaces it."""
    loop = EventLoop()
    ticks = []

    def tick(now: float) -> None:
        ticks.append(now)
        if now == 2.0:
            rep.skip_to(10.0)
        if now >= 11.0:
            loop.stop()

    rep = loop.every(1.0, tick, start_at=1.0)
    loop.run()
    assert ticks == [1.0, 2.0, 10.0, 11.0]


def test_repeating_skip_to_after_cancel_rejected():
    loop = EventLoop()
    rep = loop.every(1.0, lambda now: None)
    rep.cancel()
    with pytest.raises(SimulationError):
        rep.skip_to(5.0)


def test_every_rejects_non_positive_interval():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.every(0.0, lambda now: None)
    with pytest.raises(SimulationError):
        loop.every(-1.0, lambda now: None)


# -- obs clock scaling --------------------------------------------------------


def test_clock_scale_stamps_obs_clock_in_ms():
    from repro.obs.context import Observability

    obs = Observability(trace=True)
    loop = EventLoop(obs=obs, clock_scale=1000.0)   # loop runs in seconds
    stamped = []
    loop.schedule(2.5, lambda: stamped.append(obs.clock.now))
    loop.run()
    assert stamped == [2500.0]


def test_events_fired_counter_increments():
    from repro.obs.context import Observability

    obs = Observability(trace=True)
    loop = EventLoop(obs=obs)
    for i in range(4):
        loop.schedule(float(i), lambda: None)
    loop.run()
    assert obs.metrics.get("engine_events_fired_total").value() == 4.0


# -- stop hooks / paced running ----------------------------------------------


def test_stop_is_idempotent_and_runs_hooks_each_time():
    loop = EventLoop()
    calls = []
    loop.add_stop_hook(lambda: calls.append("hook"))
    loop.stop()
    loop.stop()   # double-stop must not raise
    assert loop.stop_requested
    assert calls == ["hook", "hook"]


def test_stop_before_run_paced_halts_immediately():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "never")
    loop.stop()
    # A stop requested before pacing begins is honoured (unlike run(),
    # which resets the flag so pre-existing tests keep their semantics).
    assert loop.run_paced(lambda when: None) == 0
    assert fired == []


def test_run_paced_fires_in_order_and_reports_times_to_pacer():
    loop = EventLoop()
    fired, paced = [], []
    loop.schedule(2.0, fired.append, "b")
    loop.schedule(1.0, fired.append, "a")
    n = loop.run_paced(paced.append)
    assert n == 2
    assert fired == ["a", "b"]
    assert paced == [1.0, 2.0]


def test_run_paced_rejects_reentrancy():
    loop = EventLoop()

    def reenter():
        with pytest.raises(SimulationError):
            loop.run_paced(lambda when: None)

    loop.schedule(1.0, reenter)
    loop.run_paced(lambda when: None)


def test_cross_thread_stop_wakes_a_sleeping_pacer():
    """The serving shutdown path: SIGINT lands on another thread while
    the pacer is blocked waiting for the next event's wall time."""
    import threading

    loop = EventLoop()
    woken = threading.Event()
    entered = threading.Event()

    def pacer(when: float) -> None:
        entered.set()
        # Block until stop() (from the other thread) sets the event;
        # a hung test here means the stop hook never fired.
        assert woken.wait(timeout=30.0)

    loop.add_stop_hook(woken.set)
    loop.schedule(1.0, lambda: None)
    stopper = threading.Thread(target=lambda: (entered.wait(30.0), loop.stop()))
    stopper.start()
    fired = loop.run_paced(pacer)
    stopper.join(timeout=30.0)
    assert not stopper.is_alive()
    # The head event was paced, then the stop was observed before firing.
    assert fired == 0
    assert loop.stop_requested


# -- handles drop their callbacks --------------------------------------------


def test_fired_and_cancelled_handles_drop_callback_and_args():
    loop = EventLoop()
    fired = loop.schedule(1.0, [].append, "fired")
    cancelled = loop.schedule(2.0, [].append, "never")
    cancelled.cancel()
    assert cancelled.callback is None and cancelled.args is None
    loop.run()
    assert fired.fired
    assert fired.callback is None and fired.args is None


def test_cancelled_repeating_event_drops_callback():
    loop = EventLoop()
    rep = loop.every(1.0, lambda now: None)
    rep.cancel()
    assert rep.callback is None
    assert rep._handle.callback is None


def test_cancel_pending_empties_the_heap():
    loop = EventLoop()
    handles = [loop.schedule(float(i), [].append, i) for i in range(3)]
    loop.every(1.0, lambda now: None)
    loop.cancel_pending()
    assert len(loop) == 0
    assert loop._heap == []
    assert all(h.cancelled and h.callback is None for h in handles)
    assert loop.run() == 0
