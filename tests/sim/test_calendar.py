"""Event calendar: timeout pooling, cancellation, and absolute timers.

The calendar is one binary heap of ``(when, priority, seq, event)``
entries.  These tests pin what the run loop does around it: recycling
retired timeouts, lazily discarding cancelled entries (and compacting
them in bulk), ``peek``/``step``, and ``timeout_at``'s exact firing
time and FIFO tie-break.
"""

import pytest

from repro.config import RunConfig, active_config
from repro.sim import Environment, SimulationError, set_default_calendar
from repro.sim.engine import CALENDAR_COMPACT_THRESHOLD
from repro.sim.fidelity import install_fidelity


# -- the benchmark harness's calendar and fidelity calls -------------------


def test_set_default_calendar_accepts_only_heap():
    set_default_calendar("heap")
    assert active_config() == RunConfig()
    for gone in ("wheel", "auto"):
        with pytest.raises(ValueError, match="unknown calendar backend"):
            set_default_calendar(gone)


def test_set_default_calendar_rejects_unknown():
    with pytest.raises(ValueError, match="unknown calendar backend"):
        set_default_calendar("btree")
    assert active_config() == RunConfig()


def test_install_fidelity_accepts_only_des():
    install_fidelity("des")
    assert active_config() == RunConfig()
    for gone in ("auto", "analytical", "bogus"):
        with pytest.raises(ValueError, match="unknown fidelity mode"):
            install_fidelity(gone)
    assert active_config() == RunConfig()


# -- timeout pooling -------------------------------------------------------


def test_timeout_pool_recycles_objects():
    env = Environment()

    def proc(env):
        for _ in range(50):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # The run loop retires each fired timeout back to the free list.
    assert len(env._timeout_pool) >= 1

    def proc2(env):
        for _ in range(10):
            yield env.timeout(1.0)

    before = len(env._timeout_pool)
    env.process(proc2(env))
    env.run()
    # Steady state: reuse, no net pool growth beyond one in flight.
    assert len(env._timeout_pool) <= before + 1


def test_timeout_pool_reuses_identity_and_resets_value():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="a")
        seen.append(v)
        v = yield env.timeout(1.0)
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["a", None]  # value reset on reuse, not sticky


def test_timeout_pool_disabled():
    env = Environment(timeout_pool=0)

    def proc(env):
        for _ in range(20):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env._timeout_pool == []


def test_timeout_pool_rejects_negative():
    with pytest.raises(ValueError):
        Environment(timeout_pool=-1)


def test_timeout_pool_skips_held_references():
    env = Environment()
    held = [env.timeout(float(i)) for i in range(10)]
    env.run()
    # Model code still holds these timeouts; none may be recycled.
    assert env._timeout_pool == []
    assert all(ev.processed for ev in held)


def test_timeout_pool_recycles_cancelled_discards():
    env = Environment()
    for i in range(10):
        env.timeout(float(i)).cancel()
    env.timeout(100.0)
    env.run()
    assert env.now == 100.0
    assert len(env._timeout_pool) >= 9  # discarded entries were recycled
    # Recycled cancelled timeouts must come back clean.
    ev = env.timeout(1.0)
    assert not ev.cancelled and ev.callbacks == [] and ev._value is None


def test_timeout_pool_recycles_process_timeouts():
    env = Environment()

    def proc(env):
        for _ in range(30):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert len(env._timeout_pool) >= 1
    assert env.now == 30.0


def test_pooled_condition_timeouts_not_recycled_while_held():
    # all_of holds its source events in its value dict; they must not
    # be recycled out from under it.
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, value="x")
        t2 = env.timeout(2.0, value="y")
        got = yield env.all_of([t1, t2])
        results.append(sorted(got.values()))

    env.process(proc(env))
    env.run()
    assert results == [["x", "y"]]


# -- cancel x compaction ---------------------------------------------------


def test_cancel_compaction_threshold():
    env = Environment()
    live = [env.timeout(10000.0 + i) for i in range(200)]
    doomed = [env.timeout(float(i + 1)) for i in range(CALENDAR_COMPACT_THRESHOLD + 1)]
    # Cancel up to the threshold: entries stay parked (dead <= threshold).
    for ev in doomed[:-1]:
        ev.cancel()
    assert env._dead_entries == CALENDAR_COMPACT_THRESHOLD
    assert env.stale_timers == 0
    # One more cancel crosses it, but dead*2 <= pending holds (200 live),
    # so compaction still must not trigger.
    doomed[-1].cancel()
    assert env.stale_timers == 0
    # Cancel live entries until cancelled entries dominate -> compacts
    # (possibly more than once as the calendar shrinks).
    for ev in live[:150]:
        ev.cancel()
    assert env.stale_timers > CALENDAR_COMPACT_THRESHOLD
    assert env._dead_entries < CALENDAR_COMPACT_THRESHOLD
    env.run()
    assert env.now == 10000.0 + 199  # survivors live[150:] all fire


def test_cancel_then_advance_then_run():
    env = Environment()
    order = []
    env.timeout(5.0, value="early").callbacks.append(lambda e: order.append(e._value))
    doomed = env.timeout(7.0)
    late = env.timeout(500.0, value="late")
    late.callbacks.append(lambda e: order.append(e._value))
    doomed.cancel()
    env.run(until=10.0)
    assert order == ["early"]
    assert env.now == 10.0
    assert env.peek() == 500.0  # the cancelled 7.0 entry never fires
    assert env.stale_timers == 1
    env.run()
    assert order == ["early", "late"]
    assert env.now == 500.0


def test_peek_and_step_consistency():
    env = Environment()
    env.timeout(3.0)
    doomed = env.timeout(1.0)
    doomed.cancel()
    assert env.peek() == 3.0  # cancelled head discarded without advancing
    assert env.now == 0.0
    env.step()
    assert env.now == 3.0
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError, match="empty calendar"):
        env.step()


# -- timeout_at (absolute-time timers) -------------------------------------


def test_timeout_at_fires_at_the_exact_fused_time():
    # (now + a) + b keeps two chained timeouts' float addition order.
    env = Environment(initial_time=0.1)
    a, b = 0.2, 0.3
    stepped = []

    def chained(env):
        yield env.timeout(a)
        yield env.timeout(b)
        stepped.append(env.now)

    env.process(chained(env))
    fused = []
    env.timeout_at((env.now + a) + b, value="v").callbacks.append(
        lambda e: fused.append((env.now, e._value))
    )
    env.run()
    assert fused == [(stepped[0], "v")]
    assert stepped[0] != 0.1 + (a + b)  # the order really matters here


def test_timeout_at_ties_break_by_scheduling_order():
    env = Environment()
    order = []
    env.timeout(5.0, value="relative").callbacks.append(lambda e: order.append(e._value))
    env.timeout_at(5.0, value="absolute").callbacks.append(lambda e: order.append(e._value))
    env.timeout_at(env.now).callbacks.append(lambda e: order.append("now"))
    env.run()
    assert order == ["now", "relative", "absolute"]


def test_timeout_at_rejects_the_past():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError, match="in the past"):
        env.timeout_at(9.999)


def test_timeout_at_draws_from_the_pool():
    env = Environment()
    env.timeout(1.0)
    env.run()
    assert len(env._timeout_pool) == 1
    recycled = env._timeout_pool[-1]
    timer = env.timeout_at(2.0)
    assert timer is recycled
    del timer, recycled  # the pool only takes back unreferenced timers
    env.run()
    assert env.now == 2.0 and len(env._timeout_pool) == 1
