"""Unit tests: AsyncClock keeps the simulator's scheduling contract —
callbacks run in ``(time, submission order)`` — on a live loop."""

import asyncio

from repro.net import AsyncClock


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


def _drain(clock, until):
    """Sleep on the loop until clock time *until* has passed."""
    return asyncio.sleep(max(0.0, until - clock.now) + 0.02)


class TestOrdering:
    def test_equal_times_run_in_submission_order(self):
        async def scenario():
            clock = AsyncClock()
            ran = []
            at = clock.now + 0.01
            for k in range(64):
                clock.schedule_at(at, lambda k=k: ran.append(k))
            await _drain(clock, at)
            return ran

        assert run(scenario()) == list(range(64))

    def test_sub_microsecond_apart_times_run_in_time_order(self):
        # Submitted latest-first, 0.1 µs apart: far below what a
        # relative delay computed from a fresh `now` can keep apart.
        async def scenario():
            clock = AsyncClock()
            ran = []
            at = clock.now + 0.01
            for k in reversed(range(32)):
                clock.schedule_at(at + k * 1e-7, lambda k=k: ran.append(k))
            await _drain(clock, at)
            return ran

        assert run(scenario()) == list(range(32))

    def test_matches_simulator_order(self):
        from repro.sim import Simulator

        times = [0.02, 0.01, 0.02, 0.01 + 1e-7, 0.01, 0.02, 0.01 + 1e-7]

        def plan(clock, base, ran):
            for k, t in enumerate(times):
                clock.schedule_at(base + t, lambda k=k: ran.append(k))

        sim_ran = []
        sim = Simulator(seed=0)
        plan(sim, 0.0, sim_ran)
        sim.run()

        async def scenario():
            clock = AsyncClock()
            ran = []
            base = clock.now
            plan(clock, base, ran)
            await _drain(clock, base + max(times))
            return ran

        assert run(scenario()) == sim_ran

    def test_relative_and_absolute_share_one_order(self):
        async def scenario():
            clock = AsyncClock()
            ran = []
            at = clock.now + 0.01
            clock.schedule_at(at, lambda: ran.append("absolute"))
            clock.schedule(at - clock.now, lambda: ran.append("relative"))
            clock.schedule_at(at + 0.01, lambda: ran.append("later"))
            await _drain(clock, at + 0.01)
            return ran

        # The relative delay lands at or just past `at`; either way it
        # was submitted second, so it never runs first.
        assert run(scenario()) == ["absolute", "relative", "later"]


class TestCancel:
    def test_cancelled_callback_skipped_its_slot_mates_run(self):
        async def scenario():
            clock = AsyncClock()
            ran = []
            at = clock.now + 0.01
            handles = [
                clock.schedule_at(at, lambda k=k: ran.append(k)) for k in range(4)
            ]
            handles[1].cancel()
            handles[1].cancel()  # idempotent
            await _drain(clock, at)
            return ran, handles

        ran, handles = run(scenario())
        assert ran == [0, 2, 3]
        assert handles[1].cancelled and not handles[0].cancelled

    def test_cancelling_every_callback_drops_the_slot(self):
        async def scenario():
            clock = AsyncClock()
            ran = []
            at = clock.now + 0.01
            handles = [clock.schedule_at(at, lambda: ran.append(1)) for _ in range(3)]
            for handle in handles:
                handle.cancel()
            assert not clock._slots
            # A later schedule at the same instant starts a fresh slot.
            clock.schedule_at(at, lambda: ran.append(2))
            await _drain(clock, at)
            return ran

        assert run(scenario()) == [2]

    def test_callback_may_cancel_a_later_slot_mate(self):
        async def scenario():
            clock = AsyncClock()
            ran = []
            at = clock.now + 0.01
            later = []
            clock.schedule_at(at, lambda: later[0].cancel())
            later.append(clock.schedule_at(at, lambda: ran.append("cancelled")))
            clock.schedule_at(at, lambda: ran.append("kept"))
            await _drain(clock, at)
            return ran

        assert run(scenario()) == ["kept"]


class TestFailures:
    def test_a_raising_callback_does_not_skip_the_rest(self):
        async def scenario():
            clock = AsyncClock()
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            ran = []
            at = clock.now + 0.01

            def boom():
                raise RuntimeError("boom")

            clock.schedule_at(at, lambda: ran.append(0))
            clock.schedule_at(at, boom)
            clock.schedule_at(at, lambda: ran.append(2))
            await _drain(clock, at)
            return ran, errors

        ran, errors = run(scenario())
        assert ran == [0, 2]
        assert [type(e["exception"]) for e in errors] == [RuntimeError]

    def test_past_time_runs_soon(self):
        async def scenario():
            clock = AsyncClock()
            await asyncio.sleep(0.01)
            ran = []
            clock.schedule_at(0.0, lambda: ran.append("late"))
            await asyncio.sleep(0.01)
            return ran

        assert run(scenario()) == ["late"]
