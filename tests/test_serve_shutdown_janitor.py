"""Graceful-shutdown and keep-alive-janitor tests.

Covers the two lifecycle promises of the serving plane: in-flight requests
always finish before :meth:`ServePlane.stop` returns (and the drained
engine's books balance), and the janitor scales the warm pool to zero
only once the keep-alive TTL has actually elapsed -- never early.
"""

import asyncio

import pytest

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.serve import Janitor, ServeEngine, ServePlane, ServeStats, http_json


def _engine(config=None, **kwargs):
    clock = VirtualClock()
    config = config or SimulationConfig(pool_capacity_mb=8192.0, n_workers=2)
    return ServeEngine(config, wall=clock, **kwargs), clock


class TestGracefulShutdown:
    def test_inflight_requests_finish_before_stop_returns(self):
        config = SimulationConfig(
            pool_capacity_mb=8192.0, n_workers=2, worker_concurrency=8,
            verify=True,
        )
        engine, clock = _engine(config)
        plane = ServePlane(engine, time_scale=0.1)

        async def body():
            await plane.start()
            host, port = plane.host, plane.port
            clock.advance_to(1.0)

            async def invoke():
                return await http_json(
                    host, port, "POST", "/invoke",
                    {"function": "hello-python", "exec_s": 2.0},
                    timeout_s=30.0,
                )

            # Start requests that hold their connections ~0.4s wall, then
            # stop the plane while they are still in flight.
            pending = [asyncio.create_task(invoke()) for _ in range(8)]
            await asyncio.sleep(0.1)
            assert plane.admission.inflight > 0
            result = await plane.stop()
            # Every request completed with a real decision, none were cut
            # (the awaits below only let the client coroutines collect the
            # responses the server already wrote before stop() returned).
            for status, payload in await asyncio.gather(*pending):
                assert status == 200 and "container_id" in payload
            assert result.summary()["invocations"] == 8.0
            assert engine.closed

        asyncio.run(body())
        # Post-drain books balance: every container created was either
        # destroyed or sits warm in the pool, and the verifying monitors
        # signed off on the whole session (drain runs a final checkpoint).
        lifecycle = engine.sim.lifecycle
        assert lifecycle.created_count == (
            lifecycle.destroyed_count + len(engine.sim.pool)
        )
        assert engine.sim.verifier is not None
        assert engine.sim.verifier.checks_run > 0

    def test_stop_is_refused_before_start(self):
        engine, _ = _engine()
        plane = ServePlane(engine)

        async def body():
            with pytest.raises(RuntimeError, match="not started"):
                await plane.stop()

        asyncio.run(body())

    def test_double_start_is_refused(self):
        engine, _ = _engine()
        plane = ServePlane(engine)

        async def body():
            await plane.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await plane.start()
            finally:
                await plane.stop()

        asyncio.run(body())


class TestJanitor:
    def _idle_session(self, ttl_s=10.0):
        """One completed invocation, then silence: a pool of exactly one
        warm container waiting out its keep-alive TTL."""
        engine, clock = _engine(keepalive_ttl_s=ttl_s)
        stats = ServeStats(n_workers=2)
        janitor = Janitor(engine, stats=stats)
        clock.advance_to(1.0)
        outcome = engine.submit("hello-python", exec_time_s=0.5)
        done = 1.0 + outcome.service_time_s
        return engine, stats, janitor, done

    def test_scale_to_zero_fires_only_past_ttl(self):
        engine, stats, janitor, done = self._idle_session(ttl_s=10.0)
        expiry = done + 10.0

        # Ticks before the container even finishes: nothing live changes.
        janitor.tick(now=done - 0.2)
        assert engine.pooled_containers == 0 and engine.live_containers == 1
        # Completion pools the container; the TTL clock starts at `done`.
        janitor.tick(now=done + 0.1)
        assert engine.pooled_containers == 1
        # Quiet-period ticks short of the TTL must NOT reclaim it.
        for t in (done + 3.0, done + 7.0, expiry - 0.01):
            janitor.tick(now=t)
            assert engine.pooled_containers == 1, f"evicted early at t={t}"
        assert stats.scale_to_zero_events == 0
        # First tick past the TTL reclaims the last container: scale to zero.
        janitor.tick(now=expiry + 0.01)
        assert engine.pooled_containers == 0
        assert engine.live_containers == 0
        assert engine.sim.telemetry.ttl_expirations == 1
        assert stats.scale_to_zero_events == 1
        # Staying quiet produces no further "events" -- it is a transition
        # counter, not a gauge.
        janitor.tick(now=expiry + 5.0)
        assert stats.scale_to_zero_events == 1
        assert stats.janitor_ticks == 7

    def test_keepalive_ttl_override_reaches_the_sweep(self):
        engine, stats, janitor, done = self._idle_session(ttl_s=2.0)
        assert engine.keepalive_ttl_s == 2.0
        janitor.tick(now=done + 0.1)
        assert engine.pooled_containers == 1
        janitor.tick(now=done + 2.1)
        assert engine.pooled_containers == 0
        assert stats.scale_to_zero_events == 1

    def test_tick_counts_pumped_events(self):
        engine, stats, janitor, done = self._idle_session()
        handled = janitor.tick(now=done + 0.1)
        assert handled == 1  # one completion per invocation
        assert janitor.events_pumped == 1

    def test_async_start_stop_lifecycle(self):
        engine, clock = _engine(keepalive_ttl_s=5.0)
        stats = ServeStats(n_workers=2)
        janitor = Janitor(engine, stats=stats, interval_s=0.01)

        async def body():
            janitor.start()
            first_task = janitor._task
            janitor.start()  # idempotent: same task keeps running
            assert janitor._task is first_task
            clock.advance_to(1.0)
            engine.submit("hello-python", exec_time_s=0.2)
            # Let the periodic loop run a few intervals; completion times
            # are virtual, so advance the wall past them between sleeps.
            await asyncio.sleep(0.05)
            clock.advance_to(30.0)
            await asyncio.sleep(0.05)
            await janitor.stop()
            assert janitor._task is None

        asyncio.run(body())
        # The periodic loop processed the completions and the final TTL
        # sweep scaled the pool back to zero.
        assert stats.janitor_ticks > 2
        assert engine.live_containers == 0
        assert stats.scale_to_zero_events == 1

    def test_stop_without_start_still_sweeps(self):
        engine, stats, janitor, done = self._idle_session(ttl_s=1.0)
        engine.wall.advance_to(done + 5.0)

        async def body():
            await janitor.stop()

        asyncio.run(body())
        assert engine.live_containers == 0
        assert stats.janitor_ticks == 1

    def test_rejects_nonpositive_interval(self):
        engine, _ = _engine()
        with pytest.raises(ValueError, match="positive"):
            Janitor(engine, interval_s=0.0)
