"""Unit: the overload-resilience primitives behind the service plane.

Bulkhead slot accounting, the circuit-breaker state machine (driven
by a fake monotonic clock), the seeded network-fault schedule, the
async retry helper the load client reconnects through, and the
front-end's fail-closed request-framing validators.
"""

import asyncio

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.containment import retry_transient_async
from repro.errors import RetryExhausted, TransientError
from repro.serve.bulkhead import (
    Bulkhead,
    CircuitBreaker,
    ShardGuard,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.serve.http import HttpError, ServeApp, response_bytes
from repro.testing.load import HttpClient
from repro.serve.shard import ShardRouter
from repro.testing.faults import NET_FAULT_KINDS, NetFaultPlan

MINI = """
policy mini {
  role R; user u; assign u to R;
  permission op on obj;
  grant op on obj to R;
}
"""


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestBulkhead:
    def test_bounded_slots_shed_when_full(self):
        bh = Bulkhead(2)
        assert bh.try_acquire() and bh.try_acquire()
        assert not bh.try_acquire()
        assert bh.shed == 1
        bh.release()
        assert bh.try_acquire()
        assert bh.peak == 2

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            Bulkhead(1).release()

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Bulkhead(0)


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=5.0):
        clock = FakeClock()
        return CircuitBreaker(threshold, cooldown, now=clock), clock

    def test_closed_serves_and_success_resets_failures(self):
        breaker, _ = self.make()
        assert breaker.allow() == "serve"
        breaker.record(False)
        breaker.record(False)
        breaker.record(True)  # streak broken
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == STATE_CLOSED
        assert breaker.failures == 2

    def test_threshold_consecutive_failures_trip(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(3):
            breaker.record(False)
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert breaker.allow() == "degraded"
        assert breaker.code == 2

    def test_cooldown_admits_exactly_one_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record(False)
        assert breaker.allow() == "degraded"
        clock.t += 5.1
        assert breaker.allow() == "probe"
        assert breaker.state == STATE_HALF_OPEN
        # a second concurrent request is not a probe
        assert breaker.allow() == "degraded"

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1)
        breaker.record(False)
        clock.t += 6
        assert breaker.allow() == "probe"
        breaker.record(True)
        assert breaker.state == STATE_CLOSED
        assert breaker.allow() == "serve"
        assert breaker.failures == 0

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record(False)
        clock.t += 6
        assert breaker.allow() == "probe"
        breaker.record(False)
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        assert breaker.allow() == "degraded"
        clock.t += 5.1
        assert breaker.allow() == "probe"

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)


class TestShardGuard:
    def test_snapshot_reports_both_primitives(self):
        guard = ShardGuard("hq", 4, threshold=2, cooldown=1.0)
        guard.bulkhead.try_acquire()
        guard.breaker.record(False)
        guard.degraded_served = 3
        snap = guard.snapshot()
        assert snap["breaker"] == STATE_CLOSED
        assert snap["consecutive_failures"] == 1
        assert snap["bulkhead_limit"] == 4
        assert snap["bulkhead_active"] == 1
        assert snap["degraded_served"] == 3


class TestNetFaultPlan:
    def test_schedule_is_a_pure_function_of_seed_and_index(self):
        one = NetFaultPlan(seed=7)
        two = NetFaultPlan(seed=7)
        dealt = [one.decide(i).kind for i in range(200)]
        assert dealt == [two.decide(i).kind for i in range(200)]
        # a different seed deals a different schedule
        other = [NetFaultPlan(seed=8).decide(i).kind
                 for i in range(200)]
        assert dealt != other

    def test_default_rates_deal_every_kind(self):
        plan = NetFaultPlan(seed=0)
        for index in range(500):
            plan.decide(index)
        for kind in NET_FAULT_KINDS:
            assert plan.counts[kind] > 0, kind
        assert plan.counts["none"] > sum(
            plan.counts[k] for k in NET_FAULT_KINDS)

    def test_parameters_thread_into_faults(self):
        plan = NetFaultPlan(seed=0, rates={"stall": 1.0},
                            stall_s=0.7, partial_fraction=0.25)
        fault = plan.decide(0)
        assert fault.kind == "stall"
        assert fault.delay_s == 0.7
        assert fault.fraction == 0.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NetFaultPlan(rates={"gremlins": 0.5})

    def test_rates_over_one_rejected(self):
        with pytest.raises(ValueError):
            NetFaultPlan(rates={"reset": 0.6, "stall": 0.6})


class TestRetryTransientAsync:
    def run(self, coro):
        return asyncio.run(coro)

    def test_transient_failures_then_success(self):
        calls = []
        retried = []

        async def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("blip")
            return "ok"

        async def no_sleep(_delay):
            pass

        result = self.run(retry_transient_async(
            flaky, attempts=4, base_delay=0.01, sleep=no_sleep,
            on_retry=lambda n, exc: retried.append(n)))
        assert result == "ok"
        assert len(calls) == 3
        assert retried == [1, 2]

    def test_exhaustion_raises_typed_error_chaining_last(self):
        async def always():
            raise ConnectionResetError("gone")

        async def no_sleep(_delay):
            pass

        with pytest.raises(RetryExhausted) as err:
            self.run(retry_transient_async(
                always, attempts=3, retry_on=(ConnectionError,),
                sleep=no_sleep))
        assert err.value.attempts == 3
        assert isinstance(err.value.__cause__, ConnectionResetError)

    def test_jitter_scales_each_backoff_delay(self):
        slept = []

        async def always():
            raise TransientError("x")

        async def record(delay):
            slept.append(delay)

        with pytest.raises(RetryExhausted):
            self.run(retry_transient_async(
                always, attempts=3, base_delay=0.1, factor=2.0,
                sleep=record, jitter=lambda: 0.5))
        assert slept == [pytest.approx(0.05), pytest.approx(0.1)]

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        async def boom():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            self.run(retry_transient_async(boom, attempts=5))
        assert len(calls) == 1


class TestHttpClientReconnect:
    def test_reset_mid_request_is_retried_on_a_fresh_connection(self):
        """A server that resets the first connection costs the client
        one counted retry + reconnect, not an exception."""
        attempts = []

        async def scenario():
            async def handler(reader, writer):
                attempts.append(1)
                await reader.readuntil(b"\r\n\r\n")
                if len(attempts) == 1:
                    writer.transport.abort()  # mid-response reset
                    return
                body = b'{"ok": true}'
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(
                handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = HttpClient("127.0.0.1", port, base_delay=0.0)
            try:
                return await client.request("GET", "/x"), client
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        (status, payload), client = asyncio.run(scenario())
        assert status == 200 and payload == {"ok": True}
        assert len(attempts) == 2
        assert client.retries == 1
        assert client.reconnects == 1


@pytest.fixture()
def app():
    router = ShardRouter()
    router.add_shard("mini", ActiveRBACEngine.from_policy(
        parse_policy(MINI)))
    return ServeApp(router, max_body_bytes=100)


class TestRequestFraming:
    def test_default_deadline_is_the_request_timeout(self, app):
        deadline = app._request_deadline({})
        assert deadline.exceeded() is None
        remaining = deadline.remaining()
        assert 0 < remaining <= app.request_timeout

    def test_header_overrides_budget(self, app):
        deadline = app._request_deadline({"x-deadline-ms": "250"})
        assert 0.2 < deadline.remaining() <= 0.25

    @pytest.mark.parametrize("raw", ["banana", "", "nan", "inf",
                                     "-50", "0"])
    def test_malformed_deadline_fails_closed_400(self, app, raw):
        with pytest.raises(HttpError) as err:
            app._request_deadline({"x-deadline-ms": raw})
        assert err.value.status == 400

    def test_content_length_missing_is_zero(self, app):
        assert app._content_length({}) == 0

    def test_content_length_garbage_is_400_and_closes(self, app):
        with pytest.raises(HttpError) as err:
            app._content_length({"content-length": "12abc"})
        assert err.value.status == 400
        assert err.value.close is True

    def test_content_length_negative_is_400(self, app):
        with pytest.raises(HttpError) as err:
            app._content_length({"content-length": "-1"})
        assert err.value.status == 400

    def test_content_length_over_bound_is_413_and_closes(self, app):
        with pytest.raises(HttpError) as err:
            app._content_length({"content-length": "101"})
        assert err.value.status == 413
        assert err.value.close is True

    def test_retry_after_header_renders(self):
        raw = response_bytes(503, {"error": "shed"},
                             headers={"Retry-After": "1"})
        head, _, _ = raw.partition(b"\r\n\r\n")
        assert b"Retry-After: 1\r\n" in head

    def test_http_error_carries_shed_contract(self):
        err = HttpError(503, "full", error="shed", retry_after=2.0,
                        close=True)
        assert (err.status, err.error, err.retry_after, err.close) == \
            (503, "shed", 2.0, True)
