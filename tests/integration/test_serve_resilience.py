"""Integration: the service plane under overload, abuse and faults.

Boots real :class:`~repro.serve.http.ServeApp` instances on ephemeral
ports and attacks them over actual sockets: malformed frames and
truncated bodies (fail-closed 4xx, never a hang), admission-control
sheds with ``Retry-After``, per-request deadlines, bulkhead sheds,
the circuit-breaker trip -> degraded-mode -> half-open-probe recovery
arc, the in-process overload and network-chaos harnesses, and the
shutdown ordering contract (port file gone before the drain ends).
"""

import asyncio

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.errors import TransientError
from repro.serve import ServeApp, ShardRouter
from repro.testing.faults import NetFaultPlan
from repro.testing.load import HttpClient, run_chaos, run_overload
from repro.workloads import ServiceOp

ALPHA = """
policy alpha {
  role Writer; role Reader;
  hierarchy Writer > Reader;
  user ada; user bob;
  assign ada to Writer;
  assign bob to Reader;
  permission edit on doc;
  permission view on doc;
  grant edit on doc to Writer;
  grant view on doc to Reader;
}
"""


def build_router():
    router = ShardRouter()
    router.add_shard(
        "alpha", ActiveRBACEngine.from_policy(parse_policy(ALPHA)))
    return router


def serve(scenario, **app_kwargs):
    """Boot the app on an ephemeral port, run ``scenario(app)``."""
    async def main():
        app = ServeApp(build_router(), **app_kwargs)
        await app.start("127.0.0.1", 0)
        try:
            return await scenario(app)
        finally:
            await app.shutdown()
    return asyncio.run(main())


async def raw_exchange(port, payload, timeout=5.0):
    """Write raw bytes, drain responses until the server closes the
    connection (its idle reaper bounds the wait); returns bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    chunks = []

    async def drain_all():
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            chunks.append(chunk)

    try:
        writer.write(payload)
        await writer.drain()
        try:
            await asyncio.wait_for(drain_all(), timeout)
        except (ConnectionError, OSError):
            pass
        return b"".join(chunks)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def healthz_ok(app):
    probe = HttpClient("127.0.0.1", app.port)
    try:
        status, _ = await probe.request("GET", "/healthz")
        return status == 200
    finally:
        await probe.close()


CHECK_BODY = (b'{"user": "ada", "operation": "edit", '
              b'"object": "doc"}')


def check_head(extra=b"", body=CHECK_BODY):
    return (b"POST /v1/check HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n" + extra +
            b"Content-Length: %d\r\n\r\n" % len(body))


class TestMalformedInput:
    """Every abusive frame gets a fail-closed 4xx (or a reaped
    connection) and the server keeps serving afterwards."""

    KW = dict(request_timeout=0.3, max_head_bytes=1024,
              max_body_bytes=256)

    def attack(self, payload, timeout=5.0):
        async def scenario(app):
            response = await raw_exchange(app.port, payload, timeout)
            return response, await healthz_ok(app)
        return serve(scenario, **self.KW)

    def test_garbage_content_length_is_400_and_closes(self):
        response, alive = self.attack(
            check_head(b"") .replace(b"Content-Length: %d"
                                     % len(CHECK_BODY),
                                     b"Content-Length: banana")
            + CHECK_BODY)
        assert b"HTTP/1.1 400" in response
        assert b"Connection: close" in response
        assert alive

    def test_negative_content_length_is_400(self):
        payload = (b"POST /v1/check HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: -5\r\n\r\n")
        response, alive = self.attack(payload)
        assert b"HTTP/1.1 400" in response
        assert alive

    def test_oversized_content_length_is_413(self):
        payload = (b"POST /v1/check HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: 100000\r\n\r\n")
        response, alive = self.attack(payload)
        assert b"HTTP/1.1 413" in response
        assert b"Connection: close" in response
        assert alive

    def test_truncated_body_times_out_408(self):
        # claims 200 body bytes, sends 10, then waits: the read
        # timeout must reap it fail-closed, never block the loop
        payload = (b"POST /v1/check HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: 200\r\n\r\n" + b"x" * 10)
        response, alive = self.attack(payload)
        assert b"HTTP/1.1 408" in response
        assert b"Connection: close" in response
        assert alive

    def test_oversized_head_is_413(self):
        payload = (b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                   b"X-Padding: " + b"a" * 2048 + b"\r\n\r\n")
        response, alive = self.attack(payload)
        assert b"HTTP/1.1 413" in response
        assert alive

    def test_binary_garbage_frame_is_400(self):
        response, alive = self.attack(b"\x00\xfe\x01 GARBAGE\r\n\r\n")
        assert b"HTTP/1.1 400" in response
        assert alive

    def test_pipelined_garbage_after_valid_request(self):
        # one write: a valid check, then junk; the first answers 200,
        # the junk answers 400, the server survives both
        payload = (check_head() + CHECK_BODY
                   + b"NONSENSE FRAME HERE\r\n\r\n")
        response, alive = self.attack(payload)
        assert b"HTTP/1.1 200" in response
        assert b"HTTP/1.1 400" in response
        assert alive

    def test_slow_loris_head_is_reaped_408(self):
        async def scenario(app):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            try:
                writer.write(b"GET /healthz HT")  # never finishes
                await writer.drain()
                response = await asyncio.wait_for(
                    reader.read(65536), 5.0)
            finally:
                writer.close()
            return response, await healthz_ok(app)

        response, alive = serve(scenario, **self.KW)
        assert b"HTTP/1.1 408" in response
        assert alive

    def test_idle_connection_is_reaped_silently(self):
        async def scenario(app):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            try:
                # no bytes at all: reaped with no response spam
                response = await asyncio.wait_for(
                    reader.read(65536), 5.0)
            finally:
                writer.close()
            metrics = HttpClient("127.0.0.1", app.port)
            try:
                _, text = await metrics.request("GET", "/metrics")
            finally:
                await metrics.close()
            return response, text

        response, text = serve(scenario, **self.KW)
        assert response == b""
        assert 'repro_serve_timeouts_total{stage="idle"} 1' in text


class TestAdmissionControl:
    def test_over_capacity_is_shed_503_with_retry_after(self):
        async def scenario(app):
            # the first request occupies the only inflight slot by
            # withholding its body
            slow_r, slow_w = await asyncio.open_connection(
                "127.0.0.1", app.port)
            slow_w.write(check_head())  # head only, no body yet
            await slow_w.drain()
            await asyncio.sleep(0.05)  # let the server park on it
            shed = await raw_exchange(
                app.port, check_head() + CHECK_BODY)
            slow_w.close()
            metrics = HttpClient("127.0.0.1", app.port)
            try:
                _, text = await metrics.request("GET", "/metrics")
            finally:
                await metrics.close()
            return shed, text

        shed, text = serve(scenario, max_inflight=1,
                           request_timeout=2.0, retry_after=7.0)
        assert b"HTTP/1.1 503" in shed
        assert b"Retry-After: 7" in shed
        assert b"Connection: close" in shed
        assert b'"error": "shed"' in shed
        assert 'repro_serve_shed_total{reason="inflight"} 1' in text

    def test_exhausted_request_deadline_is_shed(self):
        async def scenario(app):
            shed = await raw_exchange(
                app.port,
                check_head(b"X-Deadline-Ms: 0.001\r\n") + CHECK_BODY)
            ok = await raw_exchange(
                app.port, check_head() + CHECK_BODY)
            return shed, ok

        shed, ok = serve(scenario)
        assert b"HTTP/1.1 503" in shed
        assert b'"error": "shed"' in shed
        assert b"Retry-After" in shed
        assert b"HTTP/1.1 200" in ok

    def test_malformed_deadline_header_is_400(self):
        async def scenario(app):
            return await raw_exchange(
                app.port,
                check_head(b"X-Deadline-Ms: banana\r\n") + CHECK_BODY)

        response = serve(scenario)
        assert b"HTTP/1.1 400" in response


class TestBulkhead:
    def test_full_shard_sheds_other_requests_503(self):
        async def scenario(app):
            guard = app._guard("alpha")
            assert guard.bulkhead.try_acquire()  # saturate the shard
            try:
                shed = await raw_exchange(
                    app.port, check_head() + CHECK_BODY)
            finally:
                guard.bulkhead.release()
            ok = await raw_exchange(
                app.port, check_head() + CHECK_BODY)
            return shed, ok, guard.bulkhead.shed

        shed, ok, shed_count = serve(scenario, shard_concurrency=1)
        assert b"HTTP/1.1 503" in shed
        assert b'"error": "shed"' in shed
        assert b"Retry-After" in shed
        assert b"HTTP/1.1 200" in ok
        assert shed_count == 1


class TestBreakerDegradedMode:
    def test_trip_degraded_serving_and_recovery(self):
        async def scenario(app):
            shard = app.router.shard("alpha")
            client = HttpClient("127.0.0.1", app.port)
            out = {}
            try:
                # warm ada's session on the healthy path
                status, warm = await client.request(
                    "POST", "/v1/check", {"user": "ada",
                                          "operation": "edit",
                                          "object": "doc"})
                assert status == 200 and warm["allowed"]
                epoch = warm["epoch"]

                def boom(*args, **kwargs):
                    raise TransientError("injected shard fault")

                shard.check = boom  # instance shadow over the method
                for _ in range(2):  # threshold consecutive failures
                    status, payload = await client.request(
                        "POST", "/v1/check", {"user": "ada",
                                              "operation": "edit",
                                              "object": "doc"})
                    assert status == 503
                    assert payload["error"] == "TransientError"
                    assert "retry-after" in client.last_headers

                # reads: warm sessions answer from the frozen epoch
                out["degraded"] = await client.request(
                    "POST", "/v1/check", {"user": "ada",
                                          "operation": "edit",
                                          "object": "doc"})
                out["cold"] = await client.request(
                    "POST", "/v1/check", {"user": "bob",
                                          "operation": "view",
                                          "object": "doc"})
                out["batch"] = await client.request(
                    "POST", "/v1/check_batch", {"checks": [
                        {"user": "ada", "operation": "edit",
                         "object": "doc"}]})
                out["explain"] = await client.request(
                    "GET", "/v1/explain?user=ada&operation=edit"
                           "&object=doc")
                out["admin"] = await client.request(
                    "POST", "/v1/admin",
                    {"domain": "alpha", "op": "grant",
                     "args": {"role": "Reader", "operation": "edit",
                              "object": "doc"}})
                out["admin_retry_after"] = \
                    "retry-after" in client.last_headers
                out["healthz_open"] = await client.request(
                    "GET", "/healthz")

                del shard.check  # the fault clears
                await asyncio.sleep(0.45)  # past the cooldown
                out["probe"] = await client.request(
                    "POST", "/v1/check", {"user": "ada",
                                          "operation": "edit",
                                          "object": "doc"})
                out["healthz_closed"] = await client.request(
                    "GET", "/healthz")
                out["epoch"] = epoch
                out["audited"] = bool(
                    shard.engine.audit.by_kind("serve.breaker.open"))
            finally:
                await client.close()
            return out

        out = serve(scenario, breaker_threshold=2,
                    breaker_cooldown=0.4)

        status, degraded = out["degraded"]
        assert status == 200
        assert degraded["path"] == "degraded"
        assert degraded["degraded"] is True
        assert degraded["allowed"] is True
        assert degraded["epoch"] == out["epoch"]

        status, cold = out["cold"]  # no live session: fail closed
        assert status == 200
        assert cold["allowed"] is False
        assert cold["path"] == "degraded"

        status, batch = out["batch"]
        assert status == 200
        assert batch["results"][0]["path"] == "degraded"

        status, explain = out["explain"]  # no frozen derivation
        assert status == 503
        assert explain["error"] == "breaker"

        status, admin = out["admin"]  # mutations rejected fail-closed
        assert status == 503
        assert admin["error"] == "breaker"
        assert out["admin_retry_after"] is True

        status, health = out["healthz_open"]
        assert status == 503
        assert health["status"] == "degraded"
        assert health["serve"]["breakers_open"] == ["alpha"]
        snapshot = health["shards"]["alpha"]["serve"]["overload"]
        assert snapshot["breaker"] == "open"
        assert snapshot["degraded_served"] >= 2

        status, probe = out["probe"]  # half-open probe recovers
        assert status == 200
        assert probe["allowed"] is True
        assert probe["path"] != "degraded"

        status, health = out["healthz_closed"]
        assert status == 200
        assert health["shards"]["alpha"]["serve"]["overload"][
            "breaker"] == "closed"
        assert out["audited"] is True


class TestHarnessInProcess:
    def test_open_loop_overload_sheds_cleanly(self):
        ops = [ServiceOp("check", {"user": "ada", "operation": "edit",
                                   "object": "doc"})] * 300

        async def scenario(app):
            return await run_overload("127.0.0.1", app.port, ops,
                                      3000.0, max_outstanding=64)

        report = serve(scenario, max_inflight=2, request_timeout=2.0)
        assert report.offered == 300
        assert report.hung == 0
        assert report.retry_after_missing == 0
        assert report.shed > 0
        assert report.admitted > 0
        assert report.errors == 0

    def test_network_chaos_replay_leaves_server_alive(self):
        plan = NetFaultPlan(
            seed=3, rates={"reset": 0.15, "stall": 0.15,
                           "partial": 0.15, "garbage": 0.15},
            stall_s=0.05)
        ops = [ServiceOp("check", {"user": "ada", "operation": "edit",
                                   "object": "doc"})] * 60

        async def scenario(app):
            return await run_chaos("127.0.0.1", app.port, ops, plan,
                                   response_timeout=5.0)

        report = serve(scenario, request_timeout=0.2)
        assert report.alive_after is True
        assert report.hung == 0
        assert report.server_5xx == 0
        assert report.clean_ok > 0
        assert sum(report.faults.values()) > 0
        assert report.failclosed_4xx > 0


class TestShutdownOrdering:
    def test_port_file_removed_before_the_drain_ends(self, tmp_path):
        """The readiness signal must disappear as soon as shutdown
        starts — while in-flight requests are still draining — so an
        orchestrator never routes new traffic at a draining server."""
        port_file = tmp_path / "port.txt"

        async def main():
            app = ServeApp(build_router(), drain_grace=5.0,
                           request_timeout=1.0)
            await app.start("127.0.0.1", 0)
            port_file.write_text(f"{app.port}\n")
            app._port_file = str(port_file)
            # park one request in flight (head sent, body withheld)
            _, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            writer.write(check_head())
            await writer.drain()
            await asyncio.sleep(0.05)
            stopping = asyncio.ensure_future(app.shutdown())
            await asyncio.sleep(0.1)
            # mid-drain: the in-flight request is still pending, yet
            # the port file is already gone and the listener closed
            gone_mid_drain = not port_file.exists()
            still_draining = not stopping.done()
            with pytest.raises((ConnectionError, OSError,
                                asyncio.IncompleteReadError)):
                fresh = HttpClient("127.0.0.1", app.port)
                await fresh.connect()
                await fresh.request("GET", "/healthz")
            writer.close()
            summary = await stopping
            return gone_mid_drain, still_draining, summary

        gone_mid_drain, still_draining, summary = asyncio.run(main())
        assert gone_mid_drain is True
        assert still_draining is True
        assert summary["drained"] is True
