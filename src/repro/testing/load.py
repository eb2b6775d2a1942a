"""Load and chaos client for the service plane's resilience gates.

Drives a running ``repro-rbac serve`` instance with the deterministic
service plan from :func:`repro.workloads.generate_service_plan`.  It
is test support, not product: ``benchmarks/smoke_serve.py --chaos``
and the serve integration suites call it in-process; the served-traffic
benchmark, which also checks every verdict, is ``perfbench/``.  Three
modes:

* **closed loop** (:func:`run_level`) — every worker runs *send one
  request, await the response, repeat* over a persistent keep-alive
  connection; the :class:`LoadLevel` it returns is the completed-rate
  calibration the overload leg offers twice of;
* **open loop** (:func:`run_overload`) — requests are launched on a
  fixed wall-clock schedule (``rps``) whether or not earlier ones have
  answered, which is the only honest way to measure *overload*: a
  closed loop self-throttles to whatever the server admits, an open
  loop keeps offering and forces the server to shed.  The
  :class:`OverloadReport` separates goodput from shed rate and counts
  hung connections (a response that never came) and shed 503s missing
  their ``Retry-After``;
* **chaos** (:func:`run_chaos`) — replays the plan through a
  :class:`ChaosHttpClient` whose transport executes the deterministic
  :class:`~repro.testing.faults.NetFaultPlan` schedule (connection
  resets, slow-loris stalls, truncated bodies, garbage frames) and
  verifies the server answers fail-closed 4xx — or closes — without
  ever hanging or 500ing; summarized into ``BENCH_resilience.json``.

The HTTP client is the same zero-dependency asyncio discipline as the
server.  A worker whose connection is reset does not die: it
reconnects through :func:`repro.containment.retry_transient_async`
with jittered exponential backoff, and the retries are counted in the
report.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.containment import retry_transient_async
from repro.errors import RetryExhausted
from repro.testing.faults import NetFault, NetFaultPlan
from repro.workloads.generator import ServiceOp

__all__ = ["HttpClient", "ChaosHttpClient", "LoadLevel", "OverloadReport",
           "ChaosReport", "run_level", "run_overload", "run_chaos",
           "write_json", "percentile"]

#: transport failures a client survives by reconnecting
_NET_ERRORS = (ConnectionError, asyncio.IncompleteReadError, OSError)


class HttpClient:
    """Minimal HTTP/1.1 keep-alive client for one worker's loop.

    A failed round trip (reset, mid-response EOF) is retried through
    :func:`~repro.containment.retry_transient_async` — fresh
    connection, jittered exponential backoff — up to ``attempts``
    total tries; only then does :class:`~repro.errors.RetryExhausted`
    reach the caller.  ``retries`` counts re-attempts, ``reconnects``
    counts connections established after the first.
    """

    def __init__(self, host: str, port: int, *,
                 attempts: int = 4,
                 base_delay: float = 0.02,
                 max_delay: float = 0.5,
                 jitter: Callable[[], float] | None = None) -> None:
        self.host = host
        self.port = port
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.retries = 0
        self.reconnects = 0
        self.last_headers: dict[str, str] = {}
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._connected_once = False

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        if self._connected_once:
            self.reconnects += 1
        self._connected_once = True

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except _NET_ERRORS:
                pass
            self._writer = None
            self._reader = None

    async def request(self, method: str, target: str,
                      payload: dict[str, Any] | None = None,
                      headers: dict[str, str] | None = None
                      ) -> tuple[int, Any]:
        """One round trip, surviving resets by backoff-reconnect."""

        async def attempt() -> tuple[int, Any]:
            return await self._roundtrip(method, target, payload,
                                         headers)

        def note(_attempt: int, _exc: BaseException) -> None:
            self.retries += 1

        return await retry_transient_async(
            attempt, attempts=self.attempts,
            base_delay=self.base_delay, max_delay=self.max_delay,
            retry_on=_NET_ERRORS, jitter=self.jitter, on_retry=note)

    async def _roundtrip(self, method: str, target: str,
                         payload: dict[str, Any] | None = None,
                         headers: dict[str, str] | None = None
                         ) -> tuple[int, Any]:
        """One unretried request/response on the persistent
        connection; transport failures close it and propagate."""
        if self._writer is None:
            await self.connect()
        body = b""
        if payload is not None:
            body = json.dumps(payload,
                              separators=(",", ":")).encode("utf-8")
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        head = (f"{method} {target} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                + extra
                + (f"Content-Length: {len(body)}\r\n"
                   f"Content-Type: application/json\r\n"
                   if body else "")
                + "\r\n").encode("latin-1")
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            return await self._read_response()
        except _NET_ERRORS:
            await self.close()
            raise

    async def _read_response(self) -> tuple[int, Any]:
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        self.last_headers = headers
        length = int(headers.get("content-length", "0") or "0")
        raw = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        if headers.get("content-type", "").startswith("application/json"):
            return status, json.loads(raw) if raw else None
        return status, raw.decode("utf-8", "replace")


class ChaosHttpClient(HttpClient):
    """An :class:`HttpClient` whose transport misbehaves on schedule.

    Each :meth:`request` consults the
    :class:`~repro.testing.faults.NetFaultPlan` for its request index:
    fault-free requests ride the normal keep-alive path; faulty ones
    run on a *fresh* connection (so the persistent stream never
    desyncs) and execute the scheduled abuse — reset, slow-loris
    stall, truncated body, or garbage frame.  For faults the return
    value is ``(status, {"fault": kind, ...})`` where ``status`` is
    the server's answer (fail-closed 4xx expected), or ``-1`` when
    the server (correctly) just closed the connection.  A server that
    neither answers nor closes within ``response_timeout`` counts in
    ``hung`` — the one outcome the chaos gate forbids.
    """

    def __init__(self, host: str, port: int, plan: NetFaultPlan, *,
                 response_timeout: float = 5.0, **kwargs: Any) -> None:
        super().__init__(host, port, **kwargs)
        self.plan = plan
        self.response_timeout = response_timeout
        self.index = 0
        self.hung = 0

    async def request(self, method: str, target: str,
                      payload: dict[str, Any] | None = None,
                      headers: dict[str, str] | None = None
                      ) -> tuple[int, Any]:
        fault = self.plan.decide(self.index)
        self.index += 1
        if fault.kind == "none":
            return await super().request(method, target, payload,
                                         headers)
        return await self._execute_fault(fault, method, target, payload)

    async def _execute_fault(self, fault: NetFault, method: str,
                             target: str,
                             payload: dict[str, Any] | None
                             ) -> tuple[int, Any]:
        reader, writer = await asyncio.open_connection(self.host,
                                                       self.port)
        try:
            if fault.kind == "reset":
                # abort mid-request-line: the server sees a client
                # that vanished and must just reap the connection
                writer.write(f"{method} {target} HT".encode("latin-1"))
                writer.transport.abort()
                return -1, {"fault": "reset"}
            if fault.kind == "garbage":
                writer.write(b"\x00\xfe GARBAGE\x01\r\n\r\n")
                await writer.drain()
                return await self._expect_response(reader, fault.kind)
            if fault.kind == "stall":
                # slow-loris: a head that never completes; the read
                # timeout must reap it (408), not hang on it
                writer.write(f"{method} {target} HTTP/1.1\r\n"
                             f"Host: sl".encode("latin-1"))
                await writer.drain()
                await asyncio.sleep(fault.delay_s)
                return await self._expect_response(reader, fault.kind)
            # truncated body: the head promises more bytes than the
            # client will ever send
            body = json.dumps(payload or {"pad": "x" * 64},
                              separators=(",", ":")).encode("utf-8")
            sent = body[:max(0, int(len(body) * fault.fraction))]
            head = (f"{method} {target} HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"\r\n").encode("latin-1")
            writer.write(head + sent)
            await writer.drain()
            return await self._expect_response(reader, fault.kind)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except _NET_ERRORS:
                pass

    async def _expect_response(self, reader: asyncio.StreamReader,
                               kind: str) -> tuple[int, Any]:
        """The server must answer or close — hanging is the failure."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.response_timeout)
        except asyncio.TimeoutError:
            self.hung += 1
            return -1, {"fault": kind, "hung": True}
        except _NET_ERRORS:
            return -1, {"fault": kind, "closed": True}
        status = int(head.split(b" ", 2)[1])
        return status, {"fault": kind}


@dataclass
class LoadLevel:
    """One closed-loop replay: completed requests over wall time."""

    requests: int = 0
    errors: int = 0
    reconnects: int = 0
    retries: int = 0
    elapsed_s: float = 0.0


@dataclass
class OverloadReport:
    """Open-loop offered load vs. what the server did with it.

    ``admitted`` requests got a real answer (200 grant/deny or an
    engine 4xx); ``shed`` got the admission-control/bulkhead/breaker
    503 (each checked for its ``Retry-After``); ``errors`` are
    transport failures or non-shed 5xx; ``hung`` never answered
    within ``client_timeout`` — the gate requires zero of those.
    Latencies cover admitted requests only: shedding is supposed to
    be fast, and folding it in would flatter the percentiles.
    """

    offered: int
    target_rps: float
    elapsed_s: float = 0.0
    admitted: int = 0
    goodput: int = 0
    served_4xx: int = 0
    shed: int = 0
    errors: int = 0
    hung: int = 0
    retry_after_missing: int = 0
    latencies_us: list[float] = field(default_factory=list)

    @property
    def goodput_rps(self) -> float:
        return self.goodput / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def p(self, q: float) -> float:
        return percentile(self.latencies_us, q)

    def to_dict(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "target_rps": round(self.target_rps, 1),
            "elapsed_s": round(self.elapsed_s, 4),
            "admitted": self.admitted,
            "goodput": self.goodput,
            "goodput_rps": round(self.goodput_rps, 1),
            "served_4xx": self.served_4xx,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "errors": self.errors,
            "hung": self.hung,
            "retry_after_missing": self.retry_after_missing,
            "admitted_p50_us": round(self.p(0.50), 1),
            "admitted_p99_us": round(self.p(0.99), 1),
        }


@dataclass
class ChaosReport:
    """One chaos replay: what the fault schedule did to the server."""

    ops: int = 0
    clean_ok: int = 0            # fault-free requests answered sanely
    clean_errors: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    failclosed_4xx: int = 0      # faults answered 400/408/413
    closed: int = 0              # faults the server answered by EOF
    server_5xx: int = 0          # must stay 0
    hung: int = 0                # must stay 0
    retries: int = 0
    alive_after: bool = False    # the post-run liveness probe

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops": self.ops,
            "clean_ok": self.clean_ok,
            "clean_errors": self.clean_errors,
            "faults": dict(sorted(self.faults.items())),
            "failclosed_4xx": self.failclosed_4xx,
            "closed": self.closed,
            "server_5xx": self.server_5xx,
            "hung": self.hung,
            "retries": self.retries,
            "alive_after": self.alive_after,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the sample at or below it; 0.0 for an empty sample.

    The rank is ``ceil(q * n)``; the product is rounded to 9 places
    first so float error (``0.07 * 100 == 7.000000000000001``) does
    not push an exact rank up by one.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def _op_request(op: ServiceOp) -> tuple[str, str, dict[str, Any] | None]:
    """Translate one plan op into (method, target, body)."""
    if op.kind == "check":
        return "POST", "/v1/check", dict(op.payload)
    if op.kind == "check_batch":
        return "POST", "/v1/check_batch", {"checks": list(op.payload["checks"])}
    if op.kind == "explain":
        args = op.payload
        query = "&".join(f"{k}={v}" for k, v in sorted(args.items()))
        return "GET", f"/v1/explain?{query}", None
    if op.kind == "metrics":
        return "GET", "/metrics", None
    if op.kind == "health":
        return "GET", "/healthz", None
    raise ValueError(f"unknown service op kind {op.kind!r}")


async def run_level(host: str, port: int, ops: Sequence[ServiceOp],
                    concurrency: int, seed: int = 0) -> LoadLevel:
    """Replay ``ops`` closed-loop over ``concurrency`` connections."""
    level = LoadLevel()
    queue: asyncio.Queue[ServiceOp] = asyncio.Queue()
    for op in ops:
        queue.put_nowait(op)

    async def worker(worker_id: int) -> None:
        # per-worker seeded jitter: reconnect storms de-synchronize
        # deterministically rather than hammering in lockstep
        jitter = random.Random(f"{seed}:client:{worker_id}").random
        client = HttpClient(host, port, jitter=jitter)
        await client.connect()
        try:
            while True:
                try:
                    op = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                method, target, body = _op_request(op)
                try:
                    status, _ = await client.request(method, target, body)
                except RetryExhausted:
                    level.errors += 1
                    continue
                level.requests += 1
                if status >= 500 or (status >= 400 and op.kind != "check"):
                    level.errors += 1
        finally:
            level.reconnects += client.reconnects
            level.retries += client.retries
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker(i) for i in range(concurrency)))
    level.elapsed_s = time.perf_counter() - start
    return level


async def run_overload(host: str, port: int, ops: Sequence[ServiceOp],
                       rps: float, *,
                       client_timeout: float = 5.0,
                       max_outstanding: int = 1024) -> OverloadReport:
    """Offer ``ops`` open-loop at ``rps`` and tally the server's triage.

    Request *i* launches at ``t0 + i/rps`` regardless of how many
    predecessors are still in flight (bounded only by
    ``max_outstanding`` as a client-side safety valve), each on its
    own connection with no retries — a retry would silently re-offer
    load and corrupt the shed-rate arithmetic.
    """
    report = OverloadReport(offered=len(ops), target_rps=rps)
    if not ops or rps <= 0:
        return report
    gate = asyncio.Semaphore(max_outstanding)
    loop = asyncio.get_running_loop()
    t0 = loop.time()

    async def one(op: ServiceOp) -> None:
        async with gate:
            client = HttpClient(host, port, attempts=1)
            method, target, body = _op_request(op)
            start = loop.time()
            try:
                status, payload = await asyncio.wait_for(
                    client._roundtrip(method, target, body),
                    client_timeout)
            except asyncio.TimeoutError:
                report.hung += 1
                if client._writer is not None:
                    client._writer.transport.abort()
                return
            except _NET_ERRORS:
                report.errors += 1
                return
            finally:
                await client.close()
            elapsed_us = (loop.time() - start) * 1e6
            if (status == 503 and isinstance(payload, dict)
                    and payload.get("error") in ("shed", "breaker")):
                report.shed += 1
                if "retry-after" not in client.last_headers:
                    report.retry_after_missing += 1
            elif status >= 500:
                report.errors += 1
            else:
                report.admitted += 1
                report.latencies_us.append(elapsed_us)
                if status == 200:
                    report.goodput += 1
                else:
                    report.served_4xx += 1

    tasks = []
    for index, op in enumerate(ops):
        delay = t0 + index / rps - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(op)))
    await asyncio.gather(*tasks)
    report.elapsed_s = loop.time() - t0
    return report


async def run_chaos(host: str, port: int, ops: Sequence[ServiceOp],
                    plan: NetFaultPlan, *,
                    response_timeout: float = 5.0) -> ChaosReport:
    """Replay ``ops`` sequentially through the chaos transport.

    Sequential on purpose: the fault schedule is per request index,
    so a single client replays it exactly; the properties under test
    (fail-closed answers, no hangs, the server outlives the abuse)
    are about the server's per-connection discipline, not throughput.
    """
    report = ChaosReport(ops=len(ops))
    client = ChaosHttpClient(host, port, plan,
                             response_timeout=response_timeout)
    for op in ops:
        method, target, body = _op_request(op)
        try:
            status, payload = await client.request(method, target, body)
        except RetryExhausted:
            report.clean_errors += 1
            continue
        fault = (payload or {}).get("fault") if isinstance(payload, dict) \
            else None
        if fault is not None:
            report.faults[fault] = report.faults.get(fault, 0) + 1
            if status >= 500:
                report.server_5xx += 1
            elif 400 <= status < 500:
                report.failclosed_4xx += 1
            elif status == -1 and not payload.get("hung"):
                report.closed += 1
        elif status >= 500:
            report.clean_errors += 1
        else:
            report.clean_ok += 1
    await client.close()
    report.hung = client.hung
    report.retries = client.retries
    # liveness probe: the server must still answer after the abuse
    # (503-degraded still counts as alive — that is the breaker tal-
    # king, not a corpse)
    probe = HttpClient(host, port, attempts=2)
    try:
        status, _ = await probe.request("GET", "/healthz")
        report.alive_after = status in (200, 503)
    except RetryExhausted:
        report.alive_after = False
    finally:
        await probe.close()
    return report


def write_json(payload: dict[str, Any], path: str) -> dict[str, Any]:
    """Write one bench payload as pretty JSON; returns it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload

