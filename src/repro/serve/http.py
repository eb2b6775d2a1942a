"""Zero-dependency asyncio HTTP front-end for the shard router.

``repro-rbac serve`` boots a :class:`ServeApp` — a small HTTP/1.1
server written directly on :func:`asyncio.start_server` (no external
web framework; the whole repo stays stdlib-only):

====================  ====================================================
``POST /v1/check``    one access decision ``{user, operation, object,
                      domain?, purpose?, scope?}`` -> ``{allowed,
                      path, epoch}``
``POST /v1/check_batch``  ``{checks: [...]}`` looped over single checks
                      (the vectorized kernel path is a later PR)
``GET  /v1/explain``  read-only derivation (query-string parameters)
``POST /v1/admin``    control-plane mutation -> epoch swap summary
``GET  /metrics``     server-plane Prometheus exposition; with
                      ``?shard=NAME`` the shard engine's full registry
``GET  /healthz``     aggregate ``engine.health()`` + kernel epoch /
                      breaker + bulkhead state per shard (503 when
                      degraded)
====================  ====================================================

All request handling runs on the event loop thread: a single check is
~tens of microseconds, so the loop *is* the concurrency model — no
locks anywhere, and control-plane mutations interleave between
requests, never inside one.  Readers consult each shard's published
kernel reference (see ``serve/shard.py``); mutations recompile on the
control plane and publish by one reference swap, so no request ever
blocks on a recompile.

**Overload resilience** (see ``docs/ARCHITECTURE.md`` §"Overload,
backpressure & degraded mode"):

* *admission control* — at most ``max_inflight`` requests are handled
  at once; excess load is shed immediately with ``503`` +
  ``Retry-After`` (counted in ``repro_serve_shed_total{reason}``),
  never queued behind a hidden backlog;
* *i/o timeouts* — reading a request head or body, and draining a
  response, are each bounded by ``request_timeout``; a slow-loris
  head or truncated body gets ``408`` and the connection is closed,
  a non-reading client gets its transport aborted
  (``repro_serve_timeouts_total{stage}``);
* *per-request deadlines* — every request carries a
  :class:`~repro.clock.Deadline` (``X-Deadline-Ms`` header, default
  ``request_timeout``) threaded into the engine, so a saturated shard
  *times out* checks fail-closed instead of queueing them forever;
* *per-shard bulkheads + circuit breakers* — each shard has a bounded
  concurrency slot pool and a consecutive-failure breaker
  (``repro.serve.bulkhead``).  A tripped breaker serves **degraded
  mode**: reads answer from the last published kernel epoch
  (:meth:`~repro.serve.shard.Shard.check_degraded`), mutations are
  rejected ``503`` fail-closed.

**Graceful shutdown** (SIGTERM/SIGINT, or :meth:`ServeApp.shutdown`):
remove the port file and close the listener *first* (so no new client
can arrive believing the server is ready), drain in-flight requests
(bounded by ``drain_grace``), flush every shard's WAL group-commit
buffer, and dump every flight recorder — the forensic ring survives
the exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.clock import Deadline
from repro.errors import (
    AccessDenied,
    AdministrationError,
    ReproError,
    RetryExhausted,
    TransientError,
    UnknownRoleError,
    UnknownUserError,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.bulkhead import STATE_OPEN, ShardGuard
from repro.serve.shard import ShardRouter

__all__ = ["ServeApp", "HttpError", "parse_request_head",
           "response_bytes"]

#: default request-head size bound (request line + headers)
MAX_HEAD_BYTES = 16 * 1024
#: default request-body size bound
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            403: "Forbidden", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: serve-plane latency buckets in ns: 10us .. 1s
SERVE_LATENCY_BUCKETS_NS = (
    1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6,
    1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9,
)


class HttpError(Exception):
    """A request the server answers with an error status + JSON body.

    ``retry_after`` adds a ``Retry-After`` header (load-shed 503s set
    it so well-behaved clients back off); ``close`` forces the
    connection closed after the response — mandatory whenever the
    request body was not fully read, or keep-alive would desync.
    """

    def __init__(self, status: int, message: str,
                 error: str = "http",
                 retry_after: float | None = None,
                 close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.error = error
        self.retry_after = retry_after
        self.close = close


def parse_request_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """Parse ``METHOD TARGET HTTP/1.x`` + headers from a request head.

    Header names are lower-cased; duplicate headers keep the last
    value (none of the headers this server reads repeat legally).
    Raises :class:`HttpError` (400) on anything malformed.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 total
        raise HttpError(400, "undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


def response_bytes(status: int, payload: dict[str, Any] | str,
                   close: bool = False,
                   headers: dict[str, str] | None = None) -> bytes:
    """One full HTTP/1.1 response (JSON unless ``payload`` is text).

    ``headers`` adds extra response headers (e.g. ``Retry-After``).
    """
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        ctype = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        ctype = "application/json"
    reason = _REASONS.get(status, "Unknown")
    extra = ""
    if headers:
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in headers.items())
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


def _error_status(exc: ReproError) -> int:
    """Map engine errors onto HTTP statuses: unknown entities are 404,
    fail-closed conditions (including an unreachable home domain) and
    denials are 403, transient infrastructure faults are 503 (the
    client may retry; the breaker counts them against the shard)."""
    if isinstance(exc, (UnknownUserError, UnknownRoleError)):
        return 404
    if isinstance(exc, AdministrationError):
        return 404 if "unknown" in str(exc).lower() else 400
    if isinstance(exc, (AccessDenied, RetryExhausted)):
        return 403
    if isinstance(exc, TransientError):
        return 503
    return 400


class ServeApp:
    """The service plane: router + HTTP surface + server-side metrics."""

    def __init__(self, router: ShardRouter, *,
                 drain_grace: float = 5.0,
                 flightrec_dir: str | None = None,
                 max_inflight: int = 256,
                 request_timeout: float = 1.0,
                 max_head_bytes: int = MAX_HEAD_BYTES,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 retry_after: float = 1.0,
                 shard_concurrency: int = 64,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 2.0,
                 watch_interval: float = 0.0) -> None:
        self.router = router
        self.drain_grace = drain_grace
        #: config file watcher poll period in seconds; 0 disables.
        #: When enabled, each file-backed shard's config is stat-polled
        #: (mtime + size) and a changed file is *staged* through the
        #: rollout lifecycle exactly like SIGHUP — pushing a config to
        #: disk is enough, no signal needed.  The loader's checksum
        #: no-op guard absorbs touch-without-change rewrites.
        self.watch_interval = watch_interval
        #: shard -> (mtime_ns, size) last observed by the watcher
        self._watch_state: dict[str, tuple[int, int]] = {}
        self._watch_task: asyncio.Task | None = None
        #: where shutdown flight-recorder dumps land; None keeps each
        #: engine's own configured/auto directory
        self.flightrec_dir = flightrec_dir
        if flightrec_dir is not None:
            for shard in router.shards():
                shard.engine.flight.dump_dir = flightrec_dir
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.max_head_bytes = max_head_bytes
        self.max_body_bytes = max_body_bytes
        #: Retry-After seconds advertised on every shed 503
        self.retry_after = retry_after
        self.shard_concurrency = shard_concurrency
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._guards: dict[str, ShardGuard] = {}
        for shard in router.shards():
            self._guard(shard.name)
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        self._draining = False
        self._shutdown_summary: dict[str, Any] | None = None
        self.port: int | None = None
        self._port_file: str | None = None

        # -- server-plane metrics (the shard engines keep their own
        # registries; /metrics?shard=NAME exposes those verbatim) ------
        m = self.metrics = MetricsRegistry()
        self._requests = m.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by route and status",
            ("route", "status"))
        self._request_ns = m.histogram(
            "repro_serve_request_ns",
            "request handling latency in ns, by route", ("route",),
            buckets=SERVE_LATENCY_BUCKETS_NS)
        self._inflight_gauge = m.gauge(
            "repro_serve_inflight_requests",
            "requests currently being handled")
        self._connections = m.counter(
            "repro_serve_connections_total",
            "client connections accepted")
        self._shed_total = m.counter(
            "repro_serve_shed_total",
            "requests shed by admission control, by reason",
            ("reason",))
        self._timeouts = m.counter(
            "repro_serve_timeouts_total",
            "request i/o timeouts, by stage", ("stage",))
        self._degraded = m.counter(
            "repro_serve_degraded_total",
            "degraded-mode reads answered from the frozen kernel, "
            "by shard", ("shard",))
        self._reloads = m.counter(
            "repro_serve_config_reloads_total",
            "SIGHUP/admin config reloads, by shard and outcome",
            ("shard", "outcome"))
        self._breaker_state = m.gauge(
            "repro_serve_breaker_state",
            "circuit breaker state by shard "
            "(0 closed / 1 half-open / 2 open)", ("shard",))
        self._breaker_trips = m.gauge(
            "repro_serve_breaker_trips_total",
            "lifetime circuit-breaker trips, by shard", ("shard",))
        self._bulkhead_active = m.gauge(
            "repro_serve_bulkhead_active",
            "bulkhead slots currently held, by shard", ("shard",))
        self._bulkhead_shed = m.gauge(
            "repro_serve_bulkhead_shed_total",
            "requests shed at the shard bulkhead, by shard", ("shard",))
        self._shard_epoch = m.gauge(
            "repro_serve_shard_epoch",
            "published kernel policy epoch, by shard", ("shard",))
        self._shard_swaps = m.gauge(
            "repro_serve_shard_epoch_swaps_total",
            "kernel reference swaps published, by shard", ("shard",))
        self._shard_checks = m.gauge(
            "repro_serve_shard_checks_total",
            "access checks served, by shard", ("shard",))
        self._shard_scoped_checks = m.gauge(
            "repro_serve_shard_scoped_checks_total",
            "access checks that carried an explicit scope, by shard",
            ("shard",))
        self._shard_sessions = m.gauge(
            "repro_serve_shard_sessions",
            "live served sessions, by shard", ("shard",))
        self._shard_decisions = m.gauge(
            "repro_serve_shard_decisions_total",
            "engine checkAccess decisions, mirrored per shard",
            ("shard", "decision"))
        m.add_collector(self._collect_shards)

    def _collect_shards(self) -> None:
        self._inflight_gauge.set(self._inflight)
        for shard in self.router.shards():
            name = shard.name
            self._shard_epoch.labels(name).set(shard.epoch)
            self._shard_swaps.labels(name).set(shard.swaps)
            self._shard_checks.labels(name).set(shard.checks)
            self._shard_scoped_checks.labels(name).set(
                shard.scoped_checks)
            self._shard_sessions.labels(name).set(shard.sessions())
            decisions = shard.engine.obs.decisions
            for outcome in ("grant", "deny"):
                self._shard_decisions.labels(name, outcome).set(
                    decisions.labels(outcome).value)
        for name, guard in self._guards.items():
            self._breaker_state.labels(name).set(guard.breaker.code)
            self._breaker_trips.labels(name).set(guard.breaker.trips)
            self._bulkhead_active.labels(name).set(guard.bulkhead.active)
            self._bulkhead_shed.labels(name).set(guard.bulkhead.shed)

    # -- per-shard guards ----------------------------------------------------

    def _guard(self, name: str) -> ShardGuard:
        """The shard's bulkhead + breaker, created on first touch."""
        guard = self._guards.get(name)
        if guard is None:
            guard = self._guards[name] = ShardGuard(
                name, self.shard_concurrency,
                threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown)
        return guard

    def _slot(self, guard: ShardGuard, ctx: dict[str, Any]) -> None:
        """Take one bulkhead slot for this request or shed it 503.

        The slot is registered in ``ctx`` and held until the response
        has drained (released in :meth:`_serve_request`'s ``finally``),
        so a tenant whose clients read slowly saturates its *own*
        slots, not the global budget.
        """
        if not guard.bulkhead.try_acquire():
            self._shed_total.labels("bulkhead")._value += 1
            raise HttpError(
                503, f"shard {guard.name!r} at concurrency limit",
                error="shed", retry_after=self.retry_after)
        ctx["bulkhead"] = guard.bulkhead

    def _record_breaker(self, guard: ShardGuard, ok: bool) -> None:
        """Feed one real-path outcome to the shard's breaker; on a
        trip, dump the shard's flight recorder and audit the event so
        the outage window has forensics.  A trip during a policy
        rollout also counts against the lifecycle's error budget — a
        candidate that coincides with a faulting shard is refused or
        rolled back, never promoted into an outage."""
        breaker = guard.breaker
        before = breaker.trips
        breaker.record(ok)
        if breaker.trips > before:
            shard = self.router.shard(guard.name)
            engine = shard.engine
            engine.dump_flight(f"serve.breaker.open.{guard.name}",
                               directory=self.flightrec_dir)
            engine.audit.record(
                "serve.breaker.open", shard=guard.name,
                trips=breaker.trips, cooldown=breaker.cooldown)
            try:
                lifecycle = shard.lifecycle
                if lifecycle is not None and lifecycle.armed:
                    lifecycle.note_failure(
                        f"serve.breaker.open.{guard.name}")
                    shard.poll_lifecycle()
            except Exception:  # noqa: BLE001 - the breaker path must
                pass  # never fail because the rollout bookkeeping did

    def _lifecycle_tick(self, shard: Any) -> None:
        """Best-effort control-plane poll after a served decision; a
        transition failure must never fail the client's response (the
        lifecycle re-polls on the next request).  A transition that
        landed (promote/rollback) re-syncs federation mappings from
        the shards' config state."""
        try:
            if shard.poll_lifecycle() is not None:
                self.router.sync_federation()
        except Exception:  # noqa: BLE001 - response already correct
            pass

    def _degraded_check(self, shard: Any, principal: str,
                        operation: str, obj: str,
                        scope: str | None = None) -> dict[str, Any]:
        guard = self._guard(shard.name)
        guard.degraded_served += 1
        self._degraded.labels(shard.name)._value += 1
        return shard.check_degraded(principal, operation, obj,
                                    scope=scope)

    # -- lifecycle ---------------------------------------------------------

    def reload_configs(self, out=None) -> dict[str, Any]:
        """SIGHUP handler: *stage* every file-backed shard's config.

        Classic daemons re-read their config on SIGHUP and swap it in
        blind; here the signal only re-reads each ``--shard NAME=FILE``
        file and **stages** it through the shard's rollout lifecycle —
        the published kernel keeps serving, a shadow canary mirrors the
        live traffic against the candidate, and the swap happens only
        once the divergence/error budget clears (see
        ``repro/config/lifecycle.py``).  A shard with no config file,
        or whose file fails validation / version monotonicity, is
        skipped with the error reported — one bad tenant config never
        blocks the others.
        """
        results = {shard.name: self._restage(shard, "serve.reload.error")
                   for shard in self.router.shards()
                   if shard.config_path is not None}
        if out is not None:
            print("reload: " + json.dumps(results, sort_keys=True,
                                          default=str),
                  file=out, flush=True)
        return results

    def poll_config_files(self) -> dict[str, Any]:
        """One synchronous watcher pass over file-backed shards.

        Stat-polls every ``--shard NAME=FILE`` config (mtime_ns +
        size); a file that moved since the last pass is staged through
        the shard's rollout lifecycle, exactly like one SIGHUP-ed
        reload.  The first observation of a file only records its
        baseline — the config the server booted from is not re-staged.
        Factored out of the async loop so tests (and embedded callers)
        can drive passes deterministically.
        """
        results: dict[str, Any] = {}
        for shard in self.router.shards():
            path = shard.config_path
            if path is None:
                continue
            try:
                stat = os.stat(path)
            except OSError:
                continue  # mid-rename or deleted: retry next pass
            signature = (stat.st_mtime_ns, stat.st_size)
            seen = self._watch_state.get(shard.name)
            if seen == signature:
                continue
            self._watch_state[shard.name] = signature
            if seen is None:
                continue  # baseline: the booted config is not restaged
            results[shard.name] = self._restage(shard, "serve.watch.error")
        return results

    def _restage(self, shard: Any, error_kind: str) -> dict[str, Any]:
        """Re-read ``shard``'s config file and stage it: one SIGHUP or
        watcher pass.  Counts the outcome (``staged``, ``unchanged`` or
        ``error``) and audits a refused file as ``error_kind``."""
        try:
            report = shard.admin_op("reload", {})
        except ReproError as exc:
            self._reloads.labels(shard.name, "error")._value += 1
            shard.engine.audit.record(error_kind, shard=shard.name,
                                      message=str(exc))
            return {"error": type(exc).__name__, "message": str(exc)}
        outcome = "unchanged" if report.get("unchanged") else "staged"
        self._reloads.labels(shard.name, outcome)._value += 1
        return report

    async def _watch_loop(self) -> None:
        """The async config watcher: stat-poll every
        ``watch_interval`` seconds until the server drains."""
        while not self._draining:
            await asyncio.sleep(self.watch_interval)
            try:
                self.poll_config_files()
            except Exception:  # noqa: BLE001 - the watcher must
                pass  # survive any one bad pass; next tick retries

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.base_events.Server:
        """Bind and start serving; ``port=0`` picks an ephemeral port
        (read it back from :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._serve_connection, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.watch_interval > 0 and self._watch_task is None:
            self.poll_config_files()  # baseline pass before serving
            self._watch_task = asyncio.get_running_loop().create_task(
                self._watch_loop())
        return self._server

    async def shutdown(self) -> dict[str, Any]:
        """Drain, flush, dump — the graceful exit sequence.

        The external readiness signals go away *first* — the port file
        is unlinked and the listening socket closed before the drain
        starts — so nothing can discover (or connect to) a server that
        is already on its way out.  Idempotent; returns (and caches)
        the shutdown summary: ``drained`` says whether every in-flight
        request completed inside ``drain_grace``, ``wal_flushed``
        counts group-commit buffers fsynced, ``flight_dumps`` maps
        shard -> dump path.
        """
        if self._shutdown_summary is not None:
            return self._shutdown_summary
        self._draining = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            self._watch_task = None
        if self._port_file is not None:
            try:
                os.unlink(self._port_file)
            except OSError:
                pass
            self._port_file = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_grace
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.005)
        wal_flushed = 0
        flight_dumps: dict[str, str | None] = {}
        for shard in self.router.shards():
            if shard.durability is not None:
                # flush the group-commit buffer: a drained request's
                # commit must not die in an unsynced batch
                if shard.durability.wal.sync():
                    wal_flushed += 1
            # the shard name is part of the dump cause: every shard's
            # recorder keeps its own dump counter, so a shared
            # --flightrec-dir would otherwise collide on the filename
            flight_dumps[shard.name] = shard.engine.dump_flight(
                f"serve.shutdown.{shard.name}",
                directory=self.flightrec_dir)
            shard.engine.audit.record("serve.shutdown", shard=shard.name)
        self._shutdown_summary = {
            "drained": self._inflight == 0,
            "inflight": self._inflight,
            "wal_flushed": wal_flushed,
            "flight_dumps": flight_dumps,
        }
        return self._shutdown_summary

    async def run(self, host: str = "127.0.0.1", port: int = 0,
                  port_file: str | None = None,
                  out=None) -> dict[str, Any]:
        """Serve until SIGTERM/SIGINT, then shut down gracefully.

        The daemon entry point behind ``repro-rbac serve``: binds,
        optionally writes the bound port to ``port_file`` (ephemeral
        ports are how the CI smoke job finds the server), installs
        signal handlers, and blocks until a signal trips the drain.
        """
        out = out if out is not None else sys.stdout
        await self.start(host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        try:
            loop.add_signal_handler(
                signal.SIGHUP, self.reload_configs, out)
        except (NotImplementedError,  # pragma: no cover - non-POSIX
                AttributeError):
            pass
        # the port file is the external readiness signal (the smoke
        # harness SIGTERMs as soon as it appears) — write it only
        # after the handlers are armed, or a prompt signal kills the
        # process with the default disposition instead of draining
        if port_file:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{self.port}\n")
            self._port_file = port_file
        print(f"serving {len(self.router)} shard(s) on "
              f"http://{host}:{self.port}", file=out, flush=True)
        await stop.wait()
        summary = await self.shutdown()
        print("shutdown: " + json.dumps(summary, sort_keys=True),
              file=out, flush=True)
        return summary

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._connections._value += 1
        try:
            while not self._draining:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"),
                        self.request_timeout)
                except asyncio.TimeoutError:
                    # slow-loris (a head that never completes) and
                    # idle keep-alive connections are both reaped;
                    # only the former deserves a response
                    if reader._buffer:
                        self._timeouts.labels("head")._value += 1
                        writer.write(response_bytes(
                            408, {"error": "timeout",
                                  "message": "timed out reading "
                                             "request head"},
                            close=True))
                        with _suppress_net_errors():
                            await writer.drain()
                    else:
                        self._timeouts.labels("idle")._value += 1
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away between requests
                except asyncio.LimitOverrunError:
                    self._shed_total.labels("oversize")._value += 1
                    writer.write(response_bytes(
                        413, {"error": "http",
                              "message": "request head too large"},
                        close=True))
                    with _suppress_net_errors():
                        await writer.drain()
                    return
                if len(head) > self.max_head_bytes:
                    self._shed_total.labels("oversize")._value += 1
                    writer.write(response_bytes(
                        413, {"error": "http",
                              "message": "request head too large"},
                        close=True))
                    with _suppress_net_errors():
                        await writer.drain()
                    return
                close = await self._serve_request(head, reader, writer)
                if close:
                    return
        finally:
            writer.close()
            with _suppress_net_errors():
                await writer.wait_closed()

    async def _serve_request(self, head: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> bool:
        """Handle one request; returns True when the connection must
        close (protocol error, shed, timeout, or drain)."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        route = "?"
        status = 500
        close = False
        headers_out: dict[str, str] | None = None
        ctx: dict[str, Any] = {}
        self._inflight += 1
        try:
            try:
                method, target, headers = parse_request_head(head)
                parts = urlsplit(target)
                route = parts.path
                # -- admission control: shed before reading the body,
                # close after answering (the unread body would desync
                # keep-alive framing)
                if self._inflight > self.max_inflight:
                    self._shed_total.labels("inflight")._value += 1
                    raise HttpError(
                        503,
                        f"server at capacity "
                        f"({self.max_inflight} in flight)",
                        error="shed", retry_after=self.retry_after,
                        close=True)
                deadline = self._request_deadline(headers)
                length = self._content_length(headers)
                body = b""
                if length:
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length),
                            self.request_timeout)
                    except asyncio.TimeoutError:
                        # truncated body: the client claimed more
                        # bytes than it sent — fail closed, never wait
                        self._timeouts.labels("body")._value += 1
                        raise HttpError(
                            408, "timed out reading request body",
                            error="timeout", close=True) from None
                if deadline.exceeded() is not None:
                    # the budget died while the request was being
                    # read/queued: shed it rather than dispatch work
                    # whose answer nobody is waiting for
                    self._shed_total.labels("deadline")._value += 1
                    raise HttpError(
                        503, "request deadline exhausted before "
                             "dispatch", error="shed",
                        retry_after=self.retry_after, close=True)
                ctx["deadline"] = deadline
                status, payload = self._dispatch(
                    method, parts.path,
                    {k: v[-1] for k, v in
                     parse_qs(parts.query).items()},
                    body, ctx)
            except HttpError as exc:
                status, payload = exc.status, {
                    "error": exc.error, "message": str(exc)}
                close = close or exc.close
                if exc.retry_after is not None:
                    headers_out = {"Retry-After":
                                   f"{exc.retry_after:g}"}
            except (asyncio.IncompleteReadError, ConnectionError):
                return True
            except ReproError as exc:
                status = _error_status(exc)
                payload = {"error": type(exc).__name__,
                           "message": str(exc)}
                if status == 503:
                    headers_out = {"Retry-After":
                                   f"{self.retry_after:g}"}
            except Exception as exc:  # noqa: BLE001 - the server must
                # answer; a handler bug becomes a 500, not a dead socket
                status, payload = 500, {"error": type(exc).__name__,
                                        "message": str(exc)}
            close = close or self._draining
            writer.write(response_bytes(status, payload, close=close,
                                        headers=headers_out))
            try:
                await asyncio.wait_for(writer.drain(),
                                       self.request_timeout)
            except asyncio.TimeoutError:
                # the client is not reading its response: abort the
                # transport rather than hold buffers (and a bulkhead
                # slot) for a dead peer
                self._timeouts.labels("write")._value += 1
                writer.transport.abort()
                return True
            except (ConnectionError, OSError):
                return True
            self._requests.labels(route, str(status))._value += 1
            hist = self._request_ns.labels(route)
            hist.observe((loop.time() - start) * 1e9)
            return close
        finally:
            self._inflight -= 1
            guard = ctx.get("guard")
            if guard is not None:
                # a shard failure is a server-side fault or an engine
                # timeout — never a client error or a slow reader
                self._record_breaker(
                    guard, status < 500 and not ctx.get("failure"))
            bulkhead = ctx.get("bulkhead")
            if bulkhead is not None:
                bulkhead.release()

    def _request_deadline(self, headers: dict[str, str]) -> Deadline:
        """The request's wall-clock budget: ``X-Deadline-Ms`` when the
        client sent one (malformed values fail closed 400), else the
        server's default ``request_timeout``."""
        raw = headers.get("x-deadline-ms")
        if raw is None:
            budget = self.request_timeout
        else:
            try:
                budget = float(raw) / 1000.0
            except ValueError:
                raise HttpError(
                    400, f"bad X-Deadline-Ms {raw!r}") from None
            if not (0 < budget < float("inf")):
                raise HttpError(
                    400, f"X-Deadline-Ms must be a positive finite "
                         f"number, got {raw!r}")
        return Deadline(wall_budget=budget)

    def _content_length(self, headers: dict[str, str]) -> int:
        """Validate Content-Length fail-closed (400 on garbage, 413
        over the body bound; both close — the body is unread)."""
        raw = headers.get("content-length", "")
        if not raw:
            return 0
        try:
            length = int(raw)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {raw!r}",
                            close=True) from None
        if length < 0:
            raise HttpError(400, f"negative Content-Length {raw!r}",
                            close=True)
        if length > self.max_body_bytes:
            raise HttpError(413, "request body too large", close=True)
        return length

    # -- routing -----------------------------------------------------------

    def _dispatch(self, method: str, path: str, query: dict[str, str],
                  body: bytes, ctx: dict[str, Any] | None = None
                  ) -> tuple[int, dict[str, Any] | str]:
        ctx = ctx if ctx is not None else {}
        if path == "/v1/check":
            self._require(method, "POST")
            return self._handle_check(self._json(body), ctx)
        if path == "/v1/check_batch":
            self._require(method, "POST")
            return self._handle_check_batch(self._json(body), ctx)
        if path == "/v1/explain":
            self._require(method, "GET")
            return self._handle_explain(query, ctx)
        if path == "/v1/admin":
            self._require(method, "POST")
            return self._handle_admin(self._json(body), ctx)
        if path == "/metrics":
            self._require(method, "GET")
            return self._handle_metrics(query)
        if path == "/healthz":
            self._require(method, "GET")
            return self._handle_healthz()
        raise HttpError(404, f"no route {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected}")

    @staticmethod
    def _json(body: bytes) -> dict[str, Any]:
        if not body:
            raise HttpError(400, "missing JSON body")
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise HttpError(400, f"bad JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload

    @staticmethod
    def _field(payload: dict[str, Any], name: str) -> str:
        value = payload.get(name)
        if not isinstance(value, str) or not value:
            raise HttpError(400, f"missing field {name!r}")
        return value

    # -- handlers ----------------------------------------------------------

    def _check_args(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "user": self._field(payload, "user"),
            "operation": self._field(payload, "operation"),
            "obj": self._field(payload, "object"),
            "domain": payload.get("domain"),
            "purpose": payload.get("purpose"),
            "scope": payload.get("scope"),
        }

    def _handle_check(self, payload: dict[str, Any],
                      ctx: dict[str, Any]
                      ) -> tuple[int, dict[str, Any]]:
        args = self._check_args(payload)
        # pure routing first: the shard's guard decides admission
        # before any engine work (or guest provisioning) happens
        shard, principal = self.router.route(args["user"],
                                             args["domain"])
        guard = self._guard(shard.name)
        verdict = guard.breaker.allow()
        if verdict == "degraded":
            return 200, self._degraded_check(
                shard, principal, args["operation"], args["obj"],
                args["scope"])
        if verdict == "serve":
            self._slot(guard, ctx)
        ctx["guard"] = guard  # outcome recorded after drain
        result = self.router.check(deadline=ctx.get("deadline"), **args)
        if result.get("timed_out"):
            ctx["failure"] = True  # an engine timeout counts against
            # the breaker even though the response is a clean deny
        self._lifecycle_tick(shard)
        return 200, result

    def _handle_check_batch(self, payload: dict[str, Any],
                            ctx: dict[str, Any]
                            ) -> tuple[int, dict[str, Any]]:
        checks = payload.get("checks")
        if not isinstance(checks, list):
            raise HttpError(400, "field 'checks' must be a list")
        results = []
        for index, item in enumerate(checks):
            if not isinstance(item, dict):
                raise HttpError(400, f"checks[{index}] must be an object")
            # a per-item engine error fails that item, not the batch;
            # guards apply per item (items may target different shards)
            results.append(self._batch_item(item, ctx))
        return 200, {"count": len(results), "results": results}

    def _batch_item(self, item: dict[str, Any],
                    ctx: dict[str, Any]) -> dict[str, Any]:
        """One batch entry: the single-check guard flow, with the
        bulkhead slot scoped to the item (a batch is one request; its
        items never overlap in time, but they must still see — and
        count against — the shard's live admission state)."""
        try:
            args = self._check_args(item)
            shard, principal = self.router.route(args["user"],
                                                 args["domain"])
        except (HttpError, ReproError) as exc:
            return {"allowed": False, "error": type(exc).__name__,
                    "message": str(exc)}
        guard = self._guard(shard.name)
        verdict = guard.breaker.allow()
        if verdict == "degraded":
            return self._degraded_check(
                shard, principal, args["operation"], args["obj"],
                args["scope"])
        acquired = False
        if verdict == "serve":
            if not guard.bulkhead.try_acquire():
                self._shed_total.labels("bulkhead")._value += 1
                return {"allowed": False, "error": "shed",
                        "message": f"shard {shard.name!r} at "
                                   f"concurrency limit"}
            acquired = True
        try:
            result = self.router.check(deadline=ctx.get("deadline"),
                                       **args)
            self._record_breaker(guard,
                                 not result.get("timed_out"))
            self._lifecycle_tick(shard)
            return result
        except ReproError as exc:
            self._record_breaker(guard, _error_status(exc) < 500)
            return {"allowed": False, "error": type(exc).__name__,
                    "message": str(exc)}
        finally:
            if acquired:
                guard.bulkhead.release()

    def _handle_explain(self, query: dict[str, str],
                        ctx: dict[str, Any]
                        ) -> tuple[int, dict[str, Any]]:
        for field in ("user", "operation", "object"):
            if not query.get(field):
                raise HttpError(400, f"missing query parameter {field!r}")
        shard, _principal = self.router.route(query["user"],
                                              query.get("domain"))
        guard = self._guard(shard.name)
        verdict = guard.breaker.allow()
        if verdict == "degraded":
            # explain needs the full interpreted derivation — there is
            # no degraded variant, so it waits out the breaker
            raise HttpError(
                503, f"shard {shard.name!r} breaker open",
                error="breaker", retry_after=self.retry_after)
        if verdict == "serve":
            self._slot(guard, ctx)
        ctx["guard"] = guard
        return 200, self.router.explain(
            query["user"], query["operation"], query["object"],
            domain=query.get("domain"), purpose=query.get("purpose"),
            scope=query.get("scope"))

    def _handle_admin(self, payload: dict[str, Any],
                      ctx: dict[str, Any]
                      ) -> tuple[int, dict[str, Any]]:
        shard = self.router.shard(self._field(payload, "domain"))
        guard = self._guard(shard.name)
        verdict = guard.breaker.allow()
        if verdict == "degraded":
            # fail closed: a mutation against a faulting engine could
            # commit half of itself; reads keep flowing degraded, the
            # control plane waits for the breaker
            self._shed_total.labels("breaker_admin")._value += 1
            raise HttpError(
                503, f"shard {shard.name!r} breaker open: "
                     f"mutations rejected fail-closed",
                error="breaker", retry_after=self.retry_after)
        if verdict == "serve":
            self._slot(guard, ctx)
        ctx["guard"] = guard
        op = self._field(payload, "op")
        args = payload.get("args", {})
        if not isinstance(args, dict):
            raise HttpError(400, "field 'args' must be an object")
        try:
            report = shard.admin_op(op, args)
        except KeyError as exc:
            raise HttpError(400, f"admin op {op!r} missing "
                                 f"argument {exc}") from None
        from repro.serve.shard import LIFECYCLE_OPS
        if op in LIFECYCLE_OPS:
            # a promoted/rolled-back config may have moved the
            # federation_maps declarations — reconcile best-effort
            try:
                self.router.sync_federation()
            except Exception:  # noqa: BLE001 - response is correct
                pass
        return 200, report

    def _handle_metrics(self, query: dict[str, str]
                        ) -> tuple[int, str]:
        name = query.get("shard")
        if name:
            registry = self.router.shard(name).engine.obs.metrics
            return 200, registry.render_prometheus()
        return 200, self.metrics.render_prometheus()

    def _handle_healthz(self) -> tuple[int, dict[str, Any]]:
        report = self.router.health()
        open_breakers = sorted(
            name for name, guard in self._guards.items()
            if guard.breaker.state == STATE_OPEN)
        if open_breakers and report["status"] == "ok":
            report["status"] = "degraded"
        for name, guard in self._guards.items():
            shard_report = report["shards"].get(name)
            if shard_report is not None:
                shard_report.setdefault("serve", {})["overload"] = \
                    guard.snapshot()
        report["serve"] = {
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
            "breakers_open": open_breakers,
            "flightrec_dir": self.flightrec_dir,
        }
        return (200 if report["status"] == "ok" else 503), report


class _suppress_net_errors:
    """``with`` guard for best-effort socket writes during teardown."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(
            exc_type, (ConnectionError, OSError))
