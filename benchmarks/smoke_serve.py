#!/usr/bin/env python3
"""Service-plane resilience gates: overload, network chaos, breaker.

Two legs, emitting ``benchmarks/results/BENCH_resilience.json``:

* **leg A (network chaos + overload)** — boot a capacity-constrained
  server (small ``--max-inflight``), replay the seeded network-fault
  schedule (connection resets, slow-loris stalls, truncated bodies,
  garbage frames) through the chaos transport and require every fault
  answered fail-closed 4xx or by a clean close — zero hangs, zero 5xx,
  server alive after; then calibrate a closed-loop rate and offer ~2x
  open-loop, requiring sheds to be fast 503 + ``Retry-After``,
  admitted requests inside the p99 budget, and goodput above a floor;
* **leg B (breaker + degraded mode)** — boot with ``--chaos-check``
  arming a deterministic shard fault (after 10 clean checks the next
  3 raise TransientError), trip the breaker, and assert the
  degraded-mode contract: reads keep answering from the frozen
  published kernel epoch, cold callers and admin mutations are
  rejected fail-closed, ``/healthz`` reports the open breaker, and the
  half-open probe recovers the shard after the cooldown.

Each leg ends with a SIGTERM and the graceful-exit contract: exit code
0, the port file removed, and a ``shutdown:`` summary on stdout with
``drained: true``.  Served latency and verdict correctness are
``perfbench/``'s job; the WAL flush and flight-recorder dumps at
shutdown are covered by ``tests/integration/test_serve.py``.

Budgets (override via env for known-noisy runners):

* ``SERVE_BOOT_TIMEOUT_S`` — seconds to wait for the port file,
  default 60;
* ``CHAOS_SEED`` — the fault-schedule seed the chaos-serve matrix
  varies, default 0;
* ``RESILIENCE_P99_BUDGET_MS`` — p99 budget for *admitted* requests
  under 2x overload, default 500;
* ``RESILIENCE_GOODPUT_MIN`` — goodput floor under overload as a
  fraction of the calibrated closed-loop rate, default 0.05.

Exit status 0 when every gate passes and the shutdowns are clean; a
leg's temp work directory (with its flight dumps) is removed only when
the leg passes.  Run from the repo root::

    PYTHONPATH=src python benchmarks/smoke_serve.py --chaos
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

SHARDS = 2
SEED = 7
BOOT_TIMEOUT_S = float(os.environ.get("SERVE_BOOT_TIMEOUT_S", "60"))
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
CHAOS_USERS = 2_000
CHAOS_ROLES = 20
CHAOS_NET_OPS = int(os.environ.get("CHAOS_NET_OPS", "300"))
CHAOS_CAL_OPS = int(os.environ.get("CHAOS_CAL_OPS", "600"))
CHAOS_OVERLOAD_OPS = int(os.environ.get("CHAOS_OVERLOAD_OPS", "1500"))
RESILIENCE_P99_BUDGET_MS = float(
    os.environ.get("RESILIENCE_P99_BUDGET_MS", "500"))
RESILIENCE_GOODPUT_MIN = float(
    os.environ.get("RESILIENCE_GOODPUT_MIN", "0.05"))
BREAKER_WARM = 10
BREAKER_FAILS = 3
BREAKER_COOLDOWN_S = 3.0


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def boot(workdir: pathlib.Path, *, shards: int, users: int, roles: int,
         seed: int, extra: list[str]) -> tuple[subprocess.Popen, int,
                                               pathlib.Path]:
    """Spawn ``repro-rbac serve`` and wait for its bound port."""
    from repro.testing.serve import LaunchError, launch

    port_file = workdir / "port.txt"
    try:
        server, port = launch(
            port_file, ["--synthetic", str(shards), "--users", str(users),
                        "--roles", str(roles), "--seed", str(seed), *extra],
            timeout=BOOT_TIMEOUT_S, cwd=REPO)
    except LaunchError as exc:
        print(exc.output)
        fail(str(exc))
    return server, port, port_file


def stop(server: subprocess.Popen, port_file: pathlib.Path,
         leg: str) -> None:
    """SIGTERM the server; assert the graceful-exit contract."""
    from repro.testing.serve import drain

    out, summary = drain(server)
    if server.returncode != 0:
        print(out)
        fail(f"{leg}: server exited {server.returncode} on SIGTERM")
    if port_file.exists():
        fail(f"{leg}: port file survived shutdown: {port_file}")
    if summary is None:
        print(out)
        fail(f"{leg}: no shutdown summary on stdout")
    if not summary["drained"]:
        fail(f"{leg}: shutdown did not drain: {summary}")


def chaos_leg_net_overload() -> dict:
    """Leg A: network-fault replay, then open-loop overload at ~2x."""
    import asyncio

    from repro.testing.load import run_chaos, run_level, run_overload
    from repro.testing.faults import NetFaultPlan
    from repro.workloads import generate_fleet, generate_service_plan

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-chaos-"))
    server, port, port_file = boot(
        workdir, shards=SHARDS, users=CHAOS_USERS, roles=CHAOS_ROLES,
        seed=SEED,
        extra=["--flightrec-dir", str(workdir / "flightrec"),
               "--max-inflight", "16", "--shard-concurrency", "8",
               "--request-timeout-ms", "500", "--drain-grace", "10"])
    try:
        print(f"[leg A] server up on port {port} "
              f"(max-inflight 16, 500ms budget)")
        fleet = generate_fleet(SHARDS, CHAOS_USERS, CHAOS_ROLES, SEED)

        # -- network chaos: seeded fault schedule, sequential replay --
        net_plan = NetFaultPlan(seed=CHAOS_SEED)
        chaos_ops = generate_service_plan(fleet, CHAOS_NET_OPS, seed=23)
        chaos = asyncio.run(run_chaos("127.0.0.1", port, chaos_ops,
                                      net_plan))
        print(f"[leg A] chaos: {chaos.to_dict()}")
        if not chaos.alive_after:
            fail("leg A: server dead after network chaos")
        if chaos.hung:
            fail(f"leg A: {chaos.hung} connection(s) hung under chaos")
        if chaos.server_5xx:
            fail(f"leg A: {chaos.server_5xx} faulted frame(s) "
                 f"answered 5xx (want fail-closed 4xx/close)")
        if not chaos.faults:
            fail(f"leg A: fault schedule dealt nothing "
                 f"(seed {CHAOS_SEED}, {CHAOS_NET_OPS} ops)")
        if not chaos.clean_ok:
            fail("leg A: no clean request survived the chaos replay")

        # -- calibrate: closed-loop rate below the admission limit ----
        cal_ops = generate_service_plan(fleet, CHAOS_CAL_OPS, seed=29)
        cal = asyncio.run(run_level("127.0.0.1", port, cal_ops, 8,
                                    seed=CHAOS_SEED))
        if not cal.requests or not cal.elapsed_s:
            fail("leg A: calibration produced no completed requests")
        cal_rps = cal.requests / cal.elapsed_s
        print(f"[leg A] calibrated {cal_rps:.0f} req/s closed-loop "
              f"(concurrency 8)")

        # -- overload: offer ~2x the calibrated rate, open loop -------
        target_rps = cal_rps * 2
        over_ops = generate_service_plan(fleet, CHAOS_OVERLOAD_OPS,
                                         seed=31)
        # max_outstanding bounds the client-side connection pileup:
        # admitted-latency percentiles should describe the server's
        # triage, not an unbounded accept-backlog queue on the client
        overload = asyncio.run(run_overload("127.0.0.1", port, over_ops,
                                            target_rps,
                                            max_outstanding=256))
        print(f"[leg A] overload: {overload.to_dict()}")
        if overload.hung:
            fail(f"leg A: {overload.hung} hung request(s) under "
                 f"overload (zero-hang gate)")
        if overload.retry_after_missing:
            fail(f"leg A: {overload.retry_after_missing} shed 503(s) "
                 f"missing Retry-After")
        if not overload.shed:
            fail(f"leg A: 2x overload ({target_rps:.0f} rps offered) "
                 f"shed nothing — admission control never engaged")
        if not overload.goodput:
            fail("leg A: zero goodput under overload")
        p99_ms = overload.p(0.99) / 1000
        if p99_ms > RESILIENCE_P99_BUDGET_MS:
            fail(f"leg A: admitted p99 {p99_ms:.1f} ms over the "
                 f"{RESILIENCE_P99_BUDGET_MS} ms budget")
        floor = cal_rps * RESILIENCE_GOODPUT_MIN
        if overload.goodput_rps < floor:
            fail(f"leg A: goodput {overload.goodput_rps:.0f} rps "
                 f"under the floor {floor:.0f} rps "
                 f"({RESILIENCE_GOODPUT_MIN:.2f}x calibrated)")

        stop(server, port_file, "leg A")
        shutil.rmtree(workdir)  # a failed gate keeps it for its dumps
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    return {
        "net_chaos": chaos.to_dict(),
        "calibration": {"concurrency": 8, "ops": cal.requests,
                        "rps": round(cal_rps, 1)},
        "overload": overload.to_dict(),
        "overload_p99_ms": round(p99_ms, 2),
    }


def chaos_leg_breaker() -> dict:
    """Leg B: trip a shard breaker, assert degraded mode + recovery."""
    import asyncio

    from repro.testing.load import HttpClient
    from repro.workloads import generate_fleet

    users = 200
    roles = 10
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-brk-"))
    server, port, port_file = boot(
        workdir, shards=SHARDS, users=users, roles=roles, seed=SEED,
        extra=["--flightrec-dir", str(workdir / "flightrec"),
               "--chaos-check",
               f"shard00:{BREAKER_WARM}:{BREAKER_FAILS}",
               "--breaker-threshold", str(BREAKER_FAILS),
               "--breaker-cooldown", str(BREAKER_COOLDOWN_S),
               "--request-timeout-ms", "2000", "--drain-grace", "10"])

    # candidate (user, operation, object) triples that the policy
    # grants, derived offline from the same seeded fleet the server
    # built — the warm phase must find at least one kernel-path grant
    spec = generate_fleet(SHARDS, users, roles, SEED)["shard00"]
    by_role: dict[str, tuple[str, str]] = {}
    for role, operation, obj in spec.grants:
        by_role.setdefault(role, (operation, obj))
    candidates = []
    seen_users = set()
    for user, role in spec.assignments:
        if role in by_role and user not in seen_users:
            seen_users.add(user)
            operation, obj = by_role[role]
            candidates.append((user, operation, obj))
        if len(candidates) == BREAKER_WARM:
            break
    if len(candidates) < BREAKER_WARM:
        fail(f"leg B: only {len(candidates)} grantable users in the "
             f"seeded fleet (need {BREAKER_WARM})")

    async def drive() -> dict:
        client = HttpClient("127.0.0.1", port)

        async def check(user: str, operation: str, obj: str):
            return await client.request(
                "POST", "/v1/check",
                {"user": user, "domain": "shard00",
                 "operation": operation, "object": obj})

        # -- warm: exactly BREAKER_WARM clean checks ------------------
        golden = None
        for user, operation, obj in candidates:
            status, payload = await check(user, operation, obj)
            if status != 200:
                fail(f"leg B: warm check got {status}: {payload}")
            if golden is None and payload.get("allowed") \
                    and payload.get("path") == "kernel":
                golden = (user, operation, obj, payload["epoch"])
        if golden is None:
            fail("leg B: no warm check granted via the kernel path")
        user, operation, obj, epoch = golden

        # -- fault window: BREAKER_FAILS TransientErrors trip it ------
        for index in range(BREAKER_FAILS):
            status, payload = await check(user, operation, obj)
            if status != 503:
                fail(f"leg B: faulted check {index + 1} answered "
                     f"{status}, want 503: {payload}")
            if "retry-after" not in client.last_headers:
                fail("leg B: faulted 503 missing Retry-After")

        # -- degraded reads from the frozen published epoch -----------
        status, payload = await check(user, operation, obj)
        if status != 200 or payload.get("path") != "degraded":
            fail(f"leg B: expected degraded read, got {status}: "
                 f"{payload}")
        if not payload.get("allowed"):
            fail(f"leg B: degraded read lost the warm grant: {payload}")
        if payload.get("epoch") != epoch:
            fail(f"leg B: degraded epoch {payload.get('epoch')} != "
                 f"frozen epoch {epoch}")
        cold = next(u for u in sorted(spec.users) if u not in seen_users)
        status, payload = await check(cold, "read", "obj")
        if status != 200 or payload.get("allowed") \
                or payload.get("path") != "degraded":
            fail(f"leg B: cold caller not denied fail-closed in "
                 f"degraded mode: {status} {payload}")

        # -- admin mutations rejected fail-closed ---------------------
        status, payload = await client.request(
            "POST", "/v1/admin",
            {"domain": "shard00", "op": "grant",
             "args": {"role": spec.assignments[0][1],
                      "operation": operation, "object": obj}})
        if status != 503 or payload.get("error") != "breaker":
            fail(f"leg B: admin during outage got {status}: {payload}")
        if "retry-after" not in client.last_headers:
            fail("leg B: admin breaker 503 missing Retry-After")

        # -- health + metrics report the open breaker -----------------
        status, health = await client.request("GET", "/healthz")
        overload_report = health["shards"]["shard00"]["serve"]["overload"]
        if status != 503 or health["status"] != "degraded" \
                or overload_report["breaker"] != "open":
            fail(f"leg B: healthz hid the open breaker: {status} "
                 f"{health.get('serve')}")
        if "shard00" not in health["serve"]["breakers_open"]:
            fail(f"leg B: breakers_open missing shard00: "
                 f"{health['serve']}")
        status, text = await client.request("GET", "/metrics")
        if 'repro_serve_breaker_state{shard="shard00"} 2' not in text:
            fail("leg B: /metrics does not report the open breaker")
        if 'repro_serve_degraded_total{shard="shard00"}' not in text:
            fail("leg B: /metrics missing the degraded-serve counter")

        # -- recovery: the half-open probe closes the breaker ---------
        await asyncio.sleep(BREAKER_COOLDOWN_S + 0.3)
        status, payload = await check(user, operation, obj)
        if status != 200 or not payload.get("allowed") \
                or payload.get("path") == "degraded":
            fail(f"leg B: post-cooldown probe did not recover: "
                 f"{status} {payload}")
        status, health = await client.request("GET", "/healthz")
        overload_report = health["shards"]["shard00"]["serve"]["overload"]
        if status != 200 or overload_report["breaker"] != "closed":
            fail(f"leg B: breaker did not close after recovery: "
                 f"{status} {overload_report}")
        await client.close()
        return {"frozen_epoch": epoch,
                "breaker_trips": overload_report["breaker_trips"],
                "degraded_served": overload_report["degraded_served"]}

    try:
        print(f"[leg B] server up on port {port} (chaos-check "
              f"shard00:{BREAKER_WARM}:{BREAKER_FAILS})")
        outcome = asyncio.run(drive())
        print(f"[leg B] breaker tripped, degraded served, recovered: "
              f"{outcome}")
        stop(server, port_file, "leg B")
        shutil.rmtree(workdir)  # a failed gate keeps it for its dumps
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    return {"warm": BREAKER_WARM, "fails": BREAKER_FAILS,
            "cooldown_s": BREAKER_COOLDOWN_S, **outcome}


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.testing.load import write_json

    leg_a = chaos_leg_net_overload()
    leg_b = chaos_leg_breaker()
    payload = {"seed": CHAOS_SEED, "mode": "resilience",
               **leg_a, "breaker": leg_b}
    bench_path = RESULTS / "BENCH_resilience.json"
    write_json(payload, str(bench_path))
    print(f"serve chaos OK (seed {CHAOS_SEED}): "
          f"{leg_a['net_chaos']['failclosed_4xx']} faults fail-closed, "
          f"shed rate {leg_a['overload']['shed_rate']:.2f} with "
          f"goodput {leg_a['overload']['goodput_rps']:.0f} rps, "
          f"breaker degraded+recovered; report at {bench_path}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--chaos"]:
        print("usage: smoke_serve.py --chaos", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
