"""Integration: the asyncio service plane end to end.

Boots a real :class:`~repro.serve.http.ServeApp` on an ephemeral port
inside each test and talks to it over actual sockets with the load
client — routing across shards, batch checks, explain, metrics,
health, the RCU epoch-swap differential, concurrent clients with
interleaved control-plane mutations, and the graceful drain / WAL
flush / flight-dump shutdown sequence (in-process and via SIGTERM on
a real subprocess).
"""

import asyncio
import json
import pathlib

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.federation import RoleMapping
from repro.kernel import KERNEL_DENY, KERNEL_GRANT
from repro.serve import ServeApp, ShardRouter
from repro.testing.load import HttpClient
from repro.testing.serve import drain, launch
from repro.wal import Durability, read_wal
from repro.workloads import generate_fleet

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

BETA = """
policy beta {
  role Guest;
  user eve;
  assign eve to Guest;
  permission ping on host;
  grant ping on host to Guest;
}
"""


def build_router(alpha_durability=None):
    router = ShardRouter()
    router.add_shard(
        "alpha", ActiveRBACEngine.from_policy(parse_policy(ALPHA)),
        alpha_durability)
    router.add_shard(
        "beta", ActiveRBACEngine.from_policy(parse_policy(BETA)))
    router.add_mapping(RoleMapping("alpha", "Writer", "beta", "Guest"))
    return router


def serve(router, scenario, **app_kwargs):
    """Boot the app, run ``scenario(app, client)``, shut down."""
    async def main():
        app = ServeApp(router, **app_kwargs)
        await app.start("127.0.0.1", 0)
        client = HttpClient("127.0.0.1", app.port)
        await client.connect()
        try:
            return await scenario(app, client)
        finally:
            await client.close()
            await app.shutdown()
    return asyncio.run(main())


class TestRoutes:
    def test_check_routes_to_both_shards(self):
        async def scenario(app, client):
            s1, p1 = await client.request("POST", "/v1/check", {
                "user": "ada@alpha", "operation": "edit",
                "object": "doc"})
            s2, p2 = await client.request("POST", "/v1/check", {
                "user": "eve@beta", "operation": "ping",
                "object": "host"})
            return (s1, p1), (s2, p2)

        (s1, p1), (s2, p2) = serve(build_router(), scenario)
        assert s1 == 200 and p1["allowed"] is True
        assert p1["shard"] == "alpha" and p1["path"] == "kernel"
        assert s2 == 200 and p2["allowed"] is True
        assert p2["shard"] == "beta"

    def test_check_batch_isolates_item_errors(self):
        async def scenario(app, client):
            return await client.request("POST", "/v1/check_batch", {
                "checks": [
                    {"user": "ada@alpha", "operation": "edit",
                     "object": "doc"},
                    {"user": "bob@alpha", "operation": "edit",
                     "object": "doc"},
                    {"user": "ghost@alpha", "operation": "edit",
                     "object": "doc"},
                ]})

        status, payload = serve(build_router(), scenario)
        assert status == 200
        assert payload["count"] == 3
        results = payload["results"]
        assert results[0]["allowed"] is True
        assert results[1]["allowed"] is False
        # the unknown user fails its item, not the batch
        assert results[2]["allowed"] is False
        assert results[2]["error"] == "UnknownUserError"

    def test_explain_over_query_string(self):
        async def scenario(app, client):
            return await client.request(
                "GET",
                "/v1/explain?user=ada@alpha&operation=edit&object=doc")

        status, payload = serve(build_router(), scenario)
        assert status == 200
        assert payload["allowed"] is True
        assert payload["shard"] == "alpha"

    def test_metrics_server_plane_and_per_shard(self):
        async def scenario(app, client):
            await client.request("POST", "/v1/check", {
                "user": "ada@alpha", "operation": "edit",
                "object": "doc"})
            _, server_text = await client.request("GET", "/metrics")
            _, shard_text = await client.request(
                "GET", "/metrics?shard=alpha")
            missing, _ = await client.request(
                "GET", "/metrics?shard=gamma")
            return server_text, shard_text, missing

        server_text, shard_text, missing = serve(build_router(),
                                                 scenario)
        assert "repro_serve_requests_total" in server_text
        assert 'repro_serve_shard_epoch{shard="alpha"}' in server_text
        # per-shard view is the engine's own registry, verbatim
        assert "# HELP" in shard_text
        assert "repro_serve_requests_total" not in shard_text
        assert missing == 404

    def test_healthz_reports_kernel_readiness(self):
        async def scenario(app, client):
            return await client.request("GET", "/healthz")

        status, payload = serve(build_router(), scenario)
        assert status == 200
        assert payload["status"] == "ok"
        alpha = payload["shards"]["alpha"]
        assert alpha["serve"]["published_epoch"] == alpha["kernel_epoch"]
        assert alpha["kernel_stale_reason"] is None
        assert alpha["kernel_staleness"]["epoch"]["kernel"] == \
            alpha["kernel_staleness"]["epoch"]["engine"]

    def test_healthz_degraded_is_503(self):
        router = build_router()
        engine = router.shard("beta").engine
        victim = next(iter(engine.rules)).name
        engine.rules.quarantine(victim, reason="serve-test")

        async def scenario(app, client):
            return await client.request("GET", "/healthz")

        status, payload = serve(router, scenario)
        assert status == 503
        assert payload["status"] == "degraded"

    def test_protocol_errors(self):
        async def scenario(app, client):
            missing_route = await client.request("GET", "/nope")
            wrong_method = await client.request("GET", "/v1/check")
            bad_body = await client.request("POST", "/v1/check",
                                            {"user": "ada@alpha"})
            return missing_route, wrong_method, bad_body

        (s1, _), (s2, _), (s3, p3) = serve(build_router(), scenario)
        assert (s1, s2, s3) == (404, 405, 400)
        assert "operation" in p3["message"]


class TestEpochSwap:
    def test_differential_old_reader_new_router(self):
        """The RCU differential over HTTP: a mutation posted mid-run
        swaps the epoch; a reader still holding the old reference
        keeps answering the old policy, while the server already
        serves the new verdict — and no request recompiles."""
        router = build_router()
        shard = router.shard("alpha")

        async def scenario(app, client):
            # warm bob's session, capture the pre-swap kernel
            _, before = await client.request("POST", "/v1/check", {
                "user": "bob@alpha", "operation": "edit",
                "object": "doc"})
            old_kernel = shard.kernel
            sid = before["session"]
            assert old_kernel.evaluate(sid, "edit", "doc") == (KERNEL_DENY, None)

            status, swap = await client.request("POST", "/v1/admin", {
                "domain": "alpha", "op": "grant",
                "args": {"role": "Reader", "operation": "edit",
                         "object": "doc"}})
            assert status == 200 and swap["swapped"] is True

            _, after = await client.request("POST", "/v1/check", {
                "user": "bob@alpha", "operation": "edit",
                "object": "doc"})
            return before, old_kernel, sid, swap, after

        before, old_kernel, sid, swap, after = serve(router, scenario)
        assert before["allowed"] is False
        assert after["allowed"] is True
        assert after["epoch"] == swap["epoch"] > before["epoch"]
        # the old reference is frozen at its epoch and verdict
        assert old_kernel.epoch == before["epoch"]
        assert old_kernel.evaluate(sid, "edit", "doc") == (KERNEL_DENY, None)
        assert shard.kernel.evaluate(sid, "edit", "doc") == (KERNEL_GRANT, None)
        # readers never compiled: the published reference is the
        # engine's own (control-plane) build
        assert shard.engine._kernel is shard.kernel

    def test_concurrent_clients_with_interleaved_mutations(self):
        """Many closed-loop clients keep checking while the control
        plane applies a stream of grants: every request answers, no
        5xx, and every mutation lands as an epoch swap."""
        router = build_router()
        shard = router.shard("alpha")
        swaps_before = shard.swaps
        mutations = 5
        clients = 8
        checks_per_client = 30

        async def reader(app):
            client = HttpClient("127.0.0.1", app.port)
            await client.connect()
            statuses = []
            try:
                for index in range(checks_per_client):
                    user = "ada@alpha" if index % 2 else "bob@alpha"
                    status, payload = await client.request(
                        "POST", "/v1/check",
                        {"user": user, "operation": "view",
                         "object": "doc"})
                    statuses.append((status, payload["allowed"]))
            finally:
                await client.close()
            return statuses

        async def mutator(app, client):
            results = []
            for index in range(mutations):
                status, payload = await client.request(
                    "POST", "/v1/admin", {
                        "domain": "alpha", "op": "grant",
                        "args": {"role": "Reader",
                                 "operation": "edit",
                                 "object": f"obj{index}"}})
                results.append((status, payload["swapped"]))
                await asyncio.sleep(0)  # interleave with readers
            return results

        async def scenario(app, client):
            # register the objects the mutator will grant
            for index in range(mutations):
                await client.request("POST", "/v1/admin", {
                    "domain": "alpha", "op": "add_permission",
                    "args": {"operation": "edit",
                             "object": f"obj{index}"}})
            return await asyncio.gather(
                mutator(app, client),
                *(reader(app) for _ in range(clients)))

        results = serve(router, scenario)
        mutation_results, reader_results = results[0], results[1:]
        assert all(status == 200 and swapped
                   for status, swapped in mutation_results)
        for statuses in reader_results:
            assert len(statuses) == checks_per_client
            assert all(status == 200 for status, _ in statuses)
        assert shard.swaps >= swaps_before + mutations


class TestShutdown:
    def test_drain_flush_dump_sequence(self, tmp_path):
        flight_dir = tmp_path / "flightrec"
        durability = None

        def attach(engine):
            nonlocal durability
            durability = Durability(engine, str(tmp_path / "wal"))
            return durability

        router = ShardRouter()
        alpha = ActiveRBACEngine.from_policy(parse_policy(ALPHA))
        router.add_shard("alpha", alpha, attach(alpha))
        router.add_shard(
            "beta", ActiveRBACEngine.from_policy(parse_policy(BETA)))

        async def scenario():
            app = ServeApp(router, drain_grace=2.0,
                           flightrec_dir=str(flight_dir))
            await app.start("127.0.0.1", 0)
            client = HttpClient("127.0.0.1", app.port)
            await client.connect()
            # traffic + one committed mutation (a WAL record in the
            # group-commit buffer, not yet fsynced)
            await client.request("POST", "/v1/check", {
                "user": "ada@alpha", "operation": "edit",
                "object": "doc"})
            await client.request("POST", "/v1/admin", {
                "domain": "alpha", "op": "grant",
                "args": {"role": "Reader", "operation": "edit",
                         "object": "doc"}})
            await client.close()
            summary = await app.shutdown()
            second = await app.shutdown()  # idempotent
            return summary, second

        summary, second = asyncio.run(scenario())
        assert summary["drained"] is True
        assert summary["inflight"] == 0
        assert summary["wal_flushed"] == 1  # alpha's buffer was dirty
        assert second is summary
        # one dump per shard, in the configured directory, no collision
        dumps = summary["flight_dumps"]
        assert set(dumps) == {"alpha", "beta"}
        assert len(set(dumps.values())) == 2
        for path in dumps.values():
            assert pathlib.Path(path).parent == flight_dir
            payload = json.loads(pathlib.Path(path).read_text())
            assert payload["cause"].startswith("serve.shutdown.")
        # the shutdown itself is audited on every shard
        for shard in router.shards():
            assert shard.engine.audit.by_kind("serve.shutdown")
        # the flushed WAL survives on disk with the policy-epoch
        # record the grant appended (still in the group-commit
        # buffer until shutdown synced it)
        wal_text = (tmp_path / "wal" / "wal.log").read_text()
        assert "policy.epoch" in wal_text

    def test_draining_connections_close(self):
        router = build_router()

        async def scenario(app, client):
            await client.request("POST", "/v1/check", {
                "user": "ada@alpha", "operation": "edit",
                "object": "doc"})
            await app.shutdown()
            # after the drain no new connection is served
            with pytest.raises((ConnectionError, OSError,
                                asyncio.IncompleteReadError)):
                fresh = HttpClient("127.0.0.1", app.port)
                await fresh.connect()
                await fresh.request("GET", "/healthz")
            return True

        assert serve(router, scenario) is True


class TestSigterm:
    def test_subprocess_sigterm_exits_cleanly(self, tmp_path):
        """The deployment contract end to end: boot the CLI server as
        a real two-shard process, swap one shard's policy epoch through
        the admin API, SIGTERM it, and assert exit 0, the drained
        summary on stdout, every shard's WAL on disk with the swap in
        the granting shard's log, and one distinct flight-recorder dump
        per shard inside ``--flightrec-dir``."""
        port_file = tmp_path / "port.txt"
        flight_dir = tmp_path / "flightrec"
        wal_dir = tmp_path / "wal"
        # serve derives the same synthetic fleet from (shards, users,
        # roles, seed): pick a grant shard00's tenant does not have yet
        spec = generate_fleet(2, 40, 10, 7)["shard00"]
        role, operation, obj = next(
            (role, operation, obj) for role in sorted(spec.roles)
            for operation, obj in spec.permissions
            if (role, operation, obj) not in spec.grants)
        proc, port = launch(port_file, [
            "--synthetic", "2", "--users", "40", "--roles", "10",
            "--seed", "7", "--wal", str(wal_dir),
            "--flightrec-dir", str(flight_dir)], timeout=30)

        async def grant(port):
            client = HttpClient("127.0.0.1", port)
            try:
                return await client.request("POST", "/v1/admin", {
                    "domain": "shard00", "op": "grant",
                    "args": {"role": role, "operation": operation,
                             "object": obj}})
            finally:
                await client.close()

        try:
            status, swap = asyncio.run(grant(port))
            out, summary = drain(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert status == 200, swap
        assert swap["shard"] == "shard00" and swap["swapped"] is True
        assert proc.returncode == 0, out
        # the readiness signal must not outlive the process
        assert not port_file.exists()
        assert summary is not None, out
        assert summary["drained"] is True
        # the grant's record sat in shard00's group-commit batch until
        # shutdown fsynced it
        assert summary["wal_flushed"] >= 1
        epochs = {}
        for shard in ("shard00", "shard01"):
            log = wal_dir / shard / "wal.log"
            assert log.is_file(), shard
            records, _ = read_wal(str(log))
            epochs[shard] = [record for record in records
                             if record["op"] == "policy.epoch"]
        assert epochs["shard00"] and not epochs["shard01"]
        dumps = summary["flight_dumps"]
        assert sorted(dumps) == ["shard00", "shard01"]
        assert len(set(dumps.values())) == 2, dumps
        for dump in dumps.values():
            assert pathlib.Path(dump).is_file()
            assert pathlib.Path(dump).parent == flight_dir
