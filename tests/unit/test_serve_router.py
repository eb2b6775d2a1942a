"""Unit: shard routing rules and the RCU epoch-swap surface."""

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.errors import AdministrationError
from repro.federation import RoleMapping, guest_principal
from repro.kernel import KERNEL_DENY, KERNEL_GRANT
from repro.serve import ADMIN_OPS, ShardRouter

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


def engine_for(text):
    return ActiveRBACEngine.from_policy(parse_policy(text))


@pytest.fixture
def router():
    r = ShardRouter()
    r.add_shard("alpha", engine_for(ALPHA))
    r.add_shard("beta", engine_for(BETA))
    r.add_mapping(RoleMapping("alpha", "Writer", "beta", "Guest"))
    return r


class TestRouting:
    def test_home_qualified_user_routes_home(self, router):
        shard, principal = router.resolve("ada@alpha")
        assert shard.name == "alpha"
        assert principal == "ada"

    def test_explicit_domain_wins_over_sole_shard(self):
        r = ShardRouter()
        r.add_shard("alpha", engine_for(ALPHA))
        shard, principal = r.resolve("ada", domain="alpha")
        assert (shard.name, principal) == ("alpha", "ada")

    def test_bare_user_with_one_shard_routes_there(self):
        r = ShardRouter()
        r.add_shard("beta", engine_for(BETA))
        shard, principal = r.resolve("eve")
        assert (shard.name, principal) == ("beta", "eve")

    def test_bare_user_with_many_shards_is_ambiguous(self, router):
        with pytest.raises(AdministrationError):
            router.resolve("ada")

    def test_unknown_shard_rejected(self, router):
        with pytest.raises(AdministrationError):
            router.resolve("ada", domain="gamma")
        with pytest.raises(AdministrationError):
            router.shard("gamma")

    def test_empty_user_rejected(self, router):
        with pytest.raises(AdministrationError):
            router.resolve("@alpha")

    def test_cross_shard_visit_provisions_guest(self, router):
        # ada is a Writer at home; the mapping entitles Guest in beta
        result = router.check("ada@alpha", "ping", "host", domain="beta")
        assert result["allowed"] is True
        assert result["shard"] == "beta"
        beta = router.shard("beta").engine
        principal = guest_principal("ada", "alpha")
        assert principal in beta.model.users
        # second touch reuses the provisioned guest session
        again = router.check("ada@alpha", "ping", "host", domain="beta")
        assert again["session"] == result["session"]

    def test_unentitled_visitor_fails_closed(self, router):
        # bob is only a Reader; no mapping entitles beta roles
        with pytest.raises(AdministrationError):
            router.check("bob@alpha", "ping", "host", domain="beta")


class TestCheck:
    def test_kernel_path_with_session_reuse(self, router):
        first = router.check("ada@alpha", "edit", "doc")
        assert first["allowed"] is True
        assert first["path"] == "kernel"
        second = router.check("ada@alpha", "view", "doc")
        assert second["session"] == first["session"]

    def test_denied_check_reports_not_allowed(self, router):
        result = router.check("bob@alpha", "edit", "doc")
        assert result["allowed"] is False
        assert result["path"] == "kernel"

    def test_tracing_falls_back_to_interpreted(self, router):
        shard = router.shard("alpha")
        shard.engine.obs.tracer.enabled = True
        result = router.check("ada@alpha", "edit", "doc")
        assert result["allowed"] is True
        assert result["path"] == "interpreted"

    def test_stale_session_recreated(self, router):
        first = router.check("ada@alpha", "edit", "doc")
        shard = router.shard("alpha")
        shard.engine.delete_session(first["session"])
        second = router.check("ada@alpha", "edit", "doc")
        assert second["allowed"] is True
        assert second["session"] != first["session"]

    def test_explain_carries_shard_and_epoch(self, router):
        payload = router.explain("ada@alpha", "edit", "doc")
        assert payload["allowed"] is True
        assert payload["shard"] == "alpha"
        assert payload["epoch"] == router.shard("alpha").epoch


class TestRoutePurity:
    def test_route_is_side_effect_free(self, router):
        """The front-end consults route() before committing work to a
        shard, so it must not provision anything."""
        shard, principal = router.route("ada@alpha", "beta")
        assert shard.name == "beta"
        assert principal == guest_principal("ada", "alpha")
        beta = router.shard("beta").engine
        assert principal not in beta.model.users
        assert not shard._sessions

    def test_route_resolve_agree_on_target(self, router):
        routed = router.route("ada@alpha", "beta")
        resolved = router.resolve("ada@alpha", "beta")
        assert routed[0] is resolved[0]
        assert routed[1] == resolved[1]


class TestDeadline:
    def test_live_deadline_keeps_the_kernel_fast_path(self, router):
        from repro.clock import Deadline

        result = router.check("ada@alpha", "edit", "doc",
                              deadline=Deadline(wall_budget=30.0))
        assert result["allowed"] is True
        assert result["path"] == "kernel"
        assert "timed_out" not in result

    def test_exhausted_deadline_denies_with_timed_out(self, router):
        from repro.clock import Deadline

        clock = [100.0]
        dead = Deadline(wall_budget=0.5, wall=lambda: clock[0])
        clock[0] += 1.0  # budget spent while queued
        result = router.check("ada@alpha", "edit", "doc",
                              deadline=dead)
        assert result["allowed"] is False
        assert result["timed_out"] is True
        assert result["path"] == "interpreted"


    @pytest.mark.parametrize("spent", [False, True],
                             ids=["live", "exhausted"])
    def test_in_process_and_routed_checks_agree(self, router, spent):
        """One deadline rule: the same static check takes the same path,
        counts the same fallbacks and writes the same deadline audits
        whether it runs in-process or through the router."""
        from repro.clock import Deadline

        def budget():
            wall = [100.0]
            deadline = Deadline(wall_budget=0.5, wall=lambda: wall[0])
            if spent:
                wall[0] += 1.0  # budget spent while queued
            return deadline

        def tallies(engine):
            return ({labels["reason"]: child.value for labels, child
                     in engine.obs.kernel_fallbacks.series()},
                    engine.obs.kernel_decisions.labels("fallback").value,
                    len(engine.audit.by_kind("deadline.exceeded")))

        def delta(before, after):
            reasons = {reason: count - before[0].get(reason, 0)
                       for reason, count in after[0].items()}
            return ({r: n for r, n in reasons.items() if n},
                    after[1] - before[1], after[2] - before[2])

        local = engine_for(ALPHA)
        sid = local.create_session("ada")
        local.add_active_role(sid, "Writer")
        before = tallies(local)
        allowed = local.check_access(sid, "edit", "doc", deadline=budget())
        in_process = (allowed, local.flight.snapshot()[-1]["path"],
                      delta(before, tallies(local)))

        served = router.shard("alpha").engine
        router.check("ada@alpha", "view", "doc")  # provision the session
        before = tallies(served)
        result = router.check("ada@alpha", "edit", "doc",
                              deadline=budget())
        routed = (result["allowed"], result["path"],
                  delta(before, tallies(served)))

        assert routed == in_process
        assert in_process[1] == ("interpreted" if spent else "kernel")


class TestDegradedMode:
    def test_warm_session_answers_from_frozen_kernel(self, router):
        shard = router.shard("alpha")
        warm = router.check("ada@alpha", "edit", "doc")
        assert warm["allowed"] is True
        result = shard.check_degraded("ada", "edit", "doc")
        assert result["allowed"] is True
        assert result["path"] == "degraded"
        assert result["degraded"] is True
        assert result["epoch"] == warm["epoch"]
        assert result["session"] == warm["session"]

    def test_cold_caller_denied_fail_closed(self, router):
        shard = router.shard("alpha")
        result = shard.check_degraded("ada", "edit", "doc")
        assert result["allowed"] is False
        assert result["session"] is None

    def test_degraded_denies_what_the_kernel_denies(self, router):
        shard = router.shard("alpha")
        router.check("bob@alpha", "edit", "doc")  # warm bob
        result = shard.check_degraded("bob", "edit", "doc")
        assert result["allowed"] is False

    def test_degraded_reads_never_touch_the_engine_pipeline(self, router):
        shard = router.shard("alpha")
        router.check("ada@alpha", "edit", "doc")
        fired_before = shard.engine.obs.decisions.labels("grant").value
        shard.check_degraded("ada", "edit", "doc")
        assert shard.engine.obs.decisions.labels("grant").value == \
            fired_before

    def test_degraded_decisions_land_in_the_flight_recorder(self, router):
        shard = router.shard("alpha")
        router.check("ada@alpha", "edit", "doc")
        shard.check_degraded("ada", "edit", "doc")
        records = [r for r in shard.engine.flight.snapshot()
                   if r["kind"] == "decision"
                   and r["path"] == "degraded"]
        assert records
        assert records[-1]["deny_cause"] == "breaker_open"
        assert records[-1]["decision"] == "grant"


class TestEpochSwap:
    def test_admin_op_swaps_epoch(self, router):
        shard = router.shard("alpha")
        before = shard.epoch
        summary = shard.admin_op("grant", {
            "role": "Reader", "operation": "edit", "object": "doc"})
        assert summary["swapped"] is True
        assert summary["previous_epoch"] == before
        assert shard.epoch > before

    def test_old_reference_keeps_answering_old_epoch(self, router):
        """The RCU contract: a reader holding the pre-swap kernel keeps
        deciding against the old policy; the router serves the new."""
        shard = router.shard("alpha")
        sid = shard.session_for("bob")
        old_kernel = shard.kernel
        assert old_kernel.evaluate(sid, "edit", "doc") == (KERNEL_DENY, None)

        shard.admin_op("grant", {
            "role": "Reader", "operation": "edit", "object": "doc"})

        # the old reference is immutable: same epoch, same verdict
        assert old_kernel.epoch < shard.kernel.epoch
        assert old_kernel.evaluate(sid, "edit", "doc") == (KERNEL_DENY, None)
        # the published kernel serves the new policy
        assert shard.kernel.evaluate(sid, "edit", "doc") == (KERNEL_GRANT, None)
        assert router.check("bob@alpha", "edit", "doc")["allowed"] is True

    def test_readers_never_recompile(self, router):
        """After a publish, request traffic must not trigger another
        kernel build: the published reference stays identity-stable."""
        shard = router.shard("alpha")
        shard.admin_op("grant", {
            "role": "Reader", "operation": "edit", "object": "doc"})
        published = shard.kernel
        for _ in range(20):
            router.check("bob@alpha", "edit", "doc")
        assert shard.kernel is published
        assert shard.engine._kernel is published

    def test_unknown_admin_op_rejected(self, router):
        with pytest.raises(AdministrationError):
            router.shard("alpha").admin_op("drop_table", {})

    def test_admin_ops_registry_covers_lifecycle(self):
        assert {"grant", "revoke", "assign", "deassign", "add_role",
                "enable_role", "disable_role", "lock_user",
                "unlock_user"} <= set(ADMIN_OPS)


class TestHealth:
    def test_shard_health_has_serve_fields(self, router):
        router.check("ada@alpha", "edit", "doc")
        report = router.shard("alpha").health()
        serve = report["serve"]
        assert serve["shard"] == "alpha"
        assert serve["published_epoch"] == router.shard("alpha").epoch
        assert serve["checks"] >= 1
        assert serve["sessions"] >= 1
        assert serve["wal_attached"] is False

    def test_router_health_aggregates(self, router):
        report = router.health()
        assert report["status"] == "ok"
        assert set(report["shards"]) == {"alpha", "beta"}

    def test_quarantine_degrades_aggregate(self, router):
        engine = router.shard("beta").engine
        victim = next(iter(engine.rules)).name
        engine.rules.quarantine(victim, reason="unit-test")
        assert router.health()["status"] == "degraded"

    def test_describe_lists_shards(self, router):
        text = router.describe()
        assert "alpha" in text and "beta" in text
