"""Unit tests for the compiled decision plane (PolicyKernel).

The kernel is a per-epoch immutable compile of the policy: interned
ids, hierarchy-closure bitsets, a role->permission grant relation, and
a checkAccess fast path that must answer exactly like the interpreted
OWTE pipeline or fall back to it.  These tests pin the compile
artifacts, the decision protocol, the fallback triggers, and the
staleness/invalidation machinery.
"""

import copy

import pytest

from repro import (
    KERNEL_DENY,
    KERNEL_FALLBACK,
    KERNEL_GRANT,
    ActiveRBACEngine,
    parse_policy,
)
from repro.kernel import PolicyKernel, compile_kernel
from repro.obs import FALLBACK_REASONS

POLICY = """
policy kerneltest {
  role PM; role PC; role AC; role Clerk;
  hierarchy PM > PC > Clerk;
  user alice; user bob;
  assign alice to PM; assign alice to PC;
  assign bob to Clerk; assign bob to AC;
  permission read on ledger; permission write on ledger;
  permission read on memo;
  grant read on memo to Clerk;
  grant write on ledger to PC;
  grant read on ledger to AC;
  ssd Approval roles PC, AC;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine(parse_policy(POLICY))


@pytest.fixture
def kernel(engine):
    return engine.kernel()


class TestCompile:
    def test_full_coverage_on_generated_pool(self, kernel):
        assert kernel.coverage_gap is None

    def test_interning_is_dense_and_sorted(self, kernel):
        assert sorted(kernel.role_ids.values()) == list(
            range(len(kernel.role_ids)))
        assert list(kernel.role_ids) == sorted(kernel.role_ids)
        assert len(kernel.perm_ids) == 3

    def test_hierarchy_closure_bitsets(self, kernel):
        rid = kernel.role_ids
        pm_juniors = kernel.juniors_mask[rid["PM"]]
        # reflexive-transitive: PM sees itself, PC, Clerk — not AC
        for role in ("PM", "PC", "Clerk"):
            assert pm_juniors & (1 << rid[role])
        assert not pm_juniors & (1 << rid["AC"])
        # Clerk is a junior of itself and of each of its seniors
        for role in ("Clerk", "PC", "PM"):
            assert kernel.juniors_mask[rid[role]] & (1 << rid["Clerk"])

    def test_grant_masks_fold_junior_closure(self, kernel):
        pid = kernel.perm_ids
        pm = kernel.grant_masks["PM"]
        # PM inherits PC's write-ledger and Clerk's read-memo
        assert pm & (1 << pid[("write", "ledger")])
        assert pm & (1 << pid[("read", "memo")])
        assert not pm & (1 << pid[("read", "ledger")])

    def test_stats_count_the_model(self, kernel):
        stats, model = kernel.stats(), kernel.engine.model
        assert stats["users"] == len(model.users) > 0
        assert stats["operations"] == len(model.operations)
        assert stats["objects"] == len(model.objects)

    def test_ssd_conflict_pairs(self, kernel):
        pairs = kernel.ssd_conflict_pairs()
        assert ("Approval", "AC", "PC") in pairs or \
            ("Approval", "PC", "AC") in pairs

    def test_stats_surface(self, kernel):
        stats = kernel.stats()
        assert stats["roles"] == 4
        assert stats["permissions"] == 3
        assert stats["coverage_gap"] is None
        assert stats["static_rules"] >= 1
        assert stats["static_rules"] + stats["dynamic_rules"] == len(
            kernel.engine.rules)
        assert stats["events_dispatched"] >= 1
        assert stats["build_us"] > 0
        # fallback reasons are the engine's counter, not kernel tallies
        assert "fallbacks" not in stats


class TestEvaluate:
    def test_grant_deny_and_unknown_session(self, engine, kernel):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        assert kernel.evaluate(sid, "read", "memo") == (KERNEL_GRANT, None)
        assert kernel.evaluate(sid, "write", "ledger") == (KERNEL_DENY, None)
        assert kernel.evaluate("ghost", "read", "memo") == (KERNEL_DENY, None)

    def test_unknown_permission_pair_is_deny(self, engine, kernel):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        assert kernel.evaluate(sid, "shred", "memo") == (KERNEL_DENY, None)

    def test_locked_user_is_deny(self, engine, kernel):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        engine.locked_users.add("bob")
        assert kernel.evaluate(sid, "read", "memo") == (KERNEL_DENY, None)

    def test_quarantined_rule_falls_back(self, engine, kernel):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        kernel._ca.quarantined = True
        try:
            assert kernel.evaluate(sid, "read", "memo") == (
                KERNEL_FALLBACK, "quarantine")
        finally:
            kernel._ca.quarantined = False

    def test_rewired_clauses_fall_back(self, engine, kernel):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        ca = kernel._ca
        saved = ca.actions
        ca.actions = tuple(ca.actions)  # new object, same behavior
        try:
            assert kernel.evaluate(sid, "read", "memo") == (
                KERNEL_FALLBACK, "instrumented")
        finally:
            ca.actions = saved

    def test_evaluate_is_pure(self, engine, kernel):
        """No events, no audit, no rule counters from the kernel itself."""
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        before_raised = engine.detector.stats()["raised"]
        fired = kernel._ca.fired_count
        audit = len(engine.audit)
        kernel.evaluate(sid, "read", "memo")
        kernel.evaluate(sid, "write", "ledger")
        assert engine.detector.stats()["raised"] == before_raised
        assert kernel._ca.fired_count == fired
        assert len(engine.audit) == audit


class TestDynamicFallbacks:
    def test_context_gated_role(self):
        engine = ActiveRBACEngine(parse_policy("""
        policy ctx {
          role Field;
          user u0; assign u0 to Field;
          permission read on doc;
          grant read on doc to Field;
          context Field requires network == "secure" for access;
        }
        """))
        kernel = engine.kernel()
        sid = engine.create_session("u0")
        engine.add_active_role(sid, "Field")
        assert kernel.evaluate(sid, "read", "doc") == (
            KERNEL_FALLBACK, "context_role")
        # and check_access still answers correctly through the fallback
        engine.context.set("network", "secure")
        assert engine.check_access(sid, "read", "doc")
        engine.context.set("network", "open")
        assert not engine.check_access(sid, "read", "doc")

    def test_privacy_regulated_object(self):
        engine = ActiveRBACEngine(parse_policy("""
        policy priv {
          role Desk;
          user u0; assign u0 to Desk;
          permission read on secret; permission read on public;
          grant read on secret to Desk;
          grant read on public to Desk;
          purpose ops;
          object_policy read on secret for ops;
        }
        """))
        kernel = engine.kernel()
        sid = engine.create_session("u0")
        engine.add_active_role(sid, "Desk")
        assert kernel.evaluate(sid, "read", "public") == (KERNEL_GRANT, None)
        assert kernel.evaluate(sid, "read", "secret") == (
            KERNEL_FALLBACK, "privacy")

    def test_privacy_added_after_compile(self, engine, kernel):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        assert kernel.evaluate(sid, "read", "memo") == (KERNEL_GRANT, None)
        from repro.extensions.privacy import ObjectPolicy
        engine.privacy.add_purposes([("ops", None)])
        engine.privacy.add_policy(
            ObjectPolicy(obj="memo", operation="read", purpose="ops"))
        assert kernel.evaluate(sid, "read", "memo") == (
            KERNEL_FALLBACK, "stale_privacy")


REASONS_POLICY = """
policy reasons {
  role Desk; role Field;
  user u0; user u1;
  assign u0 to Desk; assign u1 to Field;
  permission read on doc; permission read on secret;
  grant read on doc to Desk; grant read on secret to Desk;
  grant read on doc to Field;
  context Field requires network == "secure" for access;
  purpose ops;
  object_policy read on secret for ops;
}
"""

#: slots holding live engine state the kernel reads, never owns
_LIVE_SLOTS = ("engine", "_ca", "_node", "_sessions")


def kernel_state(kernel):
    """Every slot's identity, plus a deep copy of each compiled one."""
    return {slot: (id(getattr(kernel, slot)),
                   None if slot in _LIVE_SLOTS
                   else copy.deepcopy(getattr(kernel, slot)))
            for slot in PolicyKernel.__slots__}


class TestPureDecision:
    def test_every_internal_reason_leaves_the_kernel_unchanged(self):
        """evaluate returns each of the seven kernel-internal fallback
        reasons and writes no kernel slot on the way (``__slots__``
        leaves it nowhere else to write)."""
        from repro.extensions.privacy import ObjectPolicy

        engine = ActiveRBACEngine(parse_policy(REASONS_POLICY))
        desk = engine.create_session("u0")
        engine.add_active_role(desk, "Desk")
        field = engine.create_session("u1")
        engine.add_active_role(field, "Field")
        kernel = engine.kernel()
        state = kernel_state(kernel)
        ca = kernel._ca
        seen = {}

        def reason(sid, operation, obj):
            verdict, why = kernel.evaluate(sid, operation, obj)
            assert verdict == KERNEL_FALLBACK
            seen[why] = seen.get(why, 0) + 1
            return why

        assert reason(field, "read", "doc") == "context_role"
        assert reason(desk, "read", "secret") == "privacy"
        ca.quarantined = True
        assert reason(desk, "read", "doc") == "quarantine"
        ca.quarantined = False
        saved = ca.actions
        ca.actions = tuple(saved)
        assert reason(desk, "read", "doc") == "instrumented"
        ca.actions = saved
        # direct model edits behind the kernel's epoch
        engine.model.add_permission("read", "memo")
        assert reason(desk, "read", "memo") == "unknown_entity"
        engine.privacy.add_policy(
            ObjectPolicy(obj="doc", operation="read", purpose="ops"))
        assert reason(desk, "read", "doc") == "stale_privacy"
        # an extra checkAccess listener is a compile-time coverage gap
        engine.detector.subscribe("checkAccess", lambda *_: None)
        gap = engine.kernel()
        gap_state = kernel_state(gap)
        verdict, why = gap.evaluate(desk, "read", "doc")
        assert verdict == KERNEL_FALLBACK
        seen[why] = 1

        assert set(seen) == set(FALLBACK_REASONS[:7])
        assert kernel_state(kernel) == state
        assert kernel_state(gap) == gap_state


class TestStaleness:
    def test_fresh_kernel_round_trips(self, engine, kernel):
        assert kernel.fresh(engine)
        assert kernel.stale_reason(engine) is None

    def test_policy_edit_staleness(self, engine, kernel):
        engine.grant_permission("Clerk", "read", "ledger")
        assert not kernel.fresh(engine)
        assert kernel.stale_reason(engine) == "epoch"

    def test_past_epoch_kernel_answers_the_policy_it_compiled(
            self, engine, kernel):
        """A pair, a scope or a privacy policy added through the admin
        API after the compile is a new epoch, not direct mutation: the
        old reference answers as its policy did instead of falling
        back."""
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        engine.add_permission("shred", "bin")
        engine.grant_permission("Clerk", "shred", "bin")
        engine.add_scope("org")
        engine.apply(("add_purpose", "ops", None))
        engine.apply(("add_object_policy", "memo", "read", "ops", ()))
        assert kernel.evaluate(sid, "shred", "bin") == (KERNEL_DENY, None)
        assert kernel.evaluate(sid, "read", "memo", "org") == (
            KERNEL_DENY, None)
        assert kernel.evaluate(sid, "read", "memo") == (KERNEL_GRANT, None)
        fresh = engine.kernel()
        assert fresh.evaluate(sid, "shred", "bin") == (KERNEL_GRANT, None)
        assert fresh.evaluate(sid, "read", "memo") == (
            KERNEL_FALLBACK, "privacy")

    def test_wrong_engine_staleness(self, engine, kernel):
        other = ActiveRBACEngine(parse_policy(POLICY))
        assert kernel.stale_reason(other) == "engine"

    def test_engine_kernel_recompiles_when_stale(self, engine):
        first = engine.kernel()
        assert engine.kernel() is first  # cached while fresh
        engine.grant_permission("Clerk", "read", "ledger")
        second = engine.kernel()
        assert second is not first
        assert second.fresh(engine)

    def test_invalidate_kernel_forces_recompile(self, engine):
        first = engine.kernel()
        engine.invalidate_kernel()
        assert engine.kernel() is not first

    def test_recompiled_kernel_sees_new_grant(self, engine):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        assert engine.kernel().evaluate(
            sid, "read", "ledger") == (KERNEL_DENY, None)
        engine.grant_permission("Clerk", "read", "ledger")
        assert engine.kernel().evaluate(
            sid, "read", "ledger") == (KERNEL_GRANT, None)


class TestEngineFastPath:
    def test_kernel_path_matches_interpreted(self, engine):
        sid = engine.create_session("alice")
        engine.add_active_role(sid, "PM")
        engine.kernel_enabled = True
        on = [engine.check_access(sid, "write", "ledger"),
              engine.check_access(sid, "read", "ledger"),
              engine.check_access(sid, "read", "memo")]
        engine.kernel_enabled = False
        off = [engine.check_access(sid, "write", "ledger"),
               engine.check_access(sid, "read", "ledger"),
               engine.check_access(sid, "read", "memo")]
        assert on == off == [True, False, True]

    def test_kernel_path_keeps_side_effect_parity(self, engine):
        """Audit records (kind and detail), flight-recorder decisions,
        rule counters and the decision slot must be indistinguishable
        between the compiled and interpreted paths, flat and scoped."""
        def observe(run):
            probe = ActiveRBACEngine(parse_policy(POLICY))
            probe.kernel_enabled = run
            probe.add_scope("org")
            probe.grant_permission("Clerk", "read", "ledger", scope="org")
            sid = probe.create_session("bob")
            probe.add_active_role(sid, "Clerk")
            # an outer check in flight: the inner checks must leave
            # its decision slot alone on both paths
            probe._decision = "outer"
            verdicts = [
                probe.check_access(sid, "read", "memo"),
                probe.check_access(sid, "write", "ledger"),
                probe.check_access(sid, "read", "ledger", scope="org"),
                probe.check_access(sid, "write", "memo", scope="org"),
            ]
            assert probe._decision == "outer"
            path = probe.flight.snapshot()[-1]["path"]
            ca = probe.rules.rules_for_event("checkAccess")[0]
            audit = [(r.kind, r.detail) for r in probe.audit]
            decisions = [
                {key: value for key, value in record.items()
                 if key not in ("seq", "clock", "path", "fallback_reason")}
                for record in probe.flight.snapshot()
                if record["kind"] == "decision"]
            return (path, verdicts, ca.fired_count, ca.then_count,
                    ca.else_count, audit, decisions)

        kernel, interpreted = observe(True), observe(False)
        assert (kernel[0], interpreted[0]) == ("kernel", "interpreted")
        assert kernel[1] == [True, False, True, False]
        assert kernel[1:] == interpreted[1:]

    def test_live_deadline_keeps_kernel_path(self, engine):
        from repro.clock import Deadline
        engine.kernel()  # compile
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        before = engine.obs.kernel_decisions.labels("grant").value
        fallbacks = engine.obs.kernel_decisions.labels("fallback").value
        assert engine.require_access(
            sid, "read", "memo",
            deadline=Deadline(engine.clock, virtual_budget=10.0)) == "kernel"
        assert engine.obs.kernel_decisions.labels("grant").value == before + 1
        assert engine.obs.kernel_decisions.labels("fallback").value == fallbacks

    def test_stats_and_health_surface(self, engine):
        stats = engine.stats()
        assert stats["kernel_enabled"] == 1
        assert stats["kernel_compiled"] == 0
        assert engine.health()["kernel"] == "cold"
        engine.kernel()
        assert engine.stats()["kernel_compiled"] == 1
        assert engine.health()["kernel"] == "fresh"
        engine.grant_permission("Clerk", "read", "ledger")
        assert engine.health()["kernel"] == "stale"
        engine.kernel_enabled = False
        assert engine.health()["kernel"] == "off"

    def test_compile_kernel_helper(self, engine):
        kernel = compile_kernel(engine)
        assert kernel.fresh(engine)


class TestCacheCounters:
    def test_dispatch_cache_round_trip(self, engine):
        rules = engine.rules
        first = rules._dispatch_snapshot("checkAccess")
        assert rules._dispatch_snapshot("checkAccess") is first
        version = rules.version
        ca = rules.rules_for_event("checkAccess")[0]
        rules.quarantine(ca.name)
        assert rules.version > version
        assert rules._dispatch_snapshot("checkAccess") is not first

    def test_hierarchy_invalidations_counter(self, engine):
        hierarchy = engine.model.hierarchy
        hierarchy.seniors("Clerk")  # populate the closure cache
        before = hierarchy.invalidations
        engine.delete_inheritance("PC", "Clerk")
        assert hierarchy.invalidations > before
        assert "PC" not in hierarchy.seniors("Clerk")
        assert engine.model.stats()["closure_invalidations"] == \
            hierarchy.invalidations
