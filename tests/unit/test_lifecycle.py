"""Unit tests for the staged rollout controller: budget arithmetic,
shadow-compare tallies, stage/promote/refuse/rollback transitions and
their persistence artifacts."""

import json
import os

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.config import ConfigSet, PolicyLifecycle, RolloutBudget
from repro.config.configset import policy_checksum
from repro.config.lifecycle import ShadowComparator, load_version
from repro.config.loader import ConfigError, parse_config
from repro.policy.dsl import render_policy

BASE = """
policy p {
  role doctor;
  role nurse;
  user alice;
  user bob;
  permission read on chart;
  permission write on chart;
  grant read on chart to nurse;
  grant write on chart to doctor;
  assign alice to doctor;
  assign bob to nurse;
}
"""


def base_spec():
    return parse_policy(BASE)


def candidate_spec(extra_grant=None, drop_grant=None):
    spec = base_spec()
    if extra_grant:
        spec.grants.append(extra_grant)
    if drop_grant:
        spec.grants.remove(drop_grant)
    return spec


@pytest.fixture
def engine():
    return ActiveRBACEngine.from_policy(base_spec())


def serve_some_traffic(engine, sid, count=60, operation="read",
                       obj="chart"):
    for _ in range(count):
        engine.check_access(sid, operation, obj)


class TestRolloutBudget:
    def test_defaults_require_identical_decisions(self):
        budget = RolloutBudget()
        assert budget.max_divergence == 0.0
        assert budget.describe()["min_samples"] == budget.min_samples


class TestShadowComparator:
    def test_interpreted_path_is_indeterminate(self, engine):
        comparator = ShadowComparator(engine, engine.kernel(),
                                      RolloutBudget(), "t")
        comparator.observe("interpreted", "s1", "bob", "read", "chart",
                           True)
        assert comparator.indeterminate == 1
        assert comparator.samples == 0

    def test_missing_session_is_indeterminate(self, engine):
        comparator = ShadowComparator(engine, engine.kernel(),
                                      RolloutBudget(), "t")
        comparator.observe("kernel", "ghost", "bob", "read", "chart",
                           True)
        assert comparator.indeterminate == 1

    def test_divergence_fails_fast_before_min_samples(self, engine):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        # shadow kernel from a candidate that revoked nurse read
        shadow = ActiveRBACEngine.from_policy(
            candidate_spec(drop_grant=("nurse", "read", "chart")))
        comparator = ShadowComparator(engine, shadow.kernel(),
                                      RolloutBudget(), "t")
        comparator.observe("kernel", sid, "bob", "read", "chart", True)
        assert comparator.divergences == 1
        assert comparator.verdict() == "refuse"
        assert "divergence" in comparator.over_budget()

    def test_matching_samples_promote_after_min(self, engine):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        shadow = ActiveRBACEngine.from_policy(base_spec())
        comparator = ShadowComparator(engine, shadow.kernel(),
                                      RolloutBudget(min_samples=3), "t")
        for _ in range(2):
            comparator.observe("kernel", sid, "bob", "read", "chart",
                               True)
        assert comparator.verdict() == "insufficient"
        comparator.observe("kernel", sid, "bob", "read", "chart", True)
        assert comparator.verdict() == "promote"
        assert comparator.divergence_rate == 0.0


SCOPED = """
policy s {
  role Editor;
  role Reader;
  scope acme;
  user ada;
  user bob;
  permission edit on doc;
  permission read on doc;
  grant edit on doc to Editor;
  grant read on doc to Reader in acme;
  assign ada to Editor in acme;
  assign bob to Reader;
}
"""

WITHOUT_NURSE = """
policy p {
  role doctor;
  user alice;
  user bob;
  permission read on chart;
  permission write on chart;
  grant write on chart to doctor;
  assign alice to doctor;
}
"""


class TestShadowSharesTheKernelLoop:
    """The canary re-decides through the kernel's own role loop, so an
    identical candidate agrees with the live kernel on every check."""

    def tapped(self, live_text, candidate_text):
        engine = ActiveRBACEngine.from_policy(parse_policy(live_text))
        shadow = ActiveRBACEngine.from_policy(parse_policy(candidate_text))
        comparator = ShadowComparator(engine, shadow.kernel(),
                                      RolloutBudget(), "t")
        engine.decision_tap = comparator.observe
        return engine, comparator

    def test_scope_bounded_assignment_flat_check_matches(self):
        engine, comparator = self.tapped(SCOPED, SCOPED)
        sid = engine.create_session("ada")
        engine.add_active_role(sid, "Editor")
        # ada holds Editor only inside acme: the flat check denies
        assert not engine.check_access(sid, "edit", "doc")
        assert engine.check_access(sid, "edit", "doc", scope="acme")
        assert (comparator.samples, comparator.matches) == (2, 2)
        assert comparator.divergences == 0
        assert comparator.verdict() != "refuse"

    def test_kernel_served_scoped_check_is_a_sample(self):
        engine, comparator = self.tapped(SCOPED, SCOPED)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Reader")
        assert engine.check_access(sid, "read", "doc", scope="acme")
        assert not engine.check_access(sid, "edit", "doc", scope="acme")
        assert engine.flight.snapshot()[-1]["path"] == "kernel"
        assert (comparator.samples, comparator.matches) == (2, 2)
        assert comparator.indeterminate == 0

    def test_role_the_candidate_deleted_grants_nothing(self):
        engine, comparator = self.tapped(BASE, WITHOUT_NURSE)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        assert engine.check_access(sid, "read", "chart")
        assert not engine.check_access(sid, "write", "chart")
        assert comparator.indeterminate == 0
        assert (comparator.samples, comparator.divergences) == (2, 1)
        assert comparator.details == [{
            "session": sid, "user": "bob", "operation": "read",
            "object": "chart", "live": True, "shadow": False}]


class TestTransitions:
    def test_adopt_then_stage_monotone(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        assert engine.config_version == 1
        with pytest.raises(ConfigError, match="advance"):
            lifecycle.adopt(1)
        config = ConfigSet.from_spec(candidate_spec(), 1)
        with pytest.raises(ConfigError, match="advance"):
            lifecycle.stage(config)

    def test_checksum_tamper_refused_at_stage(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        config = ConfigSet.from_spec(candidate_spec(), 2)
        tampered = ConfigSet(version=2, spec=config.spec,
                             source=config.source + "\n",
                             checksum=config.checksum)
        with pytest.raises(ConfigError, match="checksum"):
            lifecycle.stage(tampered)

    def test_double_stage_refused(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        lifecycle.stage(ConfigSet.from_spec(candidate_spec(
            extra_grant=("nurse", "write", "chart")), 2))
        with pytest.raises(ConfigError, match="already staged"):
            lifecycle.stage(ConfigSet.from_spec(candidate_spec(), 3))

    def test_clean_canary_auto_promotes(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(
            engine, state_dir=str(tmp_path),
            budget=RolloutBudget(min_samples=5, hold_checks=10))
        lifecycle.adopt(1)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        config = ConfigSet.from_spec(candidate_spec(
            extra_grant=("doctor", "read", "chart")), 2)
        lifecycle.stage(config)
        assert engine.config_candidate == 2
        assert lifecycle.status()["phase"] == "canary"
        serve_some_traffic(engine, sid, 10)
        transition = lifecycle.poll()
        assert transition is not None and transition["promoted"] == 2
        assert engine.config_version == 2
        assert lifecycle.status()["phase"] == "hold"
        assert ("doctor", "read", "chart") in engine.policy.grants
        # hold passes clean, promotion settles
        serve_some_traffic(engine, sid, 12)
        settled = lifecycle.poll()
        assert settled == {"settled": 2, "hold": settled["hold"]}
        assert lifecycle.status()["phase"] == "idle"
        assert not lifecycle.armed
        assert engine.decision_tap is None

    def test_divergent_canary_refuses_and_live_unchanged(
            self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        config = ConfigSet.from_spec(candidate_spec(
            drop_grant=("nurse", "read", "chart")), 2)
        lifecycle.stage(config)
        assert engine.check_access(sid, "read", "chart")  # still live
        transition = lifecycle.poll()
        assert transition is not None and transition["refused"] == 2
        assert "divergence" in transition["reason"]
        assert engine.config_version == 1
        assert engine.check_access(sid, "read", "chart")
        # the refused artifact stays loadable for audit
        assert load_version(str(tmp_path), 2).version == 2
        manifest = json.loads(
            (tmp_path / "configs" / "manifest.json").read_text())
        assert manifest["versions"]["2"]["status"] == "refused"

    def test_note_failure_refuses_canary(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        lifecycle.stage(ConfigSet.from_spec(candidate_spec(
            extra_grant=("nurse", "write", "chart")), 2))
        lifecycle.note_failure("breaker")
        transition = lifecycle.poll()
        assert transition["refused"] == 2
        assert transition["reason"] == "failure:breaker"

    def test_forced_promote_past_failing_canary_rolls_back(
            self, engine, tmp_path):
        lifecycle = PolicyLifecycle(
            engine, state_dir=str(tmp_path),
            budget=RolloutBudget(min_samples=5, hold_checks=50))
        lifecycle.adopt(1)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        config = ConfigSet.from_spec(candidate_spec(
            drop_grant=("nurse", "read", "chart")), 2)
        lifecycle.stage(config)
        report = lifecycle.promote(force=True)
        assert report["promoted"] == 2 and report["forced"]
        assert not engine.check_access(sid, "read", "chart")
        # the hold sees the live answers flip vs the previous kernel
        transition = lifecycle.poll()
        assert transition is not None
        assert transition["rolled_back"] == 2
        assert transition["restored"] == 1
        assert engine.config_version == 1
        assert engine.check_access(sid, "read", "chart")  # restored
        assert engine.config_last_rollback["from_version"] == 2
        assert lifecycle.status()["phase"] == "idle"

    def test_hold_sees_a_grant_on_a_newly_registered_pair(
            self, engine, tmp_path):
        """The previous kernel answers the policy it compiled: a pair
        the promotion registered denies there, so the hold counts the
        new grant as a divergence rather than an indeterminate."""
        lifecycle = PolicyLifecycle(
            engine, state_dir=str(tmp_path),
            budget=RolloutBudget(min_samples=5, hold_checks=50))
        lifecycle.adopt(1)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        spec = candidate_spec(extra_grant=("nurse", "sign", "chart"))
        spec.permissions.append(("sign", "chart"))
        lifecycle.stage(ConfigSet.from_spec(spec, 2))
        lifecycle.promote(force=True)
        assert engine.check_access(sid, "sign", "chart")
        assert lifecycle.hold.divergences == 1
        transition = lifecycle.poll()
        assert transition is not None and transition["rolled_back"] == 2
        assert not engine.check_access(sid, "sign", "chart")

    def test_rollback_preserves_unrelated_drift(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(
            engine, state_dir=str(tmp_path),
            budget=RolloutBudget(min_samples=1, hold_checks=5))
        lifecycle.adopt(1)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        lifecycle.stage(ConfigSet.from_spec(candidate_spec(
            extra_grant=("doctor", "read", "chart")), 2))
        serve_some_traffic(engine, sid, 3)
        lifecycle.promote()
        # concurrent administration OUTSIDE the promote delta
        engine.add_user("carol")
        engine.assign_user("carol", "nurse")
        lifecycle.rollback("operator")
        # the delta is gone, the drift survives
        assert ("doctor", "read", "chart") not in engine.policy.grants
        assert "carol" in engine.model.users
        assert ("carol", "nurse") in engine.policy.assignments

    def test_swap_is_one_epoch_and_kernel_is_fresh(self, engine,
                                                   tmp_path):
        lifecycle = PolicyLifecycle(
            engine, state_dir=str(tmp_path),
            budget=RolloutBudget(min_samples=1, hold_checks=5))
        lifecycle.adopt(1)
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "nurse")
        lifecycle.stage(ConfigSet.from_spec(candidate_spec(
            extra_grant=("doctor", "read", "chart")), 2))
        serve_some_traffic(engine, sid, 3)
        epoch_before = engine.policy_epoch
        report = lifecycle.promote()
        swap = report["swap"]
        assert swap["epoch"] == engine.policy_epoch
        assert swap["kernel_rebuilt"]
        assert swap["pause_ns"] == lifecycle.last_swap_ns > 0
        # the promote applied 1 grant + the swap: epochs moved, but the
        # published kernel matches the final epoch exactly
        assert engine.policy_epoch > epoch_before
        assert engine._kernel.epoch == engine.policy_epoch

    @pytest.mark.parametrize("op, edit, drift", [
        ("set_user_max_roles", lambda s: s.add_user("alice", 2),
         lambda e: e.delete_user("alice")),
        ("set_role_cardinality", lambda s: s.add_role("doctor", 3),
         lambda e: e.delete_role("doctor")),
    ], ids=["set_user_max_roles", "set_role_cardinality"])
    def test_cardinality_op_on_drifted_entity_skipped_without_trace(
            self, engine, tmp_path, op, edit, drift):
        from repro.policy.dsl import render_policy
        lifecycle = PolicyLifecycle(
            engine, state_dir=str(tmp_path),
            budget=RolloutBudget(min_samples=1, hold_checks=50))
        lifecycle.adopt(1)
        candidate = base_spec()
        edit(candidate)
        lifecycle.stage(ConfigSet.from_spec(candidate, 2))
        lifecycle.promote(force=True)
        # live drift removes the entity the rollback's setter targets
        drift(engine)
        before = render_policy(engine.policy)
        report = lifecycle.rollback("operator")
        skipped = [row["op"] for row in report["apply"]["skipped"]]
        assert op in skipped
        assert render_policy(engine.policy) == before

    def test_rollback_without_promotion_refused(self, engine):
        lifecycle = PolicyLifecycle(engine)
        with pytest.raises(ConfigError, match="no promotion"):
            lifecycle.rollback("nope")

    def test_persisted_artifacts_round_trip(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        lifecycle.stage(ConfigSet.from_spec(candidate_spec(
            extra_grant=("nurse", "write", "chart")), 2))
        stored = load_version(str(tmp_path), 2)
        assert stored.checksum == lifecycle.candidate.checksum
        assert os.path.exists(
            os.path.join(str(tmp_path), "configs", "v1.rbac"))
        with pytest.raises(ConfigError, match="no persisted config"):
            load_version(str(tmp_path), 9)


class TestSharedBootSpec:
    """The booted engine and the adopted config set hold one spec; the
    engine's first edit copies it, so the active set never moves."""

    def boot(self, tmp_path):
        config = parse_config(BASE, "rbac", version=1)
        engine = ActiveRBACEngine(config.spec)
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(config=config)
        return engine, lifecycle

    def test_boot_shares_one_spec_and_keeps_no_text(self, tmp_path):
        engine, lifecycle = self.boot(tmp_path)
        active = lifecycle.active
        assert engine.policy is active.spec
        assert active.source is None
        persisted = (tmp_path / "configs" / "v1.rbac").read_text()
        assert persisted == render_policy(active.spec)
        assert policy_checksum(persisted) == active.checksum

    def test_first_admin_op_leaves_the_active_set_unchanged(self, tmp_path):
        engine, lifecycle = self.boot(tmp_path)
        active = lifecycle.active
        adopted_text = render_policy(active.spec)
        engine.grant_permission("nurse", "write", "chart")
        assert engine.policy is not active.spec
        assert ("nurse", "write", "chart") in engine.policy.grants
        assert lifecycle.active is active
        assert render_policy(active.spec) == adopted_text
        assert policy_checksum(adopted_text) == active.checksum
        # the stage diff base is still the adopted set, not the live
        # policy: a candidate adding the same grant is a real change
        report = lifecycle.stage(ConfigSet.from_spec(candidate_spec(
            extra_grant=("nurse", "write", "chart")), 2))
        assert report["diff"]["ops"] == ["grant"]

    def test_adopting_the_live_policy_shares_it_too(self, engine, tmp_path):
        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        engine.grant_permission("nurse", "write", "chart")
        lifecycle.adopt(1)
        assert engine.policy is lifecycle.active.spec
        engine.revoke_permission("nurse", "write", "chart")
        assert ("nurse", "write", "chart") in lifecycle.active.spec.grants
