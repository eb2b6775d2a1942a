"""End-to-end guard demo for the safe-rollout pipeline (ISSUE 9).

The acceptance scenario: a *divergent* policy config is staged while
live traffic flows; the shadow-compare canary detects the divergence
and promotion is refused; an operator forcing the promotion anyway is
auto-rolled-back by the hold window; at no point does a live decision
fail open; the WAL records the stage → refuse / promote → rollback
sequence with version ids; and the recorded decision stream replays
deterministically under any pinned config version.
"""

from __future__ import annotations

import json

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.config import (
    ConfigSet,
    PolicyLifecycle,
    RolloutBudget,
    load_config,
    replay_wal,
)
from repro.config.lifecycle import load_version
from repro.config.replay import diff_streams
from repro.errors import AdministrationError, ReproError
from repro.serve.shard import LIFECYCLE_OPS, ShardRouter
from repro.wal import Durability, read_wal, recover

BASE = """
policy demo {
  role doctor;
  role nurse;
  user alice;
  user bob;
  hierarchy doctor > nurse;
  permission read on chart;
  permission write on chart;
  grant read on chart to nurse;
  grant write on chart to doctor;
  assign alice to doctor;
  assign bob to nurse;
}
"""


def spec_with(extra_grants=(), drop_grants=(), extra_roles=()):
    spec = parse_policy(BASE)
    for role in extra_roles:
        spec.add_role(role)
    for grant in drop_grants:
        spec.grants.remove(grant)
    for grant in extra_grants:
        spec.grants.append(grant)
    return spec


@pytest.fixture
def stack(tmp_path):
    engine = ActiveRBACEngine.from_policy(parse_policy(BASE))
    durability = Durability(engine, str(tmp_path))
    engine.decision_journal = True
    lifecycle = PolicyLifecycle(
        engine, budget=RolloutBudget(min_samples=20, hold_checks=30))
    lifecycle.adopt(1)
    sids = {"alice": engine.create_session("alice"),
            "bob": engine.create_session("bob")}
    engine.add_active_role(sids["alice"], "doctor")
    engine.add_active_role(sids["bob"], "nurse")
    yield engine, durability, lifecycle, sids
    durability.close()


def drive(engine, sids, rounds=30):
    """Live traffic; returns the decision vector (must never change
    while a canary is mirroring)."""
    decisions = []
    for _ in range(rounds):
        decisions.append(engine.check_access(sids["bob"], "read",
                                             "chart"))
        decisions.append(engine.check_access(sids["alice"], "write",
                                             "chart"))
        decisions.append(engine.check_access(sids["bob"], "write",
                                             "chart"))
    return decisions


EXPECTED = [True, True, False]  # bob-read, alice-write, bob-write


class TestGuardDemo:
    def test_divergent_config_is_refused_with_zero_fail_open(
            self, stack, tmp_path):
        engine, durability, lifecycle, sids = stack
        baseline = drive(engine, sids, rounds=5)
        assert baseline == EXPECTED * 5

        # candidate revokes nurse read — live traffic diverges
        bad = ConfigSet.from_spec(
            spec_with(drop_grants=[("nurse", "read", "chart")]), 2)
        lifecycle.stage(bad)
        during = drive(engine, sids, rounds=10)
        # zero fail-open: live decisions identical while shadowing
        assert during == EXPECTED * 10

        transition = lifecycle.poll()
        assert transition["refused"] == 2
        assert "divergence" in transition["reason"]
        assert engine.config_version == 1
        assert engine.config_candidate is None
        # the canary kept the evidence
        details = transition["canary"]["details"]
        assert any(row["operation"] == "read" and row["live"]
                   and not row["shadow"] for row in details)
        # explicit promote after refuse is impossible (nothing staged)
        from repro.config.loader import ConfigError
        with pytest.raises(ConfigError, match="no candidate"):
            lifecycle.promote()

    def test_forced_promotion_auto_rolls_back(self, stack, tmp_path):
        engine, durability, lifecycle, sids = stack
        bad = ConfigSet.from_spec(
            spec_with(drop_grants=[("nurse", "read", "chart")]), 2)
        lifecycle.stage(bad)
        drive(engine, sids, rounds=5)
        assert lifecycle.comparator.verdict() == "refuse"

        report = lifecycle.promote(force=True)
        assert report["promoted"] == 2 and report["forced"]
        # the promotion is live: nurse read now really denies
        assert not engine.check_access(sids["bob"], "read", "chart")

        drive(engine, sids, rounds=2)  # hold sees the flips
        transition = lifecycle.poll()
        assert transition["rolled_back"] == 2
        assert transition["restored"] == 1
        assert "divergence" in transition["reason"] \
            or "hold" in transition["reason"]
        # rollback restored the pre-promotion answers
        assert drive(engine, sids, rounds=3) == EXPECTED * 3
        assert engine.config_version == 1
        assert engine.config_last_rollback["from_version"] == 2
        assert engine.config_last_rollback["reason"] == \
            transition["reason"]
        health = engine.health()
        assert health["config_version"] == 1
        assert health["config_last_rollback"]["from_version"] == 2

    def test_wal_records_the_whole_story_with_version_ids(
            self, stack, tmp_path):
        engine, durability, lifecycle, sids = stack
        bad = ConfigSet.from_spec(
            spec_with(drop_grants=[("nurse", "read", "chart")]), 2)
        lifecycle.stage(bad)
        drive(engine, sids, rounds=3)
        lifecycle.poll()  # refuse
        good = ConfigSet.from_spec(
            spec_with(extra_grants=[("doctor", "read", "chart")]), 3)
        lifecycle.stage(good)
        drive(engine, sids, rounds=10)
        lifecycle.poll()  # promote
        drive(engine, sids, rounds=10)
        lifecycle.poll()  # settle
        durability.wal.sync()

        records, _report = read_wal(durability.wal.path)
        configs = [(r["op"], r["data"].get("version"))
                   for r in records if r["op"].startswith("config.")]
        assert configs == [
            ("config.promote", 1),   # adopt
            ("config.stage", 2),
            ("config.refuse", 2),
            ("config.stage", 3),
            ("config.promote", 3),
        ]
        promote = next(r for r in records
                       if r["op"] == "config.promote"
                       and r["data"]["version"] == 3)
        # the swap record carries the full post-swap policy and the
        # epoch it published
        assert "grant read on chart to doctor"in promote["data"]["policy"]
        assert promote["data"]["epoch"] == engine.policy_epoch
        # decision stream was journaled alongside
        assert sum(1 for r in records
                   if r["op"] == "decision.check") >= 60

    def test_recovery_restores_the_promoted_version(self, stack,
                                                    tmp_path):
        engine, durability, lifecycle, sids = stack
        good = ConfigSet.from_spec(
            spec_with(extra_grants=[("doctor", "read", "chart")]), 2)
        lifecycle.stage(good)
        drive(engine, sids, rounds=10)
        assert lifecycle.poll()["promoted"] == 2
        durability.wal.sync()

        recovered, _report = recover(str(tmp_path))
        assert recovered.config_version == 2
        assert recovered.policy_epoch == engine.policy_epoch
        assert ("doctor", "read", "chart") in recovered.policy.grants


class TestDescriptorRollout:
    def test_dropping_a_closed_window_matches_a_fresh_boot(self):
        """Promoting a config that drops a role's enabling window while
        the window is closed leaves the role as a fresh boot of that
        config has it: enabled, and activatable."""
        windowed = BASE.replace(
            "assign bob to nurse;",
            "assign bob to nurse;\n  enable nurse daily 09:00 to 17:00;")
        engine = ActiveRBACEngine.from_policy(parse_policy(windowed))
        assert not engine.model.is_role_enabled("nurse")  # 00:00
        lifecycle = PolicyLifecycle(engine)
        lifecycle.adopt(1)
        lifecycle.stage(ConfigSet.from_spec(parse_policy(BASE), 2))
        lifecycle.promote(force=True)
        fresh = ActiveRBACEngine.from_policy(parse_policy(BASE))

        def activates(live):
            try:
                live.add_active_role(live.create_session("bob"), "nurse")
            except ReproError:
                return False
            return True

        assert engine.model.is_role_enabled("nurse") \
            == fresh.model.is_role_enabled("nurse") is True
        assert activates(engine) == activates(fresh) is True

    def test_reparenting_a_named_purpose_matches_a_fresh_boot(self):
        """Promoting a config that moves a purpose an object policy and
        a child purpose name under a new parent applies every op, and
        the live purpose tree decides as a fresh boot of that config."""
        tree = ("assign bob to nurse;\n  purpose care; purpose ops;\n"
                "  purpose care.x under {};\n"
                "  purpose care.x.y under care.x;\n"
                "  object_policy read on chart for care.x;\n"
                "  object_policy write on chart for care;")
        old, new = (parse_policy(BASE.replace(
            "assign bob to nurse;", tree.format(parent)))
            for parent in ("care", "ops"))
        engine = ActiveRBACEngine.from_policy(old)
        lifecycle = PolicyLifecycle(engine)
        lifecycle.adopt(1)
        lifecycle.stage(ConfigSet.from_spec(new, 2))
        report = lifecycle.promote(force=True)
        fresh = ActiveRBACEngine.from_policy(new)

        assert report["apply"]["skipped"] == []
        for field in ("purposes", "object_policies"):
            assert set(getattr(engine.policy, field)) \
                == set(getattr(new, field))
        probes = [(op, purpose) for op in ("read", "write")
                  for purpose in ("care", "ops", "care.x", "care.x.y")]
        assert [engine.privacy.compliant("chart", *p) for p in probes] \
            == [fresh.privacy.compliant("chart", *p) for p in probes]
        assert engine.privacy.compliant("chart", "write", "care.x") \
            == (False, ())


class TestDeterministicReplay:
    def test_same_version_replays_byte_identically(self, stack,
                                                   tmp_path):
        engine, durability, lifecycle, sids = stack
        good = ConfigSet.from_spec(
            spec_with(extra_grants=[("doctor", "read", "chart")]), 2)
        lifecycle.stage(good)
        drive(engine, sids, rounds=10)
        lifecycle.poll()
        drive(engine, sids, rounds=10)
        lifecycle.poll()
        durability.wal.sync()

        config = load_version(str(tmp_path), 2)
        first = replay_wal(str(tmp_path), config)
        second = replay_wal(str(tmp_path), config)
        assert first.digest and first.digest == second.digest
        assert not first.gaps
        assert first.pinned_swaps >= 2  # adopt + promote
        assert len(first.decisions) >= 60

    def test_cross_version_diff_pinpoints_the_change(self, stack,
                                                     tmp_path):
        engine, durability, lifecycle, sids = stack
        bad = ConfigSet.from_spec(
            spec_with(drop_grants=[("nurse", "read", "chart")]), 2)
        lifecycle.stage(bad)
        drive(engine, sids, rounds=10)
        lifecycle.poll()  # refused — but the artifact persists
        durability.wal.sync()

        under_v1 = replay_wal(str(tmp_path),
                              load_version(str(tmp_path), 1))
        under_v2 = replay_wal(str(tmp_path),
                              load_version(str(tmp_path), 2))
        diff = diff_streams(under_v1, under_v2)
        assert not diff["identical"]
        assert diff["differing"]
        # every divergence is exactly the revoked nurse read
        assert all(row["operation"] == "read" and row["v1"]
                   and not row["v2"] for row in diff["differing"])
        # replaying the deployed version reproduces the live stream
        assert not under_v1.mismatches


class TestServeReloadPath:
    def test_admin_reload_stages_and_auto_promotes(self, tmp_path):
        config_file = tmp_path / "deploy.yaml"
        config_file.write_text(
            "version: 2\npolicy: |\n"
            + "".join(f"  {line}\n" for line in
                      BASE.strip().splitlines()))
        engine = ActiveRBACEngine.from_policy(parse_policy(BASE))
        durability = Durability(engine, str(tmp_path / "state"))
        router = ShardRouter()
        shard = router.add_shard("demo", engine, durability,
                                 config_path=str(config_file))
        shard.ensure_lifecycle(
            budget=RolloutBudget(min_samples=10, hold_checks=10))

        assert "reload" in LIFECYCLE_OPS
        report = shard.admin_op("reload", {})
        # identical policy content: diff is empty, canary needs samples
        assert report["staged"] == 2
        assert engine.config_version == 1  # auto-adopted baseline
        assert engine.config_candidate == 2
        for _ in range(15):
            shard.checked("bob", "read", "chart")
        assert engine.config_version == 2
        assert shard.lifecycle.status()["phase"] == "hold"
        for _ in range(15):  # hold window passes clean → settle
            shard.checked("bob", "read", "chart")
        assert shard.lifecycle.status()["phase"] == "idle"
        # health surfaces the lifecycle block
        health = shard.health()
        assert health["lifecycle"]["active_version"] == 2
        assert health["config_version"] == 2
        # an unchanged re-reload is a no-op
        again = shard.admin_op("reload", {})
        assert again["unchanged"] is True
        durability.close()

    def test_reload_without_any_config_is_an_admin_error(self):
        engine = ActiveRBACEngine.from_policy(parse_policy(BASE))
        router = ShardRouter()
        shard = router.add_shard("demo", engine)
        with pytest.raises(AdministrationError, match="no config path"):
            shard.admin_op("reload", {})

    def test_inline_source_stage_with_status(self, tmp_path):
        engine = ActiveRBACEngine.from_policy(parse_policy(BASE))
        durability = Durability(engine, str(tmp_path))
        router = ShardRouter()
        shard = router.add_shard("demo", engine, durability)
        shard.ensure_lifecycle(
            budget=RolloutBudget(min_samples=5, hold_checks=5))
        source = json.dumps({"version": 2, "policy": BASE})
        report = shard.admin_op("config_stage",
                                {"source": source, "format": "json"})
        assert report["staged"] == 2
        status = shard.admin_op("config_status", {})
        assert status["status"]["phase"] == "canary"
        # nothing promoted yet: rollback has no baseline to restore
        with pytest.raises(AdministrationError, match="no promotion"):
            shard.admin_op("config_rollback", {"reason": "x"})
        durability.close()

    def test_dsl_config_path_auto_versions(self, tmp_path):
        dsl_file = tmp_path / "deploy.rbac"
        dsl_file.write_text(BASE)
        engine = ActiveRBACEngine.from_policy(parse_policy(BASE))
        router = ShardRouter()
        shard = router.add_shard("demo", engine,
                                 config_path=str(dsl_file))
        report = shard.admin_op("reload", {})
        # raw DSL has no version key: the shard assigns the next id
        assert report["staged"] == 2
        assert engine.config_version == 1
