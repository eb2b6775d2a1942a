"""Unit tests for the config differ: the deployment change script, the
rule-relevant seed set, and — the property the whole staged-promotion
design leans on — rule-object identity surviving deployments that do
not change rule shape."""

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.config.differ import diff_specs
from repro.synthesis.regenerate import (
    RegenerationReport,
    moved_roles,
    regenerate_roles,
    rule_signatures,
)

BASE = """
policy p {
  role doctor;
  role nurse;
  role clerk;
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


def spec():
    return parse_policy(BASE)


def swap(engine, new):
    """Move ``engine`` to ``new`` as a config swap does: the diff's ops
    as one batch, then one regeneration of the roles whose rule
    signature the batch moved."""
    before = rule_signatures(engine.policy)
    for op in diff_specs(engine.policy, new).model_ops:
        engine.apply(op, batch=True)
    roles = moved_roles(before, engine.policy)
    return regenerate_roles(engine, roles) if roles \
        else RegenerationReport()


class TestDiffSpecs:
    def test_identical_specs_diff_empty(self):
        diff = diff_specs(spec(), spec())
        assert diff.is_empty
        assert diff.summary()["empty"] is True

    def test_added_entities_are_dependency_ordered(self):
        new = spec()
        new.add_role("auditor")
        new.permissions.append(("audit", "chart"))
        new.grants.append(("auditor", "audit", "chart"))
        new.assignments.append(("alice", "auditor"))
        ops = [op[0] for op in diff_specs(spec(), new).model_ops]
        assert ops.index("add_role") < ops.index("grant")
        assert ops.index("add_permission") < ops.index("grant")
        assert ops.index("grant") < ops.index("assign_user")

    def test_removals_precede_additions(self):
        old = spec()
        new = spec()
        new.grants.remove(("nurse", "read", "chart"))
        new.add_role("auditor")
        ops = [op[0] for op in diff_specs(old, new).model_ops]
        assert ops.index("revoke") < ops.index("add_role")

    def test_removed_role_is_torn_down_after_its_references(self):
        old = spec()
        new = spec()
        new.roles.pop("clerk")
        diff = diff_specs(old, new)
        assert diff.removed_roles == {"clerk"}
        assert ("delete_role", "clerk") in diff.model_ops

    def test_grant_only_change_seeds_no_regeneration(self):
        # grants are decision-time model state, not rule shape: the
        # differ must not seed regeneration for them
        new = spec()
        new.grants.append(("clerk", "read", "chart"))
        diff = diff_specs(spec(), new)
        assert diff.regen_seeds == set()
        assert ("grant", "clerk", "read", "chart") in diff.model_ops

    def test_descriptor_change_seeds_exactly_its_role(self):
        from repro.gtrbac.constraints import DurationConstraint
        new = spec()
        new.durations.append(DurationConstraint("nurse", 60.0, None))
        diff = diff_specs(spec(), new)
        assert diff.changed_roles == {"nurse"}
        assert diff.regen_seeds == {"nurse"}

    def test_new_role_is_a_regen_seed(self):
        new = spec()
        new.add_role("auditor")
        assert diff_specs(spec(), new).regen_seeds == {"auditor"}

    def test_privacy_and_threshold_flags(self):
        new = spec()
        new.purposes.append(("ops", None))
        diff = diff_specs(spec(), new)
        assert ("add_purpose", "ops", None) in diff.model_ops
        assert not any("threshold" in op[0] for op in diff.model_ops)


class TestRuleSignature:
    def test_signature_ignores_grants(self):
        new = spec()
        new.grants.append(("clerk", "read", "chart"))
        assert rule_signatures(spec())["clerk"] \
            == rule_signatures(new)["clerk"]

    def test_signature_sees_cardinality(self):
        new = spec()
        new.add_role("clerk", 2)
        assert rule_signatures(spec())["clerk"] \
            != rule_signatures(new)["clerk"]


class TestRuleIdentityPreservation:
    """The ISSUE's headline satellite: a policy push whose delta does
    not touch a role's rule shape must leave that role's rule objects
    untouched — same identity, same quarantine/fault state."""

    def test_grant_only_push_regenerates_nothing(self):
        engine = ActiveRBACEngine.from_policy(spec())
        new = spec()
        new.grants.append(("clerk", "read", "chart"))
        before = {rule.name: id(rule) for rule in engine.rules}
        report = swap(engine, new)
        assert report.rules_touched == 0
        assert {rule.name: id(rule) for rule in engine.rules} == before

    def test_untouched_roles_keep_identity_and_quarantine(self):
        from repro.gtrbac.constraints import DurationConstraint
        engine = ActiveRBACEngine.from_policy(spec())
        # poison one clerk rule's containment state: a deployment that
        # does not change clerk must not reset it
        clerk_rules = engine.rules.by_tags(**{"role:clerk": "1"})
        assert clerk_rules
        victim = clerk_rules[0]
        victim.quarantined = True
        victim.fault_count = 7
        before = {rule.name: id(rule) for rule in engine.rules}

        new = spec()
        new.durations.append(DurationConstraint("nurse", 60.0, None))
        report = swap(engine, new)

        assert report.affected_roles == {"nurse"}
        after = {rule.name: id(rule) for rule in engine.rules}
        for name, ident in after.items():
            if "nurse" not in name.lower():
                assert before.get(name) == ident, (
                    f"rule {name} was churned by an unrelated push")
        survivor = engine.rules.by_tags(**{"role:clerk": "1"})[0]
        assert survivor is victim
        assert survivor.quarantined
        assert survivor.fault_count == 7

    def test_removed_roles_are_excluded_from_seeds(self):
        engine = ActiveRBACEngine.from_policy(spec())
        new = spec()
        new.roles.pop("clerk")
        diff = diff_specs(engine.policy, new)
        # clerk is removed, not regenerated; seeds must not include it
        assert "clerk" not in diff.regen_seeds
        report = swap(engine, new)
        assert "clerk" not in report.affected_roles

    def test_empty_seed_set_is_a_true_noop(self):
        engine = ActiveRBACEngine.from_policy(spec())
        version_before = engine.rules.version
        report = swap(engine, spec())
        assert report.rules_touched == 0
        assert engine.rules.version == version_before
