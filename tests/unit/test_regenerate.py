"""Unit tests for policy change and rule regeneration."""

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.config import ConfigSet, PolicyLifecycle
from repro.gtrbac.periodic import PeriodicInterval
from repro.synthesis.regenerate import (
    PolicyEditor,
    affected_roles,
    full_regeneration,
    moved_roles,
    regenerate_roles,
    rule_signatures,
    simulate_manual_edit,
)

POLICY = """
policy p {
  role A; role B; role C; role D;
  role Nurse; role Doctor;
  user bob;
  hierarchy A > B;
  disabling_sod cov roles Nurse, Doctor daily 10:00 to 17:00;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine.from_policy(parse_policy(POLICY))


class TestAffectedRoles:
    def test_independent_role_stays_alone(self, engine):
        assert affected_roles(engine, {"C"}) == {"C"}

    def test_cross_role_constraint_pulls_partner(self, engine):
        assert affected_roles(engine, {"Nurse"}) == {"Nurse", "Doctor"}

    def test_closure_is_transitive(self, engine):
        editor = PolicyEditor(engine)
        editor.add_transaction("Doctor", "C")  # Doctor depends on C
        closure = affected_roles(engine, {"Nurse"})
        assert closure == {"Nurse", "Doctor", "C"}


class TestRegenerateRoles:
    def test_only_seed_roles_touched(self, engine):
        pool_before = {rule.name for rule in engine.rules}
        report = regenerate_roles(engine, {"C"})
        assert report.affected_roles == {"C"}
        assert all("C" in name for name in report.removed_rules)
        assert {rule.name for rule in engine.rules} == pool_before

    def test_cross_role_rules_regenerated_once(self, engine):
        report = regenerate_roles(engine, {"Nurse"})
        assert report.affected_roles == {"Nurse", "Doctor"}
        # DR rules for both roles removed and re-added exactly once
        assert report.removed_rules.count("DR.Nurse") == 1
        assert report.added_rules.count("DR.Nurse") == 1
        assert report.added_rules.count("DR.Doctor") == 1

    def test_report_describe(self, engine):
        report = regenerate_roles(engine, {"C"})
        assert "C" in report.describe()
        assert report.rules_touched > 0

    def test_regeneration_recorded_in_audit(self, engine):
        regenerate_roles(engine, {"C"})
        assert engine.audit.by_kind("admin.regenerate")

    def test_enforcement_still_works_after_regen(self, engine):
        engine.add_user("alice")
        engine.assign_user("alice", "C")
        regenerate_roles(engine, {"C"})
        sid = engine.create_session("alice")
        engine.add_active_role(sid, "C")
        assert "C" in engine.model.session_roles(sid)


class TestFullRegeneration:
    def test_touches_every_role(self, engine):
        report = full_regeneration(engine)
        assert report.affected_roles == set(engine.policy.roles)
        assert len(report.removed_rules) == len(report.added_rules)

    def test_pool_identical_after(self, engine):
        before = {rule.name for rule in engine.rules}
        full_regeneration(engine)
        assert {rule.name for rule in engine.rules} == before


class TestManualEditSimulation:
    def test_scan_cost_is_pool_size(self, engine):
        estimate = simulate_manual_edit(engine, {"C"})
        assert estimate.rules_scanned == len(engine.rules)
        assert estimate.rules_edited == 5  # C's localized rule suite
        assert estimate.expected_errors == pytest.approx(5 * 0.05)
        assert estimate.effort_units == len(engine.rules) + 50.0

    def test_cross_role_change_edits_more(self, engine):
        solo = simulate_manual_edit(engine, {"C"})
        cross = simulate_manual_edit(engine, {"Nurse"})
        assert cross.rules_edited > solo.rules_edited


class TestPolicyEditor:
    def test_day_doctor_shift_change(self, engine):
        """The paper's §5 example: change the shift from 8-16 to 9-17."""
        editor = PolicyEditor(engine)
        editor.set_enabling_window(
            "Doctor", PeriodicInterval.daily("08:00", "16:00"))
        report = editor.set_enabling_window(
            "Doctor", PeriodicInterval.daily("09:00", "17:00"))
        assert "Doctor" in report.affected_roles
        windows = [w for w in engine.policy.enabling_windows
                   if w.role == "Doctor"]
        assert len(windows) == 1
        assert windows[0].interval.start_tod == 9 * 3600

    def test_shift_change_behaviour(self, engine):
        engine.add_user("alice")
        engine.assign_user("alice", "D")
        editor = PolicyEditor(engine)
        editor.set_enabling_window(
            "D", PeriodicInterval.daily("08:00", "16:00"))
        engine.advance_time(8.5 * 3600)  # 08:30: enabled under old shift
        assert engine.model.is_role_enabled("D")
        editor.set_enabling_window(
            "D", PeriodicInterval.daily("09:00", "17:00"))
        # regeneration re-evaluates: 08:30 is outside the new shift
        assert not engine.model.is_role_enabled("D")
        engine.advance_time(3600)  # 09:30
        assert engine.model.is_role_enabled("D")

    def test_clear_enabling_window(self, engine):
        editor = PolicyEditor(engine)
        editor.set_enabling_window(
            "D", PeriodicInterval.daily("08:00", "16:00"))
        assert not engine.model.is_role_enabled("D")  # midnight
        editor.clear_enabling_window("D")
        assert engine.model.is_role_enabled("D")
        assert not [w for w in engine.policy.enabling_windows
                    if w.role == "D"]

    def test_set_and_clear_duration(self, engine):
        editor = PolicyEditor(engine)
        editor.set_duration("C", 100.0)
        assert "TSOD.C" in engine.rules
        editor.set_duration("C", 200.0)  # replace, not duplicate
        assert len([d for d in engine.policy.durations
                    if d.role == "C"]) == 1
        editor.clear_duration("C")
        assert "TSOD.C" not in engine.rules

    def test_add_remove_disabling_sod(self, engine):
        from repro.gtrbac.constraints import DisablingTimeSoD
        editor = PolicyEditor(engine)
        constraint = DisablingTimeSoD(
            "pair", frozenset({"A", "C"}), PeriodicInterval.always())
        report = editor.add_disabling_sod(constraint)
        assert report.affected_roles >= {"A", "C"}
        assert engine.rules.get("DR.A").matches_tags(**{"role:C": "1"})
        editor.remove_disabling_sod("pair")
        assert not engine.rules.get("DR.A").matches_tags(**{"role:C": "1"})

    def test_add_prerequisite(self, engine):
        editor = PolicyEditor(engine)
        editor.add_prerequisite("C", "D")
        text = engine.rules.get("AAR1.C").render()
        assert "prerequisiteRoles" in text

    def test_add_post_condition(self, engine):
        editor = PolicyEditor(engine)
        editor.add_post_condition("A", "B")
        assert "enableRoleB" in engine.rules.get("ER.A").render()

    def test_add_transaction(self, engine):
        editor = PolicyEditor(engine)
        editor.add_transaction("C", "D")
        assert "ASEC.D" in engine.rules

    def test_set_role_cardinality(self, engine):
        editor = PolicyEditor(engine)
        editor.set_role_cardinality("C", 2)
        assert engine.model.roles["C"].max_active_users == 2
        assert "Cardinality" in engine.rules.get("CC.C").render()

    def test_set_user_max_roles_no_regen(self, engine):
        editor = PolicyEditor(engine)
        pool = {rule.name for rule in engine.rules}
        editor.set_user_max_roles("bob", 1)
        assert engine.model.users["bob"].max_active_roles == 1
        assert {rule.name for rule in engine.rules} == pool

    def test_add_context_constraint(self, engine):
        from repro.extensions.context import ContextConstraint, ContextOp
        editor = PolicyEditor(engine)
        editor.add_context_constraint(ContextConstraint(
            "C", "location", ContextOp.EQ, "office"))
        assert "contextConstraints" in engine.rules.get("AAR1.C").render()


class TestGuardedEdits:
    """A descriptor edit is an op of the engine's op table: the
    validator's checks guard it, a refused edit leaves no trace, and a
    repeated one changes nothing and costs no epoch."""

    @pytest.mark.parametrize("edit", [
        lambda ed: ed.add_prerequisite("ghost", "A"),
        lambda ed: ed.add_transaction("C", "ghost"),
        lambda ed: ed.set_duration("ghost", 60.0),
        lambda ed: ed.set_duration("C", 60.0, "ghost"),
    ], ids=["prerequisite", "transaction", "duration-role",
            "duration-user"])
    def test_unknown_name_is_refused_untouched(self, engine, edit):
        from repro import persistence
        from repro.errors import PolicyValidationError
        from repro.policy.validator import validate_policy
        before, epoch = persistence.snapshot(engine), engine.policy_epoch
        with pytest.raises(PolicyValidationError, match="undeclared"):
            edit(PolicyEditor(engine))
        assert persistence.snapshot(engine) == before
        assert engine.policy_epoch == epoch
        assert validate_policy(engine.policy) == []

    @pytest.mark.parametrize("edit", [
        lambda ed: ed.add_prerequisite("C", "D"),
        lambda ed: ed.add_transaction("C", "D"),
        lambda ed: ed.set_duration("C", 60.0),
        lambda ed: ed.set_enabling_window(
            "C", PeriodicInterval.daily("08:00", "16:00")),
    ], ids=["prerequisite", "transaction", "duration", "window"])
    def test_repeated_edit_changes_nothing(self, engine, edit):
        from repro import persistence
        editor = PolicyEditor(engine)
        edit(editor)
        before, epoch = persistence.snapshot(engine), engine.policy_epoch
        assert edit(editor) is None
        assert persistence.snapshot(engine) == before
        assert engine.policy_epoch == epoch


class TestOneRegenerationRule:
    """Deleting a role moves the rule signature of every role it shared
    a hierarchy edge or a DSD set with.  The single admin op, a config
    swap and a fresh boot of the resulting policy must then hold the
    same rules: here ``B`` is left with neither, so ``AAR1.B``."""

    @pytest.mark.parametrize("policy", [
        "policy p { role A; role B; role C; hierarchy A > B; }",
        "policy p { role A; role B; role C; "
        "dsd D roles A, B cardinality 2; }",
    ], ids=["only-hierarchy-neighbour", "dsd-below-cardinality"])
    def test_deleting_the_partner_agrees_on_every_path(self, policy):
        spec = parse_policy(policy)
        after = spec.clone()
        after.apply(("delete_role", "A"))

        single = ActiveRBACEngine.from_policy(spec)
        single.apply(("delete_role", "A"))
        swapped = ActiveRBACEngine.from_policy(spec)
        lifecycle = PolicyLifecycle(swapped)
        lifecycle.adopt(1)
        lifecycle.stage(ConfigSet.from_spec(after, 2))
        lifecycle.promote(force=True)
        booted = ActiveRBACEngine.from_policy(after)

        def names(engine):
            return {rule.name for rule in engine.rules}
        assert "AAR1.B" in names(booted)
        assert names(single) == names(booted)
        assert names(swapped) == names(booted)

    def test_direct_policy_write_drops_the_kept_signatures(self):
        """``apply`` keeps the live policy's rule signatures for the
        next op.  After a direct write of ``engine.policy`` they no
        longer apply: the next op regenerates the roles that op moved in
        the written policy, not the roles the write itself moved."""
        engine = ActiveRBACEngine.from_policy(parse_policy(
            "policy p { role A; role B; }"))
        report = engine.apply(("add_role", "C", None))
        assert report.seed_roles == {"C"}
        written = engine.policy.clone()
        written.add_hierarchy("A", "B")
        engine.policy = written
        before = rule_signatures(written)
        report = engine.apply(("add_role", "D", None))
        assert report.seed_roles == {"D"} == moved_roles(before, written)
