"""Integration: deleting a role scrubs cross-role constraints and
regenerates partner rules.

Regression suite for the cross-role deletion bug: DR.Nurse is tagged
with role:Doctor (disabling-SoD partners), so deleting Doctor used to
retire Nurse's disable rule without replacing it — leaving disableRole
requests on Nurse to fail closed forever.
"""

import pytest

from repro import ActiveRBACEngine, parse_policy

POLICY = """
policy surgical {
  role Nurse; role Doctor; role Anesthetist;
  role Manager; role JuniorEmp;
  role SysAdmin; role SysAudit;
  user bob;
  assign bob to Nurse;
  assign bob to JuniorEmp;
  disabling_sod cov roles Nurse, Doctor, Anesthetist daily 08:00 to 20:00;
  transaction JuniorEmp during Manager;
  require SysAudit when enabling SysAdmin;
  prerequisite Doctor requires Nurse;
  ssd split roles Doctor, Manager;
  dsd dyn roles Nurse, Doctor;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine.from_policy(parse_policy(POLICY))


class TestPartnerRegeneration:
    def test_partner_keeps_working_after_sod_member_deleted(self, engine):
        engine.delete_role("Doctor")
        # Nurse's rules were regenerated: activation and disabling work
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Nurse")
        engine.advance_time(12 * 3600)
        engine.disable_role("Anesthetist")
        # the SoD set shrank to {Nurse, Anesthetist}: still enforced
        from repro.errors import DeactivationDenied
        with pytest.raises(DeactivationDenied):
            engine.disable_role("Nurse")

    def test_two_member_sod_dissolves_when_one_deleted(self, engine):
        engine.delete_role("Anesthetist")
        engine.delete_role("Doctor")  # cov now below 2 members: gone
        engine.advance_time(12 * 3600)
        engine.disable_role("Nurse")  # no partner constraint remains
        assert not engine.model.is_role_enabled("Nurse")

    def test_anchor_deletion_frees_dependents(self, engine):
        engine.delete_role("Manager")
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "JuniorEmp")  # no anchor constraint
        assert "JuniorEmp" in engine.model.session_roles(sid)

    def test_cfd_partner_deletion(self, engine):
        engine.model.set_role_enabled("SysAdmin", False)
        engine.delete_role("SysAudit")
        engine.enable_role("SysAdmin")  # post-condition scrubbed
        assert engine.model.is_role_enabled("SysAdmin")

    def test_prerequisite_deletion(self, engine):
        engine.delete_role("Nurse")
        engine.assign_user("bob", "Doctor")
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Doctor")  # prerequisite scrubbed
        assert "Doctor" in engine.model.session_roles(sid)

    def test_policy_scrubbed_of_every_mention(self, engine):
        engine.delete_role("Doctor")
        policy = engine.policy
        assert "Doctor" not in policy.roles
        assert all("Doctor" not in c.roles for c in policy.disabling_sod)
        assert all("Doctor" not in s.roles for s in policy.ssd.values())
        assert all("Doctor" not in s.roles for s in policy.dsd.values())
        assert all(p.role != "Doctor" and p.prerequisite != "Doctor"
                   for p in policy.prerequisites)

    def test_verifier_clean_after_deletion(self, engine):
        from repro.synthesis.verify import verify_rule_pool
        engine.delete_role("Doctor")
        findings = verify_rule_pool(engine)
        assert not [f for f in findings if f.check == "stale-role-tag"]
        assert not [f for f in findings
                    if f.check == "orphan-request-event"]

    def test_dsd_set_dissolves(self, engine):
        engine.delete_role("Doctor")
        # dyn was {Nurse, Doctor} cardinality 2: below size, dropped
        assert "dyn" not in engine.policy.dsd
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Nurse")  # no DSD in the way


def test_anchor_deletion_deactivates_dependents_through_the_log(
        engine, tmp_path):
    """Deleting an anchor deactivates every pair of it through
    commit_deactivation: the transaction dependent goes with it, each
    dropped pair writes one ``activation.drop`` record, and no dead
    pair stays in ``current_activation``."""
    from repro.wal import Durability, read_wal
    engine.assign_user("bob", "Manager")
    sid = engine.create_session("bob")
    engine.add_active_role(sid, "Manager")
    engine.add_active_role(sid, "JuniorEmp")
    durability = Durability(engine, str(tmp_path), batch_size=1)
    try:
        engine.delete_role("Manager")
        records, _ = read_wal(durability.wal_path)
    finally:
        durability.close()
    assert engine.model.session_roles(sid) == set()
    drops = sorted(r["data"]["role"] for r in records
                   if r["op"] == "activation.drop")
    assert drops == ["JuniorEmp", "Manager"]
    assert engine.current_activation == {}
