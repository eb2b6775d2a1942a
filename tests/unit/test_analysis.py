"""Unit tests for policy analysis: entitlement reviews, hygiene."""

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.analysis import permission_matrix, policy_hygiene, who_can

POLICY = """
policy analysed {
  role Lead; role Dev; role Intern; role Ghost; role Twin;
  hierarchy Lead > Dev;
  user wei; user ana;
  assign wei to Lead;
  assign ana to Intern;
  permission push on repo;
  permission read on repo;
  permission unused on nowhere;
  grant push on repo to Dev;
  grant read on repo to Intern;
  grant push on repo to Twin;
  grant read on repo to Twin;
  dsd pair roles Dev, Intern;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine.from_policy(parse_policy(POLICY))


class TestWhoCan:
    def test_hierarchy_included(self, engine):
        pushers = who_can(engine, "push", "repo")
        assert "wei" in pushers
        assert pushers["wei"] >= {"Dev", "Lead"}
        assert "ana" not in pushers

    def test_unknown_permission_nobody(self, engine):
        assert who_can(engine, "fly", "moon") == {}

    def test_scope_bounded_assignment_is_not_flat_entitlement(self):
        engine = ActiveRBACEngine.from_policy(parse_policy("""
        policy bounded {
          role R; user u;
          permission read on doc; grant read on doc to R;
        }"""))
        engine.add_scope("org")
        engine.assign_user("u", "R", scope="org")
        sid = engine.create_session("u")
        engine.add_active_role(sid, "R")
        # the live flat check and the explainer both deny ...
        assert not engine.check_access(sid, "read", "doc")
        assert not engine.explain(sid, "read", "doc").allowed
        assert engine.check_access(sid, "read", "doc", scope="org")
        # ... so the flat entitlement review must not list u
        assert who_can(engine, "read", "doc") == {}

    def test_permission_matrix_effective(self, engine):
        matrix = permission_matrix(engine)
        assert ("push", "repo") in matrix["Lead"]  # via Dev
        assert matrix["Ghost"] == set()


class TestHygiene:
    def test_findings(self, engine):
        report = policy_hygiene(engine)
        assert "Ghost" in report.empty_roles
        assert "Ghost" in report.permissionless_roles
        assert ("unused", "nowhere") in report.unused_permissions
        # Lead inherits exactly Dev's permissions and adds none of its
        # own: an effectively redundant pair
        assert ("Dev", "Lead") in report.redundant_role_pairs
        assert "Twin" in report.empty_roles  # nobody authorized
        assert not report.is_clean()
        text = report.describe()
        assert "Ghost" in text and "nowhere" in text

    def test_clean_policy(self):
        engine = ActiveRBACEngine.from_policy(parse_policy("""
        policy clean {
          role A; user u; assign u to A;
          permission read on doc; grant read on doc to A;
        }"""))
        report = policy_hygiene(engine)
        assert report.is_clean()
        assert report.describe() == "policy hygiene: clean"
