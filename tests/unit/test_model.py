"""Unit tests for the RBAC model: ANSI administrative commands and
system functions."""

import pytest

from repro.errors import (
    AdministrationError,
    DuplicateEntityError,
    SsdViolationError,
    UnknownPermissionError,
    UnknownRoleError,
    UnknownSessionError,
    UnknownUserError,
)
from repro.rbac.model import Permission, RBACModel


@pytest.fixture
def model():
    m = RBACModel()
    m.add_user("bob")
    m.add_user("carol")
    for role in ("PM", "PC", "AC", "Clerk"):
        m.add_role(role)
    m.add_inheritance("PM", "PC")
    m.add_inheritance("PC", "Clerk")
    m.add_inheritance("AC", "Clerk")
    m.add_permission("create", "purchase_order")
    m.add_permission("read", "ledger")
    m.grant_permission("PC", "create", "purchase_order")
    m.grant_permission("Clerk", "read", "ledger")
    return m


class TestElementAdministration:
    def test_duplicate_user_rejected(self, model):
        with pytest.raises(DuplicateEntityError):
            model.add_user("bob")

    def test_duplicate_role_rejected(self, model):
        with pytest.raises(DuplicateEntityError):
            model.add_role("PM")

    def test_delete_user_destroys_sessions(self, model):
        model.create_session_record("s1", "bob")
        model.delete_user("bob")
        assert "s1" not in model.sessions
        with pytest.raises(UnknownUserError):
            model.assigned_roles("bob")

    def test_delete_role_cleans_everywhere(self, model):
        model.assign_user("bob", "PC")
        model.create_session_record("s1", "bob")
        model.add_session_role_record("s1", "PC")
        model.create_ssd_set("s", {"PC", "AC"}, 2)
        model.delete_role("PC")
        assert "PC" not in model.roles
        assert model.assigned_roles("bob") == set()
        assert model.session_roles("s1") == set()
        assert "PC" not in model.hierarchy
        # SSD set of size 1 < cardinality 2 was dropped
        assert not list(model.sod.ssd_sets())

    def test_unknown_role_operations(self, model):
        with pytest.raises(UnknownRoleError):
            model.delete_role("ghost")
        with pytest.raises(UnknownRoleError):
            model.assign_user("bob", "ghost")
        with pytest.raises(UnknownUserError):
            model.assign_user("ghost", "PC")


class TestNameTable:
    def test_holds_every_element_name(self, model):
        model.add_scope("ward")
        assert set(model.names) == {
            "bob", "carol", "PM", "PC", "AC", "Clerk", "create",
            "purchase_order", "read", "ledger", "ward"}
        assert all(key is value for key, value in model.names.items())

    def test_elements_share_the_tables_copy(self, model):
        fresh = "".join(["da", "ve"])
        model.add_user(fresh)
        model.add_permission("read", "".join(["da", "ve"]))
        (key,) = [k for k in model.users if k == "dave"]
        assert key is model.names["dave"] is model.users["dave"].name
        assert any(o is key for o in model.objects)
        model.create_session_record("s1", "".join(["da", "ve"]))
        assert model.sessions["s1"].user is key

    def test_deleting_an_element_forgets_only_unused_names(self, model):
        model.add_permission("read", "bob")  # an object named like a user
        model.delete_user("bob")
        model.delete_user("carol")
        model.delete_role("AC")
        model.add_scope("ward")
        model.remove_scope("ward")
        assert "bob" in model.names
        assert {"carol", "AC", "ward"}.isdisjoint(model.names)

    def test_refused_commands_add_no_name(self, model):
        before = dict(model.names)
        with pytest.raises(DuplicateEntityError):
            model.add_user("bob")
        with pytest.raises(AdministrationError):
            model.add_scope("ward", parent="ghost")
        with pytest.raises(UnknownUserError):
            model.create_session_record("s1", "ghost")
        assert model.names == before


class TestAssignment:
    def test_assign_and_deassign(self, model):
        model.assign_user("bob", "PC")
        assert model.is_assigned("bob", "PC")
        model.deassign_user("bob", "PC")
        assert not model.is_assigned("bob", "PC")

    def test_double_assign_rejected(self, model):
        model.assign_user("bob", "PC")
        with pytest.raises(AdministrationError):
            model.assign_user("bob", "PC")

    def test_deassign_unassigned_rejected(self, model):
        with pytest.raises(AdministrationError):
            model.deassign_user("bob", "PC")

    def test_deassign_deactivates_in_sessions(self, model):
        model.assign_user("bob", "PC")
        model.create_session_record("s1", "bob")
        model.add_session_role_record("s1", "PC")
        model.deassign_user("bob", "PC")
        assert model.session_roles("s1") == set()

    def test_assignment_respects_ssd(self, model):
        model.create_ssd_set("s", {"PC", "AC"}, 2)
        model.assign_user("bob", "PC")
        with pytest.raises(SsdViolationError):
            model.assign_user("bob", "AC")

    def test_ssd_sees_inherited_authorization(self, model):
        """Assigning PM authorizes PC (junior), so AC is then barred —
        enterprise XYZ's 'PM inherits the SSD constraints from PC'."""
        model.create_ssd_set("s", {"PC", "AC"}, 2)
        model.assign_user("bob", "PM")
        with pytest.raises(SsdViolationError):
            model.assign_user("bob", "AC")

    def test_unchecked_assignment_records(self, model):
        model.add_assignment_record("bob", "PC")
        assert model.is_assigned("bob", "PC")
        model.remove_assignment_record("bob", "PC")
        assert not model.is_assigned("bob", "PC")

    def test_ssd_allows_assignment_predicate(self, model):
        model.create_ssd_set("s", {"PC", "AC"}, 2)
        model.assign_user("bob", "PM")
        assert not model.ssd_allows_assignment("bob", "AC")
        assert model.ssd_allows_assignment("carol", "AC")
        assert not model.ssd_allows_assignment("ghost", "AC")


class TestPermissions:
    def test_grant_requires_registered_permission(self, model):
        with pytest.raises(UnknownPermissionError):
            model.grant_permission("PC", "delete", "ledger")

    def test_double_grant_rejected(self, model):
        with pytest.raises(AdministrationError):
            model.grant_permission("PC", "create", "purchase_order")

    def test_revoke(self, model):
        model.revoke_permission("PC", "create", "purchase_order")
        assert Permission("create", "purchase_order") not in \
            model.direct_role_permissions("PC")
        with pytest.raises(AdministrationError):
            model.revoke_permission("PC", "create", "purchase_order")

    def test_role_permissions_include_juniors(self, model):
        perms = model.role_permissions("PM")
        assert Permission("create", "purchase_order") in perms
        assert Permission("read", "ledger") in perms

    def test_direct_permissions_exclude_juniors(self, model):
        assert model.direct_role_permissions("PM") == set()


class TestInheritanceAdministration:
    def test_add_inheritance_rejected_on_ssd_violation(self, model):
        model.create_ssd_set("s", {"PC", "AC"}, 2)
        model.add_role("Super")
        model.assign_user("bob", "Super")
        model.assign_user("carol", "AC")
        model.add_inheritance("Super", "PC")  # fine: bob gets PC only
        model.delete_inheritance("Super", "PC")
        model.assign_user("bob", "AC")
        # now Super >> PC would authorize bob for both PC and AC
        with pytest.raises(SsdViolationError):
            model.add_inheritance("Super", "PC")
        # and the failed edge must have been rolled back
        assert not model.hierarchy.is_senior("Super", "PC")
        # a role alone authorized for both members is refused even
        # with no user holding it (the validator's per-role rule)
        model.add_role("Lone")
        model.add_inheritance("Lone", "PC")
        with pytest.raises(SsdViolationError):
            model.add_inheritance("Lone", "AC")
        assert not model.hierarchy.is_senior("Lone", "AC")


class TestSessions:
    def test_session_lifecycle(self, model):
        model.create_session_record("s1", "bob")
        assert model.is_session("s1")
        assert model.session_user("s1") == "bob"
        model.delete_session_record("s1")
        assert not model.is_session("s1")

    def test_duplicate_session_rejected(self, model):
        model.create_session_record("s1", "bob")
        with pytest.raises(DuplicateEntityError):
            model.create_session_record("s1", "carol")

    def test_unknown_session_rejected(self, model):
        with pytest.raises(UnknownSessionError):
            model.delete_session_record("ghost")
        with pytest.raises(UnknownSessionError):
            model.session_roles("ghost")

    def test_session_role_records(self, model):
        model.create_session_record("s1", "bob")
        model.add_session_role_record("s1", "PC")
        assert model.session_roles("s1") == {"PC"}
        model.drop_session_role_record("s1", "PC")
        assert model.session_roles("s1") == set()

    def test_owns_session(self, model):
        model.create_session_record("s1", "bob")
        assert model.owns_session("bob", "s1")
        assert not model.owns_session("carol", "s1")
        assert not model.owns_session("bob", "ghost")


class TestCounters:
    def test_active_user_count_distinct_users(self, model):
        model.assign_user("bob", "PC")
        model.assign_user("carol", "PC")
        model.create_session_record("s1", "bob")
        model.create_session_record("s2", "bob")
        model.create_session_record("s3", "carol")
        model.add_session_role_record("s1", "PC")
        model.add_session_role_record("s2", "PC")  # same user twice
        model.add_session_role_record("s3", "PC")
        assert model.active_user_count("PC") == 2

    def test_active_role_count_across_sessions(self, model):
        model.create_session_record("s1", "bob")
        model.create_session_record("s2", "bob")
        model.add_session_role_record("s1", "PC")
        model.add_session_role_record("s2", "Clerk")
        assert model.active_role_count("bob") == 2


class TestEnabling:
    def test_enable_disable_flag(self, model):
        assert model.is_role_enabled("PC")
        model.set_role_enabled("PC", False)
        assert not model.is_role_enabled("PC")

    def test_disable_deactivates_sessions(self, model):
        model.create_session_record("s1", "bob")
        model.add_session_role_record("s1", "PC")
        model.set_role_enabled("PC", False)
        assert model.session_roles("s1") == set()

    def test_stats_shape(self, model):
        stats = model.stats()
        assert stats["users"] == 2
        assert stats["roles"] == 4
        assert stats["hierarchy_edges"] == 3
