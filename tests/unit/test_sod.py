"""Unit tests for static/dynamic separation-of-duty constraints."""

import pytest

from repro.errors import SoDError
from repro.rbac.sod import DsdConstraint, SodRegistry, SsdConstraint


class TestConstraintShapes:
    def test_ssd_violated_at_cardinality(self):
        constraint = SsdConstraint("s", frozenset({"a", "b", "c"}), 2)
        assert not constraint.violated_by({"a"})
        assert constraint.violated_by({"a", "b"})
        assert constraint.violated_by({"a", "b", "c"})
        assert not constraint.violated_by({"x", "y"})

    def test_dsd_n_of_m_semantics(self):
        # paper §2: assigned to M mutually exclusive roles, active in
        # fewer than N at once (2 <= N <= M)
        constraint = DsdConstraint("d", frozenset({"a", "b", "c"}), 3)
        assert not constraint.violated_by({"a", "b"})
        assert constraint.violated_by({"a", "b", "c"})

    @pytest.mark.parametrize("cardinality", [0, 1])
    def test_cardinality_below_two_rejected(self, cardinality):
        with pytest.raises(SoDError):
            SsdConstraint("s", frozenset({"a", "b"}), cardinality)
        with pytest.raises(SoDError):
            DsdConstraint("d", frozenset({"a", "b"}), cardinality)

    def test_cardinality_above_set_size_rejected(self):
        with pytest.raises(SoDError):
            SsdConstraint("s", frozenset({"a", "b"}), 3)


@pytest.fixture
def registry():
    reg = SodRegistry()
    reg.create_ssd("ssd1", {"PC", "AC"}, 2)
    reg.create_dsd("dsd1", {"Teller", "Auditor"}, 2)
    return reg


class TestRegistryAdministration:
    def test_duplicate_names_rejected(self, registry):
        with pytest.raises(SoDError):
            registry.create_ssd("ssd1", {"x", "y"}, 2)
        with pytest.raises(SoDError):
            registry.create_dsd("dsd1", {"x", "y"}, 2)

    def test_delete_unknown_rejected(self, registry):
        with pytest.raises(SoDError):
            registry.delete_ssd("ghost")
        with pytest.raises(SoDError):
            registry.delete_dsd("ghost")

    def test_named_lookup(self, registry):
        assert registry.ssd_named("ssd1").cardinality == 2
        with pytest.raises(SoDError):
            registry.ssd_named("ghost")
        assert registry.dsd_named("dsd1").roles == frozenset(
            {"Teller", "Auditor"})

    def test_replace_ssd(self, registry):
        registry.replace_ssd("ssd1", {"PC", "AC", "PM"}, 3)
        assert registry.ssd_named("ssd1").cardinality == 3

    def test_delete_clears_role_index(self, registry):
        registry.delete_ssd("ssd1")
        assert registry.ssd_ok({"AC"}, "PC")  # no constraint anymore
        assert not registry.ssd_mentions({"PC", "AC"})

    def test_ssd_mentions_only_ssd_member_roles(self, registry):
        assert registry.ssd_mentions({"Clerk", "PC"})
        assert not registry.ssd_mentions({"Clerk", "Teller"})  # DSD only
        assert not registry.ssd_mentions(())


class TestChecks:
    def test_ssd_ok_boundary(self, registry):
        assert registry.ssd_ok(set(), "PC")
        assert registry.ssd_ok({"PM"}, "PC")
        assert not registry.ssd_ok({"AC"}, "PC")

    def test_ssd_violations_lists_constraints(self, registry):
        violations = registry.ssd_violations({"PC", "AC"})
        assert [v.name for v in violations] == ["ssd1"]
        assert registry.ssd_violations({"PC"}) == []

    def test_dsd_ok_boundary(self, registry):
        assert registry.dsd_ok(set(), "Teller")
        assert not registry.dsd_ok({"Auditor"}, "Teller")

    def test_dsd_violations(self, registry):
        assert [v.name for v in
                registry.dsd_violations({"Teller", "Auditor"})] == ["dsd1"]

    def test_unrelated_role_never_blocked(self, registry):
        assert registry.ssd_ok({"PC", "Teller"}, "Unrelated")

    def test_three_of_five_constraint(self):
        registry = SodRegistry()
        registry.create_dsd("big", {"a", "b", "c", "d", "e"}, 3)
        assert registry.dsd_ok({"a"}, "b")          # 2 of 5: fine
        assert not registry.dsd_ok({"a", "b"}, "c")  # would be 3


class TestRoleRemoval:
    def test_set_shrinks_with_removed_role(self):
        registry = SodRegistry()
        registry.create_ssd("s", {"a", "b", "c"}, 2)
        registry.remove_role("c")
        remaining = registry.ssd_named("s")
        assert remaining.roles == frozenset({"a", "b"})

    def test_constraint_dropped_when_unsatisfiable(self):
        registry = SodRegistry()
        registry.create_ssd("s", {"a", "b"}, 2)
        registry.remove_role("b")
        with pytest.raises(SoDError):
            registry.ssd_named("s")

    def test_dsd_role_removal(self):
        registry = SodRegistry()
        registry.create_dsd("d", {"a", "b", "c"}, 3)
        registry.remove_role("a")
        with pytest.raises(SoDError):
            registry.dsd_named("d")  # 2 roles < cardinality 3: dropped


class TestConsistencyAudit:
    def test_reports_each_user_violation(self):
        registry = SodRegistry()
        registry.create_ssd("s", {"PC", "AC"}, 2)
        authorized = {
            "good": {"PC"},
            "bad": {"PC", "AC"},
        }
        problems = registry.check_consistency(
            lambda user: authorized[user], ["good", "bad"])
        assert len(problems) == 1
        assert "bad" in problems[0]
        assert "s" in problems[0]
