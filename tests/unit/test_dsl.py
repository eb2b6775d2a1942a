"""Unit tests for the policy DSL: lexer, parser, renderer."""

import pytest

from repro.errors import PolicySyntaxError
from repro.extensions.context import ContextOp
from repro.policy.dsl import parse_policy, render_policy, tokenize


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize('policy X { role A; duration A 7.5; } # end')
        kinds = [t.kind for t in tokens]
        assert kinds[-1] == "eof"
        assert "number" in kinds
        assert "op" in kinds

    def test_comments_and_whitespace_skipped(self):
        tokens = tokenize("# comment only\n   \n")
        assert [t.kind for t in tokens] == ["eof"]

    def test_line_and_column_tracked(self):
        tokens = tokenize("policy X {\n  role A;\n}")
        role_token = next(t for t in tokens if t.text == "role")
        assert role_token.line == 2
        assert role_token.column == 3

    def test_time_literal(self):
        tokens = tokenize("10:30")
        assert tokens[0].kind == "time"

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == "string"

    def test_unexpected_character(self):
        with pytest.raises(PolicySyntaxError):
            tokenize("policy @ {}")

    def test_dotted_identifiers(self):
        tokens = tokenize("patient.dat")
        assert tokens[0].kind == "word"
        assert tokens[0].text == "patient.dat"


class TestParserBasics:
    def test_minimal_policy(self):
        spec = parse_policy("policy P { }")
        assert spec.name == "P"
        assert spec.roles == {}

    def test_roles_users(self):
        spec = parse_policy("""
        policy P {
          role Programmer max_active_users 5;
          role Clerk;
          user jane max_active_roles 5;
          user bob;
        }""")
        assert spec.roles["Programmer"].max_active_users == 5
        assert spec.roles["Clerk"].max_active_users is None
        assert spec.users["jane"].max_active_roles == 5

    def test_hierarchy_chain(self):
        spec = parse_policy("""
        policy P { role A; role B; role C; hierarchy A > B > C; }""")
        assert spec.hierarchy == [("A", "B"), ("B", "C")]

    def test_sod_sets(self):
        spec = parse_policy("""
        policy P {
          role A; role B; role C;
          ssd s1 roles A, B;
          dsd d1 roles A, B, C cardinality 3;
        }""")
        assert spec.ssd["s1"].roles == frozenset({"A", "B"})
        assert spec.ssd["s1"].cardinality == 2
        assert spec.dsd["d1"].cardinality == 3

    def test_permissions_grants_assignments(self):
        spec = parse_policy("""
        policy P {
          role A; user u;
          permission read on patient.dat;
          grant read on patient.dat to A;
          assign u to A;
        }""")
        assert ("read", "patient.dat") in spec.permissions
        assert ("A", "read", "patient.dat") in spec.grants
        assert ("u", "A") in spec.assignments

    def test_limited_hierarchy_flag(self):
        spec = parse_policy("policy P { limited_hierarchy; }")
        assert spec.hierarchy_limited


class TestParserConstraints:
    def test_cfd_statements(self):
        spec = parse_policy("""
        policy P {
          role Doctor; role Nurse; role SysAdmin; role SysAudit;
          role Manager; role JuniorEmp;
          prerequisite Doctor requires Nurse;
          require SysAudit when enabling SysAdmin;
          transaction JuniorEmp during Manager;
        }""")
        assert spec.prerequisites[0].role == "Doctor"
        assert spec.post_conditions[0].trigger_role == "SysAdmin"
        assert spec.post_conditions[0].required_role == "SysAudit"
        assert spec.transactions[0].anchor_role == "Manager"

    def test_duration_statements(self):
        spec = parse_policy("""
        policy P {
          role R3; user bob;
          duration R3 7200;
          duration R3 3600 for bob;
        }""")
        role_wide, per_user = spec.durations
        assert role_wide.delta == 7200 and role_wide.user is None
        assert per_user.user == "bob" and per_user.delta == 3600

    def test_enable_window(self):
        spec = parse_policy("""
        policy P { role DayDoctor; enable DayDoctor daily 08:00 to 16:00; }
        """)
        window = spec.enabling_windows[0]
        assert window.interval.start_tod == 8 * 3600
        assert window.interval.end_tod == 16 * 3600

    def test_disabling_sod(self):
        spec = parse_policy("""
        policy P {
          role Nurse; role Doctor;
          disabling_sod Coverage roles Nurse, Doctor daily 10:00 to 17:00;
        }""")
        constraint = spec.disabling_sod[0]
        assert constraint.roles == frozenset({"Nurse", "Doctor"})
        assert constraint.interval.start_tod == 10 * 3600

    def test_context_constraint(self):
        spec = parse_policy("""
        policy P {
          role FileUser;
          context FileUser requires network == "secure" for access;
          context FileUser requires clearance >= 3;
        }""")
        access, activate = spec.context_constraints
        assert access.applies_to == "access"
        assert access.op is ContextOp.EQ and access.value == "secure"
        assert activate.applies_to == "activate"
        assert activate.value == 3.0

    def test_privacy_statements(self):
        spec = parse_policy("""
        policy P {
          purpose healthcare;
          purpose treatment under healthcare;
          object_policy read on patient.dat for treatment obliges notify-owner;
        }""")
        assert ("treatment", "healthcare") in spec.purposes
        policy = spec.object_policies[0]
        assert policy.obligations == ("notify-owner",)

    def test_threshold_statement(self):
        spec = parse_policy("""
        policy P {
          role Guard;
          threshold probe event accessDenied group_by user count 5
                    window 60 lock_user deactivate Guard lockout 300;
        }""")
        threshold = spec.threshold_policies[0]
        assert threshold.threshold == 5
        assert threshold.window == 60.0
        assert threshold.lock_users
        assert threshold.deactivate_roles == ("Guard",)
        assert threshold.lockout_duration == 300.0

    def test_threshold_global_grouping(self):
        spec = parse_policy("""
        policy P { threshold t group_by global count 2 window 10; }""")
        assert spec.threshold_policies[0].group_by is None


class TestParserErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("role A;", "policy"),                       # missing header
        ("policy P { role A }", "expected"),         # missing semicolon
        ("policy P { frobnicate A; }", "unknown statement"),
        ("policy P { hierarchy A; }", "senior > junior"),
        ("policy P { role A; } trailing", "unexpected input"),
        ("policy P { role A;", "missing '}'"),
        ("policy P { context R requires v , 3; }", "comparison"),
        ("policy P { threshold t bogus; }", "unknown threshold option"),
    ])
    def test_syntax_errors(self, source, fragment):
        with pytest.raises(PolicySyntaxError) as excinfo:
            parse_policy(source)
        assert fragment.lower() in str(excinfo.value).lower()

    def test_error_carries_location(self):
        with pytest.raises(PolicySyntaxError) as excinfo:
            parse_policy("policy P {\n  bogus_stmt X;\n}")
        assert excinfo.value.line == 2


class TestRoundTrip:
    FULL = """
    policy full {
      limited_hierarchy;
      role A max_active_users 3; role B; role C;
      user u max_active_roles 2; user v;
      hierarchy A > B;
      ssd s roles B, C cardinality 2;
      dsd d roles A, C cardinality 2;
      permission read on obj1;
      grant read on obj1 to A;
      assign u to A;
      prerequisite C requires B;
      require C when enabling A;
      transaction B during A;
      duration A 100 for u;
      enable B daily 08:00 to 16:00;
      disabling_sod cov roles A, C daily 10:00 to 17:00;
      context A requires network == "secure" for access;
      purpose p1; purpose p2 under p1;
      object_policy read on obj1 for p2 obliges notify;
      threshold t event activationDenied group_by role count 3 window 30;
    }
    """

    def test_parse_render_parse_fixpoint(self):
        first = parse_policy(self.FULL)
        rendered = render_policy(first)
        second = parse_policy(rendered)
        assert second.name == first.name
        assert second.roles == first.roles
        assert second.users == first.users
        assert second.hierarchy == first.hierarchy
        assert second.ssd == first.ssd
        assert second.dsd == first.dsd
        assert second.permissions == first.permissions
        assert second.grants == first.grants
        assert second.assignments == first.assignments
        assert second.prerequisites == first.prerequisites
        assert second.post_conditions == first.post_conditions
        assert second.transactions == first.transactions
        assert second.durations == first.durations
        assert second.enabling_windows == first.enabling_windows
        assert second.disabling_sod == first.disabling_sod
        assert second.context_constraints == first.context_constraints
        assert second.purposes == first.purposes
        assert second.object_policies == first.object_policies
        assert second.threshold_policies == first.threshold_policies
        assert second.hierarchy_limited == first.hierarchy_limited


class TestThresholdTagsRoundTrip:
    def test_disable_rule_tags_survive_render_and_parse(self):
        from repro.security.monitor import ThresholdPolicy
        spec = parse_policy("policy P { role R; }")
        spec.threshold_policies.append(ThresholdPolicy(
            name="T", threshold=3, group_by=None,
            disable_rule_tags=ThresholdPolicy.tags(
                {"role:R": "1", "kind": "checkAccess"}, {}, {"kind": "x"}),
            lockout_duration=30.0))
        rendered = render_policy(spec)
        assert parse_policy(rendered) == spec
        assert render_policy(parse_policy(rendered)) == rendered

    def test_disable_clause_parses(self):
        spec = parse_policy("""policy P { threshold t count 2 window 10
            disable kind == checkAccess disable "role:R" == "1"; }""")
        assert spec.threshold_policies[0].disable_rule_tags == (
            (("kind", "checkAccess"),), (("role:R", "1"),))
