"""Unit tests for the versioned config-set loader (YAML subset / JSON /
raw DSL), canonicalisation and checksum identity."""

import json

import pytest

from repro import ActiveRBACEngine
from repro.config import ConfigSet, load_config, parse_config
from repro.config.configset import policy_checksum
from repro.config.loader import ConfigError
from repro.policy.dsl import render_policy
from repro.wal import Durability, recover

YAML_DOC = """\
version: 3
name: demo
policy: |
  policy demo {
    role doctor;
    role nurse;
    user alice;
    permission read on chart;
    grant read on chart to doctor;
    assign alice to doctor;
  }
"""

STRUCTURED_DOC = """\
version: 2
name: clinic
roles:
  - name: doctor
  - name: nurse
    max_active_users: 3
users: [alice, bob]
permissions:
  - operation: read
    object: chart
grants:
  - role: doctor
    operation: read
    object: chart
assignments:
  - user: alice
    role: doctor
hierarchy:
  - senior: doctor
    junior: nurse
"""


class TestParseConfig:
    def test_embedded_dsl_document(self):
        config = parse_config(YAML_DOC)
        assert config.version == 3
        assert "doctor" in config.spec.roles
        assert config.checksum == policy_checksum(config.source)

    def test_structured_document(self):
        config = parse_config(STRUCTURED_DOC)
        assert config.version == 2
        assert set(config.spec.roles) == {"doctor", "nurse"}
        assert config.spec.roles["nurse"].max_active_users == 3
        assert ("alice", "doctor") in config.spec.assignments
        assert ("doctor", "nurse") in config.spec.hierarchy

    def test_json_and_yaml_canonicalise_identically(self):
        import json
        doc = {"version": 2, "name": "clinic",
               "roles": ["doctor"], "users": ["alice"],
               "permissions": [{"operation": "read", "object": "chart"}],
               "grants": [{"role": "doctor", "operation": "read",
                           "object": "chart"}],
               "assignments": [{"user": "alice", "role": "doctor"}]}
        as_json = parse_config(json.dumps(doc), "json")
        as_yaml = parse_config(
            "version: 2\nname: clinic\nroles: [doctor]\n"
            "users: [alice]\n"
            "permissions:\n  - operation: read\n    object: chart\n"
            "grants:\n  - role: doctor\n    operation: read\n"
            "    object: chart\n"
            "assignments:\n  - user: alice\n    role: doctor\n")
        assert as_json.checksum == as_yaml.checksum
        assert as_json.source == as_yaml.source

    def test_raw_dsl_needs_explicit_version(self):
        dsl = "policy p {\n  role r;\n}"
        with pytest.raises(ConfigError, match="version"):
            parse_config(dsl, "rbac")
        config = parse_config(dsl, "rbac", version=4)
        assert config.version == 4

    def test_version_override_wins(self):
        config = parse_config(YAML_DOC, version=9)
        assert config.version == 9

    def test_bad_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config("version: banana\npolicy: |\n  policy p "
                         "{\n    role r;\n  }\n")

    def test_validation_failure_is_config_error(self):
        # assignment to an undeclared role fails policy validation
        doc = ("version: 2\nname: bad\nroles: [doctor]\n"
               "users: [alice]\n"
               "assignments:\n  - user: alice\n    role: ghost\n")
        with pytest.raises(ConfigError, match="validation"):
            parse_config(doc)

    def test_tabs_in_indentation_rejected(self):
        with pytest.raises(ConfigError, match="tabs"):
            parse_config("version: 2\nroles:\n\t- doctor\n")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(YAML_DOC, "toml")


class TestLoadConfig:
    def test_extension_dispatch_and_sniffing(self, tmp_path):
        yaml_file = tmp_path / "deploy.yaml"
        yaml_file.write_text(YAML_DOC)
        sniffed = tmp_path / "deploy.conf"  # unknown extension
        sniffed.write_text(YAML_DOC)
        dsl_file = tmp_path / "deploy.rbac"
        dsl_file.write_text("policy p {\n  role r;\n}")
        assert load_config(str(yaml_file)).version == 3
        assert load_config(str(sniffed)).version == 3
        assert load_config(str(dsl_file), version=7).version == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.yaml"))


class TestConfigSet:
    def test_checksum_covers_canonical_source(self):
        config = parse_config(YAML_DOC)
        tampered = ConfigSet(version=config.version, spec=config.spec,
                             source=config.source + "\n// sneaky",
                             checksum=config.checksum)
        assert policy_checksum(tampered.source) != tampered.checksum

    def test_from_spec_freezes_the_policy(self):
        config = parse_config(YAML_DOC)
        live = config.spec
        frozen = ConfigSet.from_spec(live, 5)
        live.add_role("intruder")
        assert "intruder" not in frozen.spec.roles

    def test_version_floor(self):
        config = parse_config(YAML_DOC)
        with pytest.raises(ValueError, match=">= 1"):
            ConfigSet.from_spec(config.spec, 0)


SCOPED_DOC = {
    "version": 1, "name": "clinic",
    "roles": ["doctor", "nurse"], "users": ["alice", "bobby"],
    "hierarchy": [{"senior": "doctor", "junior": "nurse"}],
    "scopes": [{"name": "ward"}],
    "permissions": [{"operation": "read", "object": "chart"},
                    {"operation": "write", "object": "chart"}],
    "grants": [{"role": "nurse", "operation": "read", "object": "chart"},
               {"role": "doctor", "operation": "write",
                "object": "chart", "scope": "ward"}],
    "assignments": [{"user": "alice", "role": "doctor"},
                    {"user": "bobby", "role": "nurse", "scope": "ward"}],
}


def _assert_names_held_once(engine):
    """Every user and role name in an assignment, grant or scoped row
    is the declared entry's string, and the model's one copy."""
    spec, names = engine.policy, engine.model.names
    rows = [*spec.assignments, *spec.scoped_assignments]
    assert rows and spec.grants and spec.scoped_grants
    for user, role, *_ in rows:
        assert user is spec.users[user].name is names[user]
        assert role is spec.roles[role].name is names[role]
    for role, operation, obj, *_ in [*spec.grants, *spec.scoped_grants]:
        assert role is spec.roles[role].name is names[role]
        assert operation is names[operation] and obj is names[obj]
    for senior, junior in spec.hierarchy:
        assert senior is names[senior] and junior is names[junior]


class TestNamesHeldOnce:
    @pytest.mark.parametrize("fmt", ["json", "yaml", "rbac"])
    def test_loaded_policy_shares_the_model_names(self, fmt):
        if fmt == "json":
            text = json.dumps(SCOPED_DOC)
        else:
            dsl = render_policy(parse_config(json.dumps(SCOPED_DOC),
                                             "json").spec)
            text = dsl if fmt == "rbac" else (
                "version: 1\npolicy: |\n"
                + "".join(f"  {line}\n" for line in dsl.splitlines()))
        config = parse_config(text, fmt, version=1)
        _assert_names_held_once(ActiveRBACEngine(config.spec))

    def test_structured_yaml_shares_the_model_names(self):
        config = parse_config(STRUCTURED_DOC)
        engine = ActiveRBACEngine(config.spec)
        user, role = config.spec.assignments[0]
        assert user is config.spec.users["alice"].name
        assert role is config.spec.roles["doctor"].name
        assert role is engine.model.names["doctor"]

    def test_recovered_policy_shares_the_model_names(self, tmp_path):
        engine = ActiveRBACEngine(
            parse_config(json.dumps(SCOPED_DOC), "json").spec)
        durability = Durability(engine, str(tmp_path), batch_size=1)
        engine.grant_permission("nurse", "write", "chart")
        durability.close()
        revived, _ = recover(str(tmp_path))
        assert ("nurse", "write", "chart") in revived.policy.grants
        _assert_names_held_once(revived)

    def test_admin_op_rows_share_the_declared_names(self):
        engine = ActiveRBACEngine(
            parse_config(json.dumps(SCOPED_DOC), "json").spec)
        # names decoded from a request are fresh strings
        user, role = json.loads('["bobby", "doctor"]')
        engine.apply(("assign_user", user, role))
        assert (user, role) in engine.policy.assignments
        _assert_names_held_once(engine)
