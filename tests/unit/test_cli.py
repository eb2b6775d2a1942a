"""Unit tests for the CLI."""

import pytest

from repro.cli import main

GOOD = """
policy demo {
  role A; role B;
  user u;
  hierarchy A > B;
  assign u to A;
  permission read on doc;
  grant read on doc to B;
}
"""

BAD_SYNTAX = "policy broken { role ; }"

INVALID = """
policy invalid {
  role A;
  hierarchy A > A;
}
"""


@pytest.fixture
def policy_file(tmp_path):
    def write(text):
        path = tmp_path / "policy.rbac"
        path.write_text(text)
        return str(path)

    return write


class TestCheck:
    def test_clean_policy(self, policy_file, capsys):
        assert main(["check", policy_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "verification: clean" in out
        assert "generated" in out

    def test_invalid_policy(self, policy_file, capsys):
        assert main(["check", policy_file(INVALID)]) == 1
        out = capsys.readouterr().out
        assert "validation issue" in out

    def test_syntax_error(self, policy_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", policy_file(BAD_SYNTAX)])
        assert excinfo.value.code == 1
        assert "syntax error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "/nonexistent/policy.rbac"])
        assert excinfo.value.code == 2


class TestGraph:
    def test_graph_renders(self, policy_file, capsys):
        assert main(["graph", policy_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "role node(s)" in out
        assert "A -> B" in out


class TestRules:
    def test_whole_pool(self, policy_file, capsys):
        assert main(["rules", policy_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "RULE [ AAR2.A" in out
        assert "CA.checkAccess" in out

    def test_single_role(self, policy_file, capsys):
        assert main(["rules", policy_file(GOOD), "--role", "A"]) == 0
        out = capsys.readouterr().out
        assert "AAR2.A" in out
        assert "AAR2.B" not in out

    def test_unknown_role(self, policy_file, capsys):
        assert main(["rules", policy_file(GOOD), "--role", "Zed"]) == 1


class TestSimulate:
    def test_simulation_summary(self, policy_file, capsys):
        code = main(["simulate", policy_file(GOOD),
                     "--requests", "200", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated 200 requests" in out
        assert "allowed:" in out
        assert "audit report" in out

    def test_simulation_deterministic(self, policy_file, capsys):
        path = policy_file(GOOD)
        main(["simulate", path, "--requests", "100", "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", path, "--requests", "100", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_simulate_trace_explains_denials(self, policy_file, capsys):
        code = main(["simulate", policy_file(GOOD),
                     "--requests", "200", "--seed", "3", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        # span tree: root event, rule span, ELSE branch, typed error
        assert "--- traces:" in out
        assert "(event)" in out
        assert "(rule)" in out
        assert "outcome='else'" in out
        assert "!OperationDenied" in out or "!ActivationDenied" in out


class TestMetrics:
    def test_prometheus_and_json_series_nonzero(self, policy_file,
                                                capsys):
        code = main(["metrics", policy_file(GOOD),
                     "--requests", "200", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        # Prometheus text: event, rule-firing, and latency series
        assert "# TYPE repro_events_raised_total counter" in out
        assert 'repro_events_raised_total{event="checkAccess"}' in out
        assert "# TYPE repro_rule_firings_total counter" in out
        assert "# TYPE repro_check_access_ns histogram" in out
        assert "repro_check_access_ns_count" in out
        # JSON payload parses and carries the same non-zero series
        import json
        # the JSON dump starts at the first line that is exactly "{"
        json_text = out[out.index("\n{\n") + 1:]
        data = json.loads(json_text)
        raised = sum(s["value"] for s in
                     data["repro_events_raised_total"]["series"])
        fired = sum(s["value"] for s in
                    data["repro_rule_firings_total"]["series"])
        latency = sum(s["count"] for s in
                      data["repro_check_access_ns"]["series"])
        assert raised > 0 and fired > 0 and latency > 0

    def test_format_selection(self, policy_file, capsys):
        path = policy_file(GOOD)
        main(["metrics", path, "--requests", "50", "--format", "prom"])
        prom_only = capsys.readouterr().out
        assert "# TYPE" in prom_only and '"series"' not in prom_only
        main(["metrics", path, "--requests", "50", "--format", "json"])
        json_only = capsys.readouterr().out
        assert "# TYPE" not in json_only and '"series"' in json_only


class TestKernel:
    def test_stats_report(self, policy_file, capsys):
        import json
        assert main(["kernel", policy_file(GOOD)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coverage_gap"] is None
        assert report["roles"] == 2
        assert report["static_rules"] >= 1
        assert report["decisions"] == {"grant": 0, "deny": 0,
                                       "fallback": 0}
        assert "stream" not in report

    def test_stream_populates_decision_split(self, policy_file,
                                             capsys):
        import json
        code = main(["kernel", policy_file(GOOD),
                     "--requests", "200", "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stream"]["requests"] == 200
        answered = (report["decisions"]["grant"]
                    + report["decisions"]["deny"])
        assert answered > 0


class TestExplain:
    def test_grant_narrative_and_exit_zero(self, policy_file, capsys):
        code = main(["explain", policy_file(GOOD), "u", "read", "doc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GRANT read on doc" in out
        assert "permission via A > B" in out

    def test_deny_exit_one_with_cause(self, policy_file, capsys):
        code = main(["explain", policy_file(GOOD), "u", "read",
                     "nothing"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DENY read on nothing" in out
        assert "deny cause: unknown object" in out

    def test_json_payload(self, policy_file, capsys):
        import json
        code = main(["explain", policy_file(GOOD), "u", "read", "doc",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "grant"
        assert payload["path"] == "kernel"
        assert payload["roles"][0]["hierarchy_path"] == ["A", "B"]

    def test_roles_flag_limits_activation(self, policy_file, capsys):
        # activating only B: read on doc still granted (direct grant)
        code = main(["explain", policy_file(GOOD), "u", "read", "doc",
                     "--roles", "B"])
        assert code == 0
        assert "role B" in capsys.readouterr().out

    def test_unknown_user_exit_two(self, policy_file, capsys):
        code = main(["explain", policy_file(GOOD), "ghost", "read",
                     "doc"])
        assert code == 2
        assert "unknown user" in capsys.readouterr().err


class TestFlightrec:
    def test_drive_and_dump(self, policy_file, tmp_path, capsys):
        import json
        out_dir = tmp_path / "dumps"
        code = main(["flightrec", policy_file(GOOD),
                     "--requests", "100", "--out", str(out_dir),
                     "--tail", "2"])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out.split("--- last")[0])
        assert summary["stream"]["requests"] == 100
        assert summary["recorded"]["total_seen"] > 0
        assert summary["dump"].startswith(str(out_dir))
        dumped = json.loads(open(summary["dump"]).read())
        assert dumped["cause"] == "cli.flightrec"
        assert dumped["records"]

    def test_capacity_override(self, policy_file, capsys):
        import json
        code = main(["flightrec", policy_file(GOOD),
                     "--requests", "200", "--capacity", "16"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["recorded"]["capacity"] == 16
        assert summary["recorded"]["entries"] <= 16
        assert summary["recorded"]["total_seen"] \
            >= summary["recorded"]["entries"]


class TestObsTop:
    def test_top_lists_hot_and_slow_rules(self, policy_file, capsys):
        code = main(["obs", "top", policy_file(GOOD),
                     "--requests", "300", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hottest rules by firings" in out
        assert "slowest rules by p99 latency" in out
        assert "CA.checkAccess" in out
        assert "samples" in out


class TestCheckTrace:
    def test_check_trace_prints_probe_spans(self, policy_file, capsys):
        assert main(["check", policy_file(GOOD), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "probe traces" in out
        assert "checkAccess (event)" in out
        assert "!OperationDenied" in out  # the guaranteed probe denial


class TestFmt:
    def test_fmt_round_trips(self, policy_file, tmp_path, capsys):
        assert main(["fmt", policy_file(GOOD)]) == 0
        rendered = capsys.readouterr().out
        # the canonical form parses back and is a fixpoint
        path = tmp_path / "canonical.rbac"
        path.write_text(rendered)
        assert main(["fmt", str(path)]) == 0
        assert capsys.readouterr().out == rendered


class TestHygiene:
    CLEAN = """
    policy clean {
      role A; user u; assign u to A;
      permission read on doc; grant read on doc to A;
    }
    """
    DIRTY = """
    policy dirty {
      role A; role Ghost; user u; assign u to A;
      permission read on doc; grant read on doc to A;
      permission unused on nowhere;
    }
    """

    def test_clean_policy_exit_zero(self, policy_file, capsys):
        assert main(["hygiene", policy_file(self.CLEAN)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_dirty_policy_exit_one(self, policy_file, capsys):
        assert main(["hygiene", policy_file(self.DIRTY)]) == 1
        out = capsys.readouterr().out
        assert "Ghost" in out
        assert "nowhere" in out

    def test_who_can(self, policy_file, capsys):
        assert main(["hygiene", policy_file(self.CLEAN),
                     "--who-can", "read:doc"]) == 0
        out = capsys.readouterr().out
        assert "u (via A)" in out

    def test_who_can_nobody(self, policy_file, capsys):
        main(["hygiene", policy_file(self.CLEAN),
              "--who-can", "fly:moon"])
        assert "nobody can fly on moon" in capsys.readouterr().out

    def test_who_can_bad_format(self, policy_file, capsys):
        assert main(["hygiene", policy_file(self.CLEAN),
                     "--who-can", "nodcolon"]) == 2


class TestServeArgs:
    """Argument validation for ``serve`` (no server is booted: every
    case exits before binding)."""

    def test_serve_bad_mapping(self, capsys):
        assert main(["serve", "--synthetic", "1", "--users", "5",
                     "--roles", "3", "--map", "not-a-mapping"]) == 2
        assert "--map expects" in capsys.readouterr().err

    def test_serve_bad_shard_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--shard", "no-equals-sign"])
        assert exc.value.code == 2
        assert "--shard expects" in capsys.readouterr().err

    def test_serve_bad_chaos_check_format(self, capsys):
        assert main(["serve", "--synthetic", "1", "--users", "5",
                     "--roles", "3", "--chaos-check", "nope"]) == 2
        assert "--chaos-check expects" in capsys.readouterr().err

    def test_serve_chaos_check_unknown_shard(self, capsys):
        assert main(["serve", "--synthetic", "1", "--users", "5",
                     "--roles", "3",
                     "--chaos-check", "shard99:5:2"]) == 2
        assert "--chaos-check" in capsys.readouterr().err


def _json_config(tmp_path, name, users=("u",)):
    import json

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "version": 1, "name": name, "roles": ["A"], "users": ["u"],
        "assignments": [{"user": user, "role": "A"} for user in users],
    }))
    return path


class TestServeBootFiles:
    """``serve --shard NAME=FILE`` boot files (no server is bound)."""

    def test_invalid_versioned_config_names_the_problem(self, tmp_path,
                                                        capsys):
        path = _json_config(tmp_path, "bad", users=("u", "ghost"))
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--shard", f"s={path}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "undeclared user 'ghost'" in err
        assert "syntax error" not in err

    @pytest.mark.parametrize("file_name", ["shard00", "tenantA"])
    def test_reload_of_unchanged_boot_file_is_a_noop(self, tmp_path,
                                                     file_name):
        from repro.cli import _boot_router, build_parser

        path = _json_config(tmp_path, file_name)
        args = build_parser().parse_args(
            ["serve", "--shard", f"shard00={path}"])
        router, _durabilities = _boot_router(args)
        shard = router.shard("shard00")
        assert shard.engine.policy.name == "shard00"
        assert shard.engine.config_version == 1
        report = shard.admin_op("reload", {})
        assert report["unchanged"] is True
        assert report["active_version"] == 1
