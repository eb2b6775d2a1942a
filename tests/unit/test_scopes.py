"""The S-A-O-C scope layer: tree, model, kernel, engine, config, serve.

Covers the normalized decision path end to end: the scope tree's
containment mechanics, scoped grants and assignment bounds in the
reference model, kernel/interpreted parity, engine administration and
staleness, the config pipeline (DSL round-trip, loader, validator,
differ, lifecycle dispatch), the serve config watcher, and federation
map sync.
"""

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.config.differ import diff_specs
from repro.errors import AdministrationError, DuplicateEntityError
from repro.federation import RoleMapping
from repro.kernel import KERNEL_DENY, KERNEL_GRANT
from repro.policy.spec import PolicySpec
from repro.rbac.scopes import SCOPE_ROOT, ScopeTree, UnknownScopeError

TENANTS = """
policy tenants {
  role Auditor; role Editor; role Admin;
  hierarchy Admin > Editor;
  scope acme;
  scope "acme/wiki" under acme;
  scope "acme/wiki/home" under "acme/wiki";
  scope globex;
  user rei; user dana; user kit;
  permission read on document;
  permission write on document;
  grant read on document to Auditor;
  grant write on document to Editor in acme;
  grant write on document to Editor in globex;
  assign rei to Auditor;
  assign dana to Editor in acme;
  assign kit to Admin;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine.from_policy(parse_policy(TENANTS))


def session(engine, user, role):
    sid = engine.create_session(user)
    engine.add_active_role(sid, role)
    return sid


class TestScopeTree:
    def test_root_is_always_present(self):
        tree = ScopeTree()
        assert SCOPE_ROOT in tree
        assert len(tree) == 1

    def test_parents_must_exist_first(self):
        tree = ScopeTree()
        with pytest.raises(UnknownScopeError):
            tree.add_scope("a/b", "a")
        tree.add_scope("a")
        tree.add_scope("a/b", "a")
        assert tree.parent_of("a/b") == "a"
        assert tree.parent_of("a") == SCOPE_ROOT

    def test_duplicate_scope_refused(self):
        tree = ScopeTree()
        tree.add_scope("a")
        with pytest.raises(DuplicateEntityError):
            tree.add_scope("a")

    def test_root_and_interior_removal_refused(self):
        tree = ScopeTree()
        tree.add_scope("a")
        tree.add_scope("a/b", "a")
        with pytest.raises(AdministrationError):
            tree.remove_scope(SCOPE_ROOT)
        with pytest.raises(AdministrationError):
            tree.remove_scope("a")  # still has a child
        tree.remove_scope("a/b")
        tree.remove_scope("a")
        assert len(tree) == 1

    def test_ancestor_chain_self_first_root_last(self):
        tree = ScopeTree()
        tree.add_scope("a")
        tree.add_scope("a/b", "a")
        assert tree.ancestors_inclusive("a/b") == ("a/b", "a", SCOPE_ROOT)
        assert tree.contains("a", "a/b")
        assert not tree.contains("a/b", "a")
        assert tree.descendants_inclusive("a") == {"a", "a/b"}
        assert tree.depth_of("a/b") == 2

    def test_version_advances_on_every_mutation(self):
        tree = ScopeTree()
        tree.add_scope("a")
        tree.add_scope("b")
        tree.remove_scope("b")
        assert tree.version == 3


class TestModelScopes:
    def test_grant_at_ancestor_covers_descendants_only(self, engine):
        model = engine.model
        for scope in ("acme", "acme/wiki", "acme/wiki/home"):
            assert model.role_has_permission("Editor", "write",
                                             "document", scope=scope)
        assert not model.role_has_permission("Editor", "write",
                                             "document")  # flat = root
        assert model.role_has_permission("Auditor", "read", "document",
                                         scope="acme/wiki/home")

    def test_bounded_assignment_excludes_flat_and_siblings(self, engine):
        model = engine.model
        assert model.assignment_covers("dana", "Editor", "acme/wiki")
        assert not model.assignment_covers("dana", "Editor", "globex")
        assert not model.assignment_covers("dana", "Editor", SCOPE_ROOT)
        # unbounded pairs cover everything
        assert model.assignment_covers("rei", "Auditor", "globex")

    def test_remove_scope_refused_while_referenced(self, engine):
        with pytest.raises(AdministrationError):
            engine.model.remove_scope("acme")  # interior + granted
        with pytest.raises(AdministrationError):
            engine.model.remove_scope("globex")  # Editor granted there

    def test_unknown_scope_raises_on_admin(self, engine):
        with pytest.raises(UnknownScopeError):
            engine.model.grant_permission("Auditor", "read", "document",
                                          scope="nope")
        with pytest.raises(UnknownScopeError):
            engine.model.limit_assignment_scope("rei", "Auditor", "nope")


class TestDecisionParity:
    def test_kernel_and_interpreted_agree_everywhere(self, engine):
        dana = session(engine, "dana", "Editor")
        rei = session(engine, "rei", "Auditor")
        kit = session(engine, "kit", "Admin")
        cases = [
            (dana, "write", "acme/wiki/home"),
            (dana, "write", "globex"),
            (dana, "write", None),
            (rei, "read", "acme/wiki"),
            (rei, "read", None),
            (kit, "write", "acme"),    # Admin inherits Editor's grant
            (kit, "write", "globex"),
            (kit, "write", None),
        ]
        kernel = engine.kernel()
        for sid, operation, scope in cases:
            fast, _reason = kernel.evaluate(sid, operation, "document",
                                            scope)
            assert fast in (KERNEL_GRANT, KERNEL_DENY), (sid, scope)
            engine.kernel_enabled = False
            slow = engine.check_access(sid, operation, "document",
                                       scope=scope)
            engine.kernel_enabled = True
            live = engine.check_access(sid, operation, "document",
                                       scope=scope)
            assert (fast == KERNEL_GRANT) == slow == live, (sid, scope)

    def test_unknown_scope_denies_fail_closed_both_paths(self, engine):
        rei = session(engine, "rei", "Auditor")
        assert not engine.check_access(rei, "read", "document",
                                       scope="nope")
        engine.kernel_enabled = False
        assert not engine.check_access(rei, "read", "document",
                                       scope="nope")

    def test_explain_matches_live_verdict_and_names_the_scope(
            self, engine):
        dana = session(engine, "dana", "Editor")
        granted = engine.explain(dana, "write", "document",
                                 scope="acme/wiki")
        assert granted.allowed
        assert granted.scope == "acme/wiki"
        denied = engine.explain(dana, "write", "document", scope="globex")
        assert not denied.allowed
        assert "globex" in denied.describe()


class TestEngineAdministration:
    def test_scope_mutation_staleness_and_recompile(self, engine):
        rei = session(engine, "rei", "Auditor")
        assert engine.check_access(rei, "read", "document", scope="acme")
        engine.add_scope("initech")
        staleness = engine.health()["kernel_staleness"]
        assert (staleness["scopes"]["engine"]
                > staleness["scopes"]["kernel"])
        # the next check recompiles and serves the new scope
        assert engine.check_access(rei, "read", "document",
                                   scope="initech")
        staleness = engine.health()["kernel_staleness"]
        assert (staleness["scopes"]["engine"]
                == staleness["scopes"]["kernel"])

    def test_deassign_last_bound_deassigns_the_pair(self, engine):
        engine.deassign_scope("dana", "Editor", "acme")
        assert not engine.model.is_assigned("dana", "Editor")

    def test_deassign_one_of_many_bounds_narrows(self, engine):
        engine.assign_user("dana", "Editor", scope="globex")
        engine.deassign_scope("dana", "Editor", "acme")
        assert engine.model.is_assigned("dana", "Editor")
        assert engine.model.assignment_scopes("dana", "Editor") \
            == {"globex"}

    def test_scoped_grant_revoke_round_trip(self, engine):
        engine.grant_permission("Auditor", "write", "document",
                                scope="globex")
        rei = session(engine, "rei", "Auditor")
        assert engine.check_access(rei, "write", "document",
                                   scope="globex")
        engine.revoke_permission("Auditor", "write", "document",
                                 scope="globex")
        assert not engine.check_access(rei, "write", "document",
                                       scope="globex")

    def test_kernel_stats_expose_the_scope_layer(self, engine):
        stats = engine.kernel().stats()
        assert stats["scopes"] == 5  # root + 4 declared
        assert stats["scoped_grants"] >= 2
        assert stats["scope_limited_assignments"] == 1
        assert stats["scope_closure_bits"] > 0


class TestConfigPipeline:
    def test_dsl_round_trip_preserves_the_scope_layer(self):
        from repro.policy.dsl import render_policy

        spec = parse_policy(TENANTS)
        again = parse_policy(render_policy(spec))
        assert again.scopes == spec.scopes
        assert sorted(again.scoped_grants) == sorted(spec.scoped_grants)
        assert sorted(again.scoped_assignments) \
            == sorted(spec.scoped_assignments)

    def test_structured_loader_reads_scopes(self):
        from repro.config.loader import parse_config

        config = parse_config("""
        {"version": 1, "name": "t",
         "roles": [{"name": "R"}], "users": ["u"],
         "permissions": [{"operation": "op", "object": "obj"}],
         "scopes": [{"name": "a"}, {"name": "a/b", "parent": "a"}],
         "grants": [{"role": "R", "operation": "op", "object": "obj",
                     "scope": "a"}],
         "assignments": [{"user": "u", "role": "R", "scope": "a/b"}],
         "federation_maps": [{"home_role": "R", "host_domain": "lab",
                              "host_role": "R"}]}
        """, "json")
        spec = config.spec
        assert spec.scopes == [("a", None), ("a/b", "a")]
        assert spec.scoped_grants == [("R", "op", "obj", "a")]
        assert spec.scoped_assignments == [("u", "R", "a/b")]
        assert spec.federation_maps == [("R", "lab", "R")]

    def test_validator_rejects_scope_mistakes(self):
        from repro.policy.validator import validate_policy

        spec = PolicySpec(name="bad")
        spec.add_role("R")
        spec.add_user("u")
        spec.add_scope("child", "missing-parent")
        spec.add_scoped_grant("R", "op", "obj", "nowhere")
        spec.add_scoped_assignment("u", "R", "nowhere")
        issues = " ; ".join(str(i) for i in validate_policy(spec))
        assert "missing-parent" in issues
        assert "nowhere" in issues

    def test_differ_orders_scope_ops_safely(self):
        old = parse_policy(TENANTS)
        new = old.clone()
        new.scoped_assignments = [
            row for row in new.scoped_assignments
            if row != ("dana", "Editor", "acme")]
        new.scoped_grants = [
            row for row in new.scoped_grants
            if row != ("Editor", "write", "document", "globex")]
        new.scopes = [row for row in new.scopes if row[0] != "globex"]
        new.add_scope("initech")
        new.add_scoped_grant("Auditor", "read", "document", "initech")
        new.add_scoped_assignment("kit", "Admin", "initech")
        diff = diff_specs(old, new)
        ops = [op[0] for op in diff.model_ops]
        # teardown before build-up; scope removal last, creation before
        # the scoped grants/assignments that reference it
        assert ops.index("revoke_scoped") < ops.index("remove_scope")
        assert ops.index("remove_scope") < ops.index("add_scope")
        assert ops.index("add_scope") < ops.index("grant_scoped")
        assert ops.index("grant_scoped") < ops.index("assign_scoped")
        assert ("deassign_scoped", "dana", "Editor", "acme") \
            in diff.model_ops

    def test_lifecycle_applies_a_scoped_push(self, engine, tmp_path):
        from repro.config import ConfigSet
        from repro.config.lifecycle import PolicyLifecycle

        lifecycle = PolicyLifecycle(engine, state_dir=str(tmp_path))
        lifecycle.adopt(1)
        new = engine.policy.clone()
        new.add_scope("initech")
        new.add_scoped_grant("Auditor", "write", "document", "initech")
        lifecycle.stage(ConfigSet.from_spec(new, 2))
        lifecycle.promote(force=True)
        rei = session(engine, "rei", "Auditor")
        assert engine.check_access(rei, "write", "document",
                                   scope="initech")
        assert not engine.check_access(rei, "write", "document")

    def test_federation_map_delta_sets_the_flag(self):
        old = parse_policy(TENANTS)
        new = old.clone()
        new.add_federation_map("Auditor", "lab", "Visitor")
        diff = diff_specs(old, new)
        assert ("add_federation_map", "Auditor", "lab", "Visitor") \
            in diff.model_ops
        assert not diff_specs(old, old.clone()).model_ops


HOME = """
policy home {
  role Engineer;
  user wei;
  assign wei to Engineer;
  federate Engineer to lab as Visitor;
}
"""

LAB = """
policy lab {
  role Visitor;
  permission read on logs;
  grant read on logs to Visitor;
}
"""


class TestFederationSync:
    @pytest.fixture
    def router(self):
        from repro.serve import ShardRouter

        r = ShardRouter()
        r.add_shard("home", ActiveRBACEngine.from_policy(
            parse_policy(HOME)))
        r.add_shard("lab", ActiveRBACEngine.from_policy(
            parse_policy(LAB)))
        return r

    def test_declared_maps_sync_and_serve(self, router):
        report = router.sync_federation()
        assert len(report["added"]) == 1
        assert router.check("wei@home", "read", "logs",
                            domain="lab")["allowed"]
        # idempotent
        again = router.sync_federation()
        assert again == {"added": [], "removed": [], "skipped": []}

    def test_dropped_declaration_is_withdrawn(self, router):
        router.sync_federation()
        router.shard("home").engine.policy.federation_maps.clear()
        report = router.sync_federation()
        assert len(report["removed"]) == 1

    def test_hand_registered_mappings_survive_sync(self, router):
        hand = RoleMapping("home", "Engineer", "lab", "Visitor")
        router.add_mapping(hand)
        router.shard("home").engine.policy.federation_maps.clear()
        report = router.sync_federation()
        assert report["removed"] == []
        assert hand in router.federation._mappings

    def test_unresolvable_declaration_skipped_fail_closed(self, router):
        router.shard("home").engine.policy.federation_maps.append(
            ("Engineer", "lab", "NoSuchRole"))
        report = router.sync_federation()
        assert len(report["skipped"]) == 1
        assert "NoSuchRole" in report["skipped"][0]["mapping"]


class TestConfigWatcher:
    def _boot(self, tmp_path, watch_interval=0.05):
        from repro.serve import ServeApp, ShardRouter

        path = tmp_path / "t.rbac"
        path.write_text(TENANTS)  # raw DSL config file
        engine = ActiveRBACEngine.from_policy(parse_policy(TENANTS))
        router = ShardRouter()
        shard = router.add_shard("t", engine, config_path=str(path))
        shard.ensure_lifecycle().adopt(1)
        app = ServeApp(router, watch_interval=watch_interval)
        return app, shard, path

    def test_first_observation_is_baseline_only(self, tmp_path):
        app, shard, _ = self._boot(tmp_path)
        app.poll_config_files()
        assert shard.ensure_lifecycle().status()["phase"] == "idle"

    def test_changed_file_stages_without_sighup(self, tmp_path):
        import os

        app, shard, path = self._boot(tmp_path)
        app.poll_config_files()  # baseline
        path.write_text(TENANTS.replace("user kit;",
                                        "user kit; user new1;"))
        os.utime(path, ns=(os.stat(path).st_atime_ns,
                           os.stat(path).st_mtime_ns + 1_000_000))
        app.poll_config_files()
        assert shard.ensure_lifecycle().status()["phase"] == "canary"

    def test_touch_without_change_is_a_noop(self, tmp_path):
        import os

        app, shard, path = self._boot(tmp_path)
        app.poll_config_files()
        os.utime(path, ns=(os.stat(path).st_atime_ns,
                           os.stat(path).st_mtime_ns + 1_000_000))
        app.poll_config_files()
        assert shard.ensure_lifecycle().status()["phase"] == "idle"

    def test_unchanged_sighup_reread_counts_unchanged(self, tmp_path):
        # SIGHUP and the watcher share one stage pass, so an unchanged
        # re-read is counted the same way by both
        app, shard, _ = self._boot(tmp_path)
        assert app.reload_configs()["t"]["unchanged"] is True
        assert shard.ensure_lifecycle().status()["phase"] == "idle"
        text = app.metrics.render_prometheus()
        assert ('repro_serve_config_reloads_total{shard="t",'
                'outcome="unchanged"} 1') in text
        assert 'outcome="staged"' not in text

    def test_watcher_off_by_default(self):
        from repro.serve import ServeApp, ShardRouter

        app = ServeApp(ShardRouter())
        assert app.watch_interval == 0.0


class TestServeScopedChecks:
    def test_shard_counts_and_answers_scoped_checks(self):
        from repro.serve import ShardRouter

        router = ShardRouter()
        engine = ActiveRBACEngine.from_policy(parse_policy(TENANTS))
        shard = router.add_shard("t", engine)
        flat = router.check("rei", "read", "document")
        scoped = router.check("dana", "write", "document",
                              scope="acme/wiki")
        denied = router.check("dana", "write", "document",
                              scope="globex")
        assert flat["allowed"] and scoped["allowed"]
        assert not denied["allowed"]
        assert scoped["path"] == "kernel"
        assert shard.scoped_checks == 2
        assert shard.health()["serve"]["scoped_checks"] == 2

    @pytest.mark.parametrize("scope", ["typo", "initech"])
    def test_refused_scoped_assign_leaves_no_flat_grant(self, scope):
        """An unknown (or removed) scope is refused before the flat
        assignUser commit, so the live model never holds a grant the
        policy lacks."""
        from repro.policy.spec import build_model
        from repro.serve import ShardRouter

        router = ShardRouter()
        engine = ActiveRBACEngine.from_policy(parse_policy(TENANTS))
        shard = router.add_shard("t", engine)
        if scope == "initech":
            shard.admin_op("add_scope", {"scope": scope})
            shard.admin_op("remove_scope", {"scope": scope})
        with pytest.raises(UnknownScopeError):
            shard.admin_op("assign", {"user": "dana", "role": "Auditor",
                                      "scope": scope})
        assert not shard.check("dana", "read", "document")["allowed"]

        def assignments(model):
            return {user: {role: model.assignment_scopes(user, role)
                           for role in model.assigned_roles(user)}
                    for user in model.users}

        assert assignments(engine.model) \
            == assignments(build_model(engine.policy))

    def test_router_explain_threads_the_scope(self):
        from repro.serve import ShardRouter

        router = ShardRouter()
        router.add_shard("t", ActiveRBACEngine.from_policy(
            parse_policy(TENANTS)))
        report = router.explain("dana", "write", "document",
                                scope="globex")
        assert not report["allowed"]
        assert report["scope"] == "globex"
        assert "globex" in (report["deny_cause"] or "")
