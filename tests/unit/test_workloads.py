"""Unit tests for synthetic workload generators."""

import pytest

from repro.policy.validator import validate_policy
from repro.workloads import (
    EnterpriseShape,
    fleet_shard_name,
    generate_enterprise,
    generate_fleet,
    generate_request_stream,
    generate_service_plan,
)
from repro.workloads.generator import SERVICE_BATCH


class TestShapes:
    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            EnterpriseShape(roles=0)
        with pytest.raises(ValueError):
            EnterpriseShape(tree_depth=0)
        with pytest.raises(ValueError):
            EnterpriseShape(role_cardinality_fraction=1.5)


class TestEnterpriseGeneration:
    def test_deterministic_in_seed(self):
        shape = EnterpriseShape(roles=30, users=20, seed=3)
        first = generate_enterprise(shape)
        second = generate_enterprise(shape)
        assert first.hierarchy == second.hierarchy
        assert first.assignments == second.assignments
        assert first.grants == second.grants

    def test_different_seeds_differ(self):
        one = generate_enterprise(EnterpriseShape(roles=30, users=20, seed=1))
        two = generate_enterprise(EnterpriseShape(roles=30, users=20, seed=2))
        assert one.assignments != two.assignments

    def test_generated_policy_validates(self):
        spec = generate_enterprise(EnterpriseShape(roles=50, users=40))
        assert validate_policy(spec) == []

    def test_counts_match_shape(self):
        shape = EnterpriseShape(roles=25, users=10, ssd_sets=2, dsd_sets=1)
        spec = generate_enterprise(shape)
        assert len(spec.roles) == 25
        assert len(spec.users) == 10
        assert len(spec.ssd) <= 2
        assert len(spec.dsd) <= 1

    def test_hierarchy_is_forest_of_bounded_depth(self):
        shape = EnterpriseShape(roles=40, tree_fanout=3, tree_depth=3)
        spec = generate_enterprise(shape)
        children_of = {}
        for senior, junior in spec.hierarchy:
            children_of.setdefault(senior, []).append(junior)
        parents = {}
        for senior, junior in spec.hierarchy:
            assert junior not in parents, "forest: single parent each"
            parents[junior] = senior

        def depth(role):
            d = 1
            while role in parents:
                role = parents[role]
                d += 1
            return d

        assert all(depth(role) <= 3 for role in spec.roles)

    def test_assignments_respect_ssd(self):
        spec = generate_enterprise(EnterpriseShape(
            roles=40, users=60, ssd_sets=3, seed=5))
        per_user = {}
        for user, role in spec.assignments:
            per_user.setdefault(user, set()).add(role)
        for sod in spec.ssd.values():
            for roles in per_user.values():
                assert len(roles & sod.roles) < sod.cardinality

    def test_role_cardinality_fraction(self):
        spec = generate_enterprise(EnterpriseShape(
            roles=50, users=10, role_cardinality_fraction=1.0))
        assert all(role.max_active_users is not None
                   for role in spec.roles.values())


class TestRequestStream:
    def test_deterministic(self):
        spec = generate_enterprise(EnterpriseShape(roles=10, users=5))
        first = list(generate_request_stream(spec, 50, seed=9))
        second = list(generate_request_stream(spec, 50, seed=9))
        assert first == second

    def test_length_and_kinds(self):
        spec = generate_enterprise(EnterpriseShape(roles=10, users=5))
        stream = list(generate_request_stream(spec, 200, seed=1))
        assert len(stream) == 200
        kinds = {request.kind for request in stream}
        assert kinds <= {"create_session", "activate", "check"}
        assert "check" in kinds  # dominant mix component

    def test_requests_reference_spec_entities(self):
        spec = generate_enterprise(EnterpriseShape(roles=10, users=5))
        for request in generate_request_stream(spec, 100):
            assert request.user in spec.users
            if request.kind == "activate":
                assert request.role in spec.roles
            if request.kind == "check":
                assert (request.operation, request.obj) in spec.permissions


class TestFleet:
    def test_population_split_and_naming(self):
        fleet = generate_fleet(shards=2, users=100, roles=10, seed=7)
        assert sorted(fleet) == [fleet_shard_name(0), fleet_shard_name(1)]
        assert sum(len(spec.users) for spec in fleet.values()) >= 100
        # shards are distinct tenants: differently-seeded enterprises
        assert (fleet["shard00"].grants != fleet["shard01"].grants)

    def test_deterministic_in_seed(self):
        first = generate_fleet(shards=2, users=40, roles=10, seed=3)
        second = generate_fleet(shards=2, users=40, roles=10, seed=3)
        assert first["shard00"].grants == second["shard00"].grants
        assert first["shard01"].assignments == second["shard01"].assignments

    def test_needs_a_shard(self):
        with pytest.raises(ValueError):
            generate_fleet(shards=0)


class TestServicePlan:
    @pytest.fixture
    def fleet(self):
        return generate_fleet(shards=2, users=40, roles=10, seed=7)

    def test_deterministic(self, fleet):
        first = generate_service_plan(fleet, 100, seed=23)
        second = generate_service_plan(fleet, 100, seed=23)
        assert first == second

    def test_kinds_and_length(self, fleet):
        plan = generate_service_plan(fleet, 300, seed=23)
        assert len(plan) == 300
        kinds = {op.kind for op in plan}
        assert kinds <= {"check", "check_batch", "explain", "metrics",
                         "health"}
        assert "check" in kinds

    def test_users_are_shard_qualified(self, fleet):
        plan = generate_service_plan(fleet, 200, seed=23)
        shard_names = set(fleet)
        for op in plan:
            if op.kind in ("check", "explain"):
                user, _, home = op.payload["user"].partition("@")
                assert home in shard_names
                assert user in fleet[home].users

    def test_single_shard_uses_bare_names(self):
        fleet = generate_fleet(shards=1, users=20, roles=10, seed=7)
        plan = generate_service_plan(fleet, 50, seed=23)
        for op in plan:
            if op.kind == "check":
                assert "@" not in op.payload["user"]

    def test_batch_ops_carry_batches(self, fleet):
        plan = generate_service_plan(fleet, 400, seed=23)
        batches = [op for op in plan if op.kind == "check_batch"]
        assert batches
        for op in batches:
            assert len(op.payload["checks"]) == SERVICE_BATCH

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            generate_service_plan({}, 10)
