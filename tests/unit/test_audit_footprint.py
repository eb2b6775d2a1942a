"""Footprint tests for the audit trail: a full ring stays small, and
names from requests never grow the policy's name table."""

import json

import pytest

from repro import ActiveRBACEngine
from repro.errors import ReproError
from repro.serve.shard import Shard
from repro.testing.footprint import audit_record_bytes, check_bodies
from repro.workloads import EnterpriseShape, generate_enterprise

#: bytes one retained ``decision.allow`` record may cost (104 B on
#: CPython 3.11; the margin covers other 3.x object layouts)
RECORD_BUDGET = 160


@pytest.fixture
def engine():
    spec = generate_enterprise(EnterpriseShape(
        roles=40, users=60, tree_depth=2, tree_fanout=3, seed=13))
    return ActiveRBACEngine(spec, audit_capacity=20_000)


def test_a_retained_decision_fits_the_budget(engine):
    per_record = audit_record_bytes(engine)
    assert len(engine.audit) == engine.audit.capacity
    assert per_record <= RECORD_BUDGET


def test_recorded_names_are_the_policys_strings(engine):
    shard = Shard("a", engine)
    body = json.loads(check_bodies(engine, 1)[0])
    user = body["user"]
    assert user is not engine.model.names[user]
    shard.check(user, body["operation"], body["object"])
    entry = engine.audit.by_kind("decision")[-1]
    assert entry.detail["user"] is engine.model.names[user]
    assert entry.detail["object"] is engine.model.names[body["object"]]
    (key,) = shard._sessions
    assert key is engine.model.names[user]


def test_unknown_names_never_grow_the_name_table(engine):
    shard = Shard("a", engine)
    known = engine.policy.assignments[0][0]
    names = len(engine.model.names)
    records = len(engine.audit)
    for i in range(10_000):
        user = known if i % 2 else f"ghost{i}"
        try:
            shard.check(user, "read", f"nowhere{i}")
        except ReproError:
            pass  # an unknown user's session is refused
    assert len(engine.model.names) == names
    assert len(engine.audit) > records
    denied = engine.audit.matching(user=known, object="nowhere9999")
    assert [e.kind for e in denied] == ["decision.deny"]
