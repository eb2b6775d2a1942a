"""Unit tests for small public surfaces not covered elsewhere."""

import pytest

from repro.clock import SIMULATED_EPOCH, Timestamp, TimerService, VirtualClock
from repro.errors import EventError, SoDError
from repro.events import EventDetector
from repro.rbac.model import RBACModel


@pytest.fixture
def det():
    detector = EventDetector(TimerService(VirtualClock()))
    for name in ("E1", "E2", "E3"):
        detector.define_primitive(name)
    return detector


class TestDefineComposite:
    """The generic by-operator-name factory (used by power users)."""

    def test_or_by_name(self, det):
        det.define_composite("O", "OR", "E1", "E2")
        hits = []
        det.subscribe("O", hits.append)
        det.raise_event("E1")
        assert len(hits) == 1

    def test_seq_alias(self, det):
        det.define_composite("S", "seq", "E1", "E2")
        hits = []
        det.subscribe("S", hits.append)
        det.raise_event("E1")
        det.raise_event("E2")
        assert len(hits) == 1

    def test_ternary_operators(self, det):
        det.define_composite("N", "NOT", "E1", "E2", "E3")
        det.define_composite("AP", "APERIODIC", "E1", "E2", "E3",
                             mode="chronicle")
        not_hits, ap_hits = [], []
        det.subscribe("N", not_hits.append)
        det.subscribe("AP", ap_hits.append)
        det.raise_event("E1")
        det.raise_event("E2")
        det.raise_event("E3")
        assert len(ap_hits) == 1
        assert not_hits == []  # contaminated by E2

    def test_unknown_operator_rejected(self, det):
        with pytest.raises(EventError, match="unknown operator"):
            det.define_composite("X", "ZIGZAG", "E1", "E2")


class TestTimestamp:
    def test_to_datetime(self):
        stamp = Timestamp(86400.0)
        assert stamp.to_datetime().day == 2
        assert Timestamp(0.0).to_datetime() == SIMULATED_EPOCH


class TestModelLeftovers:
    @pytest.fixture
    def model(self):
        m = RBACModel()
        m.add_role("A")
        m.add_role("B")
        m.add_user("u")
        return m

    def test_add_operation_and_object(self, model):
        model.add_operation("execute")
        model.add_object("binary")
        assert "execute" in model.operations
        assert "binary" in model.objects

    def test_delete_ssd_set(self, model):
        model.create_ssd_set("s", {"A", "B"}, 2)
        model.delete_ssd_set("s")
        assert model.sod.ssd_ok({"A"}, "B")
        with pytest.raises(SoDError):
            model.delete_ssd_set("s")

    def test_delete_dsd_set(self, model):
        model.create_dsd_set("d", {"A", "B"}, 2)
        model.delete_dsd_set("d")
        assert model.sod.dsd_ok({"A"}, "B")

    def test_create_ssd_rejected_when_already_violated(self, model):
        model.assign_user("u", "A")
        model.assign_user("u", "B")
        from repro.errors import SsdViolationError
        with pytest.raises(SsdViolationError):
            model.create_ssd_set("s", {"A", "B"}, 2)
        # the failed set must not linger
        assert not list(model.sod.ssd_sets())
        # a role alone authorized for both members, user or not
        model.deassign_user("u", "B")
        model.add_role("Both")
        model.add_inheritance("Both", "A")
        model.add_inheritance("Both", "B")
        with pytest.raises(SsdViolationError, match="'Both' alone"):
            model.create_ssd_set("s", {"A", "B"}, 2)
        assert not list(model.sod.ssd_sets())


class TestEngineDirectSurfaces:
    def test_force_deactivate_unknown_role_is_zero(self):
        from repro import ActiveRBACEngine
        engine = ActiveRBACEngine()
        assert engine.force_deactivate_role("ghost") == 0

    def test_revalidate_activations_noop_when_consistent(self):
        from repro import ActiveRBACEngine, parse_policy
        engine = ActiveRBACEngine.from_policy(parse_policy(
            "policy p { role A; user u; assign u to A; }"))
        sid = engine.create_session("u")
        engine.add_active_role(sid, "A")
        assert engine.revalidate_activations() == 0
        assert "A" in engine.model.session_roles(sid)

    def test_rules_for_event_ordering(self):
        from repro import ActiveRBACEngine
        from repro.rules.rule import OWTERule
        engine = ActiveRBACEngine()
        engine.detector.define_primitive("ping")
        engine.rules.add(OWTERule(name="low", event="ping", priority=0))
        engine.rules.add(OWTERule(name="high", event="ping", priority=5))
        names = [r.name for r in engine.rules.rules_for_event("ping")]
        assert names == ["high", "low"]


class TestFederationQueries:
    def test_mappings_for(self):
        from repro import ActiveRBACEngine, parse_policy
        from repro.federation import Federation, RoleMapping
        fed = Federation()
        fed.add_domain("a", ActiveRBACEngine.from_policy(
            parse_policy("policy a { role X; }")))
        fed.add_domain("b", ActiveRBACEngine.from_policy(
            parse_policy("policy b { role Y; }")))
        mapping = RoleMapping("a", "X", "b", "Y")
        fed.add_mapping(mapping)
        assert fed.mappings_for("a", "b") == [mapping]
        assert fed.mappings_for("b", "a") == []
        assert sorted(fed.domains()) == ["a", "b"]
