"""Unit tests for decision provenance: the flight recorder ring, the
auto-dump triggers, the fallback-reason accounting, and the explain
API's derivation structure."""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.errors import OperationDenied
from repro.obs import FALLBACK_REASONS, FlightRecorder, provenance

POLICY = """
policy provtest {
  role PM; role PC; role Clerk;
  hierarchy PM > PC > Clerk;
  user alice; user bob;
  assign alice to PM;
  assign bob to Clerk;
  permission read on report; permission write on report;
  permission write on budget;
  grant read on report to Clerk;
  grant write on report to PC;
  grant write on budget to PM;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine(parse_policy(POLICY))


@pytest.fixture
def alice(engine):
    sid = engine.create_session("alice")
    engine.add_active_role(sid, "PM")
    return sid


# ==========================================================================
# the ring buffer itself
# ==========================================================================


class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_empty_recorder(self):
        flight = FlightRecorder(capacity=4)
        assert len(flight) == 0
        assert flight.seq == 0
        assert flight.snapshot() == []
        assert flight.tail() == []

    def test_records_decisions_and_firings(self):
        flight = FlightRecorder(capacity=8)
        flight.note_decision(1.0, "kernel", "s1", "alice", "read",
                             "report", "grant", rule="CA.checkAccess")
        flight.note_firing(2.0, "CA.checkAccess", "checkAccess", "then")
        records = flight.snapshot()
        assert [r["kind"] for r in records] == ["decision", "firing"]
        decision = records[0]
        assert decision["seq"] == 1
        assert decision["path"] == "kernel"
        assert decision["user"] == "alice"
        assert decision["decision"] == "grant"
        assert decision["rule"] == "CA.checkAccess"
        assert decision["deny_cause"] is None
        firing = records[1]
        assert firing["seq"] == 2
        assert firing["outcome"] == "then"
        assert firing["error"] is None

    def test_ring_wraps_and_keeps_the_newest(self):
        flight = FlightRecorder(capacity=3)
        for step in range(10):
            flight.note_firing(float(step), f"r{step}", "e", "then")
        assert flight.seq == 10
        assert len(flight) == 3
        records = flight.snapshot()
        assert [r["seq"] for r in records] == [8, 9, 10]
        assert [r["rule"] for r in records] == ["r7", "r8", "r9"]

    def test_tail_returns_newest_oldest_first(self):
        flight = FlightRecorder(capacity=16)
        for step in range(6):
            flight.note_firing(float(step), f"r{step}", "e", "then")
        assert [r["seq"] for r in flight.tail(2)] == [5, 6]

    @pytest.mark.parametrize("n", [0, -1])
    def test_tail_of_nothing_is_empty(self, n):
        flight = FlightRecorder(capacity=16)
        for step in range(6):
            flight.note_firing(float(step), f"r{step}", "e", "then")
        assert flight.tail(n) == []

    def test_disabled_recorder_drops_everything(self):
        flight = FlightRecorder(capacity=4)
        flight.enabled = False
        flight.note_decision(1.0, "kernel", "s", "u", "op", "ob", "grant")
        flight.note_firing(1.0, "r", "e", "then")
        assert flight.seq == 0
        assert flight.snapshot() == []

    def test_dump_writes_fsynced_json(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        flight.note_decision(1.0, "interpreted", "s1", "bob", "write",
                             "budget", "deny", reason="disabled",
                             cause="OperationDenied")
        path = flight.dump("unit.test", directory=str(tmp_path),
                           context={"note": "hello"})
        payload = json.loads((tmp_path / path.split("/")[-1]).read_text())
        assert payload["cause"] == "unit.test"
        assert payload["seq"] == 1
        assert payload["capacity"] == 4
        assert payload["context"] == {"note": "hello"}
        [record] = payload["records"]
        assert record["fallback_reason"] == "disabled"
        assert record["deny_cause"] == "OperationDenied"
        assert flight.dumps == 1

    def test_dump_sanitizes_cause_into_the_filename(self, tmp_path):
        flight = FlightRecorder(capacity=2)
        path = flight.dump("weird/cause name!", directory=str(tmp_path))
        assert path.endswith("flightrec-0001-weird_cause_name_.json")

    def test_dump_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHTREC_DIR", str(tmp_path))
        flight = FlightRecorder(capacity=2)
        path = flight.dump("envtest")
        assert path.startswith(str(tmp_path))

    def test_default_directory_is_one_per_process(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHTREC_DIR", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(provenance, "_PROCESS_DUMP_DIR", None,
                            raising=False)
        first = FlightRecorder(capacity=2).dump("same")
        second = FlightRecorder(capacity=2).dump("same")
        assert os.path.dirname(first) == os.path.dirname(second)
        assert os.listdir(tmp_path) == [os.path.basename(
            os.path.dirname(first))]
        # same cause, same per-recorder counter: neither overwrote
        assert first != second
        with open(first, encoding="utf-8") as handle:
            assert json.load(handle)["cause"] == "same"


# ==========================================================================
# engine integration: both decision paths land in the ring
# ==========================================================================


class TestEngineRecording:
    def test_kernel_path_decisions_recorded(self, engine, alice):
        assert engine.check_access(alice, "write", "budget")
        assert not engine.check_access(alice, "write", "nothing")
        decisions = [r for r in engine.flight.snapshot()
                     if r["kind"] == "decision"]
        grant = next(r for r in decisions if r["decision"] == "grant")
        assert grant["path"] == "kernel"
        assert grant["rule"] == "CA.checkAccess"
        assert grant["user"] == "alice"
        deny = next(r for r in decisions if r["decision"] == "deny")
        assert deny["path"] == "kernel"
        assert deny["deny_cause"] == "OperationDenied"

    def test_interpreted_path_records_fallback_reason(self, engine,
                                                      alice):
        engine.kernel_enabled = False
        assert engine.check_access(alice, "write", "budget")
        decisions = [r for r in engine.flight.snapshot()
                     if r["kind"] == "decision"]
        record = decisions[-1]
        assert record["path"] == "interpreted"
        assert record["fallback_reason"] == "disabled"
        assert record["decision"] == "grant"

    def test_interpreted_denial_captures_typed_cause(self, engine,
                                                     alice):
        engine.kernel_enabled = False
        with pytest.raises(OperationDenied):
            engine.require_access(alice, "write", "nothing")
        record = engine.flight.snapshot()[-1]
        assert record["kind"] == "decision"
        assert record["decision"] == "deny"
        assert record["deny_cause"].startswith("OperationDenied")

    def test_rule_firings_recorded_on_interpreted_path(self, engine):
        engine.kernel_enabled = False
        sid = engine.create_session("bob")
        firings = [r for r in engine.flight.snapshot()
                   if r["kind"] == "firing"]
        assert any(r["event"] == "createSession" for r in firings)
        assert sid in engine.model.sessions

    def test_disabled_flight_records_nothing(self, engine, alice):
        engine.flight.enabled = False
        before = engine.flight.seq  # fixture firings already recorded
        engine.check_access(alice, "write", "budget")
        engine.kernel_enabled = False
        engine.check_access(alice, "write", "budget")
        assert engine.flight.seq == before
        assert engine.dump_flight("manual") is None

    def test_health_reports_dump_count(self, engine):
        assert engine.health()["flightrec_dumps"] == 0


# ==========================================================================
# auto-dump triggers
# ==========================================================================


class TestAutoDump:
    def test_quarantine_trip_dumps_the_ring(self, engine, alice,
                                            tmp_path):
        engine.flight.dump_dir = str(tmp_path)
        engine.check_access(alice, "write", "budget")
        engine.rules.quarantine("CA.checkAccess", reason="unit-test")
        dumps = list(tmp_path.glob("flightrec-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["cause"] == "rule.quarantine.CA.checkAccess"
        assert any(r["kind"] == "decision" for r in payload["records"])
        audited = engine.audit.by_kind("flightrec.dump")
        assert audited and audited[0].detail["path"] == str(dumps[0])

    def test_lockout_dumps_the_ring(self, engine, tmp_path):
        engine.flight.dump_dir = str(tmp_path)
        engine.lock_user("bob")
        dumps = list(tmp_path.glob("flightrec-*.json"))
        assert len(dumps) == 1
        assert json.loads(dumps[0].read_text())["cause"] \
            == "security.lockout.bob"
        assert engine.health()["flightrec_dumps"] == 1

    def test_dump_context_includes_health(self, engine, tmp_path):
        path = engine.dump_flight("manual.check",
                                  directory=str(tmp_path))
        payload = json.loads(open(path).read())
        assert payload["context"]["health"]["status"] in ("ok",
                                                          "degraded")


# ==========================================================================
# fallback-reason accounting
# ==========================================================================


class TestFallbackReasons:
    def test_taxonomy_is_pinned(self):
        assert FALLBACK_REASONS == (
            "context_role", "privacy", "stale_privacy", "quarantine",
            "instrumented", "coverage", "unknown_entity", "deadline",
            "diagnostics", "observers", "disabled")

    def _reasons(self, engine):
        return {labels["reason"]: child.value
                for labels, child in engine.obs.kernel_fallbacks.series()
                if child.value}

    def test_disabled_kernel_counts_as_disabled(self, engine, alice):
        engine.kernel_enabled = False
        engine.check_access(alice, "write", "budget")
        assert self._reasons(engine) == {"disabled": 1}

    def test_diagnostics_bypass_counted(self, engine, alice):
        engine.obs.set_timing_interval(1)
        engine.check_access(alice, "write", "budget")
        assert self._reasons(engine) == {"diagnostics": 1}

    def test_deadline_bypass_counted(self, engine, alice):
        from repro.clock import Deadline
        # a live budget keeps the check on the kernel: nothing counted
        assert engine.check_access(alice, "write", "budget",
                                   deadline=Deadline(wall_budget=10.0))
        assert self._reasons(engine) == {}
        # an exhausted one is denied before dispatch, counted once
        wall = [0.0]
        spent = Deadline(wall_budget=1.0, wall=lambda: wall[0])
        wall[0] = 2.0
        assert not engine.check_access(alice, "write", "budget",
                                       deadline=spent)
        assert self._reasons(engine) == {"deadline": 1}

    def test_kernel_internal_reason_surfaces(self, engine, alice):
        engine.rules.quarantine("CA.checkAccess", reason="unit-test")
        # fail-closed: the check denies, and the kernel punts with the
        # quarantine reason before the interpreted pipeline denies
        assert not engine.check_access(alice, "write", "budget")
        assert self._reasons(engine) == {"quarantine": 1}

    def test_kernel_answered_checks_count_nothing(self, engine, alice):
        engine.check_access(alice, "write", "budget")
        assert self._reasons(engine) == {}


# ==========================================================================
# the explain API
# ==========================================================================


class TestExplain:
    def test_grant_via_direct_permission(self, engine, alice):
        explanation = engine.explain(alice, "write", "budget")
        assert explanation.allowed
        assert explanation.path == "kernel"
        assert explanation.rule == "CA.checkAccess"
        [role] = explanation.roles
        assert role["role"] == "PM"
        assert role["grants"]
        assert role["hierarchy_path"] == ["PM"]

    def test_grant_via_hierarchy_chain(self, engine, alice):
        explanation = engine.explain(alice, "read", "report")
        assert explanation.allowed
        [role] = explanation.roles
        assert role["source_role"] == "Clerk"
        assert role["hierarchy_path"] == ["PM", "PC", "Clerk"]
        assert "permission via PM > PC > Clerk" \
            in explanation.describe()

    def test_deny_no_permission(self, engine):
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Clerk")
        explanation = engine.explain(sid, "write", "budget")
        assert not explanation.allowed
        assert explanation.deny_cause \
            == "no active role holds the permission"
        assert explanation.to_dict()["verdict"] == "deny"

    def test_deny_unknown_object_in_clause_order(self, engine, alice):
        explanation = engine.explain(alice, "write", "nothing")
        assert not explanation.allowed
        assert explanation.deny_cause == "unknown object 'nothing'"

    def test_deny_unknown_session(self, engine):
        explanation = engine.explain("ghost", "read", "report")
        assert not explanation.allowed
        assert explanation.deny_cause == "unknown session"
        assert explanation.user is None

    def test_deny_locked_user(self, engine, alice):
        # add to the locked set directly: lock_user also destroys the
        # user's sessions, which would surface as "unknown session"
        engine.locked_users.add("alice")
        explanation = engine.explain(alice, "write", "budget")
        assert not explanation.allowed
        assert explanation.deny_cause == "user locked by active security"

    def test_disabled_kernel_explains_interpreted_path(self, engine,
                                                       alice):
        engine.kernel_enabled = False
        explanation = engine.explain(alice, "write", "budget")
        assert explanation.allowed
        assert explanation.path == "interpreted"
        assert explanation.fallback_reason == "disabled"

    def test_explain_path_matches_live_check_under_check_deadline(self):
        engine = ActiveRBACEngine(parse_policy(POLICY), check_deadline=5.0)
        sid = engine.create_session("alice")
        engine.add_active_role(sid, "PM")
        explanation = engine.explain(sid, "write", "budget")
        assert engine.check_access(sid, "write", "budget")
        [live] = [r for r in engine.flight.snapshot()
                  if r["kind"] == "decision"]
        assert (explanation.path, explanation.fallback_reason) \
            == (live["path"], live["fallback_reason"])

    def test_quarantined_rule_fails_closed(self, engine, alice):
        engine.rules.quarantine("CA.checkAccess", reason="unit-test")
        explanation = engine.explain(alice, "write", "budget")
        assert not explanation.allowed
        assert "fail closed" in explanation.deny_cause
        assert "CA.checkAccess" in explanation.deny_cause

    def test_explain_is_read_only(self, engine, alice):
        def reasons():
            return {labels["reason"]: child.value for labels, child
                    in engine.obs.kernel_fallbacks.series()}

        before = reasons()
        seq_before = engine.flight.seq
        decisions_before = {
            path: engine.obs.kernel_decisions.labels(path).value
            for path in ("grant", "deny", "fallback")}
        engine.explain(alice, "write", "budget")
        engine.explain(alice, "write", "nothing")
        # a kernel-internal fallback is explained, never counted
        ca = engine.kernel()._ca
        ca.quarantined = True
        try:
            assert engine.explain(
                alice, "write", "budget").fallback_reason == "quarantine"
        finally:
            ca.quarantined = False
        assert reasons() == before
        assert decisions_before == {
            path: engine.obs.kernel_decisions.labels(path).value
            for path in ("grant", "deny", "fallback")}
        # explanations are not decisions: the ring is untouched
        assert engine.flight.seq == seq_before

    def test_context_gate_explained(self):
        spec = parse_policy("""
        policy ctx {
          role Field;
          user u0;
          assign u0 to Field;
          permission read on secret;
          grant read on secret to Field;
          context Field requires network == "secure" for access;
        }
        """)
        engine = ActiveRBACEngine(spec)
        sid = engine.create_session("u0")
        engine.add_active_role(sid, "Field")
        engine.context.set("network", "insecure")
        explanation = engine.explain(sid, "read", "secret")
        assert not explanation.allowed
        [role] = explanation.roles
        assert role["context_gated"]
        assert not role["context_ok"]
        assert "context constraint not satisfied" \
            in explanation.deny_cause
        assert explanation.fallback_reason == "context_role"
        engine.context.set("network", "secure")
        assert engine.explain(sid, "read", "secret").allowed

    def test_privacy_explained(self):
        spec = parse_policy("""
        policy priv {
          role Desk;
          user u0;
          assign u0 to Desk;
          permission read on secret;
          grant read on secret to Desk;
          purpose ops;
          object_policy read on secret for ops;
        }
        """)
        engine = ActiveRBACEngine(spec)
        sid = engine.create_session("u0")
        engine.add_active_role(sid, "Desk")
        denied = engine.explain(sid, "read", "secret",
                                purpose="marketing")
        assert not denied.allowed
        assert denied.privacy == {"allowed": False, "regulated": True}
        assert "privacy policy denies" in denied.deny_cause
        granted = engine.explain(sid, "read", "secret", purpose="ops")
        assert granted.allowed
        assert granted.privacy["allowed"]
