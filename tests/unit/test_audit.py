"""Unit tests for the audit log."""

import pytest

from repro.clock import VirtualClock
from repro.security.audit import AuditEntry, AuditLog


@pytest.fixture
def clock():
    return VirtualClock()


class TestRecording:
    def test_record_carries_time_and_detail(self, clock):
        log = AuditLog(clock)
        clock.advance(5.0)
        entry = log.record("decision.allow", user="bob")
        assert entry.time == 5.0
        assert entry.detail == {"user": "bob"}
        assert len(log) == 1

    def test_capacity_evicts_oldest(self, clock):
        log = AuditLog(clock, capacity=3)
        for i in range(5):
            log.record("k", n=i)
        assert len(log) == 3
        assert [e.detail["n"] for e in log] == [2, 3, 4]
        assert log.dropped == 2

    def test_capacity_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            AuditLog(clock, capacity=0)

    def test_observers_called(self, clock):
        log = AuditLog(clock)
        seen = []
        log.observe(seen.append)
        log.record("security.alert", policy="p")
        assert len(seen) == 1
        assert seen[0].kind == "security.alert"


class TestQueries:
    @pytest.fixture
    def log(self, clock):
        log = AuditLog(clock)
        log.record("decision.allow", user="bob")
        clock.advance(10.0)
        log.record("decision.deny", user="carol")
        log.record("decision.deny", user="bob")
        clock.advance(10.0)
        log.record("admin.assign_user", user="bob", role="PC")
        return log

    def test_by_kind_prefix(self, log):
        assert len(log.by_kind("decision")) == 3
        assert len(log.by_kind("decision.deny")) == 2
        assert len(log.by_kind("admin")) == 1
        # prefix is dotted: "deci" must not match
        assert log.by_kind("deci") == []

    def test_matching_detail(self, log):
        assert len(log.matching(user="bob")) == 3
        assert len(log.matching(user="bob", role="PC")) == 1
        assert log.matching(user="ghost") == []

    def test_since(self, log):
        assert len(log.since(10.0)) == 3
        assert len(log.since(20.0)) == 1

    def test_tail(self, log):
        assert [e.kind for e in log.tail(2)] == [
            "decision.deny", "admin.assign_user"]

    @pytest.mark.parametrize("count", [0, -1, -5])
    def test_tail_of_nothing_is_empty(self, log, count):
        assert log.tail(count) == []

    def test_tail_longer_than_the_log_returns_all_oldest_first(self, log):
        assert log.tail(10) == list(log)

    def test_counts_by_kind(self, log):
        counts = log.counts_by_kind()
        assert counts["decision.deny"] == 2
        assert counts["decision.allow"] == 1

    def test_report_renders_counts(self, log):
        report = log.report()
        assert "4 entr(ies)" in report
        assert "decision.deny: 2" in report

    def test_describe_entry(self, log):
        entry = log.tail(1)[0]
        assert "admin.assign_user" in entry.describe()
        assert "role='PC'" in entry.describe()


def _fixed_records(clock):
    log = AuditLog(clock)
    clock.advance(5.0)
    first = log.record("decision.allow", category="access", user="bob",
                       operation="read", object="patient.dat")
    clock.advance(0.25)
    second = log.record("decision.deny", category="access", user="carol",
                        operation="write", object="chart", scope="/ward/a")
    clock.advance(1e6)
    third = log.record("obligation.owed", obligation=["notify", "log"],
                       object="x", user=None)
    return log, [first, second, third]


class TestCompactRecords:
    """The compact record keeps the dataclass API it replaced."""

    def test_detail_equals_the_keywords_given(self, clock):
        log = AuditLog(clock)
        detail = {"category": "access", "user": "bob", "n": 3, "x": None}
        assert log.record("k", **detail).detail == detail

    def test_mutating_detail_leaves_the_log_unchanged(self, clock):
        log = AuditLog(clock)
        entry = log.record("decision.allow", user="bob")
        entry.detail["user"] = "mallory"
        entry.detail.clear()
        assert entry.detail == {"user": "bob"}
        assert log.matching(user="bob") == [entry]

    @pytest.mark.parametrize("field", ["time", "kind", "detail", "other"])
    def test_entries_are_immutable(self, clock, field):
        entry = AuditLog(clock).record("k", user="bob")
        with pytest.raises(AttributeError):
            setattr(entry, field, 1)
        with pytest.raises(AttributeError):
            delattr(entry, field)

    def test_mutable_values_are_stored_by_reference(self, clock):
        owed = ["notify"]
        entry = AuditLog(clock).record("obligation.owed", obligation=owed)
        assert entry.detail["obligation"] is owed

    def test_equality_compares_time_kind_and_detail(self, clock):
        a = AuditLog(clock).record("k", user="bob")
        b = AuditLog(clock).record("k", user="bob")
        assert a == b
        assert a != AuditLog(clock).record("k", user="carol")
        assert isinstance(a, AuditEntry)

    def test_repr_is_unchanged(self, clock):
        # captured from the frozen-dataclass record this one replaced
        _log, entries = _fixed_records(clock)
        assert [repr(e) for e in entries] == [
            "AuditEntry(time=5.0, kind='decision.allow', detail="
            "{'category': 'access', 'user': 'bob', 'operation': 'read', "
            "'object': 'patient.dat'})",
            "AuditEntry(time=5.25, kind='decision.deny', detail="
            "{'category': 'access', 'user': 'carol', 'operation': "
            "'write', 'object': 'chart', 'scope': '/ward/a'})",
            "AuditEntry(time=1000005.25, kind='obligation.owed', detail="
            "{'obligation': ['notify', 'log'], 'object': 'x', "
            "'user': None})",
        ]

    def test_describe_is_unchanged(self, clock):
        _log, entries = _fixed_records(clock)
        assert [e.describe() for e in entries] == [
            "[t=5] decision.allow: category='access', "
            "object='patient.dat', operation='read', user='bob'",
            "[t=5.25] decision.deny: category='access', object='chart', "
            "operation='write', scope='/ward/a', user='carol'",
            "[t=1.00001e+06] obligation.owed: object='x', "
            "obligation=['notify', 'log'], user=None",
        ]

    def test_known_names_are_stored_as_the_tables_copy(self, clock):
        log = AuditLog(clock)
        canonical = "".join(["b", "ob"])
        log.names = {canonical: canonical}
        fresh = "".join(["bo", "b"])
        assert fresh is not canonical
        entry = log.record("decision.allow", user=fresh, object="ghost")
        assert entry.detail["user"] is canonical
        assert entry.detail["object"] == "ghost"
        assert log.names == {canonical: canonical}
