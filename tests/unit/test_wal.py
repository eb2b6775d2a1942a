"""Unit tests for the write-ahead log: record format, torn tails,
group commit, rotation, the Durability manager and recovery."""

import json
import os

import pytest

from repro import ActiveRBACEngine, parse_policy
from repro.errors import ActivationDenied, UnknownUserError
from repro.wal import (
    Durability,
    WriteAheadLog,
    decode_line,
    encode_record,
    read_wal,
    recover,
)

POLICY = """
policy durable {
  role A; role B; role Timed;
  user bob; user carol;
  assign bob to A; assign bob to Timed;
  assign carol to B;
  permission read on doc;
  grant read on doc to A;
  duration Timed 1000;
}
"""


@pytest.fixture
def engine():
    return ActiveRBACEngine.from_policy(parse_policy(POLICY))


@pytest.fixture
def durable(engine, tmp_path):
    durability = Durability(engine, str(tmp_path), batch_size=1)
    yield engine, durability, str(tmp_path)
    durability.close()


class TestRecordFormat:
    def test_round_trip(self):
        record = {"lsn": 7, "t": 1.5, "op": "session.create",
                  "data": {"id": "s1", "user": "bob", "seq": 2}}
        assert decode_line(encode_record(record)) == record

    def test_missing_newline_is_torn(self):
        line = encode_record({"lsn": 1, "t": 0.0, "op": "x", "data": {}})
        assert decode_line(line[:-1]) is None

    def test_bad_crc_rejected(self):
        line = bytearray(encode_record(
            {"lsn": 1, "t": 0.0, "op": "x", "data": {}}))
        line[-2] ^= 0xFF  # flip a payload byte, CRC now wrong
        assert decode_line(bytes(line)) is None

    def test_bad_json_and_bad_lsn_rejected(self):
        import zlib
        payload = b"not json"
        assert decode_line(
            b"%08x %s\n" % (zlib.crc32(payload), payload)) is None
        payload = json.dumps({"lsn": "seven"}).encode()
        assert decode_line(
            b"%08x %s\n" % (zlib.crc32(payload), payload)) is None


class TestReadWal:
    def _write(self, path, records, tail=b""):
        with open(path, "wb") as handle:
            for record in records:
                handle.write(encode_record(record))
            handle.write(tail)

    def test_reads_valid_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wanted = [{"lsn": i, "t": 0.0, "op": "x", "data": {}}
                  for i in (1, 2, 3)]
        self._write(path, wanted)
        records, report = read_wal(path)
        assert records == wanted
        assert not report["torn"]

    def test_missing_file_is_empty(self, tmp_path):
        records, report = read_wal(str(tmp_path / "absent.log"))
        assert records == [] and not report["torn"]

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wanted = [{"lsn": 1, "t": 0.0, "op": "x", "data": {}}]
        self._write(path, wanted, tail=b"deadbeef {half a rec")
        records, report = read_wal(path, repair=True)
        assert records == wanted
        assert report["torn"] and report["dropped_bytes"] == 20
        # the repair is durable: a second read finds a clean file
        _, report2 = read_wal(path)
        assert not report2["torn"]
        assert os.path.getsize(path) == report["valid_bytes"]

    def test_non_monotone_lsn_stops_reading(self, tmp_path):
        path = str(tmp_path / "wal.log")
        self._write(path, [
            {"lsn": 1, "t": 0.0, "op": "x", "data": {}},
            {"lsn": 1, "t": 0.0, "op": "y", "data": {}},  # replayed lsn
            {"lsn": 2, "t": 0.0, "op": "z", "data": {}},
        ])
        records, report = read_wal(path)
        assert [r["op"] for r in records] == ["x"]
        assert report["torn"]

    def test_corruption_mid_file_drops_the_rest(self, tmp_path):
        path = str(tmp_path / "wal.log")
        good = encode_record({"lsn": 1, "t": 0.0, "op": "x", "data": {}})
        also_good = encode_record(
            {"lsn": 2, "t": 0.0, "op": "y", "data": {}})
        with open(path, "wb") as handle:
            handle.write(good + b"garbage line\n" + also_good)
        records, _ = read_wal(path)
        # the record *after* the corruption is unreachable: lsn order
        # can no longer be trusted past the first bad byte
        assert [r["lsn"] for r in records] == [1]


class TestWriteAheadLog:
    def test_group_commit_batches_fsyncs(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), batch_size=3)
        for i in range(7):
            log.append("x", {"i": i}, 0.0)
        assert log.append_count == 7
        assert log.fsync_count == 2  # two full batches, one pending
        log.close()
        assert log.fsync_count == 3  # close drains the tail

    def test_reopen_adopts_existing_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, batch_size=1)
        log.append("x", {}, 0.0)
        log.append("x", {}, 0.0)
        log.close()
        reopened = WriteAheadLog(path, batch_size=1)
        assert reopened.last_lsn == 2
        record = reopened.append("x", {}, 0.0)
        assert record["lsn"] == 3
        reopened.close()

    def test_rotation_truncates_but_keeps_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, batch_size=1)
        log.append("x", {}, 0.0)
        log.rotate()
        assert os.path.getsize(path) == 0
        assert log.append("x", {}, 0.0)["lsn"] == 2
        log.close()


class TestDurability:
    def test_attaches_and_logs_commits(self, durable):
        engine, durability, _ = durable
        assert engine.wal is durability
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "A")
        engine.lock_user("carol")
        records, _ = read_wal(durability.wal_path)
        assert [r["op"] for r in records] == \
               ["session.create", "activation.add", "user.lock"]

    def test_context_updates_logged(self, durable):
        engine, durability, _ = durable
        engine.context.set("site", "hq")
        records, _ = read_wal(durability.wal_path)
        assert records[-1]["data"] == {"key": "site", "value": "hq"}

    def test_policy_change_logs_epoch(self, durable):
        engine, durability, _ = durable
        engine.add_user("dave")
        records, _ = read_wal(durability.wal_path)
        assert records[-1]["op"] == "policy.epoch"
        assert "user dave" in records[-1]["data"]["policy"]

    def test_checkpoint_rotates_and_stamps_lsn(self, durable):
        engine, durability, _ = durable
        engine.create_session("bob")
        lsn = durability.wal.last_lsn
        durability.checkpoint()
        with open(durability.snapshot_path) as handle:
            snap = json.load(handle)
        assert snap["wal"]["lsn"] == lsn
        records, _ = read_wal(durability.wal_path)
        assert records == []

    def test_auto_checkpoint_bounds_wal_growth(self, engine, tmp_path):
        durability = Durability(engine, str(tmp_path), batch_size=1,
                                auto_checkpoint=3)
        for i in range(8):
            engine.context.set("k", i)
        records, _ = read_wal(durability.wal_path)
        assert len(records) < 8
        assert durability.wal.rotation_count > 1  # init + auto
        durability.close()

    def test_close_detaches(self, engine, tmp_path):
        durability = Durability(engine, str(tmp_path))
        durability.close()
        assert engine.wal is None
        assert engine.context.on_set is None
        engine.create_session("bob")  # no crash: logging is off

    def test_obs_counters(self, durable):
        engine, durability, _ = durable
        engine.create_session("bob")
        stats = {name: series._value for name, series in
                 [("appends", engine.obs.wal_appends.labels(
                     "session.create"))]}
        assert stats["appends"] == 1
        assert engine.obs.wal_fsyncs._value >= 1  # batch_size=1
        assert engine.obs.wal_rotations._value >= 1  # init checkpoint


class TestRecover:
    def test_replays_tail_past_snapshot(self, durable):
        engine, durability, directory = durable
        engine.create_session("bob", session_id="s_ck")
        durability.checkpoint()
        sid = engine.create_session("bob", session_id="s_tail")
        engine.add_active_role(sid, "A")
        revived, report = recover(directory)
        assert report["skipped"] == 0  # rotation removed covered records
        assert report["replayed"] >= 2
        assert set(revived.model.sessions) == {"s_ck", "s_tail"}
        assert revived.model.session_roles("s_tail") == {"A"}
        assert revived.check_access("s_tail", "read", "doc")
        assert revived.audit.by_kind("wal.recover")

    def test_stale_records_skipped_by_lsn(self, durable):
        engine, durability, directory = durable
        engine.create_session("bob", session_id="s1")
        # simulate a crash between snapshot write and rotation: keep a
        # copy of the covered records, checkpoint, then splice the old
        # records back in front of the (empty) rotated log
        with open(durability.wal_path, "rb") as handle:
            stale = handle.read()
        durability.checkpoint()
        durability.wal.close()
        with open(durability.wal_path, "wb") as handle:
            handle.write(stale)
        revived, report = recover(directory)
        assert report["skipped"] > 0 and report["replayed"] == 0
        assert set(revived.model.sessions) == {"s1"}

    def test_counters_resume_monotone(self, durable):
        engine, durability, directory = durable
        engine.create_session("bob")  # consumes s1
        high_water = engine._session_seq.peek
        revived, _ = recover(directory)
        assert revived._session_seq.peek >= high_water
        fresh = revived.create_session("carol")
        assert fresh not in revived.audit.by_kind("nothing") and \
            fresh != "s1"

    def test_denied_requests_consume_no_ids(self, durable):
        """A denied session or activation takes no id (no WAL record
        could carry it), so recovery resumes both counters exactly
        where the live engine stands and never issues an id twice."""
        engine, _durability, directory = durable
        sid = engine.create_session("bob")
        with pytest.raises(ActivationDenied):
            engine.add_active_role(sid, "B")  # bob is not assigned B
        with pytest.raises(UnknownUserError):
            engine.create_session("nobody")
        revived, _ = recover(directory)
        assert revived._session_seq.peek == engine._session_seq.peek == 2
        assert revived._activation_seq.peek == \
            engine._activation_seq.peek == 1
        engine.add_active_role(sid, "A")
        revived.add_active_role(sid, "A")
        assert revived.current_activation == engine.current_activation
        assert revived.create_session("carol") == \
            engine.create_session("carol") == "s2"

    def test_quarantine_survives_recovery(self, durable):
        engine, durability, directory = durable
        victim = next(iter(engine.rules)).name
        engine.rules.quarantine(victim, reason="test")
        revived, _ = recover(directory)
        assert revived.rules.get(victim).quarantined
        assert not revived.rules.get(victim).enabled

    def test_rearm_survives_recovery(self, durable):
        engine, durability, directory = durable
        victim = next(iter(engine.rules)).name
        engine.rules.quarantine(victim, reason="test")
        engine.rules.rearm(victim)
        revived, _ = recover(directory)
        assert not revived.rules.get(victim).quarantined

    def test_clock_advances_replayed(self, durable):
        engine, durability, directory = durable
        engine.advance_time(123.0)
        revived, _ = recover(directory)
        assert revived.clock.now == 123.0

    def test_duration_countdown_owed_after_recovery(self, durable):
        engine, durability, directory = durable
        sid = engine.create_session("bob")
        engine.add_active_role(sid, "Timed")
        engine.advance_time(400.0)
        revived, _ = recover(directory)
        revived.advance_time(599.0)
        assert "Timed" in revived.model.session_roles(sid)
        revived.advance_time(1.0)
        assert "Timed" not in revived.model.session_roles(sid)

    def test_torn_tail_truncated_not_replayed(self, durable):
        engine, durability, directory = durable
        engine.create_session("bob", session_id="s_good")
        durability.wal.sync()
        with open(durability.wal_path, "ab") as handle:
            handle.write(b"00000000 {\"lsn\": torn")
        revived, report = recover(directory)
        assert report["torn"] and report["dropped_bytes"] > 0
        assert set(revived.model.sessions) == {"s_good"}
        assert revived.obs.wal_torn_tails._value == 1

    def test_unknown_op_fails_loudly(self, durable):
        engine, durability, directory = durable
        durability.wal.append("future.op", {}, 0.0)
        durability.wal.sync()
        with pytest.raises(ValueError, match="unknown op"):
            recover(directory)

    def test_policy_epoch_replay_swaps_policy(self, durable):
        engine, durability, directory = durable
        engine.add_user("dave")
        engine.assign_user("dave", "B")
        revived, _ = recover(directory)
        assert "dave" in revived.model.users
        assert revived.policy_epoch == engine.policy_epoch
        sid = revived.create_session("dave")
        revived.add_active_role(sid, "B")
        assert revived.model.session_roles(sid) == {"B"}


EDITOR_POLICY = """
policy edits {
  role A; role B; role C;
  user bob; user carol;
  assign bob to A; assign carol to A; assign carol to B;
  permission read on doc;
  grant read on doc to A;
  duration A 1000;
  enable C daily 09:00 to 17:00;
  disabling_sod Cover roles A, B daily 09:00 to 17:00;
}
"""


def _editor_edits():
    from repro.extensions.context import ContextConstraint, ContextOp
    from repro.gtrbac.constraints import DisablingTimeSoD
    from repro.gtrbac.periodic import PeriodicInterval
    shift = PeriodicInterval(8 * 3600, 16 * 3600)
    return [
        ("set_enabling_window",
         lambda ed: ed.set_enabling_window("B", shift)),
        ("clear_enabling_window", lambda ed: ed.clear_enabling_window("C")),
        ("set_duration", lambda ed: ed.set_duration("B", 500.0, "carol")),
        ("clear_duration", lambda ed: ed.clear_duration("A")),
        ("add_disabling_sod", lambda ed: ed.add_disabling_sod(
            DisablingTimeSoD("Pair", frozenset({"A", "C"}), shift))),
        ("remove_disabling_sod",
         lambda ed: ed.remove_disabling_sod("Cover")),
        ("add_prerequisite", lambda ed: ed.add_prerequisite("B", "A")),
        ("add_post_condition", lambda ed: ed.add_post_condition("A", "B")),
        ("add_transaction", lambda ed: ed.add_transaction("B", "A")),
        ("set_role_cardinality",
         lambda ed: ed.set_role_cardinality("A", 1)),
        ("set_user_max_roles", lambda ed: ed.set_user_max_roles("bob", 1)),
        ("add_context_constraint", lambda ed: ed.add_context_constraint(
            ContextConstraint("B", "network", ContextOp.EQ, "secure"))),
    ]


class TestPolicyEditorDurability:
    """Every PolicyEditor edit is durable: one epoch bump and one
    ``policy.epoch`` record, like an engine admin method."""

    def test_every_editor_method_covered(self):
        from repro import PolicyEditor
        public = {name for name in vars(PolicyEditor)
                  if not name.startswith("_")}
        assert public == {name for name, _edit in _editor_edits()}

    @pytest.mark.parametrize("index", range(len(_editor_edits())),
                             ids=[name for name, _ in _editor_edits()])
    def test_edit_survives_recovery(self, tmp_path, index):
        from repro import PolicyEditor
        from repro.policy.dsl import render_policy
        _name, edit = _editor_edits()[index]
        engine = ActiveRBACEngine.from_policy(parse_policy(EDITOR_POLICY))
        durability = Durability(engine, str(tmp_path), batch_size=1)
        try:
            epoch, lsn = engine.policy_epoch, durability.wal.last_lsn
            edit(PolicyEditor(engine))
            records, _ = read_wal(durability.wal_path)
            logged = [r for r in records
                      if r["lsn"] > lsn and r["op"] == "policy.epoch"]
            assert engine.policy_epoch == epoch + 1
            assert len(logged) == 1
            revived, _ = recover(str(tmp_path))
            assert render_policy(revived.policy) == \
                render_policy(engine.policy)
            assert revived.policy_epoch == engine.policy_epoch
        finally:
            durability.close()

    def test_cardinality_edit_still_denies_after_recovery(self, tmp_path):
        from repro import PolicyEditor
        from repro.errors import AccessDenied
        engine = ActiveRBACEngine.from_policy(parse_policy(EDITOR_POLICY))
        durability = Durability(engine, str(tmp_path), batch_size=1)
        try:
            PolicyEditor(engine).set_role_cardinality("A", 1)
        finally:
            durability.close()
        revived, _ = recover(str(tmp_path))
        assert revived.model.roles["A"].max_active_users == 1
        revived.add_active_role(revived.create_session("bob"), "A")
        with pytest.raises(AccessDenied):
            revived.add_active_role(revived.create_session("carol"), "A")


ANCHOR_POLICY = """
policy anchored {
  role A; role B;
  user bob;
  assign bob to A; assign bob to B;
  permission read on doc;
  grant read on doc to A;
  transaction B during A;
}
"""


class TestDeletionIsDurable:
    """Deleting a user or role tears its live state down through the
    logged commit helpers, so recovery cannot resurrect it."""

    def test_deleted_user_session_stays_deleted(self, durable):
        engine, _, directory = durable
        sid = engine.create_session("bob", session_id="s1")
        engine.add_active_role(sid, "A")
        engine.delete_user("bob")
        engine.add_user("bob")
        live = engine.check_access("s1", "read", "doc")
        revived, _ = recover(directory)
        assert set(revived.model.sessions) == set(engine.model.sessions)
        assert live is False
        assert revived.check_access("s1", "read", "doc") is live

    def test_deleted_anchor_role_stays_deleted(self, tmp_path):
        engine = ActiveRBACEngine.from_policy(parse_policy(ANCHOR_POLICY))
        durability = Durability(engine, str(tmp_path), batch_size=1)
        try:
            sid = engine.create_session("bob", session_id="s1")
            engine.add_active_role(sid, "A")
            engine.add_active_role(sid, "B")
            engine.delete_role("A")
            engine.add_role("A")
            engine.grant_permission("A", "read", "doc")
            live = engine.check_access(sid, "read", "doc")
        finally:
            durability.close()
        revived, _ = recover(str(tmp_path))
        assert revived.model.session_roles(sid) == \
            engine.model.session_roles(sid) == set()
        assert live is False
        assert revived.check_access(sid, "read", "doc") is live


def _append(directory, records):
    log = WriteAheadLog(os.path.join(directory, "wal.log"), batch_size=1)
    for op, data in records:
        log.append(op, data, 0.0)
    log.close()


class TestTailDrops:
    """A tail session or activation the final policy cannot hold is
    dropped and audited; one a later record removed is not."""

    def test_only_live_tail_state_is_audited_as_dropped(self, engine,
                                                        tmp_path):
        Durability(engine, str(tmp_path), batch_size=1).close()
        _append(str(tmp_path), [
            ("session.create", {"id": "s_ghost", "user": "ghost",
                                "seq": 1}),
            ("session.create", {"id": "s_gone", "user": "ghost2",
                                "seq": 1}),
            ("session.delete", {"id": "s_gone"}),
            ("session.create", {"id": "s_bob", "user": "bob", "seq": 1}),
            ("activation.add", {"session": "s_bob", "role": "Gone",
                                "activation_id": 1, "started": 0.0,
                                "seq": 2}),
            ("activation.add", {"session": "s_bob", "role": "Undone",
                                "activation_id": 2, "started": 0.0,
                                "seq": 3}),
            ("activation.drop", {"session": "s_bob", "role": "Undone"}),
        ])
        revived, _ = recover(str(tmp_path))
        assert set(revived.model.sessions) == {"s_bob"}
        (session,) = revived.audit.by_kind("restore.drop_session")
        assert session.detail["session"] == "s_ghost"
        (activation,) = revived.audit.by_kind("restore.drop_activation")
        assert activation.detail["role"] == "Gone"
        (record,) = revived.audit.by_kind("admin.restore")
        assert record.detail["dropped_sessions"] == 1
        assert record.detail["dropped_activations"] == 1
