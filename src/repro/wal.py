"""Write-ahead log and crash recovery for the active-rule engine.

:mod:`repro.persistence` gives the engine restart recovery at snapshot
granularity: everything since the last :func:`~repro.persistence.save`
is lost.  This module closes that window with a classic WAL design:

* every state-mutating operation (session create/drop, role
  activate/deactivate, role enable/disable, context update, user
  lock/unlock, policy regeneration epoch, rule quarantine/re-arm) is
  appended to an append-only log *after* it commits in memory;
* each record is one line — ``crc32 json\\n`` — so a torn tail (the
  crash landed mid-write) is detected by checksum and truncated, never
  replayed;
* fsyncs are batched (group commit): ``batch_size`` appends share one
  fsync, trading a bounded tail-loss window for throughput;
* recovery = newest valid snapshot + every record with an LSN past
  the snapshot's high-water mark: policy swaps and rule-breaker
  records pick the engine that is restored once, and every
  session-level record goes through :func:`fold`, the one reader of
  session facts (restore and replay use it too) — it writes facts,
  never events, so replay never re-fires rules;
* checkpointing writes a fresh snapshot (stamped with the WAL's last
  LSN) and rotates the log.  A crash between the two leaves stale
  records whose LSNs the snapshot already covers; recovery skips them.

The :class:`Durability` manager owns the wiring: construct it around a
live engine and every commit helper starts logging through
``engine.wal``; :func:`recover` rebuilds an equivalent engine from the
directory after a crash.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any

from repro.containment import fsync_dir, fsync_file

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.log"

#: session-level facts: :func:`fold` applies them to an engine
SESSION_OPS = frozenset({
    "session.create", "session.delete",
    "activation.add", "activation.drop",
    "role.status", "user.lock", "user.unlock",
    "context.set", "clock.advance",
})

#: policy swaps: each carries the full re-rendered policy; a lifecycle
#: swap (promote/rollback) also pins the config version it deployed
SWAP_OPS = frozenset({"policy.epoch", "config.promote", "config.rollback"})

#: every op recovery understands; unknown ops fail recovery loudly
#: rather than silently dropping a mutation class
KNOWN_OPS = SESSION_OPS | SWAP_OPS | frozenset({
    "rule.quarantine", "rule.rearm",
    # policy lifecycle (repro/config/): audit-only markers
    "config.stage", "config.refuse",
    # opt-in decision journal (engine.decision_journal): not state —
    # recovery skips it, replay (repro/config/replay.py) re-runs it
    "decision.check",
})


def encode_record(record: dict[str, Any]) -> bytes:
    """One WAL line: crc32 of the compact-JSON payload, then the payload."""
    payload = json.dumps(record, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def decode_line(line: bytes) -> dict[str, Any] | None:
    """Parse one WAL line; None when torn/corrupt (bad CRC, bad JSON,
    missing newline — a write the crash interrupted)."""
    if not line.endswith(b"\n"):
        return None
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b" ":
        return None
    try:
        crc = int(body[:8], 16)
    except ValueError:
        return None
    payload = body[9:]
    if zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(record, dict) or not isinstance(
            record.get("lsn"), int):
        return None
    return record


def read_wal(path: str, *, repair: bool = False
             ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Read every valid record from a WAL file, stopping at the tail.

    Validity is per line (CRC + JSON + integer ``lsn``) *and* global:
    LSNs must be strictly increasing — a non-monotone LSN means the
    file was corrupted past what checksums can see, so reading stops
    there too.  With ``repair=True`` the file is truncated at the
    first bad byte (torn-tail repair) and fsynced.

    Returns ``(records, report)`` where the report carries ``torn``
    (bool), ``valid_bytes`` and ``dropped_bytes``.
    """
    records: list[dict[str, Any]] = []
    report: dict[str, Any] = {"torn": False, "valid_bytes": 0,
                              "dropped_bytes": 0}
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return records, report

    offset = 0
    last_lsn = None
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        line = raw[offset:] if end < 0 else raw[offset:end + 1]
        record = decode_line(line)
        if record is None or (last_lsn is not None
                              and record["lsn"] <= last_lsn):
            break
        records.append(record)
        last_lsn = record["lsn"]
        offset += len(line)

    if offset < len(raw):
        report["torn"] = True
        report["dropped_bytes"] = len(raw) - offset
    report["valid_bytes"] = offset
    if repair and report["torn"]:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            fsync_file(handle)
    return records, report


class WriteAheadLog:
    """The append-only checksummed log file with batched fsync.

    ``batch_size`` appends share one fsync (group commit): a crash can
    lose at most the last ``batch_size - 1`` appended records, never
    corrupt earlier ones.  ``batch_size=1`` is strict write-through.
    """

    def __init__(self, path: str, *, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.path = path
        self.batch_size = batch_size
        # adopt whatever valid prefix an existing log holds (repairing
        # any torn tail first, so appends land on a clean boundary)
        existing, _ = read_wal(path, repair=True)
        self.last_lsn = existing[-1]["lsn"] if existing else 0
        self.records_kept = len(existing)
        self._handle = open(path, "ab")
        self._unsynced = 0
        self.append_count = 0
        self.fsync_count = 0
        self.rotation_count = 0

    def append(self, op: str, data: dict[str, Any], t: float) -> dict:
        """Append one record; fsync when the batch fills."""
        record = {"lsn": self.last_lsn + 1, "t": t, "op": op,
                  "data": data}
        _write_line(self._handle, encode_record(record))
        self.last_lsn = record["lsn"]
        self.append_count += 1
        self._unsynced += 1
        if self._unsynced >= self.batch_size:
            self.sync()
        return record

    def sync(self) -> bool:
        """Force buffered records to stable storage; True if it fsynced."""
        if self._unsynced == 0:
            self._handle.flush()
            return False
        fsync_file(self._handle)
        self._unsynced = 0
        self.fsync_count += 1
        return True

    def rotate(self) -> None:
        """Truncate the log (checkpoint compaction).  LSNs keep
        counting — they are global, not per-file, so recovery can
        order any surviving record against any snapshot."""
        self._handle.close()
        self._handle = open(self.path, "wb")
        fsync_file(self._handle)
        fsync_dir(os.path.dirname(os.path.abspath(self.path)))
        self._unsynced = 0
        self.records_kept = 0
        self.rotation_count += 1

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()


def _write_line(handle, line: bytes) -> None:
    """Single write site for WAL lines.

    Module-level so the crash harness can patch it
    (``chaos.patch(wal, "_write_line", point)``) to kill the process
    at an exact record boundary.
    """
    handle.write(line)


class Durability:
    """Attach WAL durability to a live engine.

    Wires ``engine.wal`` (the commit helpers in
    :mod:`repro.engine` / :mod:`repro.rules.manager` check it) and the
    context provider's ``on_set`` hook, writes an initial checkpoint,
    and exposes :meth:`checkpoint` / :meth:`close`.

    ``auto_checkpoint`` (records) bounds WAL growth: once that many
    records accumulate since the last checkpoint, the next
    :meth:`log` triggers snapshot + rotation automatically.
    """

    def __init__(self, engine: Any, directory: str, *,
                 batch_size: int = 8,
                 auto_checkpoint: int | None = None) -> None:
        os.makedirs(directory, exist_ok=True)
        self.engine = engine
        self.directory = directory
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILE)
        self.wal_path = os.path.join(directory, WAL_FILE)
        self.auto_checkpoint = auto_checkpoint
        self.wal = WriteAheadLog(self.wal_path, batch_size=batch_size)
        self._since_checkpoint = self.wal.records_kept
        self._in_checkpoint = False
        engine.wal = self
        engine.context.on_set = self._on_context_set
        self.checkpoint()

    # -- logging ---------------------------------------------------------------

    def log(self, op: str, **data: Any) -> dict[str, Any]:
        """Append one operation record (engine commit helpers call this)."""
        record = self.wal.append(op, data, self.engine.clock.now)
        self._since_checkpoint += 1
        obs = self.engine.obs
        if obs is not None and obs.enabled:
            obs.wal_appended(op, synced=self.wal._unsynced == 0)
        if (self.auto_checkpoint is not None
                and not self._in_checkpoint
                and self._since_checkpoint >= self.auto_checkpoint):
            self.checkpoint()
        return record

    def _on_context_set(self, name: str, value: Any) -> None:
        if isinstance(value, (str, int, float, bool, type(None))):
            self.log("context.set", key=name, value=value)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot + rotate: the crash-safe compaction sequence.

        Order matters: (1) fsync the WAL so the snapshot never claims
        an LSN that is not durable; (2) atomically write the snapshot
        stamped with that LSN; (3) rotate the log.  A crash after (2)
        but before (3) leaves records the snapshot already covers —
        recovery skips them by LSN.
        """
        from repro import persistence
        self._in_checkpoint = True
        try:
            self.wal.sync()
            payload = persistence.snapshot(self.engine)
            payload["wal"] = {"lsn": self.wal.last_lsn}
            persistence._write_payload(
                self.snapshot_path,
                json.dumps(payload, separators=(",", ":"),
                           sort_keys=True))
            self.wal.rotate()
        finally:
            self._in_checkpoint = False
        self._since_checkpoint = 0
        obs = self.engine.obs
        if obs is not None and obs.enabled:
            obs.wal_rotated()
        self.engine.audit.record("wal.checkpoint",
                                 lsn=self.wal.last_lsn)
        return payload

    def close(self) -> None:
        """Final fsync + detach (the engine keeps running, unlogged)."""
        self.wal.close()
        if getattr(self.engine, "wal", None) is self:
            self.engine.wal = None
        if self.engine.context.on_set == self._on_context_set:
            self.engine.context.on_set = None


# ==========================================================================
# recovery: swaps and breaker state pick the engine, one fold applies facts
# ==========================================================================


def recover(directory: str) -> tuple[Any, dict[str, Any]]:
    """Rebuild an engine from a :class:`Durability` directory.

    Loads the newest valid snapshot and repairs/reads the WAL.  The
    tail (records with ``lsn > snapshot.wal.lsn``) is read twice: its
    clock, policy swaps and rule-breaker records fold into the
    snapshot dict, since they decide which engine
    :func:`repro.persistence.restore` builds (a quarantine takes effect
    once, through ``RuleManager.state_restore``); restore then applies
    its session-level records through :func:`fold`.  Folding facts
    means replay can never re-fire rules, re-deny, or cascade.

    Returns ``(engine, report)``; the engine has **no** Durability
    attached — call ``Durability(engine, directory)`` to resume
    logging (which also checkpoints, folding the replayed tail into a
    fresh snapshot).
    """
    from repro import persistence

    snapshot_path = os.path.join(directory, SNAPSHOT_FILE)
    with open(snapshot_path, encoding="utf-8") as handle:
        state = json.load(handle)
    snapshot_lsn = int(state.get("wal", {}).get("lsn", 0))

    records, wal_report = read_wal(
        os.path.join(directory, WAL_FILE), repair=True)
    tail = [record for record in records if record["lsn"] > snapshot_lsn]
    for record in tail:
        _fold_snapshot(state, record)

    engine = persistence.restore(state, tail)
    # the decision plane is never persisted (compiled state, not
    # authority state): recompile from the restored policy so the first
    # post-recovery check does not pay the build, and surface the cost
    kernel_us = None
    if engine.kernel_enabled:
        kernel_us = engine.kernel().build_ns / 1000
    report = {
        "snapshot_lsn": snapshot_lsn,
        "records": len(records),
        "replayed": len(tail),
        "skipped": len(records) - len(tail),
        "torn": wal_report["torn"],
        "dropped_bytes": wal_report["dropped_bytes"],
        "clock": engine.clock.now,
        "sessions": len(engine.model.sessions),
        "kernel_rebuild_us": kernel_us,
    }
    obs = engine.obs
    if obs is not None and obs.enabled:
        obs.wal_recovered(len(tail), torn=wal_report["torn"])
    engine.audit.record("wal.recover", **report)
    # forensics: leave a flight-recorder dump next to the state it was
    # recovered from (the ring holds only the recovery-time view, but
    # the dump's health/report context records what replay found)
    report["flightrec"] = engine.dump_flight("wal.recover",
                                             directory=directory)
    return engine, report


def _fold_snapshot(state: dict[str, Any], record: dict[str, Any]) -> None:
    """Fold one record's time, policy swap or breaker transition into
    a snapshot-shaped dict."""
    state["clock"] = max(float(state.get("clock", 0.0)),
                         float(record.get("t", 0.0)))
    op = record["op"]
    data = record.get("data", {})
    if op in SWAP_OPS:
        # the record carries the full re-rendered policy: replay swaps
        # the text the rule pool regenerates from, no diffing needed
        state["policy"] = data["policy"]
        state["policy_epoch"] = int(data["epoch"])
        if op != "policy.epoch":
            state["config_version"] = int(data["version"])
    elif op == "rule.quarantine":
        rules = {entry["name"]: entry
                 for entry in state.get("rules", ())}
        entry = rules.setdefault(data["rule"], {
            "name": data["rule"], "fault_count": 0,
            "consecutive_faults": 0, "quarantined": False,
            "quarantine_epoch": 0,
        })
        if not entry["quarantined"]:
            entry["quarantined"] = True
            entry["quarantine_epoch"] = \
                int(entry.get("quarantine_epoch", 0)) + 1
        state["rules"] = list(rules.values())
    elif op == "rule.rearm":
        for entry in state.get("rules", ()):
            if entry.get("name") == data["rule"]:
                entry["quarantined"] = False
                entry["consecutive_faults"] = 0


def fold(engine: Any, record: dict[str, Any],
         lost: dict[tuple[str, ...], dict[str, Any]] | None = None
         ) -> str | None:
    """Apply one session-level record to ``engine`` as a fact: the one
    reader of session facts (restore, recovery and replay).

    Writes through the model's record-level methods, so no event, rule,
    audit or WAL record follows.  Returns a gap reason when the record
    names a user, role or session the engine lacks; other known ops
    fold to nothing, unknown ones raise ``ValueError``.  ``lost``
    (restore's drop ledger) keeps the audit detail of each session or
    activation a gap left out, until a later record removes it.
    """
    op = record["op"]
    if op not in SESSION_OPS:
        if op not in KNOWN_OPS:
            raise ValueError(
                f"WAL record lsn={record.get('lsn')} has unknown op "
                f"{op!r}; refusing to recover with a silently-dropped "
                "mutation")
        return None
    data = record.get("data", {})
    model = engine.model
    lost = {} if lost is None else lost
    if op == "session.create":
        engine._session_seq.resume(data.get("seq", 1))
        sid, user = data["id"], data["user"]
        if user not in model.users:
            lost[(sid,)] = {"session": sid, "user": user,
                            "reason": "unknown user"}
            return f"unknown user {user!r}"
        if sid not in model.sessions:
            model.create_session_record(sid, user)
    elif op == "session.delete":
        sid = data["id"]
        if sid in model.sessions:
            for role in model.sessions[sid].active_roles:
                key = (sid, role)
                engine.current_activation.pop(key, None)
                engine.activation_started.pop(key, None)
            model.delete_session_record(sid)
        for key in [key for key in lost if key[0] == sid]:
            del lost[key]
    elif op == "activation.add":
        engine._activation_seq.resume(data.get("seq", 1))
        sid, role = data["session"], data["role"]
        key = (sid, role)
        if sid not in model.sessions:
            return f"unknown session {sid!r}"
        if role not in model.roles:
            lost[key] = {"session": sid, "role": role,
                         "reason": "unknown role"}
            return f"unknown role {role!r}"
        model.add_session_role_record(sid, role)
        engine.current_activation[key] = int(data["activation_id"])
        engine.activation_started[key] = float(data["started"])
    elif op == "activation.drop":
        sid, role = data["session"], data["role"]
        key = (sid, role)
        if sid in model.sessions:
            model.drop_session_role_record(sid, role)
        engine.current_activation.pop(key, None)
        engine.activation_started.pop(key, None)
        lost.pop(key, None)
    elif op == "role.status":
        if data["role"] not in model.roles:
            return f"unknown role {data['role']!r}"
        model.set_role_enabled(data["role"], bool(data["enabled"]))
    elif op == "user.lock":
        engine.locked_users.add(data["user"])
    elif op == "user.unlock":
        engine.locked_users.discard(data["user"])
    elif op == "context.set":
        # ContextProvider.set stores silently (no event)
        engine.context.set(data["key"], data["value"])
    else:  # clock.advance: virtual time only moves forward
        engine.clock.advance_to(max(engine.clock.now, float(data["to"])))
    return None
