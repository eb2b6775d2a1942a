"""Engine state snapshot and restore (restart recovery).

A production enforcement point must survive restarts without losing
sessions or temporal state.  :func:`snapshot` captures everything the
engine needs in a JSON-serialisable dict:

* the policy (rendered as canonical DSL text — the single source the
  rule pool regenerates from),
* the simulated clock,
* sessions with their active roles, activation ids and start times,
* role enabled/disabled status,
* locked users and context variables,
* the session/activation counters (peeked, never consumed — taking a
  snapshot must not mutate the live engine),
* in-flight partial detections (buffered SEQUENCE initiators, pending
  PLUS countdowns, open APERIODIC windows, ...) via
  :meth:`~repro.events.detector.EventDetector.state_snapshot`,
* per-rule circuit-breaker state (fault counters, quarantine flags)
  via :meth:`~repro.rules.manager.RuleManager.state_snapshot`.

:func:`restore` rebuilds a fresh :class:`~repro.engine.ActiveRBACEngine`
from the snapshot: the rule pool is *regenerated* from the policy (not
serialised — rules are code); role status, locks, context, sessions
and activations are applied as records through
:func:`repro.wal.fold` (the one reader of session facts, so a WAL tail
passed along folds the same way); then activation duration countdowns
are **re-armed with their remaining time**; a countdown that expired
while the engine was down deactivates the role immediately on restore.

What is deliberately *not* restored:

* the audit log (ship it to durable storage via
  ``engine.audit.observe``; a restored engine starts a fresh log);
* active-security sliding windows (conservative reset: a restart
  re-arms every threshold from zero);
* the compiled :class:`~repro.kernel.PolicyKernel` — it is derived
  state (a pure function of the restored policy), never snapshotted;
  the rebuilt engine recompiles lazily on its first check (or eagerly
  in :func:`repro.wal.recover`).

Sessions/activations still live at the end that reference users or
roles the policy lacks are *dropped*, but never silently: each drop
is recorded in the audit log and counted in the ``admin.restore``
record, so an operator can tell recovery lost state on purpose.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Any, Iterable, Iterator

from repro.clock import VirtualClock
from repro.containment import fsync_dir, fsync_file, retry_transient
from repro.engine import ActiveRBACEngine
from repro.policy.dsl import parse_policy, render_policy

SNAPSHOT_VERSION = 2

#: snapshot versions :func:`restore` accepts (v1 predates the
#: ``detector``/``rules``/``policy_epoch`` keys, all optional on read)
SUPPORTED_VERSIONS = (1, 2)


def snapshot(engine: ActiveRBACEngine) -> dict[str, Any]:
    """Capture the engine's dynamic state as a JSON-serialisable dict."""
    sessions = []
    for session_id, session in engine.model.sessions.items():
        activations = {}
        for role in session.active_roles:
            key = (session_id, role)
            activations[role] = {
                "activation_id": engine.current_activation.get(key, 0),
                "started": engine.activation_started.get(
                    key, engine.clock.now),
            }
        sessions.append({
            "id": session_id,
            "user": session.user,
            "activations": activations,
        })
    return {
        "version": SNAPSHOT_VERSION,
        "policy": render_policy(engine.policy),
        "clock": engine.clock.now,
        # fresh stamps must order after every restored in-flight
        # occurrence minted at the same instant
        "clock_seq": engine.clock.tiebreak,
        "sessions": sessions,
        "role_enabled": {
            name: role.enabled
            for name, role in engine.model.roles.items()
        },
        "locked_users": sorted(engine.locked_users),
        "context": {
            key: value
            for key, value in engine.context.snapshot().items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
        "counters": {
            # peek, don't consume: snapshotting a live engine must not
            # burn ids (the seed drained these with next())
            "session_seq": engine._session_seq.peek,
            "activation_seq": engine._activation_seq.peek,
        },
        "policy_epoch": engine.policy_epoch,
        "config_version": engine.config_version,
        "detector": engine.detector.state_snapshot(),
        "rules": engine.rules.state_snapshot(),
    }


def dumps(engine: ActiveRBACEngine, **json_kwargs: Any) -> str:
    """Snapshot as a JSON string."""
    return json.dumps(snapshot(engine), **json_kwargs)


def restore(data: dict[str, Any],
            records: Iterable[dict[str, Any]] = ()) -> ActiveRBACEngine:
    """Rebuild an engine from a :func:`snapshot` dict, then apply
    ``records`` (the WAL tail :func:`repro.wal.recover` read past the
    snapshot).

    The snapshot's session state and the records go through the one
    fold, :func:`repro.wal.fold`; duration countdowns re-arm once, at
    the final clock.
    """
    from repro.wal import fold
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported snapshot version {version!r} "
            f"(expected one of {SUPPORTED_VERSIONS})")
    policy = parse_policy(data["policy"])
    clock = VirtualClock(start=float(data["clock"]))
    clock.resume_tiebreak(int(data.get("clock_seq", 0)))
    engine = ActiveRBACEngine(policy, clock=clock)

    # counters resume past the snapshot's high-water marks
    counters = data.get("counters", {})
    engine._session_seq.resume(counters.get("session_seq", 1))
    engine._activation_seq.resume(counters.get("activation_seq", 1))
    engine.policy_epoch = int(data.get("policy_epoch", 0))
    raw_version = data.get("config_version")
    engine.config_version = (None if raw_version is None
                             else int(raw_version))

    lost: dict[tuple[str, ...], dict[str, Any]] = {}
    for record in chain(_snapshot_records(data), records):
        fold(engine, record, lost)
    # a session or activation the final policy cannot hold is dropped,
    # but never silently
    for key, detail in lost.items():
        engine.audit.record("restore.drop_session" if len(key) == 1
                            else "restore.drop_activation", **detail)
    dropped_sessions = sum(len(key) == 1 for key in lost)
    sessions = len(engine.model.sessions) + dropped_sessions

    now = engine.clock.now
    for key, activation_id in list(engine.current_activation.items()):
        _rearm_duration(engine, key, activation_id, now)

    # v2 extras: in-flight partial detections and breaker state
    detector_state = data.get("detector")
    if detector_state:
        engine.detector.state_restore(detector_state)
    rules_state = data.get("rules")
    if rules_state:
        engine.rules.state_restore(rules_state)

    engine.audit.record("admin.restore", sessions=sessions,
                        dropped_sessions=dropped_sessions,
                        dropped_activations=len(lost) - dropped_sessions,
                        clock=now)
    return engine


def _snapshot_records(data: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """The snapshot's session state as the records that rebuild it:
    role status (overriding the windows' initial guess), locks and
    context first, then each session with its activations."""
    for name, enabled in data.get("role_enabled", {}).items():
        yield {"op": "role.status",
               "data": {"role": name, "enabled": enabled}}
    for user in data.get("locked_users", ()):
        yield {"op": "user.lock", "data": {"user": user}}
    for key, value in data.get("context", {}).items():
        yield {"op": "context.set", "data": {"key": key, "value": value}}
    for session in data.get("sessions", ()):
        yield {"op": "session.create",
               "data": {"id": session["id"], "user": session["user"]}}
        for role, info in session["activations"].items():
            yield {"op": "activation.add",
                   "data": {"session": session["id"], "role": role, **info}}


def loads(text: str) -> ActiveRBACEngine:
    """Restore from a JSON string."""
    return restore(json.loads(text))


#: indirection so the crash harness can kill mid-rename (between the
#: durable tmp file and the visible path) without monkeypatching os
_replace = os.replace


def _write_payload(path: str, payload: str) -> None:
    """Crash-safely write the snapshot payload (tmp + fsync + rename).

    The seed's tmp-file + ``os.replace`` was atomic against *readers*
    but not against power loss: the rename could land while the tmp
    file's data was still in the page cache, leaving a durable name
    pointing at garbage.  Order now: write tmp, fsync tmp, rename,
    fsync the directory (see :func:`repro.containment.fsync_dir`).

    Module-level so tests and the fault-injection harness can patch it
    as a transient-failure point.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        fsync_file(handle)
    _replace(tmp, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))


def save(engine: ActiveRBACEngine, path: str, *,
         attempts: int = 3, **json_kwargs: Any) -> None:
    """Snapshot the engine to ``path`` with bounded retry.

    The write is atomic (tmp + ``os.replace``) and retried on
    :class:`~repro.errors.TransientError` / ``OSError`` with bounded
    backoff; retries are counted on the engine's observability hub
    under the ``persistence.write`` site.  Exhaustion raises
    :class:`~repro.errors.RetryExhausted`.
    """
    payload = dumps(engine, **json_kwargs)
    retry_transient(
        lambda: _write_payload(path, payload),
        attempts=attempts,
        on_retry=lambda attempt, exc:
        engine.obs.retry_attempted("persistence.write"),
    )


def load(path: str) -> ActiveRBACEngine:
    """Restore an engine from a snapshot file written by :func:`save`."""
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def _rearm_duration(engine: ActiveRBACEngine, key: tuple[str, str],
                    activation_id: int, now: float) -> None:
    """Re-arm the duration countdown of the activation ``key`` with its
    remaining time.

    The original countdown was a PLUS event armed at activation; after a
    restore only the remainder is owed.  A countdown that already
    expired while the engine was down deactivates immediately.
    """
    session_id, role = key

    def expire() -> None:
        if (engine.current_activation.get(key) == activation_id
                and session_id in engine.model.sessions):
            engine.audit.record("temporal.duration_expired", role=role,
                                session=session_id)
            engine.commit_deactivation(session_id, role)

    if engine.current_activation.get(key) != activation_id:
        return  # an earlier expiry's cascade already ended it
    delta = engine.duration_for(role, engine.model.session_user(session_id))
    if delta is None:
        return
    remaining = engine.activation_started[key] + delta - now
    if remaining <= 0:
        expire()
    else:
        engine.timers.schedule_after(remaining, expire)
