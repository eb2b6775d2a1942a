"""Property: recovery equals the live engine.

Random scripts run on an engine with a write-ahead log attached
(``batch_size=1``, so no record is lost): sessions, activations and
drops, session deletes, locks, context sets, clock advances, role
disable/enable, and administrative ``delete_user``/``delete_role``
followed by re-adds.  After each script, ``recover(directory)`` must
rebuild the same sessions and active roles, activation ids and start
times, id counters (exactly), locks, role status, context and clock,
and answer ``check_access`` the same over a probe grid.

The deletes are the interesting part: a deletion that discarded live
state without logging it let recovery resurrect a session or an
activation the live engine no longer had.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ActiveRBACEngine, parse_policy
from repro.errors import ReproError
from repro.wal import Durability, recover

POLICY = """
policy recovery {
  role A; role B; role C;
  user bob; user carol;
  assign bob to A; assign bob to B;
  assign carol to B; assign carol to C;
  permission read on doc; permission write on doc;
  grant read on doc to A;
  grant write on doc to B;
  grant read on doc to C;
  transaction B during A;
  duration C 100;
}
"""

USERS = ["bob", "carol"]
ROLES = ["A", "B", "C"]
#: what a re-added role is granted again
GRANTS = {"A": ("read", "doc"), "B": ("write", "doc"), "C": ("read", "doc")}
PROBES = [("read", "doc"), ("write", "doc")]

INDEX = st.integers(0, 3)
#: state a deletion must tear down through the log, and the deletions
#: themselves: drawn twice as often as the other steps
TORN_DOWN = [
    st.tuples(st.just("activate"), INDEX, st.sampled_from(ROLES)),
    st.tuples(st.just("lock"), st.sampled_from(USERS)),
    st.tuples(st.just("disable"), st.sampled_from(ROLES)),
    st.tuples(st.just("readd_user"), st.sampled_from(USERS)),
    st.tuples(st.just("readd_role"), st.sampled_from(ROLES)),
]
STEPS = st.one_of(
    *TORN_DOWN, *TORN_DOWN,
    st.tuples(st.just("session"), st.sampled_from(USERS)),
    st.tuples(st.just("drop"), INDEX, st.sampled_from(ROLES)),
    st.tuples(st.just("delete_session"), INDEX),
    st.tuples(st.just("unlock"), st.sampled_from(USERS)),
    st.tuples(st.just("enable"), st.sampled_from(ROLES)),
    st.tuples(st.just("context"), st.sampled_from(["site", "shift"]),
              st.sampled_from(["hq", "remote", 1, None])),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 60.0, 150.0])),
    st.tuples(st.just("assign"), st.sampled_from(USERS),
              st.sampled_from(ROLES)),
)


def run_step(engine: ActiveRBACEngine, step: tuple) -> None:
    kind, *args = step
    sessions = sorted(engine.model.sessions)
    if kind in ("activate", "drop", "delete_session"):
        if not sessions:
            return
        args[0] = sessions[args[0] % len(sessions)]
    if kind == "session":
        engine.create_session(*args)
    elif kind == "activate":
        engine.add_active_role(*args)
    elif kind == "drop":
        engine.drop_active_role(*args)
    elif kind == "delete_session":
        engine.delete_session(*args)
    elif kind == "lock":
        engine.lock_user(*args)
    elif kind == "unlock":
        engine.unlock_user(*args)
    elif kind == "context":
        engine.context.set(*args)
    elif kind == "advance":
        engine.advance_time(*args)
    elif kind == "enable":
        engine.enable_role(*args)
    elif kind == "disable":
        engine.disable_role(*args)
    elif kind == "readd_user":
        engine.delete_user(*args)
        engine.add_user(*args)
    elif kind == "readd_role":
        (role,) = args
        engine.delete_role(role)
        engine.add_role(role)
        engine.grant_permission(role, *GRANTS[role])
    else:
        engine.assign_user(*args)


def view(engine: ActiveRBACEngine) -> dict:
    """Everything recovery must rebuild, apart from the answers and
    the id counters."""
    return {
        "sessions": {sid: (s.user, frozenset(s.active_roles))
                     for sid, s in engine.model.sessions.items()},
        "current_activation": dict(engine.current_activation),
        "activation_started": dict(engine.activation_started),
        "locked": set(engine.locked_users),
        "role_enabled": {name: role.enabled
                         for name, role in engine.model.roles.items()},
        "context": engine.context.snapshot(),
        "clock": engine.clock.now,
    }


def answers(engine: ActiveRBACEngine, sessions: list[str]) -> dict:
    return {(sid, operation, obj): engine.check_access(sid, operation, obj)
            for sid in sessions for operation, obj in PROBES}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(STEPS, min_size=1, max_size=25))
def test_recovery_equals_the_live_engine(steps):
    with tempfile.TemporaryDirectory() as directory:
        engine = ActiveRBACEngine.from_policy(parse_policy(POLICY))
        durability = Durability(engine, directory, batch_size=1)
        seen: list[str] = []
        activation_ids: set[int] = set()
        try:
            for step in steps:
                try:
                    run_step(engine, step)
                except ReproError:
                    pass
                seen.extend(sid for sid in engine.model.sessions
                            if sid not in seen)
                activation_ids.update(engine.current_activation.values())
        finally:
            durability.close()
        revived, _ = recover(directory)
        assert view(revived) == view(engine)
        assert answers(revived, seen) == answers(engine, seen)
        # only a committed session or activation consumes an id, so the
        # counters resume exactly where the live engine stands, past
        # every id it issued
        sessions, activations = (revived._session_seq.peek,
                                 revived._activation_seq.peek)
        assert sessions == engine._session_seq.peek
        assert all(int(sid[1:]) < sessions for sid in seen)
        assert activations == engine._activation_seq.peek
        assert all(aid < activations for aid in activation_ids)
