"""Deterministic memory footprints, counted by :mod:`tracemalloc`.

tracemalloc counts the requested size of every live allocation, so
the same code gives the same byte count on every run: a footprint gate
repeats where a timed gate does not.  The footprint tests and the
``benchmarks/smoke_profile.py`` footprint leg both measure through
here.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from typing import Callable

from repro.engine import ActiveRBACEngine
from repro.serve.shard import Shard


def traced_bytes(fn: Callable[[], object]) -> int:
    """Net bytes still allocated after ``fn()`` returns."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def check_bodies(engine: ActiveRBACEngine, count: int) -> list[bytes]:
    """``count`` ``/v1/check`` JSON bodies cycling through the policy's
    assigned users and registered permissions."""
    users = [user for user, _role in engine.policy.assignments]
    permissions = engine.policy.permissions
    bodies = []
    for i in range(count):
        operation, obj = permissions[i % len(permissions)]
        bodies.append(json.dumps({"user": users[i % len(users)],
                                  "operation": operation,
                                  "object": obj}).encode())
    return bodies


def audit_record_bytes(engine: ActiveRBACEngine) -> float:
    """Bytes each retained ``decision.allow`` record costs.

    Fills the engine's empty audit ring to capacity through the CA
    rule's grant commit, one record per request body, with the names
    parsed fresh from the JSON as the serve plane parses them.
    """
    count = engine.audit.capacity
    if len(engine.audit):
        raise ValueError("audit_record_bytes needs an empty audit log")
    bodies = check_bodies(engine, count)
    commit = engine.commit_access

    def fill() -> None:
        for raw in bodies:
            body = json.loads(raw)
            commit(True, "s0", body["user"], body["operation"],
                   body["object"], None, "checkAccess")

    return traced_bytes(fill) / count


def principal_bytes(shard: Shard, count: int) -> float:
    """Bytes each provisioned principal costs: ``shard.session_for``
    for ``count`` distinct users, names parsed fresh from JSON.

    ``count`` other users are provisioned first, untraced, so one-time
    costs (the flight-recorder ring, first-use metric series) do not
    count against the measured ones.  Measure with the audit ring full,
    as a serving shard's is, so each new record evicts an old one.
    """
    users = sorted({user for user, _role in shard.engine.policy.assignments})
    if 2 * count > len(users):
        raise ValueError(f"the policy assigns only {len(users)} users")
    bodies = [json.dumps({"user": user}).encode() for user in users]

    def provision(batch: list[bytes]) -> None:
        for raw in batch:
            shard.session_for(json.loads(raw)["user"])

    provision(bodies[:count])
    return traced_bytes(lambda: provision(bodies[count:2 * count])) / count
