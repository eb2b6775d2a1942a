"""Decision provenance: records, explanations, and the flight recorder.

Since the decision plane split (``repro/kernel.py``) the hot path
answers most ``checkAccess`` requests from interned bitsets — fast and
completely opaque.  This module makes every decision reconstructible
again without giving the speed back:

* :data:`FALLBACK_REASONS` — the taxonomy that replaces the old
  undifferentiated ``kernel_decisions{path=fallback}`` view.  A reason
  is attached to every check the kernel could not answer, whether the
  kernel itself punted (``context_role``, ``privacy``, ``quarantine``,
  ``instrumented``, ``coverage``, ``unknown_entity``, ``stale_privacy``)
  or the engine bypassed it before the consult (``deadline``,
  ``diagnostics``, ``observers``, ``disabled``).
* :class:`FlightRecorder` — an always-on fixed-size ring buffer of the
  last N decision records and rule firings.  The hot paths append raw
  tuples inline (index arithmetic, no locks, no allocation beyond the
  tuple), and the ring is materialized into dicts only when someone
  looks: :meth:`FlightRecorder.snapshot` or an auto-:meth:`dump`
  triggered by a quarantine trip, a security lockout, or WAL recovery.
* :func:`explain_decision` — re-runs one access decision in
  explanation mode: which path would serve it, the permission → role →
  hierarchy-edge chain reconstructed from the kernel's interning
  tables, the context gates and privacy verdict, and the first deny
  cause in the CA rule's own clause order.  The verdict always matches
  the live ``require_access`` answer (property-tested in
  ``tests/property/test_prop_kernel_equivalence.py``).

Ring-entry layout (plain tuples, kept cheap for the hot paths)::

    ("decision", seq, clock, path, session, user, op, obj,
     decision, rule, fallback_reason, deny_cause, scope)
    ("firing", seq, clock, rule, event, outcome, error)
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine import ActiveRBACEngine

__all__ = [
    "FALLBACK_REASONS",
    "FlightRecorder",
    "DecisionExplanation",
    "explain_decision",
]

#: Every reason an access check can run interpreted instead of being
#: answered by the compiled kernel.  The first seven are the reasons
#: ``PolicyKernel.evaluate`` returns beside a fallback verdict; the
#: last four are engine-level bypasses that
#: ``ActiveRBACEngine._kernel_bypass`` classifies before the kernel is
#: even consulted.
FALLBACK_REASONS = (
    "context_role",     # a granting role is gated by an access context
    "privacy",          # privacy-regulated object (purpose/obligations)
    "stale_privacy",    # privacy registry grew after the compile
    "quarantine",       # the CA rule is quarantined or disabled
    "instrumented",     # CA rule clauses rewired (fault injection)
    "coverage",         # compile-time coverage gap (see kernel stats)
    "unknown_entity",   # entity the compile never saw
    "deadline",         # budget exhausted before dispatch
    "diagnostics",      # tracing / time-every-firing sampling is on
    "observers",        # extra firing observers need the full pipeline
    "disabled",         # operator turned the kernel off
)


#: the temp directory dumps land in when nothing names one; created by
#: the first such dump and shared by every recorder in the process
_PROCESS_DUMP_DIR: str | None = None


def _process_dump_dir() -> str:
    global _PROCESS_DUMP_DIR
    if _PROCESS_DUMP_DIR is None:
        _PROCESS_DUMP_DIR = tempfile.mkdtemp(prefix="repro-flightrec-")
    return _PROCESS_DUMP_DIR


class FlightRecorder:
    """Fixed-size ring of the most recent decisions and rule firings.

    Always on by default (``enabled``); the per-entry cost is one
    sequence increment, one tuple, and one list store — the provenance
    overhead budget in ``benchmarks/smoke_profile.py`` bounds it at
    <3% of the kernel-path check.  The engine's hot call sites append
    inline (mirroring the ObsHub discipline); everything else goes
    through :meth:`note_decision` / :meth:`note_firing`.
    """

    __slots__ = ("enabled", "capacity", "dump_dir", "dumps",
                 "_buf", "_seq")

    def __init__(self, capacity: int = 256,
                 dump_dir: str | None = None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.enabled = True
        self.capacity = capacity
        self._buf: list[tuple | None] = [None] * capacity
        self._seq = 0          # monotone entry sequence (1-based)
        #: where auto-dumps land; defaults lazily to $REPRO_FLIGHTREC_DIR
        #: or the per-process temp directory on the first dump
        self.dump_dir = dump_dir
        self.dumps = 0

    def __len__(self) -> int:
        return min(self._seq, self.capacity)

    @property
    def seq(self) -> int:
        """Total entries ever recorded (the ring keeps the last
        ``capacity`` of them)."""
        return self._seq

    def resolved_dir(self) -> str | None:
        """Where the next dump would land: the configured ``dump_dir``
        (constructor, attribute, or a front-end's ``--flightrec-dir``),
        else ``$REPRO_FLIGHTREC_DIR``, else None — meaning the
        process's shared temp directory (created on its first dump).
        ``engine.health()`` surfaces this so operators can tell where
        the forensic ring will go *before* anything goes wrong."""
        return self.dump_dir or os.environ.get("REPRO_FLIGHTREC_DIR")

    # -- recording ---------------------------------------------------------

    def note_decision(self, clock: float, path: str, session_id: str,
                      user: str | None, operation: str, obj: str,
                      decision: str, rule: str | None = None,
                      reason: str | None = None,
                      cause: str | None = None,
                      scope: str | None = None) -> None:
        """Record one access decision (cold-path convenience; the
        engine inlines this body in its shared decision tail)."""
        if self.enabled:
            seq = self._seq = self._seq + 1
            self._buf[seq % self.capacity] = (
                "decision", seq, clock, path, session_id, user,
                operation, obj, decision, rule, reason, cause, scope)

    def note_firing(self, clock: float, rule: str, event: str,
                    outcome: str, error: str | None = None) -> None:
        """Record one rule firing (called from the engine's firing
        observer on the interpreted path)."""
        if self.enabled:
            seq = self._seq = self._seq + 1
            self._buf[seq % self.capacity] = (
                "firing", seq, clock, rule, event, outcome, error)

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _entry_dict(entry: tuple) -> dict[str, Any]:
        if entry[0] == "decision":
            (_kind, seq, clock, path, session_id, user, operation,
             obj, decision, rule, reason, cause, scope) = entry
            return {
                "kind": "decision", "seq": seq, "clock": clock,
                "path": path, "session": session_id, "user": user,
                "operation": operation, "object": obj,
                "decision": decision, "rule": rule,
                "fallback_reason": reason, "deny_cause": cause,
                "scope": scope,
            }
        _kind, seq, clock, rule, event, outcome, error = entry
        return {
            "kind": "firing", "seq": seq, "clock": clock, "rule": rule,
            "event": event, "outcome": outcome, "error": error,
        }

    def snapshot(self) -> list[dict[str, Any]]:
        """The surviving entries, oldest first, as dicts."""
        entries = [e for e in self._buf if e is not None]
        entries.sort(key=lambda e: e[1])
        return [self._entry_dict(e) for e in entries]

    def tail(self, n: int = 10) -> list[dict[str, Any]]:
        """The most recent ``n`` entries, oldest first (none for
        ``n <= 0``)."""
        return self.snapshot()[-n:] if n > 0 else []

    # -- dumping -----------------------------------------------------------

    def dump(self, cause: str, directory: str | None = None,
             context: dict[str, Any] | None = None) -> str:
        """Write the ring to a JSON file and return its path.

        ``directory`` overrides ``dump_dir``; with neither set, the
        ``REPRO_FLIGHTREC_DIR`` environment variable names the
        directory, else one temp directory per process is created on
        the first such dump and shared by every recorder.  A dump never
        overwrites another: a taken name gets a ``.2``, ``.3``, ...
        suffix.  The file is fsynced — a dump is a forensic record,
        usually written because something just went wrong.
        """
        from repro.containment import fsync_file

        target = directory or self.dump_dir
        if target is None:
            target = os.environ.get("REPRO_FLIGHTREC_DIR")
        if target is None:
            target = self.dump_dir = _process_dump_dir()
        os.makedirs(target, exist_ok=True)
        self.dumps += 1
        safe = "".join(c if (c.isalnum() or c in "._-") else "_"
                       for c in cause)
        base = os.path.join(target, f"flightrec-{self.dumps:04d}-{safe}")
        path, clash = f"{base}.json", 1
        while True:
            try:
                handle = open(path, "x", encoding="utf-8")
                break
            except FileExistsError:
                clash += 1
                path = f"{base}.{clash}.json"
        payload = {
            "cause": cause,
            "seq": self._seq,
            "capacity": self.capacity,
            "records": self.snapshot(),
        }
        if context:
            payload["context"] = context
        with handle:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")
            fsync_file(handle)
        return path


# ==========================================================================
# explanation mode
# ==========================================================================


class DecisionExplanation:
    """A reconstructed derivation for one access decision.

    ``allowed`` always equals what ``require_access`` would decide for
    the same (session, operation, object, purpose) right now — the
    explanation re-runs the CA rule's clause conjunction through the
    same shared predicates, and reports which path (kernel or
    interpreted) would actually serve the request and why.
    """

    __slots__ = ("session", "user", "operation", "obj", "purpose",
                 "scope", "allowed", "path", "fallback_reason", "rule",
                 "deny_cause", "roles", "privacy", "obligations",
                 "ssd_conflicts")

    def __init__(self, **fields: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.get(name))

    def to_dict(self) -> dict[str, Any]:
        return {
            "session": self.session,
            "user": self.user,
            "operation": self.operation,
            "object": self.obj,
            "purpose": self.purpose,
            "scope": self.scope,
            "allowed": self.allowed,
            "verdict": "grant" if self.allowed else "deny",
            "path": self.path,
            "fallback_reason": self.fallback_reason,
            "rule": self.rule,
            "deny_cause": self.deny_cause,
            "roles": self.roles,
            "privacy": self.privacy,
            "obligations": list(self.obligations or ()),
            "ssd_conflicts": self.ssd_conflicts,
        }

    def describe(self) -> str:
        verdict = "GRANT" if self.allowed else "DENY"
        lines = [
            f"{verdict} {self.operation} on {self.obj} "
            + (f"in scope {self.scope!r} " if self.scope else "")
            + f"for session {self.session!r} (user {self.user!r})",
            f"  served by: {self.path} path"
            + (f" (fallback: {self.fallback_reason})"
               if self.fallback_reason else ""),
        ]
        if self.rule:
            lines.append(f"  rule: {self.rule}")
        for role in self.roles or ():
            mark = "+" if role["grants"] else "-"
            detail = []
            if role["holds_permission"]:
                chain = role.get("hierarchy_path") or [role["role"]]
                if len(chain) > 1:
                    detail.append("permission via "
                                  + " > ".join(chain))
                else:
                    detail.append("direct permission")
                grant_scope = role.get("grant_scope")
                if self.scope and grant_scope:
                    detail.append(f"granted at scope {grant_scope!r}")
            else:
                detail.append("no permission")
            if role["context_gated"]:
                detail.append("context "
                              + ("ok" if role["context_ok"]
                                 else "BLOCKED"))
            if self.scope and not role.get("scope_covered", True):
                detail.append("assignment scope bounds EXCLUDE "
                              f"{self.scope!r}")
            lines.append(f"  [{mark}] role {role['role']}: "
                         + ", ".join(detail))
        if not self.roles:
            lines.append("  (no active roles)")
        if self.privacy is not None:
            status = "ok" if self.privacy["allowed"] else "DENIED"
            lines.append(f"  privacy: {status}"
                         + (f" (purpose {self.purpose!r})"
                            if self.purpose else ""))
            for obligation in self.obligations or ():
                lines.append(f"    obligation owed: {obligation}")
        if self.ssd_conflicts:
            for name, a, b in self.ssd_conflicts:
                lines.append(f"  ssd conflict [{name}]: {a} x {b}")
        if not self.allowed:
            lines.append(f"  deny cause: {self.deny_cause}")
        return "\n".join(lines)


def _grant_chain(engine: "ActiveRBACEngine", kernel, role: str,
                 operation: str, obj: str) -> tuple[str | None,
                                                    list[str] | None]:
    """(source_role, hierarchy path senior→junior) for the grant that
    lets ``role`` perform (operation, obj), reconstructed from the
    kernel's interning tables; (None, None) when the role has no such
    grant."""
    rid = kernel.role_ids.get(role)
    pid = kernel.perm_ids.get((operation, obj))
    if rid is None or pid is None:
        return None, None
    if not kernel.grant_masks[role] & (1 << pid):
        return None, None
    model = engine.model
    juniors = kernel.roles_in_mask(kernel.juniors_mask[rid])

    def holds_directly(candidate: str) -> bool:
        return any(p.operation == operation and p.obj == obj
                   for p in model.direct_role_permissions(candidate))

    sources = sorted(c for c in juniors if holds_directly(c))
    if not sources:  # grant mask says yes but no direct holder: stale
        return role, [role]
    source = role if role in sources else sources[0]
    # shortest senior→junior edge path from the asking role down to the
    # role actually holding the direct grant (BFS over immediate edges)
    if source == role:
        return source, [role]
    hierarchy = model.hierarchy
    frontier = [[role]]
    seen = {role}
    while frontier:
        path = frontier.pop(0)
        for junior in sorted(hierarchy.immediate_juniors(path[-1])):
            if junior in seen:
                continue
            next_path = path + [junior]
            if junior == source:
                return source, next_path
            seen.add(junior)
            frontier.append(next_path)
    return source, [role, source]  # closure says reachable; trust it


def _grant_scope(model, role: str, operation: str, obj: str,
                 scope: str) -> str | None:
    """The nearest scope (self → root order) anchoring the grant that
    lets ``role`` perform (operation, obj) at ``scope``; the root for
    flat grants, None when no grant reaches the scope."""
    from repro.rbac.model import Permission
    from repro.rbac.scopes import SCOPE_ROOT

    permission = Permission(operation, obj)
    members = model.hierarchy.juniors_inclusive(role)
    for anchor in model.scopes.ancestors_inclusive(scope):
        for member in members:
            if permission in model._pa_scoped.get(member, {}) \
                    .get(anchor, ()):
                return anchor
    if permission in model.role_permissions(role):
        return SCOPE_ROOT
    return None


def explain_decision(engine: "ActiveRBACEngine", session_id: str,
                     operation: str, obj: str,
                     purpose: str | None = None,
                     scope: str | None = None) -> DecisionExplanation:
    """Re-run one access decision in explanation mode (read-only).

    Mirrors the CA rule's clause conjunction through the shared
    enforcement predicates, so the verdict matches ``require_access``
    on both the kernel and the interpreted path; the serving path is
    classified by the engine's one kernel gate (``_kernel_bypass``,
    with no budget: a live budget never moves a check off the kernel)
    and the kernel's pure evaluate supplies the fallback reason.

    With ``scope``, the derivation is scope-aware: each role reports
    whether it holds the permission *at the scope* (and via which
    grant anchor — "granted via role R in scope S"), and whether the
    assignment behind it covers the scope.
    """
    from repro.rbac.scopes import SCOPE_ROOT

    model = engine.model
    if scope == SCOPE_ROOT:
        scope = None  # the root scope IS the flat check
    session = model.sessions.get(session_id)
    user = session.user if session is not None else None

    # -- which path would serve this request? ------------------------------
    kernel = engine.kernel()  # pure compile; works with the plane off
    path = "interpreted"
    fallback_reason = engine._kernel_bypass(None)
    if fallback_reason is None:
        verdict, reason = kernel.evaluate(session_id, operation, obj,
                                          scope)
        if verdict >= 0:
            path = "kernel"
        else:
            fallback_reason = reason

    # -- the serving rule (fail closed when none can fire) -----------------
    handlers = engine.rules.rules_for_event("checkAccess")
    serving = [r for r in handlers if r.enabled and not r.quarantined]
    rule_name = serving[0].name if serving \
        else (handlers[0].name if handlers else None)

    # -- per-role derivation ----------------------------------------------
    roles: list[dict[str, Any]] = []
    any_grant = False
    active = sorted(session.active_roles) if session is not None else []
    for role in active:
        holds = model.role_has_permission(role, operation, obj, scope)
        covered = (model.assignment_covers(user, role, scope)
                   if user is not None else False)
        gated = any(c.role == role and c.applies_to == "access"
                    for c in engine.policy.context_constraints)
        context_ok = engine.access_context_ok(role)
        source, chain = (None, None)
        grant_scope = None
        if holds:
            source, chain = _grant_chain(engine, kernel, role,
                                         operation, obj)
            grant_scope = (SCOPE_ROOT if scope is None
                           else _grant_scope(model, role, operation,
                                             obj, scope))
        grants = holds and context_ok and covered
        any_grant = any_grant or grants
        roles.append({
            "role": role,
            "holds_permission": holds,
            "source_role": source,
            "hierarchy_path": chain,
            "grant_scope": grant_scope,
            "assignment_scopes": sorted(
                model.assignment_scopes(user, role))
            if user is not None else [],
            "scope_covered": covered,
            "context_gated": gated,
            "context_ok": context_ok,
            "grants": grants,
        })

    privacy_allowed, obligations = engine.privacy_ok(obj, operation,
                                                     purpose)

    # -- verdict + first deny cause, in the CA rule's clause order ---------
    deny_cause: str | None = None
    if not serving:
        quarantined = [r.name for r in handlers if r.quarantined]
        deny_cause = ("checkAccess rule quarantined (fail closed): "
                      + ", ".join(quarantined) if quarantined
                      else "no enabled checkAccess rule (fail closed)")
    elif session is None:
        deny_cause = "unknown session"
    elif engine.is_user_locked(user):
        deny_cause = "user locked by active security"
    elif operation not in model.operations:
        deny_cause = f"unknown operation {operation!r}"
    elif obj not in model.objects:
        deny_cause = f"unknown object {obj!r}"
    elif scope is not None and scope not in model.scopes:
        deny_cause = f"unknown scope {scope!r}"
    elif not any_grant:
        blocked = [r["role"] for r in roles
                   if r["holds_permission"] and not r["context_ok"]
                   and r["scope_covered"]]
        uncovered = [r["role"] for r in roles
                     if r["holds_permission"] and r["context_ok"]
                     and not r["scope_covered"]]
        if blocked:
            deny_cause = ("context constraint not satisfied for "
                          + ", ".join(blocked))
        elif uncovered:
            where = (f"scope {scope!r}" if scope is not None
                     else "the flat (root) check")
            deny_cause = (f"assignment scope bounds exclude {where} "
                          "for " + ", ".join(uncovered))
        else:
            deny_cause = ("no active role holds the permission"
                          + (f" in scope {scope!r}"
                             if scope is not None else ""))
    elif not privacy_allowed:
        deny_cause = (f"privacy policy denies purpose {purpose!r} "
                      f"for {operation} on {obj}")
    allowed = deny_cause is None

    # static SoD conflicts touching the derivation (analysis context:
    # assignment-time enforcement prevented these from co-occurring)
    involved = set(active) | {r["source_role"] for r in roles
                              if r["source_role"]}
    ssd = [pair for pair in kernel.ssd_conflict_pairs()
           if pair[1] in involved or pair[2] in involved]

    return DecisionExplanation(
        session=session_id, user=user, operation=operation, obj=obj,
        purpose=purpose, scope=scope, allowed=allowed, path=path,
        fallback_reason=fallback_reason, rule=rule_name,
        deny_cause=deny_cause, roles=roles,
        privacy={"allowed": privacy_allowed,
                 "regulated": obj in kernel.regulated_objects},
        obligations=tuple(obligations), ssd_conflicts=ssd,
    )
