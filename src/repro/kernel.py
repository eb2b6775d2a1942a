"""PolicyKernel: the compiled decision plane.

The engine is split into two layers.  The **control plane** — policy
edits, rule synthesis/regeneration, WAL logging, quarantine — owns all
mutation and bumps ``engine.policy_epoch`` (plus the finer-grained
``RuleManager.version`` / ``EventDetector.version`` counters) on every
change.  The **data plane** is this module's :class:`PolicyKernel`: an
immutable artifact compiled once per epoch that answers the static
majority of ``checkAccess`` decisions without raising an event or
firing a rule.

What compilation bakes in (Ali & Fernández's static-enforcement view
of RBAC, specialised to the paper's active-rule engine):

* **interning** — roles and (operation, object) permission pairs are
  mapped to dense integer ids (users, operations and objects are only
  counted: a decision never looks one up);
* **hierarchy flattening** — the role hierarchy's reflexive-transitive
  closure becomes one Python-int bitset of juniors per role
  (``juniors_mask``), replacing the repeated BFS walks of
  :meth:`RoleHierarchy.juniors_inclusive`;
* **grant relation** — one permission bitmask per role name
  (``grant_masks``), folding the junior-closure union of
  :meth:`RBACModel.role_permissions` into a single AND at decision
  time;
* **scope closure** — the S-A-O-C scope tree's reflexive-transitive
  ancestor chains become one bitset per scope (``scope_anc_mask``),
  scoped grants become per-role per-scope permission bitmasks with the
  junior closure folded in, and assignment scope limits become
  per-(user, role) scope bitsets — so a scoped check is the same
  AND-of-bitsets shape as a flat one;
* **static SoD** — pairwise SSD conflict bitmasks (an analysis
  artifact: assignment-time enforcement stays in the model).

One role loop, :meth:`PolicyKernel.decide`, answers every decision:
:meth:`PolicyKernel.evaluate` serves live checks (CA-rule, session and
lock checks, then ``decide`` over the session's active roles), and the
rollout canary (:class:`~repro.config.lifecycle.ShadowComparator`)
calls ``decide`` on a candidate kernel with the live session's roles.

What stays *dynamic* and forces a fallback to the interpreted OWTE
pipeline (``KERNEL_FALLBACK``): roles gated by access-scoped context
constraints, privacy-regulated objects (purpose trees and obligations),
and any entity or rule state the compile did not see.  The engine's one
gate (``ActiveRBACEngine._kernel_bypass``) also routes around the
kernel when a deadline budget is already exhausted before dispatch (a
live budget never does: bitset lookups cannot stall) and for
full-fidelity diagnostics (tracing, time-every-firing sampling).
The fallback is the correctness anchor — the differential property test
(`tests/property/test_prop_kernel_equivalence.py`) pins kernel-first
answers to the interpreted pipeline's across random policies,
mutations, and recovery.

A kernel never mutates anything — a decision returns its fallback
reason instead of tallying it (the engine owns the
``repro_kernel_fallback_reasons_total`` counter) — and is never
persisted: snapshots and the WAL carry only the policy source, and
recovery recompiles (see ``persistence.py`` / ``wal.recover``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.rbac.model import Permission
from repro.rbac.scopes import SCOPE_ROOT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine import ActiveRBACEngine

#: decision protocol: evaluate() and decide() return ``(verdict,
#: reason)`` with one of these plain ints as the verdict; ``reason`` is
#: None unless the verdict is KERNEL_FALLBACK, and then names one of the
#: kernel-internal reasons of the provenance taxonomy
#: (:data:`repro.obs.provenance.FALLBACK_REASONS`)
KERNEL_GRANT = 1
KERNEL_DENY = 0
KERNEL_FALLBACK = -1

# prebuilt answers: the hot path allocates no tuple
_GRANT = (KERNEL_GRANT, None)
_DENY = (KERNEL_DENY, None)


class PolicyKernel:
    """An immutable compiled view of one policy epoch.

    Build with :func:`compile_kernel` (or the constructor) against a live
    engine; consult with :meth:`evaluate`.  The kernel holds **no
    mutable authority state** — sessions, active roles and user locks
    are read live through the engine reference at decision time, so a
    kernel only goes stale when the *policy* (or the rule pool / event
    graph built from it) changes, which the version triple detects.
    """

    __slots__ = (
        "engine", "epoch", "rules_version", "detector_version",
        "sizes", "role_ids", "perm_ids", "juniors_mask", "grant_masks",
        "context_roles_mask", "regulated_objects", "privacy_len",
        "ssd_conflicts", "coverage_gap", "build_ns",
        "_ca", "_ca_conditions", "_ca_actions", "_ca_alt_actions",
        "_node", "_sessions",
        "scope_ids", "scope_anc_mask", "scopes_version",
        "_scoped_grant_by_role", "_scope_cover_by_role", "_scope_limited",
    )

    def __init__(self, engine: ActiveRBACEngine) -> None:
        start = time.perf_counter_ns()
        model = engine.model
        hierarchy = model.hierarchy

        self.engine = engine
        self.epoch = engine.policy_epoch
        self.rules_version = engine.rules.version
        self.detector_version = engine.detector.version
        self._sessions = model.sessions  # live dict, identity-stable

        # -- interning (users, operations and objects are only counted) --
        self.sizes = (len(model.users), len(model.operations),
                      len(model.objects))
        self.role_ids = {r: i for i, r in enumerate(sorted(model.roles))}
        self.perm_ids = {
            (p.operation, p.obj): i
            for i, p in enumerate(sorted(
                model.permissions, key=lambda p: (p.operation, p.obj)))
        }

        # -- hierarchy closure bitsets ------------------------------------
        # reflexive-transitive junior closure; one Python int per role
        # replaces a BFS walk per authorization question
        rid = self.role_ids
        # each role's closure is looked up once for the whole build
        closure = {role: hierarchy.juniors_inclusive(role) for role in rid}
        self.juniors_mask = [0] * len(rid)
        for role, i in rid.items():
            mask = 0
            for junior in closure[role]:
                mask |= 1 << rid[junior]
            self.juniors_mask[i] = mask

        # -- grant relation: role -> permission bitmask -------------------
        # role_permissions() already folds the junior closure in, so the
        # flattening above and this union agree by construction
        self.grant_masks: dict[str, int] = {}
        for role in rid:
            mask = 0
            for perm in model.role_permissions(role):
                pid = self.perm_ids.get((perm.operation, perm.obj))
                if pid is not None:
                    mask |= 1 << pid
            self.grant_masks[role] = mask

        # -- scope tree: interning + reflexive ancestor closure -----------
        # one bitset per scope replaces the parent-chain walk; a check
        # at scope T is covered by a grant at S iff bit(S) is in T's
        # ancestor mask
        scopes = model.scopes
        self.scopes_version = scopes.version
        self.scope_ids = {s: i for i, s in enumerate(sorted(scopes))}
        self.scope_anc_mask = [0] * len(self.scope_ids)
        for name, i in self.scope_ids.items():
            mask = 0
            for anc in scopes.ancestors_inclusive(name):
                mask |= 1 << self.scope_ids[anc]
            self.scope_anc_mask[i] = mask

        # scoped grants: role -> scope id -> permission bitmask, junior
        # closure folded in at compile (mirrors grant_masks); the cover
        # mask ORs each role's granted-scope bits so the hot loop can
        # reject non-intersecting scopes with one AND
        self._scoped_grant_by_role: dict[str, dict[int, int]] = {}
        self._scope_cover_by_role: dict[str, int] = {}
        for role in model.roles:
            per_scope: dict[int, int] = {}
            cover = 0
            for member in closure[role]:
                scoped = model._pa_scoped.get(member)
                if not scoped:
                    continue
                for scope_name, perms in scoped.items():
                    sid = self.scope_ids.get(scope_name)
                    if sid is None:
                        continue
                    mask = 0
                    for perm in perms:
                        pid = self.perm_ids.get((perm.operation, perm.obj))
                        if pid is not None:
                            mask |= 1 << pid
                    if mask:
                        per_scope[sid] = per_scope.get(sid, 0) | mask
                        cover |= 1 << sid
            if per_scope:
                self._scoped_grant_by_role[role] = per_scope
                self._scope_cover_by_role[role] = cover

        # assignment scope limits: (user, activatable role) -> OR of
        # bound scope bits, hierarchy folded: a role activated under a
        # bounded *senior* assignment inherits the senior's bounds, and
        # any unbounded authorizing assignment lifts the limit (matches
        # RBACModel.assignment_covers).  Empty dict on flat policies
        # keeps the flat path at one truthiness test.
        self._scope_limited: dict[tuple[str, str], int] = {}
        if model._ua_scopes:
            bounded: dict[tuple[str, str], int] = {}
            unbounded: set[tuple[str, str]] = set()
            for user, assigned in model._ua.items():
                for holder in assigned:
                    bounds = model._ua_scopes.get((user, holder))
                    lim = 0
                    if bounds is not None:
                        for bound in bounds:
                            sid = self.scope_ids.get(bound)
                            if sid is not None:
                                lim |= 1 << sid
                    for member in closure[holder]:
                        key = (user, member)
                        if bounds is None:
                            unbounded.add(key)
                        else:
                            bounded[key] = bounded.get(key, 0) | lim
            self._scope_limited = {
                key: lim for key, lim in bounded.items()
                if key not in unbounded
            }

        # -- dynamic-feature sets -----------------------------------------
        self.context_roles_mask = 0
        for constraint in engine.policy.context_constraints:
            if (constraint.applies_to == "access"
                    and constraint.role in rid):
                self.context_roles_mask |= 1 << rid[constraint.role]
        # privacy: policies are only ever *added* (see
        # PrivacyRegistry.add_policy), and only new (obj, op) keys grow
        # the dict — so its length is a sound staleness probe for the
        # compiled regulated-object set
        self.regulated_objects = frozenset(
            key[0] for key in engine.privacy._policies)
        self.privacy_len = len(engine.privacy._policies)

        # -- static SoD conflicts (analysis artifact) ---------------------
        self.ssd_conflicts = tuple(
            (constraint.name,
             sum(1 << rid[r] for r in constraint.roles if r in rid),
             constraint.cardinality)
            for constraint in model.sod.ssd_sets()
        )

        # -- checkAccess fast-path coverage -------------------------------
        # The kernel may only answer when the interpreted pipeline would
        # have done exactly one thing: dispatch the checkAccess event to
        # the rule manager and fire the single static CA rule.  Anything
        # else on the event (composite parents, extra listeners, extra
        # rules) is semantics the compile cannot see.
        self._ca = None
        self._ca_conditions = ()
        self._ca_actions = ()
        self._ca_alt_actions = ()
        self._node = None
        self.coverage_gap = self._check_coverage(engine)
        self.build_ns = time.perf_counter_ns() - start

    # -- compilation helpers ----------------------------------------------

    def _check_coverage(self, engine: ActiveRBACEngine) -> str | None:
        """Why the checkAccess fast path must stay off, or None."""
        detector = engine.detector
        rules = engine.rules
        from repro.rules.rule import EvalClass

        if "checkAccess" not in detector:
            return "no checkAccess event"
        if "accessDenied" not in detector:
            return "no accessDenied event"
        handlers = rules.rules_for_event("checkAccess")
        if len(handlers) != 1:
            return f"{len(handlers)} rules on checkAccess (need exactly 1)"
        ca = handlers[0]
        if ca.evaluation is not EvalClass.STATIC:
            return f"rule {ca.name!r} is classified dynamic"
        if (tuple(ca.conditions), tuple(ca.actions),
                tuple(ca.alt_actions)) != ca.clause_baseline:
            # fault-injection probes (or any clause rewiring) were
            # live at compile time: only the interpreted path runs them
            return f"rule {ca.name!r} clauses are instrumented"
        node = detector.node("checkAccess")
        if node.parents:
            return "checkAccess feeds composite events"
        dispatcher = rules._dispatchers.get("checkAccess")
        if (dispatcher is None
                or detector.exclusive_listener("checkAccess")
                is not dispatcher):
            return "checkAccess has listeners beyond the rule manager"
        self._ca = ca
        self._ca_conditions = ca.conditions
        self._ca_actions = ca.actions
        self._ca_alt_actions = ca.alt_actions
        self._node = node
        return None

    # -- staleness ---------------------------------------------------------

    def fresh(self, engine: ActiveRBACEngine) -> bool:
        """Does this kernel still describe the engine's policy state?"""
        return (engine is self.engine
                and self.epoch == engine.policy_epoch
                and self.rules_version == engine.rules.version
                and self.detector_version == engine.detector.version
                and self.scopes_version == engine.model.scopes.version)

    def stale_reason(self, engine: ActiveRBACEngine) -> str | None:
        if engine is not self.engine:
            return "engine"
        if self.epoch != engine.policy_epoch:
            return "epoch"
        if self.rules_version != engine.rules.version:
            return "rules"
        if self.detector_version != engine.detector.version:
            return "detector"
        if self.scopes_version != engine.model.scopes.version:
            return "scopes"
        return None

    # -- the decision ------------------------------------------------------

    def evaluate(self, session_id: str, operation: str, obj: str,
                 scope: str | None = None) -> tuple[int, str | None]:
        """Decide one live checkAccess request from the compiled view.

        Returns ``(verdict, reason)``: :data:`KERNEL_GRANT` or
        :data:`KERNEL_DENY` with reason None, or :data:`KERNEL_FALLBACK`
        with the reason the request touches something the compile
        classified as dynamic.  Pure: no events, no audit, no counters,
        no kernel attribute written — the engine wrapper owns
        side-effect parity and the fallback-reason counter.

        Checks the live CA rule, the session and the user's lock here,
        then lets :meth:`decide` answer for the session's active roles.
        """
        ca = self._ca
        if ca is None:
            return KERNEL_FALLBACK, "coverage"
        # Live rule state: quarantine/disable flips without a version
        # bump mid-dispatch are impossible (quarantine bumps version),
        # but the fault-injection harness *instruments* clauses by
        # reassigning the tuples — identity tells us the rule no longer
        # does what we compiled.
        if not ca.enabled or ca.quarantined:
            return KERNEL_FALLBACK, "quarantine"
        if (ca.conditions is not self._ca_conditions
                or ca.actions is not self._ca_actions
                or ca.alt_actions is not self._ca_alt_actions):
            return KERNEL_FALLBACK, "instrumented"

        session = self._sessions.get(session_id)
        if session is None or session.user in self.engine.locked_users:
            return _DENY
        return self.decide(session.active_roles, session.user, operation,
                           obj, scope)

    def decide(self, roles, user: str | None, operation: str, obj: str,
               scope: str | None = None) -> tuple[int, str | None]:
        """The one role loop: may one of ``roles``, held by ``user``,
        perform (operation, obj) at ``scope``?

        ``scope`` is the normalized S-A-O-C context (``None`` / root =
        flat): a serving role must hold the permission flat or via a
        scoped grant at an ancestor of ``scope``, and a scope-limited
        assignment of ``user`` only serves scopes inside its bounds
        (never the flat check).  Unknown permission pairs and scopes
        deny — fail closed.  A role the compile never saw falls back
        (``unknown_entity``, a stale view); the rollout canary passes
        only the roles its candidate compiled, so there a role the
        candidate dropped grants nothing.  Returns ``(verdict,
        reason)`` like :meth:`evaluate`.

        The version triple keeps the kernel in lockstep with the model
        through the engine's admin API.  An entity or privacy policy
        the compile never saw but the engine holds *at the kernel's
        own epoch* means someone mutated the model directly: fall back
        rather than guess.  A kernel whose epoch has passed (a reader's
        RCU reference, the rollout hold's previous kernel) answers the
        policy it compiled.
        """
        engine = self.engine
        pid = self.perm_ids.get((operation, obj))
        if pid is None:
            if (Permission(operation, obj) in engine.model.permissions
                    and engine.policy_epoch == self.epoch):
                return KERNEL_FALLBACK, "unknown_entity"
            return _DENY

        anc = 0
        if scope is not None and scope != SCOPE_ROOT:
            sid = self.scope_ids.get(scope)
            if sid is None:
                if (scope in engine.model.scopes
                        and engine.policy_epoch == self.epoch):
                    return KERNEL_FALLBACK, "unknown_entity"
                return _DENY
            anc = self.scope_anc_mask[sid]

        bit = 1 << pid
        ctx_mask = self.context_roles_mask
        grant = self.grant_masks
        limited = self._scope_limited
        saw_dynamic = False
        for role in roles:
            mask = grant.get(role)
            if mask is None:
                # role created after compile: stale view
                return KERNEL_FALLBACK, "unknown_entity"
            if limited:
                lim = limited.get((user, role))
                if lim is not None and (not anc or not lim & anc):
                    # scope-limited assignment: covers only its bound
                    # subtrees, never the flat/root check
                    continue
            holds = mask & bit
            if not holds and anc:
                cover = self._scope_cover_by_role.get(role, 0) & anc
                if cover:
                    scoped = self._scoped_grant_by_role[role]
                    while cover:
                        low = cover & -cover
                        if scoped.get(low.bit_length() - 1, 0) & bit:
                            holds = True
                            break
                        cover ^= low
            if not holds:
                continue
            if ctx_mask and (1 << self.role_ids[role]) & ctx_mask:
                # context-gated role: only the interpreted predicate
                # can say whether the grant stands right now
                saw_dynamic = True
                continue
            if (len(engine.privacy._policies) != self.privacy_len
                    and engine.policy_epoch == self.epoch):
                return KERNEL_FALLBACK, "stale_privacy"
            if obj in self.regulated_objects:
                # purpose compliance + obligations are interpreted
                return KERNEL_FALLBACK, "privacy"
            return _GRANT
        if saw_dynamic:
            return KERNEL_FALLBACK, "context_role"
        return _DENY

    # -- static analysis / introspection -----------------------------------

    def roles_in_mask(self, mask: int) -> list[str]:
        return [name for name, i in self.role_ids.items() if mask & (1 << i)]

    def ssd_conflict_pairs(self) -> list[tuple[str, str, str]]:
        """Role pairs that can never be co-authorized under a
        cardinality-2 SSD set — the classic static conflict matrix."""
        pairs = []
        for name, mask, cardinality in self.ssd_conflicts:
            if cardinality != 2:
                continue
            members = self.roles_in_mask(mask)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    pairs.append((name, a, b))
        return pairs

    def stats(self) -> dict[str, Any]:
        """Flat introspection dict for the CLI and engine.stats().

        The rule counts read the engine's rule pool now: only this
        surface needs them, so the compile does not build them."""
        from repro.rules.rule import EvalClass
        rules = list(self.engine.rules)
        static = sum(rule.evaluation is EvalClass.STATIC for rule in rules)
        return {
            "epoch": self.epoch,
            "rules_version": self.rules_version,
            "detector_version": self.detector_version,
            "build_us": self.build_ns / 1000,
            "users": self.sizes[0],
            "roles": len(self.role_ids),
            "operations": self.sizes[1],
            "objects": self.sizes[2],
            "permissions": len(self.perm_ids),
            "static_rules": static,
            "dynamic_rules": len(rules) - static,
            "events_dispatched": len({rule.event for rule in rules}),
            "context_gated_roles": bin(self.context_roles_mask).count("1"),
            "scopes": len(self.scope_ids),
            "scopes_version": self.scopes_version,
            "scope_closure_bits": sum(
                bin(mask).count("1") for mask in self.scope_anc_mask),
            "scoped_grants": sum(
                len(per_scope)
                for per_scope in self._scoped_grant_by_role.values()),
            "scope_limited_assignments": len(self._scope_limited),
            "regulated_objects": len(self.regulated_objects),
            "ssd_sets": len(self.ssd_conflicts),
            "ssd_conflict_pairs": len(self.ssd_conflict_pairs()),
            "coverage_gap": self.coverage_gap,
        }


def compile_kernel(engine: ActiveRBACEngine) -> PolicyKernel:
    """Compile the engine's current policy epoch into a kernel."""
    return PolicyKernel(engine)
