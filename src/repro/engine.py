"""The active enforcement engine: RBAC operations become events,
generated OWTE rules enforce.

This is the paper's architecture end-to-end (Sections 4 and 5):

1. every externally visible operation (``create_session``,
   ``add_active_role``, ``check_access``, assignment, role
   enable/disable) **raises a primitive event** into the Sentinel+-style
   detector;
2. the OWTE rules generated from the enterprise policy are subscribed to
   those events; their W clauses evaluate the constraints, their THEN
   branches commit the state change (and cascade further events, e.g.
   ``addSessionRole.R`` -> cardinality rule -> ``roleActivated.R``),
   their ELSE branches deny by raising typed
   :class:`~repro.errors.AccessDenied` errors and a denial event for the
   active-security monitor;
3. temporal constraints ride composite events (PLUS countdowns,
   calendar-window timers) on the shared virtual clock.

If active security disables the rules for an operation, the engine
**fails closed**: with no rule committing the change (or granting the
access decision), the operation is denied — the paper's "block access
requests" countermeasure.

Use :func:`ActiveRBACEngine.from_policy` for the full pipeline (policy
-> validation -> model -> generated rule pool), or construct an empty
engine and administer it imperatively.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from repro.clock import Deadline, TimerService, VirtualClock
from repro.containment import FailurePolicy
from repro.enforcement import EnforcementHelpers
from repro.errors import (
    ActivationDenied,
    AdministrationError,
    DeadlineExceeded,
    DeactivationDenied,
    OperationDenied,
    PolicyValidationError,
    ReproError,
    RuleExecutionError,
    UnknownRoleError,
)
from repro.events.detector import EventDetector
from repro.extensions.context import ContextProvider
from repro.extensions.privacy import PrivacyRegistry
from repro.kernel import KERNEL_GRANT, PolicyKernel
from repro.obs import FlightRecorder, ObsHub
from repro.policy.spec import DESCRIPTOR_OPS, PolicySpec, build_model
from repro.policy.validator import descriptor_issues, validate_policy
from repro.rbac.scopes import SCOPE_ROOT, UnknownScopeError
from repro.rules.manager import RuleManager
from repro.rules.rule import RuleOutcome
from repro.security.audit import AuditLog
from repro.security.monitor import ActiveSecurityMonitor
from repro.synthesis.regenerate import (
    moved_roles,
    regenerate_roles,
    rule_signatures,
)


class MonotonicSequence:
    """A monotone id allocator that can be *peeked* without consuming.

    Replaces ``itertools.count`` for the engine's session/activation id
    sequences: persistence snapshots the high-water mark via
    :attr:`peek` (an ``itertools.count`` can only be read by draining
    it, which skipped an id per snapshot of a running engine), and the
    write-ahead log records it so recovered counters resume monotone.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = int(start)

    def __next__(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def peek(self) -> int:
        """The next id that will be allocated (not consumed)."""
        return self._next

    def resume(self, start: int) -> None:
        """Resume past a recorded high-water mark (never backwards)."""
        self._next = max(self._next, int(start))


class ActiveRBACEngine(EnforcementHelpers):
    """RBAC enforcement through generated active authorization rules."""

    def __init__(self, policy: PolicySpec | None = None,
                 clock: VirtualClock | None = None,
                 max_cascade_depth: int = 64,
                 audit_capacity: int = 100_000,
                 obs: ObsHub | None = None,
                 failure_policy: FailurePolicy | None = None,
                 check_deadline: float | None = None) -> None:
        self.clock = clock or VirtualClock()
        self.timers = TimerService(self.clock)
        self.detector = EventDetector(self.timers)
        self.rules = RuleManager(self.detector, engine=self,
                                 max_cascade_depth=max_cascade_depth,
                                 failure_policy=failure_policy)
        #: default per-check virtual-clock deadline budget in simulated
        #: seconds (None = unbounded); callers can still pass an
        #: explicit :class:`~repro.clock.Deadline` to require_access.
        self.check_deadline = check_deadline
        self.audit = AuditLog(self.clock, capacity=audit_capacity)
        # Observability hub: metrics default-on, tracer off until
        # enabled (``engine.obs.tracer.enabled = True``).  Wired through
        # every pipeline hook point; see docs/ARCHITECTURE.md.
        self.obs = obs if obs is not None else ObsHub()
        self.detector.obs = self.obs
        self.rules.obs = self.obs
        self.timers.on_fire = self.obs.timer_fired
        self.obs.attach_detector(self.detector)
        self.obs.attach_rules(self.rules)
        self.obs.attach_audit_log(self.audit)
        self.context = ContextProvider()
        #: decision plane: a per-epoch compiled PolicyKernel answers the
        #: static majority of checkAccess requests without firing rules;
        #: compiled lazily (see :meth:`kernel`), never persisted.
        self.kernel_enabled = True
        self._kernel = None
        #: reason of the most recent kernel fallback verdict (health())
        self.kernel_last_fallback: str | None = None
        #: decision provenance: an always-on ring of the most recent
        #: decisions and rule firings, auto-dumped on quarantine trips,
        #: security lockouts and WAL recovery (see
        #: :mod:`repro.obs.provenance` and :meth:`dump_flight`)
        self.flight = FlightRecorder()
        self.context.attach(self.detector)
        self.monitor = ActiveSecurityMonitor(self)
        #: the policy in force; shared with its giver until apply() copies it
        self.policy = policy if policy is not None else PolicySpec()
        self._policy_shared = policy is not None
        self.model = build_model(self.policy)
        self.audit.names = self.model.names
        self.obs.attach_hierarchy(self.model.hierarchy)
        self.locked_users: set[str] = set()
        #: optional :class:`~repro.wal.Durability` write-ahead log; when
        #: attached, every state-mutating commit appends a WAL record so
        #: enforcement state survives a crash (see repro/wal.py)
        self.wal = None
        #: bumped on every policy mutation; the WAL records the epoch
        #: (with the re-rendered policy) so recovery replays session
        #: state against the policy that was actually in force
        self.policy_epoch = 0
        #: policy lifecycle surface (see repro/config/lifecycle.py):
        #: the active config version id, the candidate being staged
        #: (None outside a rollout), and the last automatic/manual
        #: rollback summary — all reported by health()/healthz
        self.config_version: int | None = None
        self.config_candidate: int | None = None
        self.config_last_rollback: dict[str, object] | None = None
        #: decision tap: when set, called after *every* decision (both
        #: paths) as tap(path, session_id, user, operation, obj,
        #: granted, scope).  Exceptions are swallowed — mirroring
        #: traffic for a shadow-compare canary must never change a
        #: live answer.
        self.decision_tap = None
        #: opt-in decision journal: with a WAL attached, append one
        #: ``decision.check`` record per decision so the log carries a
        #: replayable decision stream (see repro/config/replay.py)
        self.decision_journal = False

        self._session_seq = MonotonicSequence(1)
        self._activation_seq = MonotonicSequence(1)
        #: (session_id, role) -> activation id of the *current* activation;
        #: duration-expiry rules compare against it so a stale PLUS timer
        #: never deactivates a later re-activation.
        self.current_activation: dict[tuple[str, str], int] = {}
        #: (session_id, role) -> simulated start time of the current
        #: activation (persistence re-arms remaining durations from it)
        self.activation_started: dict[tuple[str, str], float] = {}
        #: decision slot for checkAccess: the name of the rule that
        #: granted the check in flight (None outside a check)
        self._decision: str | None = None

        self.privacy = PrivacyRegistry.of(self.policy.purposes,
                                          self.policy.object_policies)

        # generate the rule pool from the policy
        from repro.synthesis.generator import RuleGenerator
        self.generator = RuleGenerator(self)
        self.generator.generate_all()

        # threshold policies -> active security monitor
        self.monitor.set_policies(self.policy.threshold_policies)

        self.rules.observe(self._record_rule_firing)

    @classmethod
    def from_policy(cls, policy: PolicySpec,
                    clock: VirtualClock | None = None,
                    validate: bool = True,
                    **kwargs: Any) -> "ActiveRBACEngine":
        """Validate a policy and build the engine from it.

        Extra keyword arguments (``failure_policy``, ``check_deadline``,
        ...) are forwarded to the constructor.
        """
        if validate:
            validate_policy(policy, raise_on_error=True)
        return cls(policy=policy, clock=clock, **kwargs)

    # ======================================================================
    # time
    # ======================================================================

    def advance_time(self, seconds: float) -> int:
        """Advance the simulated clock, firing temporal events/rules.

        Denials raised by timer-driven rules (e.g. a window-close
        disable vetoed by a disabling-time SoD) are audited and
        swallowed — a timer has no requester to report the error to.
        Returns timer callbacks fired.
        """
        self.obs.clock_advanced()
        fired = self.timers.advance(seconds)
        # logged *after* the timers ran: recovery folds the target time
        # into the clock, and restore re-arms (or immediately expires)
        # whatever the timers owed
        self._log("clock.advance", to=self.clock.now)
        return fired

    # ======================================================================
    # administration: every static-policy edit is one op of OPS (below)
    # ======================================================================

    def apply(self, op: tuple[Any, ...], *, batch: bool = False) -> Any:
        """Apply one administrative op ``(name, *args)`` of :data:`OPS`
        (the config differ's vocabulary): the only writer of static
        policy.

        The op's step runs every guard before its first write, then
        writes the model; an extension descriptor lives in the policy
        alone, so a descriptor op's step is its guard (the validator's
        checks) plus the side effect it needs.  One tail follows: the
        same op applied to
        ``self.policy`` (:meth:`PolicySpec.apply`), regeneration of the
        roles whose rule signature it moved
        (:func:`~repro.synthesis.regenerate.rule_signatures`), the
        audit record, and the epoch bump with its WAL record.  A
        raising op writes nothing; an op that leaves the policy as it
        was skips the tail after ``PolicySpec.apply``.  Returns the
        regeneration report, if any.  ``batch=True`` (a config swap)
        leaves regeneration and the WAL record to the caller, once for
        the whole batch.
        """
        name, args = op[0], op[1:]
        try:
            step, kind, keys = OPS[name]
        except KeyError:
            raise AdministrationError(f"unknown admin op {name!r}") from None
        if name in SCOPED.values() and args[-1] == SCOPE_ROOT:
            raise AdministrationError(
                f"{name}: the root scope is the flat op; omit the scope")
        step(self, *args)
        if self._policy_shared:
            self.policy, self._policy_shared = self.policy.clone(), False
        before = None if batch else rule_signatures(self.policy)
        if not self.policy.apply(op):
            return None
        roles = set() if batch else moved_roles(before, self.policy)
        report = self._regenerate(roles) if roles else None
        if kind is not None:
            self.audit.record(kind, **dict(zip(keys, args)))
        self._note_policy_change(None if batch else "policy.epoch")
        return report

    def shared_policy(self) -> PolicySpec:
        """The live policy, to share: the engine's next edit copies it."""
        self._policy_shared = True
        return self.policy

    def _note_policy_change(self, record: str | None = "policy.epoch",
                            **data: Any) -> None:
        """Bump the policy epoch and WAL-log the re-rendered policy as
        ``record`` (None: no record): the tail of every policy edit.

        Replaying a session-level WAL record only makes sense against
        the policy in force when it was appended; the epoch record
        carries the full canonical DSL text (policies are small, admin
        changes rare) so recovery can swap policies mid-replay.
        """
        self.policy_epoch += 1
        wal = self.wal
        if record is not None and wal is not None:
            from repro.policy.dsl import render_policy
            wal.log(record, epoch=self.policy_epoch,
                    policy=render_policy(self.policy), **data)

    def add_user(self, name: str, max_active_roles: int | None = None) -> None:
        self.apply(("add_user", name, max_active_roles))

    def delete_user(self, name: str) -> None:
        self.apply(("delete_user", name))

    def add_role(self, name: str, max_active_users: int | None = None) -> None:
        """Add a role and generate its localized rule set."""
        self.apply(("add_role", name, max_active_users))

    def delete_role(self, name: str) -> None:
        """Delete a role everywhere: constraints mentioning it are
        scrubbed from the policy, and the roles that shared one with it
        regenerate."""
        self.apply(("delete_role", name))

    def add_permission(self, operation: str, obj: str) -> None:
        self.apply(("add_permission", operation, obj))

    def grant_permission(self, role: str, operation: str, obj: str,
                         scope: str | None = None) -> None:
        self.apply(with_scope(("grant", role, operation, obj), scope))

    def revoke_permission(self, role: str, operation: str, obj: str,
                          scope: str | None = None) -> None:
        self.apply(with_scope(("revoke", role, operation, obj), scope))

    # -- scope administration (S-A-O-C context tree) -----------------------

    def add_scope(self, name: str, parent: str | None = None) -> None:
        """Declare a scope under ``parent`` (root when None).

        Bumps the policy epoch (and the scope tree's own version),
        so the next kernel consult recompiles the scope closure.
        """
        self.apply(("add_scope", name, parent))

    def remove_scope(self, name: str) -> None:
        """Remove a leaf scope; the model refuses while any grant or
        assignment bound still references it (fail closed)."""
        self.apply(("remove_scope", name))

    def deassign_scope(self, user: str, role: str, scope: str) -> None:
        """Drop one scope bound from UA(user, role).

        Removing the *last* bound deassigns the pair entirely through
        the administrative rule — a scoped assignment never silently
        widens into an unbounded one (fail closed).
        """
        self.apply(("deassign_scoped", user, role, scope))

    def _regenerate(self, roles: set[str]) -> Any:
        """Regenerate the rules of live roles whose rule signature
        moved (hierarchy participation selects the AAR variant, DSD
        membership adds the checkDynamicSoDSet condition, ...)."""
        return regenerate_roles(self, roles)

    def add_inheritance(self, senior: str, junior: str) -> None:
        self.apply(("add_inheritance", senior, junior))

    def delete_inheritance(self, senior: str, junior: str) -> None:
        self.apply(("delete_inheritance", senior, junior))

    def create_ssd_set(self, name: str, roles: set[str],
                       cardinality: int = 2) -> None:
        self.apply(("create_ssd", name, set(roles), cardinality))

    def create_dsd_set(self, name: str, roles: set[str],
                       cardinality: int = 2) -> None:
        self.apply(("create_dsd", name, set(roles), cardinality))

    def assign_user(self, user: str, role: str,
                    scope: str | None = None) -> None:
        """User-role assignment via the globalized administrative rule
        (paper scenario 3).

        With ``scope`` the assignment is *bounded*: the pair only
        serves checks inside the scope's subtree (repeat with another
        scope to widen the bound).  Narrowing a pre-existing unbounded
        assignment is refused — revoke-and-reassign makes the intent
        explicit in the audit trail.
        """
        self.apply(with_scope(("assign_user", user, role), scope))

    def deassign_user(self, user: str, role: str) -> None:
        self.apply(("deassign_user", user, role))

    # ======================================================================
    # sessions and activations (system functions, rule-enforced)
    # ======================================================================

    def create_session(self, user: str, session_id: str | None = None,
                       roles: tuple[str, ...] = ()) -> str:
        """Create a session for ``user``; returns the session id.

        ``roles`` is the ANSI CreateSession initial active role set:
        each is activated through the generated rules; if any
        activation is denied the session is torn down and the denial
        propagates (all-or-nothing, matching the standard's "active
        role set" precondition).

        Raises :class:`~repro.errors.AccessDenied` when the globalized
        session rule denies (unknown or locked user, duplicate id).
        """
        # the id is only proposed here; commit_session consumes it, so a
        # denied request leaves no gap a WAL record would not carry
        sid = session_id or f"s{self._session_seq.peek}"
        self.detector.raise_event("createSession", user=user, sessionId=sid)
        if sid not in self.model.sessions:
            raise OperationDenied(
                "session creation not committed (rules disabled?)"
            )
        try:
            for role in roles:
                self.add_active_role(sid, role)
        except ReproError:
            self.commit_session_delete(sid)
            raise
        return sid

    def delete_session(self, session_id: str) -> None:
        self.detector.raise_event("deleteSession", sessionId=session_id)

    def add_active_role(self, session_id: str, role: str) -> None:
        """Activate ``role`` in the session (paper Rule 3).

        Raises a typed :class:`~repro.errors.ActivationDenied` from the
        generated rule's ELSE branch when any constraint fails.
        """
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        session = self.model.sessions.get(session_id)
        user = session.user if session is not None else None
        activation_id = self._activation_seq.peek
        self.detector.raise_event(
            f"addActiveRole.{role}", user=user, sessionId=session_id,
            role=role, activationId=activation_id,
        )
        if not self.model.is_active_in_session(session_id, role):
            raise ActivationDenied(
                "activation not committed (rules disabled?)"
            )

    def drop_active_role(self, session_id: str, role: str) -> None:
        """Deactivate ``role`` in the session."""
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        session = self.model.sessions.get(session_id)
        user = session.user if session is not None else None
        self.detector.raise_event(
            f"dropActiveRole.{role}", user=user, sessionId=session_id,
            role=role,
        )

    def check_access(self, session_id: str, operation: str, obj: str,
                     purpose: str | None = None,
                     deadline: Deadline | None = None,
                     scope: str | None = None) -> bool:
        """The boolean form of paper Rule 5's checkAccess.

        All three deny shapes — no rule granted, a fail-closed rule
        fault, a blown deadline budget — come back as False; other
        typed errors (e.g. a SecurityLockout countermeasure) still
        propagate.
        """
        try:
            self.require_access(session_id, operation, obj, purpose,
                                deadline=deadline, scope=scope)
            return True
        except (OperationDenied, RuleExecutionError, DeadlineExceeded):
            return False

    def require_access(self, session_id: str, operation: str, obj: str,
                       purpose: str | None = None,
                       deadline: Deadline | None = None,
                       scope: str | None = None, *,
                       kernel: PolicyKernel | None = None) -> str:
        """Raise :class:`~repro.errors.OperationDenied` unless some
        active role of the session may perform the operation; return
        the serving path that granted (``"kernel"`` or
        ``"interpreted"``).  A denial names its path in the raised
        error's ``path``.

        ``scope`` is the C of the normalized S-A-O-C tuple: the check
        runs *at* that node of the scope tree, served by flat grants or
        scoped grants at any ancestor, through assignments whose bounds
        cover it.  ``scope=None`` is the root-scope (flat) check and is
        byte-compatible with the pre-scope API.  Unknown scopes deny —
        fail closed — on both serving paths.

        The compiled decision plane answers first unless
        :meth:`_kernel_bypass` names a reason not to: ``kernel`` is the
        published reference a caller already holds (a shard's RCU
        read; never recompiled here), otherwise the engine's own
        kernel, recompiled if stale.  Anything the kernel classifies
        dynamic (context-gated roles, privacy-regulated objects, ...)
        falls back to the full interpreted OWTE pipeline.  Either path
        produces the same answers, audit records, and counters.

        ``deadline`` (or the engine-wide ``check_deadline`` budget)
        bounds the check.  A live budget leaves a static check on the
        kernel — bitset lookups cannot stall.  A budget already
        exhausted before dispatch is denied
        (:class:`~repro.errors.DeadlineExceeded`) without dispatching.
        A check that falls back for any other reason carries its
        budget into the interpreted pipeline: the rule manager probes
        it before each firing, and it is probed once more after
        dispatch, so a pathological condition cannot stall the
        pipeline into an unbounded grant.
        """
        session = self.model.sessions.get(session_id)
        user = session.user if session is not None else None
        if deadline is None and self.check_deadline is not None:
            deadline = Deadline(self.clock,
                                virtual_budget=self.check_deadline)
        obs = self.obs
        fallback_reason = self._kernel_bypass(deadline)
        if fallback_reason is None:
            if kernel is None:
                kernel = self.kernel()
            verdict, fallback_reason = kernel.evaluate(
                session_id, operation, obj, scope)
            if verdict >= 0:
                self._commit_kernel_decision(
                    kernel, verdict == KERNEL_GRANT, session_id,
                    operation, obj, user, scope)
                return "kernel"
            self.kernel_last_fallback = fallback_reason
            if obs.enabled:
                obs._kernel_fallback._value += 1
        if obs.enabled:
            obs.kernel_fallback(fallback_reason)
        previous = self._decision
        previous_deadline = self.rules.deadline
        granted = False
        rule = cause = None
        start = time.perf_counter_ns()
        try:
            # the decision slot and dispatch deadline are armed inside
            # the try so a fault between here and dispatch can never
            # leak a stale decision/deadline into the next check
            self._decision = None
            self.rules.deadline = deadline
            if deadline is not None:
                # a budget exhausted before dispatch (the request sat in
                # an overloaded server's queue) is denied without paying
                # for the dispatch it can no longer afford
                reason = deadline.exceeded()
                if reason is not None:
                    raise DeadlineExceeded(
                        f"checkAccess {reason} deadline budget exhausted "
                        f"before dispatch; denied", reason=reason)
            if scope is None:
                self.detector.raise_event(
                    "checkAccess", sessionId=session_id,
                    operation=operation, object=obj, purpose=purpose,
                    user=user,
                )
            else:
                self.detector.raise_event(
                    "checkAccess", sessionId=session_id,
                    operation=operation, object=obj, purpose=purpose,
                    user=user, scope=scope,
                )
            if deadline is not None:
                reason = deadline.exceeded()
                if reason is not None:
                    raise DeadlineExceeded(
                        f"checkAccess exceeded its {reason} deadline "
                        f"budget; denied", reason=reason)
            granted = bool(self._decision)
            if not granted:
                # fail closed: no rule granted (e.g. CA rule disabled)
                raise OperationDenied(
                    "Permission Denied (no rule granted the request)"
                )
        except DeadlineExceeded as exc:
            rule, cause = exc.rule, type(exc).__name__
            if exc.reason:
                cause = f"{cause}:{exc.reason}"
            self.obs.deadline_hit(exc.reason)
            self.audit.record("deadline.exceeded", operation=operation,
                              object=obj, session=session_id,
                              reason=exc.reason)
            raise
        except ReproError as exc:
            # captured for the flight-recorder entry
            rule, cause = getattr(exc, "rule", None), type(exc).__name__
            raise
        finally:
            if granted:
                rule = self._decision
            self._decision = previous
            self.rules.deadline = previous_deadline
            self._finish_decision("interpreted", start, session_id, user,
                                  operation, obj, granted, rule, cause,
                                  fallback_reason, purpose, scope)
        return "interpreted"

    # ======================================================================
    # decision plane (PolicyKernel)
    # ======================================================================

    def kernel(self) -> "PolicyKernel":
        """The compiled decision plane for the current policy epoch.

        Compiles lazily and recompiles whenever the validity triple
        (policy epoch, rule-pool version, detector version) moved —
        i.e. after any control-plane mutation.  Always returns a fresh
        kernel; works even with ``kernel_enabled`` off (inspection,
        CLI stats) since compilation never mutates anything.
        """
        kernel = self._kernel
        if kernel is not None and kernel.fresh(self):
            return kernel
        reason = "cold" if kernel is None else kernel.stale_reason(self)
        kernel = self._kernel = PolicyKernel(self)
        self.obs.kernel_built(reason, kernel.build_ns)
        return kernel

    def invalidate_kernel(self) -> None:
        """Drop the compiled kernel; the next consult recompiles.

        The version triple already catches every mutation that flows
        through the engine/manager/detector APIs — this is the
        belt-and-braces hook for callers (regeneration, tests) that
        rewire things behind those counters.
        """
        self._kernel = None

    def _kernel_bypass(self, deadline: Deadline | None) -> str | None:
        """Why this check may not consult the kernel, or None if it may.

        The one gate for every decision — :meth:`require_access` (and
        so :class:`~repro.serve.shard.Shard`) and :meth:`explain` — so
        the path a check takes and the path its explanation reports
        cannot diverge.  Reasons, in taxonomy order: the operator
        turned the kernel off; the ``deadline`` budget is already
        exhausted (a live budget never bypasses: bitset lookups cannot
        stall); full-fidelity diagnostics (trace spans, time-every-
        firing sampling) are on; extra firing observers would miss
        what the kernel skips.
        """
        if not self.kernel_enabled:
            return "disabled"
        if deadline is not None and deadline.exceeded() is not None:
            return "deadline"
        obs = self.obs
        if obs.enabled and (obs.tracer.enabled or obs.timing_interval == 1):
            return "diagnostics"
        observers = self.rules._observers
        if len(observers) != 1 or observers[0] != self._record_rule_firing:
            return "observers"
        return None

    # ======================================================================
    # decision provenance (explain API + flight recorder)
    # ======================================================================

    def explain(self, session_id: str, operation: str, obj: str,
                purpose: str | None = None, scope: str | None = None):
        """Re-run one access decision in explanation mode (read-only).

        Returns a :class:`~repro.obs.provenance.DecisionExplanation`
        whose verdict matches what :meth:`require_access` would decide
        right now, with the full derivation: the path that would serve
        the request (kernel or interpreted, with the fallback-reason
        taxonomy), the permission → role → hierarchy-edge chain
        reconstructed from the kernel's interning tables, context
        gates, privacy compliance, and the first deny cause in the CA
        rule's clause order.  No events fire, no audit records are
        written, and no decision counters move.
        """
        from repro.obs.provenance import explain_decision
        return explain_decision(self, session_id, operation, obj,
                                purpose=purpose, scope=scope)

    def dump_flight(self, cause: str,
                    directory: str | None = None) -> str | None:
        """Dump the flight recorder: JSON file + audit entry.

        Called automatically on quarantine trips, security lockouts
        and WAL recovery; safe to call manually.  Returns the dump
        path, or None when the recorder is disabled or the write
        failed (a forensics dump must never take enforcement down).
        """
        flight = self.flight
        if not flight.enabled:
            return None
        try:
            path = flight.dump(cause, directory,
                               context={"health": self.health()})
        except OSError:
            return None
        self.audit.record("flightrec.dump", cause=cause, path=path,
                          records=len(flight), seq=flight.seq)
        return path

    def _after_decision(self, path: str, session_id: str,
                        user: str | None, operation: str, obj: str,
                        granted: bool, purpose: str | None,
                        scope: str | None = None) -> None:
        """Post-decision hooks shared by both serving paths.

        Feeds the shadow-compare tap (swallowing anything it raises:
        mirrored traffic must never change, delay, or fail a live
        answer) and, when the decision journal is on, appends one
        ``decision.check`` WAL record so the log carries a replayable
        decision stream.  Both hooks are off (one attribute check
        each) in the default configuration.
        """
        tap = self.decision_tap
        if tap is not None:
            try:
                tap(path, session_id, user, operation, obj, granted,
                    scope)
            except Exception:  # noqa: BLE001 - see docstring
                pass
        if self.decision_journal:
            wal = self.wal
            if wal is not None:
                wal.log("decision.check", session=session_id, user=user,
                        operation=operation, object=obj,
                        purpose=purpose, granted=granted, path=path,
                        scope=scope)

    def _finish_decision(self, path: str, start: int, session_id: str,
                         user: str | None, operation: str, obj: str,
                         granted: bool, rule: str | None,
                         cause: str | None,
                         fallback_reason: str | None,
                         purpose: str | None,
                         scope: str | None) -> None:
        """The tail of every checkAccess, on both serving paths.

        Appends the flight-recorder ``decision`` tuple (inlined
        :meth:`FlightRecorder.note_decision`: this runs on the kernel
        hot path, bounded by the smoke job's provenance budget), runs
        :meth:`_after_decision` and observes the end-to-end decision
        histogram.  ``rule`` names the rule that granted or denied and
        ``cause`` the typed error of a deny.
        """
        flight = self.flight
        if flight.enabled:
            seq = flight._seq = flight._seq + 1
            flight._buf[seq % flight.capacity] = (
                "decision", seq, self.clock.now, path, session_id, user,
                operation, obj, "grant" if granted else "deny", rule,
                fallback_reason, cause, scope)
        self._after_decision(path, session_id, user, operation, obj,
                             granted, purpose, scope)
        self.obs.access_decision(granted, time.perf_counter_ns() - start)

    def _commit_kernel_decision(self, kernel: "PolicyKernel", granted: bool,
                                session_id: str, operation: str, obj: str,
                                user: str | None,
                                scope: str | None = None) -> None:
        """Commit a kernel verdict through the CA rule's own commit.

        The kernel answered the rule's W clause, so the firing itself
        never ran.  This keeps that firing's bookkeeping — event and
        dispatch counters, the rule's branch counters (the collect-time
        ``repro_rule_firings_total`` mirror reads them), the typed-error
        counter and the firing observer's ``rule.else`` record — and
        hands the THEN/ELSE body to :meth:`commit_access`, exactly as
        the rule's actions do.  It never writes the ``_decision`` slot,
        so a nested kernel grant cannot leak into an outer interpreted
        check.
        """
        obs = self.obs
        detector = self.detector
        ca = kernel._ca
        start = time.perf_counter_ns()
        rule, cause = ca.name, None
        try:
            # event-substrate parity: one raise, one primitive dispatch
            detector._raised_count += 1
            detector._detected_count += 1
            if obs.enabled:
                node = kernel._node
                pair = node.obs_pair
                if pair is None:
                    pair = obs.bind_node(node)
                pair[0]._value += 1
                pair[1]._value += 1
                obs._cascade_shallow += 1
                if granted:
                    obs._kernel_grant._value += 1
                else:
                    obs._kernel_deny._value += 1
            ca.fired_count += 1
            if granted:
                ca.then_count += 1
            else:
                ca.else_count += 1
            self.commit_access(granted, session_id, user, operation, obj,
                               scope, ca.name)
        except ReproError as error:
            # the rule manager's veto bookkeeping for the skipped firing
            rule, cause = getattr(error, "rule", None), type(error).__name__
            error.path = "kernel"
            if obs.enabled:
                child = obs._error_cache.get((ca.name, type(error)))
                if child is None:
                    child = obs.bind_error(ca.name, error)
                child._value += 1
            self.audit.record("rule.else", rule=ca.name,
                              event="checkAccess", error=cause)
            raise
        finally:
            self._finish_decision("kernel", start, session_id, user,
                                  operation, obj, granted, rule, cause,
                                  None, None, scope)

    # ======================================================================
    # GTRBAC role status
    # ======================================================================

    def enable_role(self, role: str) -> None:
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        self.detector.raise_event(f"enableRole.{role}", role=role)

    def disable_role(self, role: str) -> None:
        """Disable a role; time-based SoD on disabling may deny."""
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        self.detector.raise_event(f"disableRole.{role}", role=role)
        if self.model.roles[role].enabled:
            raise DeactivationDenied(
                "disable not committed (rules disabled?)"
            )

    # ======================================================================
    # commit helpers — called ONLY from generated rule actions
    # ======================================================================

    def grant_decision(self, rule: str) -> None:
        """THEN action of the checkAccess rule: ``rule`` allows the
        check in flight."""
        self._decision = rule

    def commit_access(self, granted: bool, session_id: str,
                      user: str | None, operation: str, obj: str,
                      scope: str | None, rule: str,
                      obligations: Iterable[str] = ()) -> None:
        """THEN/ELSE body of the checkAccess rule (paper Rule 5).

        Both serving paths commit here: the rule's own actions on the
        interpreted path, :meth:`_commit_kernel_decision` on the kernel
        path.  A grant audits the owed privacy obligations, then
        ``decision.allow``.  A deny raises the *real* ``accessDenied``
        event first (active-security countermeasures see every denial
        and may propagate a :class:`~repro.errors.SecurityLockout`
        instead), then audits ``decision.deny`` and raises
        :class:`~repro.errors.OperationDenied` naming ``rule``.
        """
        audit = self.audit
        if granted:
            for obligation in obligations:
                audit.record("obligation.owed", obligation=obligation,
                             object=obj, user=user)
            if scope is None:
                audit.record("decision.allow", category="access",
                             user=user, operation=operation, object=obj)
            else:
                audit.record("decision.allow", category="access",
                             user=user, operation=operation, object=obj,
                             scope=scope)
            return
        if scope is None:
            self.detector.raise_event("accessDenied", user=user,
                                      sessionId=session_id,
                                      operation=operation, object=obj)
            audit.record("decision.deny", category="access", user=user,
                         operation=operation, object=obj)
        else:
            self.detector.raise_event("accessDenied", user=user,
                                      sessionId=session_id,
                                      operation=operation, object=obj,
                                      scope=scope)
            audit.record("decision.deny", category="access", user=user,
                         operation=operation, object=obj, scope=scope)
        raise OperationDenied("Permission Denied", rule=rule)

    def _log(self, op: str, **data: Any) -> None:
        """Append one WAL record when a log is attached."""
        wal = self.wal
        if wal is not None:
            wal.log(op, **data)

    def commit_session(self, session_id: str, user: str) -> None:
        if session_id == f"s{self._session_seq.peek}":
            next(self._session_seq)
        self.model.create_session_record(session_id, user)
        self.obs.session_changed("create")
        self.audit.record("session.create", session=session_id, user=user)
        self._log("session.create", id=session_id, user=user,
                  seq=self._session_seq.peek)

    def commit_session_delete(self, session_id: str) -> None:
        session = self.model.sessions.get(session_id)
        if session is None:
            return
        # deactivate everything first so per-role cleanup rules observe it
        for role in list(session.active_roles):
            self.commit_deactivation(session_id, role)
        self.model.delete_session_record(session_id)
        self.obs.session_changed("delete")
        self.audit.record("session.delete", session=session_id)
        self._log("session.delete", id=session_id)

    def commit_activation(self, session_id: str, role: str,
                          activation_id: int) -> None:
        if activation_id == self._activation_seq.peek:
            next(self._activation_seq)
        self.model.add_session_role_record(session_id, role)
        key = (session_id, role)
        self.current_activation[key] = activation_id
        self.activation_started[key] = self.clock.now
        self.obs.activation_changed("add")
        self.audit.record("activation.add", session=session_id, role=role)
        self._log("activation.add", session=session_id, role=role,
                  activation_id=activation_id, started=self.clock.now,
                  seq=self._activation_seq.peek)

    def commit_deactivation(self, session_id: str, role: str) -> None:
        user = self.model.session_user(session_id)
        self.model.drop_session_role_record(session_id, role)
        key = (session_id, role)
        self.current_activation.pop(key, None)
        self.activation_started.pop(key, None)
        self.obs.activation_changed("drop")
        self.audit.record("activation.drop", session=session_id, role=role)
        self._log("activation.drop", session=session_id, role=role)
        self.detector.raise_event(
            f"roleDeactivated.{role}", sessionId=session_id, role=role,
            user=user,
        )

    def commit_assignment(self, user: str, role: str) -> None:
        self.model.add_assignment_record(user, role)
        self.audit.record("admin.assign_user", user=user, role=role)

    def commit_deassignment(self, user: str, role: str) -> None:
        self.model.remove_assignment_record(user, role)
        self.audit.record("admin.deassign_user", user=user, role=role)
        self.revalidate_activations(user)

    def revalidate_activations(self, user: str | None = None) -> int:
        """Deactivate every activation that lost its authorization
        (after deassignment or hierarchy edits). Returns how many."""
        stale = self.unauthorized_activations(user)
        for session_id, role in stale:
            self.commit_deactivation(session_id, role)
        return len(stale)

    def commit_role_enabled(self, role: str, enabled: bool) -> None:
        if not enabled:
            # Deactivate through commit_deactivation so roleDeactivated
            # events fire (anchor cleanup, audit) before the flag flips.
            self.force_deactivate_role(role)
        self.model.set_role_enabled(role, enabled)
        self.audit.record("role.enable" if enabled else "role.disable",
                          role=role)
        self._log("role.status", role=role, enabled=enabled)

    # ======================================================================
    # active-security reactions
    # ======================================================================

    def force_deactivate_role(self, role: str) -> int:
        """Drop ``role`` from every session (countermeasure). Returns
        the number of sessions affected."""
        if role not in self.model.roles:
            return 0
        affected = 0
        for session_id, session in list(self.model.sessions.items()):
            if role in session.active_roles:
                self.commit_deactivation(session_id, role)
                affected += 1
        return affected

    def lock_user(self, user: str) -> None:
        """Lock a user out: sessions destroyed, further requests denied."""
        self.locked_users.add(user)
        for session_id in list(self.model.user_sessions(user)) \
                if user in self.model.users else []:
            self.commit_session_delete(session_id)
        self.audit.record("security.lock_user", user=user)
        self._log("user.lock", user=user)
        # a lockout is a health-degradation event: preserve the run-up
        self.dump_flight(f"security.lockout.{user}")

    def unlock_user(self, user: str) -> None:
        self.locked_users.discard(user)
        self.audit.record("security.unlock_user", user=user)
        self._log("user.unlock", user=user)

    # ======================================================================
    # internals
    # ======================================================================

    def _record_rule_firing(self, rule, occurrence, outcome, error) -> None:
        flight = self.flight
        if flight.enabled:
            seq = flight._seq = flight._seq + 1
            flight._buf[seq % flight.capacity] = (
                "firing", seq, self.clock.now, rule.name,
                occurrence.event,
                outcome.value if outcome is not None else "error",
                type(error).__name__ if error is not None else None)
        if outcome is RuleOutcome.ELSE or error is not None:
            self.audit.record(
                "rule.else", rule=rule.name, event=occurrence.event,
                error=type(error).__name__ if error else None,
            )

    def safe_raise(self, event: str, **params) -> None:
        """Raise an event from a timer callback, auditing (not
        propagating) access-control denials — timers have no requester."""
        try:
            self.detector.raise_event(event, **params)
        except ReproError as exc:
            self.audit.record("timer.denied", event=event,
                              error=type(exc).__name__, message=str(exc))

    def health(self) -> dict[str, object]:
        """Degradation summary for operators (and `repro-rbac health`).

        ``status`` is ``degraded`` while any rule sits in quarantine —
        a persistent loss of enforcement/advisory coverage — and ``ok``
        otherwise; the counters surface transient fault activity
        (contained clause faults, observer faults, blown deadlines,
        transient-I/O retries) so a fleet can alert on them.
        """
        quarantined = sorted(r.name for r in self.rules.quarantined_rules())
        kernel = self._kernel
        return {
            "status": "degraded" if quarantined else "ok",
            "rules": len(self.rules),
            "rules_enabled": sum(1 for r in self.rules if r.enabled),
            "quarantined": quarantined,
            "rule_faults": sum(r.fault_count for r in self.rules),
            "observer_faults": self.rules.observer_faults,
            "deadline_exceeded": int(self.obs.deadline_exceeded.total()),
            "transient_retries": int(self.obs.transient_retries.total()),
            "audit_dropped": self.audit.dropped,
            "locked_users": sorted(self.locked_users),
            "kernel": ("off" if not self.kernel_enabled
                       else "cold" if kernel is None
                       else "fresh" if kernel.fresh(self)
                       else "stale"),
            # decision-plane readiness: what /healthz reports without
            # forcing a recompile.  The staleness triple pairs each
            # compiled version with the engine's live one, so an
            # operator can see *which* axis drifted (policy edit, rule
            # quarantine, detector change) before the next publish.
            "kernel_epoch": None if kernel is None else kernel.epoch,
            "policy_epoch": self.policy_epoch,
            "kernel_stale_reason": (None if kernel is None
                                    else kernel.stale_reason(self)),
            "kernel_staleness": None if kernel is None else {
                "epoch": {"kernel": kernel.epoch,
                          "engine": self.policy_epoch},
                "rules": {"kernel": kernel.rules_version,
                          "engine": self.rules.version},
                "detector": {"kernel": kernel.detector_version,
                             "engine": self.detector.version},
                "scopes": {"kernel": kernel.scopes_version,
                           "engine": self.model.scopes.version},
            },
            "kernel_last_fallback": self.kernel_last_fallback,
            # policy lifecycle: which config version is live, what (if
            # anything) is staged, and why the last rollback happened
            "config_version": self.config_version,
            "config_candidate": self.config_candidate,
            "config_last_rollback": self.config_last_rollback,
            "flightrec_dumps": self.flight.dumps,
            "flightrec_dir": self.flight.resolved_dir(),
        }

    def stats(self) -> dict[str, int | float]:
        """Combined model/detector/rule-pool counters, merged with the
        observability registry snapshot.

        Metric-registry series keep their own namespace: every merged
        key starts with ``obs.`` (histograms contribute ``.count`` /
        ``.sum`` / ``.mean`` sub-keys), so existing consumers of the
        legacy keys are unaffected while CLI/examples surface the
        richer counters without any API change.
        """
        combined: dict[str, int | float] = dict(self.model.stats())
        combined.update({f"events_{k}": v
                         for k, v in self.detector.stats().items()})
        combined["rules"] = len(self.rules)
        combined["audit_entries"] = len(self.audit)
        kernel = self._kernel
        combined["kernel_enabled"] = int(self.kernel_enabled)
        combined["kernel_compiled"] = int(
            kernel is not None and kernel.fresh(self))
        combined.update(self.obs.metrics.snapshot_flat(prefix="obs."))
        return combined


# ==========================================================================
# the administrative op table (applied by ActiveRBACEngine.apply)
# ==========================================================================

#: flat op -> its scoped twin (the trailing argument is the scope)
SCOPED = {"grant": "grant_scoped", "revoke": "revoke_scoped",
          "assign_user": "assign_scoped",
          "deassign_user": "deassign_scoped"}


def with_scope(op: tuple[Any, ...], scope: str | None) -> tuple[Any, ...]:
    """``op`` bounded to ``scope``: its scoped twin, or ``op`` itself
    for no scope or the root scope (the flat op)."""
    if scope is None or scope == SCOPE_ROOT:
        return op
    return (SCOPED[op[0]], *op[1:], scope)


# -- steps: guards, then the model write.  Which rules regenerate is
# not a step's business: the tail regenerates the roles whose rule
# signature the op moved, once the policy reflects it


def _model(method: str) -> Callable[..., None]:
    """A step that is one model write, guarded by the model itself."""
    def step(engine: ActiveRBACEngine, *args: Any) -> None:
        getattr(engine.model, method)(*args)
    return step


def _rule(event: str) -> Callable[..., None]:
    """A step that is one administrative rule: its W clause is the
    guard and its THEN branch the write (and audit record)."""
    def step(engine: ActiveRBACEngine, user: str, role: str) -> None:
        engine.detector.raise_event(event, user=user, role=role)
        # fail closed: a disabled rule commits nothing
        if engine.model.is_assigned(user, role) != (event == "assignUser"):
            raise OperationDenied(
                f"{event} not committed (rules disabled?)")
    return step


_ASSIGN = _rule("assignUser")
_DEASSIGN = _rule("deassignUser")


# Deleting a user or role first tears its live state (sessions,
# activations, a lock, a disabled status) down through the commit
# helpers, so audit, the WAL and anchor cleanup all see it.


def _delete_user(engine: ActiveRBACEngine, name: str) -> None:
    for session_id in engine.model.user_sessions(name):
        engine.commit_session_delete(session_id)
    if name in engine.locked_users:
        engine.unlock_user(name)
    engine.model.delete_user(name)


def _delete_role(engine: ActiveRBACEngine, name: str) -> None:
    """Cross-role rules that involved the role (disabling-time SoD
    partners, CFD pairs, transaction anchors) retire with its own;
    scrubbing the policy moves the partners' rule signatures, so they
    regenerate without it."""
    if not engine.model.is_role_enabled(name):
        engine.commit_role_enabled(name, True)
    engine.force_deactivate_role(name)
    engine.model.delete_role(name)
    engine.generator.remove_role_rules(name)
    engine.generator.remove_role_events(name)


def _delete_inheritance(engine: ActiveRBACEngine, senior: str,
                        junior: str) -> None:
    engine.model.delete_inheritance(senior, junior)
    engine.revalidate_activations()


def _assign_scoped(engine: ActiveRBACEngine, user: str, role: str,
                   scope: str) -> None:
    """Bound UA(user, role) to ``scope`` (repeat to widen the bound).
    Narrowing an unbounded assignment is refused: revoke-and-reassign
    makes the intent explicit in the audit trail."""
    model = engine.model
    if scope not in model.scopes:
        raise UnknownScopeError(scope)
    if not model.is_assigned(user, role):
        _ASSIGN(engine, user, role)
    elif not model.assignment_scopes(user, role):
        raise AdministrationError(
            f"user {user!r} already holds role {role!r} unbounded; "
            f"deassign before narrowing to scope {scope!r}")
    model.limit_assignment_scope(user, role, scope)


def _deassign_scoped(engine: ActiveRBACEngine, user: str, role: str,
                     scope: str) -> None:
    """Drop one scope bound; dropping the *last* deassigns the pair
    through the administrative rule — a scoped assignment never
    silently widens into an unbounded one (fail closed)."""
    bounds = engine.model.assignment_scopes(user, role)
    if scope not in bounds:
        raise AdministrationError(
            f"assignment ({user!r}, {role!r}) is not bounded to "
            f"scope {scope!r}")
    if len(bounds) == 1:
        _DEASSIGN(engine, user, role)
    else:
        engine.model.remove_assignment_scope(user, role, scope)


def _enable_unwindowed(engine: ActiveRBACEngine, spec: PolicySpec) -> None:
    """A role whose enabling window the op clears is left enabled, as
    a policy without the window boots."""
    windowed = {window.role for window in spec.enabling_windows}
    for window in engine.policy.enabling_windows:
        if (window.role not in windowed
                and not engine.model.is_role_enabled(window.role)):
            engine.commit_role_enabled(window.role, True)


def _install_privacy(engine: ActiveRBACEngine, spec: PolicySpec) -> None:
    engine.privacy = PrivacyRegistry.of(spec.purposes, spec.object_policies)


#: descriptor list -> what an op on it does beyond the policy, given
#: the descriptor lists the op leaves: a cleared window re-enables its
#: role, and a registry-backed list reseeds its registry
_EFFECTS = {
    "enabling_windows": _enable_unwindowed,
    "purposes": _install_privacy,
    "object_policies": _install_privacy,
    "threshold_policies": lambda engine, spec: engine.monitor.set_policies(
        spec.threshold_policies),
}


def _descriptor(name: str, field: str) -> Callable[..., None]:
    """The step of descriptor op ``name`` on the list ``field``.  A
    descriptor lives in the policy alone (the generator, the
    enforcement helpers and the registries read it there), so the
    tail's PolicySpec.apply is its only write; the step runs the op on
    a copy of the descriptor lists, and the validator's descriptor
    checks of the copy (and the item types' own, for a role as its own
    prerequisite or a non-positive duration) are its guard."""
    def step(engine: ActiveRBACEngine, *args: Any) -> None:
        policy = engine.policy
        after = PolicySpec(roles=policy.roles, users=policy.users, **{
            f: list(getattr(policy, f)) for f in DESCRIPTOR_OPS})
        try:
            if not after.apply((name, *args)):
                return
        except ValueError as exc:
            raise PolicyValidationError([str(exc)]) from None
        issues = descriptor_issues(after)
        if issues:
            raise PolicyValidationError(issues)
        if field in _EFFECTS:
            _EFFECTS[field](engine, after)
    return step


_GRANT = ("role", "operation", "object")

#: op name -> (step, audit kind, audit keys naming the op's leading
#: arguments); a None kind: the rule's own commit audits the op
OPS = {
    "add_user": (_model("add_user"), "admin.add_user", ("user",)),
    "delete_user": (_delete_user, "admin.delete_user", ("user",)),
    "set_user_max_roles": (_model("set_user_max_roles"),
                           "admin.set_user_max_roles",
                           ("user", "max_active_roles")),
    "add_role": (_model("add_role"), "admin.add_role", ("role",)),
    "delete_role": (_delete_role, "admin.delete_role", ("role",)),
    "set_role_cardinality": (_model("set_role_cardinality"),
                             "admin.set_role_cardinality",
                             ("role", "max_active_users")),
    "add_permission": (_model("add_permission"), "admin.add_permission",
                       ("operation", "object")),
    "grant": (_model("grant_permission"), "admin.grant", _GRANT),
    "grant_scoped": (_model("grant_permission"), "admin.grant",
                     (*_GRANT, "scope")),
    "revoke": (_model("revoke_permission"), "admin.revoke", _GRANT),
    "revoke_scoped": (_model("revoke_permission"), "admin.revoke",
                      (*_GRANT, "scope")),
    "add_inheritance": (_model("add_inheritance"),
                        "admin.add_inheritance", ("senior", "junior")),
    "delete_inheritance": (_delete_inheritance,
                           "admin.delete_inheritance", ("senior", "junior")),
    "create_ssd": (_model("create_ssd_set"), "admin.create_ssd", ("name",)),
    "delete_ssd": (_model("delete_ssd_set"), "admin.delete_ssd", ("name",)),
    "create_dsd": (_model("create_dsd_set"),
                   "admin.create_dsd", ("name",)),
    "delete_dsd": (_model("delete_dsd_set"), "admin.delete_dsd", ("name",)),
    "add_scope": (_model("add_scope"), "admin.add_scope",
                  ("scope", "parent")),
    "remove_scope": (_model("remove_scope"), "admin.remove_scope",
                     ("scope",)),
    "assign_user": (_ASSIGN, None, ()),
    "assign_scoped": (_assign_scoped, "admin.assign_scope",
                      ("user", "role", "scope")),
    "deassign_user": (_DEASSIGN, None, ()),
    "deassign_scoped": (_deassign_scoped, "admin.deassign_scope",
                        ("user", "role", "scope")),
    **{name: (_descriptor(name, field), f"admin.{name}", descriptor.audit)
       for field, descriptor in DESCRIPTOR_OPS.items()
       for name in (descriptor.add, descriptor.remove)},
}
