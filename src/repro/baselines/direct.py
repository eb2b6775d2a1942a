"""DirectRBACEngine: hand-coded inline enforcement (no active rules).

The paper's related-work systems "are custom-implemented,
domain-specific and are confined to particular forms of constraints"
(§1).  This engine is that style, done as well as possible: the full
constraint set is supported, but every check is an inline conditional
inside the operation methods.  It shares the
:class:`~repro.enforcement.EnforcementHelpers` predicates with the
active engine so that both engines *decide identically* — the contrast
under study is the mechanism (and its maintainability/extensibility),
not the policy semantics.

Temporal behaviour (duration expiry, enabling windows) is implemented
with direct timer callbacks on the same virtual clock.
"""

from __future__ import annotations

import itertools

from repro.clock import TimerService, VirtualClock
from repro.enforcement import EnforcementHelpers
from repro.errors import (
    DeactivationDenied,
    DuplicateEntityError,
    OperationDenied,
    SecurityLockout,
    UnknownRoleError,
    UnknownSessionError,
    UnknownUserError,
)
from repro.extensions.context import ContextProvider
from repro.extensions.privacy import PrivacyRegistry
from repro.policy.spec import PolicySpec, build_model
from repro.synthesis.templates import activation_error


class DirectRBACEngine(EnforcementHelpers):
    """Inline-check RBAC enforcement over the same model and policy."""

    def __init__(self, policy: PolicySpec | None = None,
                 clock: VirtualClock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self.timers = TimerService(self.clock)
        self.policy = policy.clone() if policy is not None else PolicySpec()
        self.model = build_model(self.policy)
        self.context = ContextProvider()
        self.privacy = PrivacyRegistry.of(self.policy.purposes,
                                          self.policy.object_policies)
        self.locked_users: set[str] = set()
        self._session_seq = itertools.count(1)
        self._activation_seq = itertools.count(1)
        self.current_activation: dict[tuple[str, str], int] = {}
        #: denial log (the baseline has no audit subsystem; a list
        #: suffices for its own bookkeeping)
        self.denials: list[tuple[float, str, str]] = []

        self._install_enabling_windows()

    # ======================================================================
    # administration
    # ======================================================================

    def add_user(self, name: str, max_active_roles: int | None = None) -> None:
        self.model.add_user(name, max_active_roles)
        self.policy.add_user(name, max_active_roles)

    def add_role(self, name: str, max_active_users: int | None = None) -> None:
        self.model.add_role(name, max_active_users)
        self.policy.add_role(name, max_active_users)

    def add_permission(self, operation: str, obj: str) -> None:
        self.model.add_permission(operation, obj)
        self.policy.apply(("add_permission", operation, obj))

    def grant_permission(self, role: str, operation: str, obj: str) -> None:
        self.model.grant_permission(role, operation, obj)
        self.policy.grants.append((role, operation, obj))

    def add_inheritance(self, senior: str, junior: str) -> None:
        self.model.add_inheritance(senior, junior)
        self.policy.add_hierarchy(senior, junior)

    def create_ssd_set(self, name: str, roles: set[str],
                       cardinality: int = 2) -> None:
        self.model.create_ssd_set(name, roles, cardinality)
        self.policy.add_ssd(name, roles, cardinality)

    def create_dsd_set(self, name: str, roles: set[str],
                       cardinality: int = 2) -> None:
        self.model.create_dsd_set(name, roles, cardinality)
        self.policy.add_dsd(name, roles, cardinality)

    def assign_user(self, user: str, role: str) -> None:
        self.model.assign_user(user, role)  # validates SSD inline
        self.policy.add_assignment(user, role)

    def deassign_user(self, user: str, role: str) -> None:
        if not self.model.is_user(user):
            raise UnknownUserError(user)
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        if not self.model.is_assigned(user, role):
            from repro.errors import AdministrationError
            raise AdministrationError(
                f"user {user!r} is not assigned to role {role!r}")
        self.model.remove_assignment_record(user, role)
        # deactivate everything the user lost authorization for,
        # through the cascading path (anchor cleanup, timers)
        for session_id, stale in self.unauthorized_activations(user):
            self._commit_deactivation(session_id, stale)
        self.policy.apply(("deassign_user", user, role))

    def delete_inheritance(self, senior: str, junior: str) -> None:
        self.model.delete_inheritance(senior, junior)
        self.policy.apply(("delete_inheritance", senior, junior))
        for session_id, stale in self.unauthorized_activations():
            self._commit_deactivation(session_id, stale)

    # ======================================================================
    # sessions and activations
    # ======================================================================

    def create_session(self, user: str, session_id: str | None = None,
                       roles: tuple[str, ...] = ()) -> str:
        sid = session_id or f"s{next(self._session_seq)}"
        if not self.model.is_user(user):
            raise UnknownUserError(user)
        if self.is_user_locked(user):
            raise SecurityLockout(f"user {user!r} is locked")
        if self.model.is_session(sid):
            raise DuplicateEntityError(f"session {sid!r} already exists")
        self.model.create_session_record(sid, user)
        try:
            for role in roles:
                self.add_active_role(sid, role)
        except Exception:
            self.delete_session(sid)
            raise
        return sid

    def delete_session(self, session_id: str) -> None:
        if not self.model.is_session(session_id):
            raise UnknownSessionError(session_id)
        session = self.model.sessions[session_id]
        for role in list(session.active_roles):
            self._commit_deactivation(session_id, role)
        self.model.delete_session_record(session_id)

    def add_active_role(self, session_id: str, role: str) -> None:
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        allowed, reason = self.can_activate(session_id, role)
        if not allowed:
            session = self.model.sessions.get(session_id)
            user = session.user if session else None
            self.denials.append((self.clock.now, "activation", reason))
            raise activation_error(reason, rule="")
        activation_id = next(self._activation_seq)
        self.model.add_session_role_record(session_id, role)
        self.current_activation[(session_id, role)] = activation_id
        self._arm_duration_timer(session_id, role, activation_id)

    def drop_active_role(self, session_id: str, role: str) -> None:
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        if not self.model.is_active_in_session(session_id, role):
            raise DeactivationDenied(
                f"role {role!r} is not active in session {session_id!r}")
        self._commit_deactivation(session_id, role)

    def check_access(self, session_id: str, operation: str, obj: str,
                     purpose: str | None = None) -> bool:
        try:
            self.require_access(session_id, operation, obj, purpose)
            return True
        except OperationDenied:
            return False

    def require_access(self, session_id: str, operation: str, obj: str,
                       purpose: str | None = None) -> None:
        session = self.model.sessions.get(session_id)
        allowed = (
            session is not None
            and not self.is_user_locked(session.user)
            and operation in self.model.operations
            and obj in self.model.objects
            and self.access_roles_ok(session_id, operation, obj)
            and self.privacy_ok(obj, operation, purpose)[0]
        )
        if not allowed:
            self.denials.append((self.clock.now, "access",
                                 f"{operation} on {obj}"))
            raise OperationDenied("Permission Denied")

    # ======================================================================
    # role status (GTRBAC)
    # ======================================================================

    def enable_role(self, role: str) -> None:
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        self._enable_with_postconditions(role)

    def disable_role(self, role: str) -> None:
        if role not in self.model.roles:
            raise UnknownRoleError(role)
        if not self.disabling_sod_ok(role):
            raise DeactivationDenied(
                f"Denied as partner role Already Disabled "
                f"(disabling-time SoD on {role!r})")
        self._commit_disable(role)

    # ======================================================================
    # internals: inline equivalents of the generated cascades
    # ======================================================================

    def _commit_deactivation(self, session_id: str, role: str) -> None:
        self.model.drop_session_role_record(session_id, role)
        self.current_activation.pop((session_id, role), None)
        self._anchor_cleanup(role)

    def _anchor_cleanup(self, role: str) -> None:
        """Rule 9's cascade, inlined: if this was the last activation of
        a transaction anchor, deactivate every dependent role."""
        if self.model.active_user_count(role) != 0:
            return
        for dependent in self.transaction_dependents_of(role):
            for session_id, session in list(self.model.sessions.items()):
                if dependent in session.active_roles:
                    self._commit_deactivation(session_id, dependent)

    def _commit_disable(self, role: str) -> None:
        if not self.model.roles[role].enabled:
            return
        # deactivate everywhere with anchor cleanup, then flip the flag
        for session_id, session in list(self.model.sessions.items()):
            if role in session.active_roles:
                self._commit_deactivation(session_id, role)
        self.model.set_role_enabled(role, False)

    def _enable_with_postconditions(self, role: str) -> None:
        """Rule 8's post-condition CFD, inlined with rollback."""
        if self.model.is_role_enabled(role):
            return
        self.model.set_role_enabled(role, True)
        for post in self.policy.post_conditions:
            if post.trigger_role != role:
                continue
            partner = post.required_role
            if self.model.is_role_enabled(partner):
                continue
            try:
                self._enable_with_postconditions(partner)
            except Exception:
                self._commit_disable(role)
                raise
            if not self.model.is_role_enabled(partner):
                self._commit_disable(role)
                raise activation_error(
                    f"Cannot Activate {role}: required role "
                    f"{partner!r} could not be enabled", rule="")

    def _arm_duration_timer(self, session_id: str, role: str,
                            activation_id: int) -> None:
        session = self.model.sessions.get(session_id)
        if session is None:
            return
        delta = self.duration_for(role, session.user)
        if delta is None:
            return

        def expire() -> None:
            key = (session_id, role)
            if self.current_activation.get(key) != activation_id:
                return  # re-activated or already deactivated
            self._commit_deactivation(session_id, role)

        self.timers.schedule_after(delta, expire)

    def _install_enabling_windows(self) -> None:
        for window in self.policy.enabling_windows:
            role, interval = window.role, window.interval
            if role not in self.model.roles:
                continue
            self.model.set_role_enabled(
                role, interval.contains(self.clock.now))
            self._schedule_window(role, interval)

    def _schedule_window(self, role: str, interval) -> None:
        instant, opens = interval.next_boundary(self.clock.now)
        if instant == float("inf"):
            return

        def fire() -> None:
            if role in self.model.roles:
                if opens:
                    try:
                        self._enable_with_postconditions(role)
                    except Exception:
                        pass  # timers have no requester to notify
                else:
                    if self.disabling_sod_ok(role):
                        self._commit_disable(role)
            self._schedule_window(role, interval)

        self.timers.schedule_at(instant, fire)

    def advance_time(self, seconds: float) -> int:
        return self.timers.advance(seconds)
