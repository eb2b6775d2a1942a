"""Core RBAC state: the authoritative model both engines share.

Implements the ANSI INCITS 359-2004 functional specification:

* **administrative commands** — ``add_user``, ``delete_user``,
  ``add_role``, ``delete_role``, ``assign_user``, ``deassign_user``,
  ``grant_permission``, ``revoke_permission``, ``add_inheritance``,
  ``delete_inheritance``, SSD/DSD set management;
* **supporting system functions** — session records
  (``create_session_record`` etc.) as *unchecked* state transitions: the
  enforcement engines (active rules or the direct baseline) perform the
  checks and then call these to commit;
* **review functions** — ``assigned_users``, ``authorized_users``,
  ``role_permissions``, ``session_roles`` and friends;
* **predicates** — the pure checks the paper's generated rule conditions
  call (``checkAssignedR1``, ``checkAuthorizationR1``,
  ``checkDynamicSoDSet``, ``checkPermissions``, ...).

Administrative commands *do* validate (e.g. ``assign_user`` refuses an
SSD violation) because the standard defines them as total functions over
consistent states; the paper's administrative rules wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import (
    AdministrationError,
    DuplicateEntityError,
    SsdViolationError,
    UnknownPermissionError,
    UnknownRoleError,
    UnknownSessionError,
    UnknownUserError,
)
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.scopes import SCOPE_ROOT, ScopeTree, UnknownScopeError
from repro.rbac.sod import SodRegistry, SsdConstraint, hierarchy_conflicts


@dataclass(frozen=True)
class Permission:
    """An approval to perform ``operation`` on ``obj`` (PRMS in the spec)."""

    operation: str
    obj: str

    def __str__(self) -> str:
        return f"({self.operation}, {self.obj})"


@dataclass(slots=True)
class User:
    """An instance of entity U: a human or user agent (paper §4.1).

    ``max_active_roles`` carries the *specialized* cardinality constraint
    of paper scenario 1 ("Jane restricted to five active roles"); ``None``
    means unconstrained.
    """

    name: str
    max_active_roles: int | None = None


@dataclass(slots=True)
class Role:
    """An instance of entity R: a job function (paper §4.1).

    ``max_active_users`` carries the *localized* cardinality constraint
    of paper scenario 2 ("Programmer activated by at most five users").
    ``enabled`` is the GTRBAC role status: a disabled role cannot be
    activated in any session (it stays assigned).
    """

    name: str
    max_active_users: int | None = None
    enabled: bool = True


@dataclass(slots=True)
class Session:
    """A user's session with its active role set (paper footnote 9)."""

    session_id: str
    user: str
    active_roles: set[str] = field(default_factory=set)


class RBACModel:
    """The shared RBAC state machine.

    ``hierarchy_limited=True`` selects limited hierarchies (at most one
    immediate descendant per role).
    """

    def __init__(self, hierarchy_limited: bool = False) -> None:
        self.users: dict[str, User] = {}
        self.roles: dict[str, Role] = {}
        self.operations: set[str] = set()
        self.objects: set[str] = set()
        self.permissions: set[Permission] = set()
        #: user-role assignment relation UA
        self._ua: dict[str, set[str]] = {}
        #: permission-role assignment relation PA (role -> permissions)
        self._pa: dict[str, set[Permission]] = {}
        self.hierarchy = RoleHierarchy(limited=hierarchy_limited)
        self.sod = SodRegistry()
        self.sessions: dict[str, Session] = {}
        #: the S-A-O-C scope tree; the root is the flat (unscoped) context
        self.scopes = ScopeTree()
        #: scoped PA: role -> scope -> permissions granted *at* that scope
        #: (covering the scope's whole subtree); flat PA stays in _pa
        self._pa_scoped: dict[str, dict[str, set[Permission]]] = {}
        #: assignment scope limits: (user, role) -> scopes the assignment
        #: is bounded to; absent pair = unbounded (flat) assignment
        self._ua_scopes: dict[tuple[str, str], set[str]] = {}
        #: the one copy of every user, role, operation, object and scope
        #: name, keyed by itself: the audit log and the serve plane store
        #: names parsed from requests through it, so a retained record
        #: shares the policy's string.  Written only where a name is
        #: created or deleted, so it is bounded by the policy, never by
        #: traffic (see docs/ARCHITECTURE.md, "Audit log").
        self.names: dict[str, str] = {}

    # ======================================================================
    # administrative commands
    # ======================================================================

    def add_user(self, name: str, max_active_roles: int | None = None) -> User:
        if name in self.users:
            raise DuplicateEntityError(f"user {name!r} already exists")
        name = self._name(name)
        user = User(name, max_active_roles)
        self.users[name] = user
        self._ua[name] = set()
        return user

    def delete_user(self, name: str) -> None:
        """Delete a user; their sessions are destroyed (ANSI semantics)."""
        self._require_user(name)
        for session_id in [
            sid for sid, s in self.sessions.items() if s.user == name
        ]:
            del self.sessions[session_id]
        del self._ua[name]
        for pair in [p for p in self._ua_scopes if p[0] == name]:
            del self._ua_scopes[pair]
        del self.users[name]
        self._forget_name(name)

    def add_role(self, name: str, max_active_users: int | None = None,
                 enabled: bool = True) -> Role:
        if name in self.roles:
            raise DuplicateEntityError(f"role {name!r} already exists")
        name = self._name(name)
        role = Role(name, max_active_users, enabled)
        self.roles[name] = role
        self._pa[name] = set()
        self.hierarchy.add_role(name)
        return role

    def delete_role(self, name: str) -> None:
        """Delete a role everywhere: UA, PA, hierarchy, SoD, sessions."""
        self._require_role(name)
        for assigned in self._ua.values():
            assigned.discard(name)
        del self._pa[name]
        self._pa_scoped.pop(name, None)
        for pair in [p for p in self._ua_scopes if p[1] == name]:
            del self._ua_scopes[pair]
        self.hierarchy.remove_role(name)
        self.sod.remove_role(name)
        for session in self.sessions.values():
            session.active_roles.discard(name)
        del self.roles[name]
        self._forget_name(name)

    def set_user_max_roles(self, name: str,
                           max_active_roles: int | None) -> None:
        self._require_user(name).max_active_roles = max_active_roles

    def set_role_cardinality(self, name: str,
                             max_active_users: int | None) -> None:
        self._require_role(name).max_active_users = max_active_users

    def add_operation(self, operation: str) -> None:
        self.operations.add(self._name(operation))

    def add_object(self, obj: str) -> None:
        self.objects.add(self._name(obj))

    def add_permission(self, operation: str, obj: str) -> Permission:
        """Register a permission (operation, object); idempotent."""
        operation = self._name(operation)
        obj = self._name(obj)
        self.operations.add(operation)
        self.objects.add(obj)
        permission = Permission(operation, obj)
        self.permissions.add(permission)
        return permission

    def assign_user(self, user: str, role: str) -> None:
        """AssignUser: establish UA(user, role), preserving SSD.

        With hierarchies, SSD applies to the *authorized* role set: the
        assignment is refused when the user would become authorized for
        a violating combination.
        """
        self._require_user(user)
        self._require_role(role)
        if role in self._ua[user]:
            raise AdministrationError(
                f"user {user!r} is already assigned to role {role!r}"
            )
        violations = self._assignment_ssd_violations(user, role)
        if violations:
            names = ", ".join(v.name for v in violations)
            raise SsdViolationError(
                f"assigning {role!r} to {user!r} violates SSD "
                f"constraint(s): {names}",
                constraint=violations[0].name, user=user,
                roles=violations[0].roles,
            )
        self._ua[user].add(role)

    def deassign_user(self, user: str, role: str) -> None:
        """DeassignUser: remove UA(user, role).

        Every active role the user is no longer *authorized* for is
        deactivated — not just ``role``: a junior activated under this
        assignment's authority loses its justification too ("all the
        constraints that are satisfied by a user when activating a role
        should hold TRUE until the role is deactivated", paper §1).
        """
        self._require_user(user)
        self._require_role(role)
        if role not in self._ua[user]:
            raise AdministrationError(
                f"user {user!r} is not assigned to role {role!r}"
            )
        self._ua[user].remove(role)
        self._ua_scopes.pop((user, role), None)
        for session in self.sessions.values():
            if session.user != user:
                continue
            for active in list(session.active_roles):
                if not self.is_authorized(user, active):
                    session.active_roles.discard(active)

    def grant_permission(self, role: str, operation: str, obj: str,
                         scope: str | None = None) -> None:
        """GrantPermission: establish PA(permission, role).

        With ``scope`` the grant is *scoped*: it authorizes the
        permission at ``scope`` and every descendant scope, and nowhere
        else. ``scope=None`` (or the root) is the classic flat grant.
        """
        self._require_role(role)
        permission = Permission(operation, obj)
        if permission not in self.permissions:
            raise UnknownPermissionError(permission)
        if scope is None or scope == SCOPE_ROOT:
            if permission in self._pa[role]:
                raise AdministrationError(
                    f"role {role!r} already holds permission {permission}"
                )
            self._pa[role].add(permission)
            return
        if scope not in self.scopes:
            raise UnknownScopeError(scope)
        held = self._pa_scoped.setdefault(role, {}).setdefault(scope, set())
        if permission in held:
            raise AdministrationError(
                f"role {role!r} already holds permission {permission} "
                f"in scope {scope!r}"
            )
        held.add(permission)

    def revoke_permission(self, role: str, operation: str, obj: str,
                          scope: str | None = None) -> None:
        self._require_role(role)
        permission = Permission(operation, obj)
        if scope is None or scope == SCOPE_ROOT:
            if permission not in self._pa[role]:
                raise AdministrationError(
                    f"role {role!r} does not hold permission {permission}"
                )
            self._pa[role].remove(permission)
            return
        held = self._pa_scoped.get(role, {}).get(scope, set())
        if permission not in held:
            raise AdministrationError(
                f"role {role!r} does not hold permission {permission} "
                f"in scope {scope!r}"
            )
        held.remove(permission)
        if not held:
            del self._pa_scoped[role][scope]
            if not self._pa_scoped[role]:
                del self._pa_scoped[role]

    def add_inheritance(self, senior: str, junior: str) -> None:
        """AddInheritance: senior >> junior, preserving SSD consistency.

        The edge is rejected when it would put any user's authorized
        role set in violation of an SSD constraint (hierarchical SSD,
        ANSI §6.3) — e.g. enterprise XYZ's PM inherits the SSD of PC —
        or when it would make any single role alone authorized for a
        violating combination (:func:`~repro.rbac.sod.hierarchy_conflicts`,
        the validator's rule), users or not.  Only the senior side
        acquires the junior's closure, so both checks scan the seniors
        and their authorized users, not the whole population — and only
        when some SSD set names a role of that closure: otherwise no
        constraint can newly fire (:meth:`SodRegistry.ssd_mentions`).
        """
        self.hierarchy.add_inheritance(senior, junior)
        if not self.sod.ssd_mentions(self.hierarchy.juniors_inclusive(junior)):
            return
        problems = hierarchy_conflicts(
            self.sod.ssd_sets(), self.hierarchy.seniors_inclusive(senior),
            self.hierarchy.juniors_inclusive)
        problems += self.sod.check_consistency(
            self.authorized_roles, self.authorized_users(senior)
        )
        if problems:
            self.hierarchy.delete_inheritance(senior, junior)
            raise SsdViolationError(
                f"inheritance {senior!r} -> {junior!r} rejected: "
                + "; ".join(problems)
            )

    def delete_inheritance(self, senior: str, junior: str) -> None:
        self.hierarchy.delete_inheritance(senior, junior)

    # -- scope administration (S-A-O-C context tree) -----------------------

    def add_scope(self, name: str, parent: str | None = None) -> None:
        """Declare a scope under ``parent`` (root when None)."""
        self.scopes.add_scope(name, parent)
        self._name(name)

    def remove_scope(self, name: str) -> None:
        """Remove a leaf scope; refuses while grants or assignment
        limits still reference it (fail closed: revoke first)."""
        holders = sorted(
            role for role, scoped in self._pa_scoped.items()
            if name in scoped
        )
        if holders:
            raise AdministrationError(
                f"scope {name!r} still has grant(s) to role(s) {holders}"
            )
        limited = sorted(
            pair for pair, scopes in self._ua_scopes.items()
            if name in scopes
        )
        if limited:
            raise AdministrationError(
                f"scope {name!r} still bounds assignment(s) {limited}"
            )
        self.scopes.remove_scope(name)
        self._forget_name(name)

    def limit_assignment_scope(self, user: str, role: str,
                               scope: str) -> None:
        """Bound UA(user, role) to ``scope``'s subtree (additive: each
        call widens the bound by one more subtree).

        This is the raw commit — callers decide whether narrowing a
        pre-existing unbounded assignment is legal (the engine refuses;
        ``build_model`` limits a pair it just created).
        """
        self._require_user(user)
        self._require_role(role)
        if role not in self._ua[user]:
            raise AdministrationError(
                f"user {user!r} is not assigned to role {role!r}"
            )
        if scope == SCOPE_ROOT:
            raise AdministrationError(
                "an assignment bounded to the root scope is just a flat "
                "assignment; omit the scope instead"
            )
        if scope not in self.scopes:
            raise UnknownScopeError(scope)
        self._ua_scopes.setdefault((user, role), set()).add(scope)

    def remove_assignment_scope(self, user: str, role: str,
                                scope: str) -> None:
        """Drop one scope bound from UA(user, role).

        Refuses to drop the *last* bound — that would silently widen a
        scoped assignment to an unbounded one. Deassign the pair
        instead (fail closed).
        """
        bounds = self._ua_scopes.get((user, role))
        if not bounds or scope not in bounds:
            raise AdministrationError(
                f"assignment ({user!r}, {role!r}) is not bounded to "
                f"scope {scope!r}"
            )
        if len(bounds) == 1:
            raise AdministrationError(
                f"scope {scope!r} is the last bound on assignment "
                f"({user!r}, {role!r}); deassign the pair instead"
            )
        bounds.remove(scope)

    def assignment_scopes(self, user: str, role: str) -> set[str]:
        """The scope bounds on UA(user, role); empty = unbounded."""
        return set(self._ua_scopes.get((user, role), ()))

    def assignment_covers(self, user: str, role: str,
                          scope: str | None) -> bool:
        """Does some assignment authorizing ``role`` for ``user`` cover
        activity at ``scope``?

        A role can be activated through a direct assignment *or* an
        assignment to a senior role, so scope bounds follow the
        hierarchy: the role is covered when any authorizing assignment
        is unbounded (flat assignments cover every scope) or carries a
        bound whose subtree contains ``scope``. A bounded assignment
        never covers the root, so scope-limited pairs never satisfy
        flat checks.
        """
        assigned = self._ua.get(user)
        if not assigned:
            return False
        if role in assigned and (user, role) not in self._ua_scopes:
            return True  # direct unbounded assignment: the fast path
        authorizing = assigned & self.hierarchy.seniors_inclusive(role)
        if not authorizing:
            return False
        flat = scope is None or scope == SCOPE_ROOT
        ancestors: tuple[str, ...] | None = None
        for holder in authorizing:
            bounds = self._ua_scopes.get((user, holder))
            if bounds is None:
                return True
            if flat:
                continue
            if ancestors is None:
                try:
                    ancestors = self.scopes.ancestors_inclusive(scope)
                except UnknownScopeError:
                    return False
            if any(anchor in bounds for anchor in ancestors):
                return True
        return False

    # -- SoD set administration (delegates, with role validation) --------------

    def create_ssd_set(self, name: str, roles: Iterable[str],
                       cardinality: int) -> None:
        """CreateSsdSet: the new constraint must hold for current state,
        for every user and for every single role of the hierarchy
        (:func:`~repro.rbac.sod.hierarchy_conflicts`).  Only a user
        assigned to a senior of one of its roles can violate it, so
        only those users' authorized roles are computed."""
        roles = list(roles)
        for role in roles:
            self._require_role(role)
        constraint = self.sod.create_ssd(name, roles, cardinality)
        holders: set[str] = set()
        for role in constraint.roles:
            holders |= self.hierarchy.seniors_inclusive(role)
        problems = [
            user for user, assigned in self._ua.items()
            if not assigned.isdisjoint(holders)
            and constraint.violated_by(self.authorized_roles(user))
        ]
        conflicts = hierarchy_conflicts([constraint], self.roles,
                                        self.hierarchy.juniors_inclusive)
        if problems or conflicts:
            self.sod.delete_ssd(name)
            reason = (f"already violated by user(s) {sorted(problems)}"
                      if problems else "; ".join(conflicts))
            raise SsdViolationError(
                f"SSD set {name!r} rejected: {reason}", constraint=name,
            )

    def delete_ssd_set(self, name: str) -> None:
        self.sod.delete_ssd(name)

    def create_dsd_set(self, name: str, roles: Iterable[str],
                       cardinality: int) -> None:
        roles = list(roles)
        for role in roles:
            self._require_role(role)
        self.sod.create_dsd(name, roles, cardinality)

    def delete_dsd_set(self, name: str) -> None:
        self.sod.delete_dsd(name)

    # ======================================================================
    # supporting system functions (unchecked state transitions)
    # ======================================================================
    # The enforcement engine — generated OWTE rules or the direct baseline
    # — performs the W-clause checks and then commits via these.

    def create_session_record(self, session_id: str, user: str) -> Session:
        user = self._require_user(user).name
        if session_id in self.sessions:
            raise DuplicateEntityError(
                f"session {session_id!r} already exists"
            )
        session = Session(session_id, user)
        self.sessions[session_id] = session
        return session

    def delete_session_record(self, session_id: str) -> None:
        self._require_session(session_id)
        del self.sessions[session_id]

    def add_session_role_record(self, session_id: str, role: str) -> None:
        """Commit a role activation (paper: ``addSessionRoleR1``)."""
        session = self._require_session(session_id)
        self._require_role(role)
        session.active_roles.add(role)

    def drop_session_role_record(self, session_id: str, role: str) -> None:
        """Commit a role deactivation (paper: ``removeSessionRoleR1``)."""
        session = self._require_session(session_id)
        session.active_roles.discard(role)

    def add_assignment_record(self, user: str, role: str) -> None:
        """Commit a user-role assignment *without* re-validating SSD.

        The generated administrative rule's W clause has already checked
        SSD (``ssd_allows_assignment``); this is its THEN commit.
        """
        self._require_user(user)
        self._require_role(role)
        self._ua[user].add(role)

    def remove_assignment_record(self, user: str, role: str) -> None:
        """Commit a deassignment: UA removal only.

        Session cleanup is the enforcement engine's job — it must
        deactivate not just this role but every active role the user is
        *no longer authorized for* (activating a junior under a senior
        assignment), and it must do so through its own deactivation
        path so cascades (anchor cleanup, events, audit) fire.
        """
        self._require_user(user)
        self._ua[user].discard(role)
        self._ua_scopes.pop((user, role), None)

    def ssd_allows_assignment(self, user: str, role: str) -> bool:
        """Predicate form of the AssignUser SSD check (rule W clause)."""
        if user not in self.users or role not in self.roles:
            return False
        return not self._assignment_ssd_violations(user, role)

    def _assignment_ssd_violations(self, user: str,
                                   role: str) -> list[SsdConstraint]:
        """The SSD constraints UA(user, role) would leave violated.

        The user gains ``role``'s junior closure.  Every administrative
        command keeps the model SSD-consistent, so a constraint naming
        none of the gained roles cannot newly fire: with no such
        constraint the user's authorized roles are never computed.
        """
        gained = self.hierarchy.juniors_inclusive(role)
        if not self.sod.ssd_mentions(gained):
            return []
        return self.sod.ssd_violations(self.authorized_roles(user) | gained)

    # ======================================================================
    # review functions
    # ======================================================================

    def assigned_users(self, role: str) -> set[str]:
        """AssignedUsers: users with a direct UA to ``role``."""
        self._require_role(role)
        return {u for u, roles in self._ua.items() if role in roles}

    def assigned_roles(self, user: str) -> set[str]:
        """AssignedRoles: roles with a direct UA from ``user``."""
        self._require_user(user)
        return set(self._ua[user])

    def authorized_users(self, role: str) -> set[str]:
        """AuthorizedUsers: users assigned to ``role`` or any senior of it.

        "Junior roles acquire the user membership of their seniors."
        """
        self._require_role(role)
        roles = self.hierarchy.seniors_inclusive(role)
        return {
            u for u, assigned in self._ua.items()
            if assigned.intersection(roles)
        }

    def authorized_roles(self, user: str) -> set[str]:
        """AuthorizedRoles: assigned roles plus everything junior to them."""
        self._require_user(user)
        result: set[str] = set()
        for role in self._ua[user]:
            result |= self.hierarchy.juniors_inclusive(role)
        return result

    def role_permissions(self, role: str) -> set[Permission]:
        """RolePermissions: direct PA plus permissions of all juniors.

        "Senior roles acquire the permissions of their juniors."
        """
        self._require_role(role)
        result: set[Permission] = set()
        for member in self.hierarchy.juniors_inclusive(role):
            result |= self._pa.get(member, set())
        return result

    def direct_role_permissions(self, role: str) -> set[Permission]:
        self._require_role(role)
        return set(self._pa[role])

    def user_permissions(self, user: str) -> set[Permission]:
        """UserPermissions: union over the user's authorized roles."""
        result: set[Permission] = set()
        for role in self.authorized_roles(user):
            result |= self._pa.get(role, set())
        return result

    def session_roles(self, session_id: str) -> set[str]:
        """SessionRoles (paper: ``getSessionRoles``)."""
        return set(self._require_session(session_id).active_roles)

    def session_user(self, session_id: str) -> str:
        return self._require_session(session_id).user

    def session_permissions(self, session_id: str) -> set[Permission]:
        """SessionPermissions: union over the session's active roles
        (each active role contributes its hierarchical permissions)."""
        session = self._require_session(session_id)
        result: set[Permission] = set()
        for role in session.active_roles:
            result |= self.role_permissions(role)
        return result

    def user_sessions(self, user: str) -> set[str]:
        """Sessions owned by the user (paper: ``checkUserSessions``)."""
        self._require_user(user)
        return {
            sid for sid, s in self.sessions.items() if s.user == user
        }

    def role_operations_on_object(self, role: str, obj: str) -> set[str]:
        """RoleOperationsOnObject (advanced review, ANSI §6.3.16)."""
        return {
            p.operation for p in self.role_permissions(role) if p.obj == obj
        }

    def user_operations_on_object(self, user: str, obj: str) -> set[str]:
        """UserOperationsOnObject (advanced review, ANSI §6.3.17)."""
        return {
            p.operation for p in self.user_permissions(user) if p.obj == obj
        }

    def roles_with_permission(self, operation: str, obj: str) -> set[str]:
        """PermissionRoles (advanced review): every role holding the
        permission, directly or through a junior."""
        permission = Permission(operation, obj)
        holders = {
            role for role, perms in self._pa.items()
            if permission in perms
        }
        result = set(holders)
        for role in holders:
            result |= self.hierarchy.seniors(role)
        return result

    def users_with_permission(self, operation: str, obj: str) -> set[str]:
        """PermissionUsers (advanced review): every user authorized for
        some role that holds the permission."""
        users: set[str] = set()
        for role in self.roles_with_permission(operation, obj):
            users |= self.authorized_users(role)
        return users

    def active_user_count(self, role: str) -> int:
        """How many *distinct users* currently have ``role`` active
        (paper Rule 4's ``CardinalityR1`` counter)."""
        self._require_role(role)
        return len({
            s.user for s in self.sessions.values()
            if role in s.active_roles
        })

    def active_role_count(self, user: str) -> int:
        """How many distinct roles the user has active across sessions."""
        self._require_user(user)
        roles: set[str] = set()
        for session in self.sessions.values():
            if session.user == user:
                roles |= session.active_roles
        return len(roles)

    # ======================================================================
    # predicates used by generated rule conditions
    # ======================================================================

    def is_user(self, user: str) -> bool:
        """Paper condition ``user IN userL``."""
        return user in self.users

    def is_session(self, session_id: str) -> bool:
        """Paper condition ``sessionId IN sessionL``."""
        return session_id in self.sessions

    def owns_session(self, user: str, session_id: str) -> bool:
        """Paper condition ``sessionId IN checkUserSessions(user)``."""
        session = self.sessions.get(session_id)
        return session is not None and session.user == user

    def is_assigned(self, user: str, role: str) -> bool:
        """Paper condition ``checkAssignedR1(user)`` (core RBAC)."""
        return role in self._ua.get(user, set())

    def is_authorized(self, user: str, role: str) -> bool:
        """Paper condition ``checkAuthorizationR1(user)`` (hierarchies):
        the user is assigned to the role *or any of its senior roles*."""
        assigned = self._ua.get(user, set())
        if role in assigned:
            return True
        return bool(assigned & self.hierarchy.seniors(role))

    def is_active_in_session(self, session_id: str, role: str) -> bool:
        """Paper condition ``R1 IN checkSessionRoles``."""
        session = self.sessions.get(session_id)
        return session is not None and role in session.active_roles

    def dsd_allows_activation(self, session_id: str, role: str) -> bool:
        """Paper condition ``checkDynamicSoDSet(user, R1)``."""
        session = self.sessions.get(session_id)
        if session is None:
            return False
        return self.sod.dsd_ok(session.active_roles, role)

    def role_has_permission(self, role: str, operation: str, obj: str,
                            scope: str | None = None) -> bool:
        """Paper condition ``checkPermissions(operation, object, role)``
        — hierarchical: the role or any of its juniors holds it.

        With ``scope`` (S-A-O-C normalization) the permission may be
        held flat (covers everything) or via a scoped grant at the
        scope or any of its ancestors. Unknown scopes fail closed.
        """
        if scope is not None and scope != SCOPE_ROOT \
                and scope not in self.scopes:
            return False
        if Permission(operation, obj) in self.role_permissions(role):
            return True
        if scope is None or scope == SCOPE_ROOT or not self._pa_scoped:
            return False
        permission = Permission(operation, obj)
        ancestors = self.scopes.ancestors_inclusive(scope)
        for member in self.hierarchy.juniors_inclusive(role):
            scoped = self._pa_scoped.get(member)
            if not scoped:
                continue
            for anchor in ancestors:
                if permission in scoped.get(anchor, ()):
                    return True
        return False

    def session_can_perform(self, session_id: str, operation: str,
                            obj: str, scope: str | None = None) -> bool:
        """The For-ANY loop of paper Rule 5: at least one active role of
        the session holds the permission (and, scoped, the assignment
        behind the role covers the requested scope)."""
        session = self.sessions.get(session_id)
        if session is None:
            return False
        if scope is None or scope == SCOPE_ROOT:
            if not self._ua_scopes:
                return any(
                    self.role_has_permission(role, operation, obj)
                    for role in session.active_roles
                )
            return any(
                self.assignment_covers(session.user, role, None)
                and self.role_has_permission(role, operation, obj)
                for role in session.active_roles
            )
        return any(
            self.assignment_covers(session.user, role, scope)
            and self.role_has_permission(role, operation, obj, scope)
            for role in session.active_roles
        )

    def is_role_enabled(self, role: str) -> bool:
        """GTRBAC role status."""
        self._require_role(role)
        return self.roles[role].enabled

    def set_role_enabled(self, role: str, enabled: bool) -> None:
        """GTRBAC enable/disable commit. Disabling deactivates the role
        in every session (constraints must hold until deactivation,
        paper §1)."""
        self._require_role(role)
        self.roles[role].enabled = enabled
        if not enabled:
            for session in self.sessions.values():
                session.active_roles.discard(role)

    # ======================================================================
    # internals
    # ======================================================================

    def _name(self, name: str) -> str:
        """The model's one copy of ``name``, recorded in :attr:`names`."""
        return self.names.setdefault(name, name)

    def _forget_name(self, name: str) -> None:
        """Drop ``name`` from :attr:`names` once no element uses it (a
        user and an object may share a name)."""
        if not (name in self.users or name in self.roles
                or name in self.operations or name in self.objects
                or name in self.scopes):
            self.names.pop(name, None)

    def _require_user(self, name: str) -> User:
        try:
            return self.users[name]
        except KeyError:
            raise UnknownUserError(name) from None

    def _require_role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise UnknownRoleError(name) from None

    def _require_session(self, session_id: str) -> Session:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise UnknownSessionError(session_id) from None

    # -- inspection ---------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "users": len(self.users),
            "roles": len(self.roles),
            "permissions": len(self.permissions),
            "sessions": len(self.sessions),
            "ua_pairs": sum(len(r) for r in self._ua.values()),
            "pa_pairs": sum(len(p) for p in self._pa.values()),
            "hierarchy_edges": len(self.hierarchy.edges()),
            "closure_invalidations": self.hierarchy.invalidations,
            "ssd_sets": sum(1 for _ in self.sod.ssd_sets()),
            "dsd_sets": sum(1 for _ in self.sod.dsd_sets()),
            "scopes": len(self.scopes),
            "scoped_pa_pairs": sum(
                len(perms)
                for scoped in self._pa_scoped.values()
                for perms in scoped.values()
            ),
            "scoped_assignments": len(self._ua_scopes),
        }
