"""Policy analysis: entitlement reviews and hygiene reports.

Administrators of rule-based systems ask two questions the raw engine
does not answer directly (*why* one request was denied is
``engine.explain()``, see :mod:`repro.obs.provenance`):

* **who can** do what (:func:`who_can`, :func:`permission_matrix`) —
  the effective entitlement review the NIST economic-impact report
  motivates RBAC with;
* **what is stale** (:func:`policy_hygiene`) — unused roles, empty
  roles, unreachable permissions, redundant role pairs.

Everything here is read-only over the engine/model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import ActiveRBACEngine


# ---------------------------------------------------------------------------
# entitlement review
# ---------------------------------------------------------------------------

def who_can(engine: "ActiveRBACEngine", operation: str,
            obj: str) -> dict[str, set[str]]:
    """Users able (when activating the right role) to perform the
    operation as a flat (unscoped) check, mapped to the roles that
    would entitle them.  An assignment bounded to a scope never
    satisfies a flat check, so a user authorized for a role only
    through such assignments is not listed for it."""
    model = engine.model
    result: dict[str, set[str]] = {}
    entitling = model.roles_with_permission(operation, obj)
    for role in entitling:
        for user in model.authorized_users(role):
            if model.assignment_covers(user, role, None):
                result.setdefault(user, set()).add(role)
    return result


def permission_matrix(engine: "ActiveRBACEngine"
                      ) -> dict[str, set[tuple[str, str]]]:
    """role -> effective (operation, object) set (hierarchy included)."""
    model = engine.model
    return {
        role: {(p.operation, p.obj)
               for p in model.role_permissions(role)}
        for role in model.roles
    }


# ---------------------------------------------------------------------------
# hygiene
# ---------------------------------------------------------------------------

@dataclass
class HygieneReport:
    """Staleness/redundancy findings over the policy."""

    empty_roles: list[str] = field(default_factory=list)
    unused_permissions: list[tuple[str, str]] = field(default_factory=list)
    permissionless_roles: list[str] = field(default_factory=list)
    redundant_role_pairs: list[tuple[str, str]] = field(
        default_factory=list)
    userless_policy: bool = False

    def is_clean(self) -> bool:
        return not (self.empty_roles or self.unused_permissions
                    or self.permissionless_roles
                    or self.redundant_role_pairs)

    def describe(self) -> str:
        if self.is_clean():
            return "policy hygiene: clean"
        lines = ["policy hygiene findings:"]
        if self.empty_roles:
            lines.append(f"  roles with no authorized users: "
                         f"{self.empty_roles}")
        if self.permissionless_roles:
            lines.append(f"  roles granting nothing (even via juniors): "
                         f"{self.permissionless_roles}")
        if self.unused_permissions:
            lines.append(f"  permissions granted to no role: "
                         f"{self.unused_permissions}")
        if self.redundant_role_pairs:
            lines.append(f"  role pairs with identical effective "
                         f"permissions: {self.redundant_role_pairs}")
        return "\n".join(lines)


def policy_hygiene(engine: "ActiveRBACEngine") -> HygieneReport:
    """Detect stale or redundant policy elements."""
    model = engine.model
    report = HygieneReport(userless_policy=not model.users)
    matrix = permission_matrix(engine)
    for role in sorted(model.roles):
        if not model.authorized_users(role):
            report.empty_roles.append(role)
        if not matrix[role]:
            report.permissionless_roles.append(role)
    granted = {pair for pairs in matrix.values() for pair in pairs}
    for permission in sorted(model.permissions,
                             key=lambda p: (p.operation, p.obj)):
        if (permission.operation, permission.obj) not in granted:
            report.unused_permissions.append(
                (permission.operation, permission.obj))
    roles = sorted(model.roles)
    for index, first in enumerate(roles):
        if not matrix[first]:
            continue
        for second in roles[index + 1:]:
            if matrix[first] == matrix[second]:
                report.redundant_role_pairs.append((first, second))
    return report
