"""Policy consistency checking.

"Currently, we assume that the policies specified using NIST RBAC and
others do not have inconsistencies, but we are in the process of
developing advanced consistency checking mechanisms" (paper §5).  This
module is that future-work item, implemented: every check returns a
human-readable issue string; :func:`validate_policy` aggregates them and
(optionally) raises :class:`~repro.errors.PolicyValidationError`.

Checks:

* referential integrity — every name a relation mentions is declared;
* hierarchy is a partial order (no cycles; limited-mode fan-out);
* SSD/DSD sets are well-formed (cardinality bounds) and SSD sets are
  consistent with the hierarchy (a role and its senior cannot be forced
  apart — the senior is always authorized for the junior);
* assignments do not violate SSD (including inherited authorization);
* CFD sanity — prerequisite/transaction/post-condition graphs acyclic,
  no role is its own partner;
* temporal sanity — positive durations, non-empty disabling-SoD sets,
  at most one enabling window per role;
* privacy — purposes are declared once, parents first, and object
  policies reference declared purposes.

:func:`descriptor_issues` is the extension descriptor part; the
engine's descriptor ops check it before they write.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.errors import PolicyValidationError
from repro.policy.spec import DESCRIPTOR_OPS, PolicySpec, row_of
from repro.rbac.sod import hierarchy_conflicts


def _find_cycle(edges: list[tuple[str, str]]) -> list[str] | None:
    """Return one cycle (as a node list) in the directed graph, if any."""
    graph: dict[str, list[str]] = defaultdict(list)
    indegree: dict[str, int] = defaultdict(int)
    nodes: set[str] = set()
    for src, dst in edges:
        graph[src].append(dst)
        indegree[dst] += 1
        nodes.update((src, dst))
    queue = deque(n for n in nodes if indegree[n] == 0)
    seen = 0
    while queue:
        node = queue.popleft()
        seen += 1
        for neighbour in graph[node]:
            indegree[neighbour] -= 1
            if indegree[neighbour] == 0:
                queue.append(neighbour)
    if seen == len(nodes):
        return None
    # Some cycle exists; walk from any remaining node to exhibit one.
    remaining = [n for n in nodes if indegree[n] > 0]
    start = remaining[0]
    path, visited = [start], {start}
    node = start
    while True:
        node = next(n for n in graph[node] if indegree[n] > 0)
        if node in visited:
            return path[path.index(node):] + [node]
        visited.add(node)
        path.append(node)


def _juniors_inclusive(role: str,
                       down: dict[str, set[str]]) -> set[str]:
    result = {role}
    queue = deque(down.get(role, ()))
    while queue:
        node = queue.popleft()
        if node in result:
            continue
        result.add(node)
        queue.extend(down.get(node, ()))
    return result


def descriptor_issues(spec: PolicySpec) -> list[str]:
    """The extension descriptor part of :func:`validate_policy`: every
    role and user a descriptor names is declared, the acyclic lists
    have no cycle, a role has at most one enabling window, and purposes
    are declared once, parents first, before the object policies
    naming them.  The engine's descriptor ops run it on the descriptor
    lists an op would leave, as their guard."""
    issues: list[str] = []
    declared = {"role": spec.roles, "user": spec.users}
    for field, descriptor in DESCRIPTOR_OPS.items():
        items = getattr(spec, field)
        issues.extend(f"{where} references undeclared {kind} {name!r}"
                      for item in items
                      for kind, name, where in descriptor.references(item)
                      if name not in declared[kind])
        cycle = descriptor.cycle and _find_cycle(
            [row_of(item)[:2] for item in items])
        if cycle:
            issues.append(descriptor.cycle + " -> ".join(cycle))
    window_roles: set[str] = set()
    for window in spec.enabling_windows:
        if window.role in window_roles:
            issues.append(
                f"role {window.role!r} has multiple enabling windows; "
                "only one is supported (the last declaration wins)"
            )
        window_roles.add(window.role)
    declared_purposes: set[str] = set()
    for purpose, parent in spec.purposes:
        if purpose in declared_purposes:
            issues.append(f"duplicate purpose declaration {purpose!r}")
        if parent is not None and parent not in declared_purposes:
            issues.append(
                f"purpose {purpose!r} references undeclared parent "
                f"{parent!r}"
            )
        declared_purposes.add(purpose)
    for object_policy in spec.object_policies:
        if object_policy.purpose not in declared_purposes:
            issues.append(
                f"object policy for {object_policy.obj!r} references "
                f"undeclared purpose {object_policy.purpose!r}"
            )
    return issues


def validate_policy(spec: PolicySpec,
                    raise_on_error: bool = False) -> list[str]:
    """Check a policy for inconsistencies; returns the issue list.

    With ``raise_on_error=True`` a non-empty issue list raises
    :class:`~repro.errors.PolicyValidationError`.
    """
    issues: list[str] = []
    roles = set(spec.roles)
    users = set(spec.users)

    def known_role(role: str, where: str) -> bool:
        if role not in roles:
            issues.append(f"{where} references undeclared role {role!r}")
            return False
        return True

    def known_user(user: str, where: str) -> bool:
        if user not in users:
            issues.append(f"{where} references undeclared user {user!r}")
            return False
        return True

    # -- hierarchy -------------------------------------------------------------
    down: dict[str, set[str]] = defaultdict(set)
    for senior, junior in spec.hierarchy:
        known_role(senior, "hierarchy")
        known_role(junior, "hierarchy")
        if senior == junior:
            issues.append(f"hierarchy self-loop on role {senior!r}")
        down[senior].add(junior)
    cycle = _find_cycle(spec.hierarchy)
    if cycle:
        issues.append(
            "hierarchy contains a cycle: " + " -> ".join(cycle)
        )
    if spec.hierarchy_limited:
        for senior, juniors in down.items():
            if len(juniors) > 1:
                issues.append(
                    f"limited hierarchy violated: role {senior!r} has "
                    f"{len(juniors)} immediate descendants "
                    f"{sorted(juniors)}"
                )

    # -- SoD sets -----------------------------------------------------------------
    for sod in spec.ssd.values():
        for role in sod.roles:
            known_role(role, f"SSD set {sod.name!r}")
        if not 2 <= sod.cardinality <= len(sod.roles):
            issues.append(
                f"SSD set {sod.name!r}: cardinality {sod.cardinality} "
                f"outside [2, {len(sod.roles)}]"
            )
    for sod in spec.dsd.values():
        for role in sod.roles:
            known_role(role, f"DSD set {sod.name!r}")
        if not 2 <= sod.cardinality <= len(sod.roles):
            issues.append(
                f"DSD set {sod.name!r}: cardinality {sod.cardinality} "
                f"outside [2, {len(sod.roles)}]"
            )

    # one junior closure per role for the whole pass
    closures: dict[str, set[str]] = {}

    def juniors_inclusive(role: str) -> set[str]:
        closure = closures.get(role)
        if closure is None:
            closure = closures[role] = _juniors_inclusive(role, down)
        return closure

    # SSD vs hierarchy: any single role authorized for >= n set members
    # makes the constraint unsatisfiable for every user of that role.
    if not cycle:
        issues.extend(hierarchy_conflicts(
            spec.ssd.values(), roles, juniors_inclusive))

    # -- assignments vs SSD ----------------------------------------------------------
    assigned: dict[str, set[str]] = defaultdict(set)
    for user, role in spec.assignments:
        ok = known_user(user, "assignment") & known_role(role, "assignment")
        if ok:
            assigned[user].add(role)
    # scoped assignments commit the UA pair too (then bound it), so
    # they participate in the SSD feasibility check identically
    for user, role, _scope in spec.scoped_assignments:
        if user in users and role in roles:
            assigned[user].add(role)
    if spec.ssd and not cycle:
        for user, direct in assigned.items():
            authorized: set[str] = set()
            for role in direct:
                authorized |= juniors_inclusive(role)
            for sod in spec.ssd.values():
                overlap = authorized & sod.roles
                if len(overlap) >= sod.cardinality:
                    issues.append(
                        f"assignments of user {user!r} violate SSD set "
                        f"{sod.name!r}: authorized for {sorted(overlap)}"
                    )

    # -- grants ----------------------------------------------------------------------
    declared_perms = set(spec.permissions)
    for role, operation, obj in spec.grants:
        known_role(role, "grant")
        if (operation, obj) not in declared_perms:
            issues.append(
                f"grant to {role!r} references undeclared permission "
                f"({operation!r}, {obj!r})"
            )

    # -- scopes ---------------------------------------------------------------------
    from repro.rbac.scopes import SCOPE_ROOT
    declared_scopes: set[str] = set()
    for scope, parent in spec.scopes:
        if scope == SCOPE_ROOT:
            issues.append(
                f"scope declaration uses the reserved root name "
                f"{SCOPE_ROOT!r}")
            continue
        if scope in declared_scopes:
            issues.append(f"duplicate scope declaration {scope!r}")
        if (parent is not None and parent != SCOPE_ROOT
                and parent not in declared_scopes):
            issues.append(
                f"scope {scope!r} references undeclared parent "
                f"{parent!r} (parents must be declared first)")
        declared_scopes.add(scope)

    def known_scope(scope: str, where: str) -> None:
        if scope not in declared_scopes:
            issues.append(
                f"{where} references undeclared scope {scope!r}")

    for role, operation, obj, scope in spec.scoped_grants:
        known_role(role, "scoped grant")
        known_scope(scope, f"scoped grant to {role!r}")
        if (operation, obj) not in declared_perms:
            issues.append(
                f"scoped grant to {role!r} references undeclared "
                f"permission ({operation!r}, {obj!r})"
            )
    for user, role, scope in spec.scoped_assignments:
        known_user(user, "scoped assignment")
        known_role(role, "scoped assignment")
        known_scope(scope, f"scoped assignment of {user!r}")

    # -- extension descriptors ----------------------------------------------------
    issues.extend(descriptor_issues(spec))

    # -- assignments reference users with cardinality sanity -------------------------------
    for user_spec in spec.users.values():
        if (user_spec.max_active_roles is not None
                and user_spec.max_active_roles < 1):
            issues.append(
                f"user {user_spec.name!r}: max_active_roles must be >= 1"
            )
    for role_spec in spec.roles.values():
        if (role_spec.max_active_users is not None
                and role_spec.max_active_users < 1):
            issues.append(
                f"role {role_spec.name!r}: max_active_users must be >= 1"
            )

    if issues and raise_on_error:
        raise PolicyValidationError(issues)
    return issues
