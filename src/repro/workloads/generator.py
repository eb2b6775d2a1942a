"""Deterministic synthetic enterprise and request-stream generators.

All randomness flows from an explicit seed through :class:`random.Random`
so every benchmark run and test case is reproducible.

:func:`generate_enterprise` builds a :class:`~repro.policy.spec.PolicySpec`
shaped by :class:`EnterpriseShape`:

* roles arranged as a forest of seniority trees (``tree_fanout`` wide,
  ``tree_depth`` deep — enterprise org charts are shallow and wide);
* users assigned to a few roles each, respecting SSD;
* permissions spread over operations x objects, granted along the
  trees so hierarchy inheritance matters;
* SSD/DSD sets drawn from sibling roles (conflicts-of-interest arise
  between peers: purchase clerk vs approval clerk).

:func:`generate_request_stream` emits a deterministic operation mix
(session churn, activations, access checks) to drive either engine.

For the service plane, :func:`generate_fleet` builds a multi-shard
fleet of synthetic enterprises (one spec per shard, differently
seeded) and :func:`generate_service_plan` emits the HTTP-level op mix
(check / batch / explain / metrics / health) that the
:mod:`repro.testing.load` client replays.  ``serve --synthetic`` and
the client derive the same fleet from ``(shards, users, seed)``, so
client and server agree on every user, role and object name without
any out-of-band coordination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.policy.spec import PolicySpec


@dataclass(frozen=True)
class EnterpriseShape:
    """Knobs for the synthetic enterprise generator."""

    roles: int = 50
    users: int = 100
    tree_fanout: int = 4
    tree_depth: int = 3
    assignments_per_user: int = 2
    operations: int = 4
    objects: int = 30
    grants_per_role: int = 3
    ssd_sets: int = 2
    dsd_sets: int = 2
    sod_set_size: int = 2
    role_cardinality_fraction: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.roles < 1 or self.users < 1:
            raise ValueError("need at least one role and one user")
        if self.tree_fanout < 1 or self.tree_depth < 1:
            raise ValueError("tree fanout/depth must be >= 1")
        if not 0.0 <= self.role_cardinality_fraction <= 1.0:
            raise ValueError("role_cardinality_fraction must be in [0,1]")


def _role_name(index: int) -> str:
    return f"R{index:04d}"


def generate_enterprise(shape: EnterpriseShape) -> PolicySpec:
    """Build a policy spec for the given shape (deterministic in seed)."""
    rng = random.Random(shape.seed)
    spec = PolicySpec(name=f"synthetic-{shape.roles}r-{shape.users}u")

    roles = [_role_name(i) for i in range(shape.roles)]
    for index, role in enumerate(roles):
        max_users = None
        if rng.random() < shape.role_cardinality_fraction:
            max_users = rng.randint(1, 5)
        spec.add_role(role, max_users)

    # forest of seniority trees: parent of node i (within a tree block)
    # is (i - 1) // fanout; trees are `tree_size` nodes each.
    tree_size = sum(shape.tree_fanout ** d for d in range(shape.tree_depth))
    blocks: list[list[str]] = []
    for start in range(0, shape.roles, tree_size):
        block = roles[start:start + tree_size]
        blocks.append(block)
        for offset in range(1, len(block)):
            parent = block[(offset - 1) // shape.tree_fanout]
            child = block[offset]
            # parent is SENIOR to child: seniors inherit junior perms
            spec.add_hierarchy(parent, child)

    # SoD sets span *different* trees (enterprise-XYZ style: purchase
    # clerk vs approval clerk).  A set within one subtree would conflict
    # with the hierarchy: the common senior is authorized for every
    # member.  When fewer trees than the set size exist, no static sets
    # are generated.
    def cross_tree_members(index: int) -> set[str] | None:
        if len(blocks) < shape.sod_set_size:
            return None
        chosen_blocks = [
            blocks[(index + i) % len(blocks)]
            for i in range(shape.sod_set_size)
        ]
        return {rng.choice(block) for block in chosen_blocks}

    for index in range(shape.ssd_sets):
        members = cross_tree_members(index)
        if members is None or len(members) < shape.sod_set_size:
            continue
        spec.add_ssd(f"ssd{index}", members, 2)
    for index in range(shape.dsd_sets):
        members = cross_tree_members(index + shape.ssd_sets)
        if members is None or len(members) < shape.sod_set_size:
            continue
        spec.add_dsd(f"dsd{index}", members, 2)

    # permissions and grants
    operations = [f"op{i}" for i in range(shape.operations)]
    objects = [f"obj{i:04d}" for i in range(shape.objects)]
    for role in roles:
        for _ in range(shape.grants_per_role):
            operation = rng.choice(operations)
            obj = rng.choice(objects)
            if (role, operation, obj) not in spec.grants:
                spec.add_grant(role, operation, obj)

    # users: assigned to a few roles each, avoiding SSD conflicts by
    # retrying; deterministic given the seed.  The check uses the
    # authorized closure (role + all juniors), matching the model's
    # hierarchical SSD semantics.
    ssd_sets = [s.roles for s in spec.ssd.values()]
    children_of: dict[str, list[str]] = {}
    for senior, junior in spec.hierarchy:
        children_of.setdefault(senior, []).append(junior)

    def juniors_inclusive(role: str) -> set[str]:
        closure = {role}
        stack = list(children_of.get(role, ()))
        while stack:
            node = stack.pop()
            if node in closure:
                continue
            closure.add(node)
            stack.extend(children_of.get(node, ()))
        return closure

    def violates_ssd(assigned: set[str], candidate: str) -> bool:
        authorized: set[str] = set()
        for role in assigned | {candidate}:
            authorized |= juniors_inclusive(role)
        return any(len(authorized & sod) >= 2 for sod in ssd_sets)

    for index in range(shape.users):
        user = f"u{index:04d}"
        spec.add_user(user)
        assigned: set[str] = set()
        attempts = 0
        while (len(assigned) < shape.assignments_per_user
               and attempts < 20 * shape.assignments_per_user):
            attempts += 1
            candidate = rng.choice(roles)
            if candidate in assigned or violates_ssd(assigned, candidate):
                continue
            assigned.add(candidate)
            spec.add_assignment(user, candidate)
    return spec


def add_scoped_layer(spec: PolicySpec, *, orgs: int = 4,
                     collections_per_org: int = 4,
                     resources_per_collection: int = 4,
                     scoped_grants_per_role: int = 1,
                     scoped_assignment_fraction: float = 0.5,
                     extra_scoped_assignments: int = 0,
                     seed: int = 13) -> list[str]:
    """Layer a multi-org scope tree onto an existing enterprise spec.

    Builds the ``org ▸ collection ▸ resource`` tree under the implicit
    platform root, then scatters scoped grants over the org/collection
    anchors and bounds a fraction of the existing user-role assignments
    to a single org.  Because a bound (or grant) at an ancestor covers
    every descendant, the *effective* user-scope-role triple count is
    ``bounded_pairs x scopes_under_the_anchor`` — a few thousand scopes
    and a few thousand bounded pairs imply millions of implicit triples
    without materialising any of them.

    Deterministic in ``seed``; returns the scope names in declaration
    order (parents before children, as the DSL requires).
    """
    if orgs < 1:
        raise ValueError("need at least one org")
    rng = random.Random(seed)
    scopes: list[str] = []
    org_scopes: list[str] = []
    anchor_scopes: list[str] = []
    for o in range(orgs):
        org = f"org{o:02d}"
        spec.add_scope(org)
        scopes.append(org)
        org_scopes.append(org)
        anchor_scopes.append(org)
        for c in range(collections_per_org):
            col = f"{org}/col{c:02d}"
            spec.add_scope(col, org)
            scopes.append(col)
            anchor_scopes.append(col)
            for r in range(resources_per_collection):
                res = f"{col}/res{r:02d}"
                spec.add_scope(res, col)
                scopes.append(res)

    roles = sorted(spec.roles)
    perms = list(spec.permissions) or [("op0", "obj0000")]
    granted = set(spec.scoped_grants)
    for role in roles:
        for _ in range(scoped_grants_per_role):
            operation, obj = rng.choice(perms)
            row = (role, operation, obj, rng.choice(anchor_scopes))
            if row not in granted:
                granted.add(row)
                spec.add_scoped_grant(*row)

    # bound a fraction of the existing assignments to one org: those
    # pairs stop satisfying flat checks and only answer inside the org
    bounded = set(
        (user, role) for user, role, _scope in spec.scoped_assignments)
    for user, role in spec.assignments:
        if (user, role) in bounded:
            continue
        if rng.random() < scoped_assignment_fraction:
            bounded.add((user, role))
            spec.add_scoped_assignment(user, role, rng.choice(org_scopes))

    # fresh scoped-only assignments (pairs the flat layer never made),
    # guarded by the same hierarchical-SSD feasibility the flat
    # generator honours so the validator still accepts the spec
    users = sorted(spec.users)
    flat = set(spec.assignments)
    ssd_sets = [s.roles for s in spec.ssd.values()]
    children_of: dict[str, list[str]] = {}
    for senior, junior in spec.hierarchy:
        children_of.setdefault(senior, []).append(junior)

    def juniors_inclusive(role: str) -> set[str]:
        closure = {role}
        stack = list(children_of.get(role, ()))
        while stack:
            node = stack.pop()
            if node in closure:
                continue
            closure.add(node)
            stack.extend(children_of.get(node, ()))
        return closure

    roles_of: dict[str, set[str]] = {}
    for user, role in flat | bounded:
        roles_of.setdefault(user, set()).add(role)

    def violates_ssd(user: str, candidate: str) -> bool:
        authorized: set[str] = set()
        for role in roles_of.get(user, set()) | {candidate}:
            authorized |= juniors_inclusive(role)
        return any(len(authorized & sod) >= 2 for sod in ssd_sets)

    attempts = 0
    added = 0
    while added < extra_scoped_assignments and attempts < 20 * max(
            1, extra_scoped_assignments):
        attempts += 1
        user, role = rng.choice(users), rng.choice(roles)
        if (user, role) in flat or (user, role) in bounded:
            continue
        if violates_ssd(user, role):
            continue
        bounded.add((user, role))
        roles_of.setdefault(user, set()).add(role)
        spec.add_scoped_assignment(user, role, rng.choice(org_scopes))
        added += 1
    return scopes


@dataclass(frozen=True)
class Request:
    """One operation in a request stream."""

    kind: str  # "create_session" | "activate" | "drop" | "check" | "end"
    user: str = ""
    role: str = ""
    operation: str = ""
    obj: str = ""


def generate_request_stream(spec: PolicySpec, length: int,
                            seed: int = 11,
                            mix: tuple[float, float, float] = (0.2, 0.2, 0.6)
                            ) -> Iterator[Request]:
    """A deterministic stream of session/activation/access requests.

    ``mix`` = (session churn, activation churn, access checks) weights.
    Roles and objects are drawn from the spec; some requests reference
    roles the user is not assigned to, producing realistic denials.
    """
    rng = random.Random(seed)
    users = sorted(spec.users)
    roles = sorted(spec.roles)
    perms = spec.permissions or [("op0", "obj0000")]
    assigned: dict[str, list[str]] = {}
    for user, role in spec.assignments:
        assigned.setdefault(user, []).append(role)
    churn, activation, _check = mix
    for _ in range(length):
        user = rng.choice(users)
        draw = rng.random()
        if draw < churn:
            yield Request("create_session", user=user)
        elif draw < churn + activation:
            own = assigned.get(user)
            # 70% of activation attempts target an assigned role
            if own and rng.random() < 0.7:
                role = rng.choice(own)
            else:
                role = rng.choice(roles)
            yield Request("activate", user=user, role=role)
        else:
            operation, obj = rng.choice(perms)
            yield Request("check", user=user, operation=operation, obj=obj)


# ======================================================================
# service plane: multi-shard fleets and HTTP-level op plans
# ======================================================================


def fleet_shard_name(index: int) -> str:
    return f"shard{index:02d}"


def generate_fleet(shards: int = 2, users: int = 10_000,
                   roles: int = 50, seed: int = 7,
                   **shape_kwargs: Any) -> dict[str, PolicySpec]:
    """A fleet of synthetic enterprises, one spec per shard.

    ``users`` is the *total* simulated population, split evenly across
    the shards; each shard gets its own seed so the tenants differ.
    Extra keyword arguments pass through to :class:`EnterpriseShape`.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    per_shard = max(1, (users + shards - 1) // shards)
    fleet: dict[str, PolicySpec] = {}
    for index in range(shards):
        shape = EnterpriseShape(roles=roles, users=per_shard,
                                seed=seed + index, **shape_kwargs)
        spec = generate_enterprise(shape)
        spec.name = fleet_shard_name(index)
        fleet[spec.name] = spec
    return fleet


#: service-plan weights of (check, check_batch, explain, metrics, health)
SERVICE_MIX = (0.82, 0.08, 0.06, 0.02, 0.02)
#: checks per ``check_batch`` op in a service plan
SERVICE_BATCH = 8


@dataclass(frozen=True)
class ServiceOp:
    """One HTTP-level operation in a service-plane plan.

    ``kind`` is one of ``check``, ``check_batch``, ``explain``,
    ``metrics``, ``health``; ``payload`` is the request body (POST) or
    query arguments (GET) the client sends.
    """

    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


def generate_service_plan(fleet: dict[str, PolicySpec], length: int,
                          seed: int = 23) -> list[ServiceOp]:
    """The deterministic HTTP op mix the load client replays.

    :data:`SERVICE_MIX` weights the op kinds; each batch carries
    :data:`SERVICE_BATCH` checks.  With more than one shard, users are
    addressed as ``name@shard`` so the router's home-domain rule picks
    the right tenant.
    """
    rng = random.Random(seed)
    shard_names = sorted(fleet)
    if not shard_names:
        raise ValueError("empty fleet")
    qualify = len(shard_names) > 1
    per_shard: dict[str, tuple[list[str], list[tuple[str, str]]]] = {}
    for name in shard_names:
        spec = fleet[name]
        users = sorted(spec.users)
        perms = spec.permissions or [("op0", "obj0000")]
        per_shard[name] = (users, list(perms))

    def draw_check(shard: str) -> dict[str, Any]:
        users, perms = per_shard[shard]
        user = rng.choice(users)
        operation, obj = rng.choice(perms)
        return {"user": f"{user}@{shard}" if qualify else user,
                "operation": operation, "object": obj}

    plan: list[ServiceOp] = []
    check_w, batch_w, explain_w, metrics_w, _health_w = SERVICE_MIX
    for index in range(length):
        shard = shard_names[index % len(shard_names)]
        draw = rng.random()
        if draw < check_w:
            plan.append(ServiceOp("check", draw_check(shard)))
        elif draw < check_w + batch_w:
            checks = [draw_check(shard) for _ in range(SERVICE_BATCH)]
            plan.append(ServiceOp("check_batch", {"checks": checks}))
        elif draw < check_w + batch_w + explain_w:
            plan.append(ServiceOp("explain", draw_check(shard)))
        elif draw < check_w + batch_w + explain_w + metrics_w:
            plan.append(ServiceOp("metrics", {}))
        else:
            plan.append(ServiceOp("health", {}))
    return plan
