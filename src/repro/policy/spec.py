"""Policy specification objects: the declarative enterprise policy.

A :class:`PolicySpec` is everything an administrator states about an
enterprise's access control — roles, users, hierarchy, SoD sets,
permissions, and every extension constraint — with **no** rules, events
or other "low level semantic descriptors" in it.  The DSL parses into
one; the access-specification graph is derived from one; the rule
generator consumes the graph; regeneration diffs two of them.

:func:`build_model` loads the static state (element sets and relations)
into an :class:`~repro.rbac.model.RBACModel` — used identically by the
active engine and the direct baseline, which is what makes their
decisions comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from repro.extensions.cfd import (
    PostConditionDependency,
    PrerequisiteRole,
    TransactionActivation,
)
from repro.extensions.context import ContextConstraint
from repro.extensions.privacy import ObjectPolicy
from repro.gtrbac.constraints import (
    DisablingTimeSoD,
    DurationConstraint,
    EnablingWindow,
)
from repro.rbac.model import RBACModel
from repro.security.monitor import ThresholdPolicy


@dataclass(frozen=True, slots=True)
class UserSpec:
    """A declared user. ``max_active_roles`` is scenario 1's specialized
    cardinality ("Jane at most five active roles")."""

    name: str
    max_active_roles: int | None = None


@dataclass(frozen=True)
class RoleSpec:
    """A declared role (one node of Figure 1).

    ``max_active_users`` is scenario 2's localized cardinality
    ("Programmer activated by at most five users at a time").
    """

    name: str
    max_active_users: int | None = None


@dataclass(frozen=True)
class SodSetSpec:
    """A declared SSD or DSD set: name, member roles, cardinality n."""

    name: str
    roles: frozenset[str]
    cardinality: int = 2


@dataclass
class PolicySpec:
    """The complete high-level policy for one enterprise.

    Mutable on purpose: policy *change* (the paper's day-doctor shift
    example) is an edit to this object followed by regeneration.
    """

    name: str = "policy"
    users: dict[str, UserSpec] = field(default_factory=dict)
    roles: dict[str, RoleSpec] = field(default_factory=dict)
    #: (senior, junior) immediate inheritance edges
    hierarchy: list[tuple[str, str]] = field(default_factory=list)
    ssd: dict[str, SodSetSpec] = field(default_factory=dict)
    dsd: dict[str, SodSetSpec] = field(default_factory=dict)
    #: (operation, object) registered permissions
    permissions: list[tuple[str, str]] = field(default_factory=list)
    #: (role, operation, object) grants
    grants: list[tuple[str, str, str]] = field(default_factory=list)
    #: (user, role) assignments
    assignments: list[tuple[str, str]] = field(default_factory=list)
    #: (scope, parent-or-None) S-A-O-C scope declarations, parents first
    scopes: list[tuple[str, str | None]] = field(default_factory=list)
    #: (role, operation, object, scope) grants effective in the
    #: scope's subtree only
    scoped_grants: list[tuple[str, str, str, str]] = field(
        default_factory=list)
    #: (user, role, scope) assignments bounded to the scope's subtree
    #: (the UA pair is implied; it is NOT repeated in ``assignments``)
    scoped_assignments: list[tuple[str, str, str]] = field(
        default_factory=list)
    #: (home_role, host_domain, host_role) federation role maps — the
    #: config-set form of ``Federation.add_mapping`` / CLI ``--map``
    federation_maps: list[tuple[str, str, str]] = field(
        default_factory=list)
    # -- extension constraints ------------------------------------------------
    prerequisites: list[PrerequisiteRole] = field(default_factory=list)
    post_conditions: list[PostConditionDependency] = field(
        default_factory=list)
    transactions: list[TransactionActivation] = field(default_factory=list)
    durations: list[DurationConstraint] = field(default_factory=list)
    enabling_windows: list[EnablingWindow] = field(default_factory=list)
    disabling_sod: list[DisablingTimeSoD] = field(default_factory=list)
    context_constraints: list[ContextConstraint] = field(
        default_factory=list)
    #: (purpose, parent-or-None) declarations, parents first
    purposes: list[tuple[str, str | None]] = field(default_factory=list)
    object_policies: list[ObjectPolicy] = field(default_factory=list)
    threshold_policies: list[ThresholdPolicy] = field(default_factory=list)
    hierarchy_limited: bool = False

    # -- convenience builders ----------------------------------------------------

    def add_role(self, name: str, max_active_users: int | None = None
                 ) -> "PolicySpec":
        self.roles[name] = RoleSpec(name, max_active_users)
        return self

    def add_user(self, name: str, max_active_roles: int | None = None
                 ) -> "PolicySpec":
        self.users[name] = UserSpec(name, max_active_roles)
        return self

    def add_hierarchy(self, senior: str, junior: str) -> "PolicySpec":
        self.hierarchy.append((senior, junior))
        return self

    def add_ssd(self, name: str, roles: set[str] | frozenset[str],
                cardinality: int = 2) -> "PolicySpec":
        self.ssd[name] = SodSetSpec(name, frozenset(roles), cardinality)
        return self

    def add_dsd(self, name: str, roles: set[str] | frozenset[str],
                cardinality: int = 2) -> "PolicySpec":
        self.dsd[name] = SodSetSpec(name, frozenset(roles), cardinality)
        return self

    def add_grant(self, role: str, operation: str, obj: str) -> "PolicySpec":
        self.apply(("add_permission", operation, obj))
        self.grants.append((role, operation, obj))
        return self

    def add_assignment(self, user: str, role: str) -> "PolicySpec":
        self.assignments.append((user, role))
        return self

    def add_scope(self, name: str,
                  parent: str | None = None) -> "PolicySpec":
        """Declare a scope (parents must be declared first)."""
        self.scopes.append((name, parent))
        return self

    def add_scoped_grant(self, role: str, operation: str, obj: str,
                         scope: str) -> "PolicySpec":
        self.apply(("add_permission", operation, obj))
        self.scoped_grants.append((role, operation, obj, scope))
        return self

    def add_scoped_assignment(self, user: str, role: str,
                              scope: str) -> "PolicySpec":
        self.scoped_assignments.append((user, role, scope))
        return self

    def add_federation_map(self, home_role: str, host_domain: str,
                           host_role: str) -> "PolicySpec":
        self.federation_maps.append((home_role, host_domain, host_role))
        return self

    # -- administrative ops ------------------------------------------------------

    def apply(self, op: tuple) -> bool:
        """Apply one administrative op ``(name, *args)``: the inverse
        of :func:`~repro.config.differ.diff_specs`.  Unguarded (the
        engine's ``apply`` checks the live model first); adds are
        idempotent and removals tolerate absence.  Returns whether the
        spec changed.  A user or role name the spec declares is stored
        as the declared string, so each name is held once.
        """
        return _SPEC_OPS[op[0]](self, *map(self._own, op[1:]))

    def _own(self, value: Any) -> Any:
        """The spec's own copy of a declared user or role name."""
        held = (self.users.get(value) or self.roles.get(value)
                if type(value) is str else None)
        return value if held is None else held.name

    def _delete_user(self, name: str) -> bool:
        self.assignments = [a for a in self.assignments if a[0] != name]
        self.scoped_assignments = [
            a for a in self.scoped_assignments if a[0] != name]
        self._scrub("user", name)
        return self.users.pop(name, None) is not None

    def _deassign(self, user: str, role: str) -> bool:
        kept = [a for a in self.scoped_assignments if a[:2] != (user, role)]
        bounded = len(kept) < len(self.scoped_assignments)
        self.scoped_assignments = kept
        return _remover("assignments")(self, user, role) or bounded

    def _scrub(self, kind: str, name: str) -> None:
        """Drop every descriptor item naming ``name``, a "role" or a
        "user" by ``kind`` (a role's deletion shrinks disabling-time
        SoD sets instead)."""
        for field, d in DESCRIPTOR_OPS.items():
            if field != "disabling_sod":
                setattr(self, field, [
                    item for item in getattr(self, field) if (kind, name)
                    not in [row[:2] for row in d.references(item)]])

    def _delete_role(self, name: str) -> bool:
        """Delete a role and scrub every constraint that mentions it;
        a SoD set keeps its other roles while it still has enough."""
        self.hierarchy = [e for e in self.hierarchy if name not in e]
        self.assignments = [a for a in self.assignments if a[1] != name]
        self.grants = [g for g in self.grants if g[0] != name]
        self.scoped_grants = [g for g in self.scoped_grants if g[0] != name]
        self.scoped_assignments = [
            a for a in self.scoped_assignments if a[1] != name]
        self._scrub("role", name)
        self.disabling_sod = [
            c if name not in c.roles
            else DisablingTimeSoD(c.name, c.roles - {name}, c.interval)
            for c in self.disabling_sod
            if name not in c.roles or len(c.roles) > 2]
        for family in (self.ssd, self.dsd):
            for key, sod in list(family.items()):
                remaining = sod.roles - {name}
                if remaining == sod.roles:
                    continue
                if len(remaining) >= sod.cardinality:
                    family[key] = SodSetSpec(
                        sod.name, remaining, sod.cardinality)
                else:
                    del family[key]
        return self.roles.pop(name, None) is not None

    # -- per-role derived properties (the Figure 1 node flags) --------------------

    def role_in_hierarchy(self, role: str) -> bool:
        return any(role in edge for edge in self.hierarchy)

    def role_in_ssd(self, role: str) -> bool:
        return any(role in s.roles for s in self.ssd.values())

    def role_in_dsd(self, role: str) -> bool:
        return any(role in s.roles for s in self.dsd.values())

    def role_constraints_summary(self, role: str) -> dict[str, bool]:
        """The flag vector stored in a Figure 1 role node."""
        def read(*lists: str) -> bool:
            return any(role in DESCRIPTOR_OPS[name].readers(item)
                       for name in lists for item in getattr(self, name))
        return {
            "hierarchy": self.role_in_hierarchy(role),
            "static_sod": self.role_in_ssd(role),
            "dynamic_sod": self.role_in_dsd(role),
            "cardinality": self.roles[role].max_active_users is not None,
            "temporal": read("durations", "enabling_windows",
                             "disabling_sod"),
            "cfd": read("prerequisites", "post_conditions", "transactions"),
            "context": read("context_constraints"),
        }

    def clone(self) -> "PolicySpec":
        """Deep-enough copy for regeneration diffs (descriptors are
        immutable, containers are copied)."""
        return replace(self, **{
            name: value.copy() for name, value in vars(self).items()
            if isinstance(value, (list, dict))})


def row_of(item) -> tuple:
    """A descriptor item's fields, in order: the arguments of its add
    op (a tuple row is its own)."""
    if isinstance(item, tuple):
        return item
    return tuple(getattr(item, f.name) for f in fields(item))


def _adder(field: str, make=lambda *row: row, key=None):
    """The spec side of an op that adds the item ``make`` builds from
    its arguments, once; in a keyed list it replaces the item with its
    key."""
    def add(spec: PolicySpec, *args) -> bool:
        item = make(*args)
        items = getattr(spec, field)
        if item in items:
            return False
        if key is not None:
            items[:] = [x for x in items if key(x) != key(item)]
        items.append(item)
        return True
    return add


def _remover(field: str, key=None):
    """The spec side of an op that removes the row its arguments are
    (or, with ``key``, every item whose key they are), if present."""
    def remove(spec: PolicySpec, *args) -> bool:
        items = getattr(spec, field)
        if key is None:
            held = args in items
            if held:
                items.remove(args)
            return held
        count = len(items)
        items[:] = [x for x in items if key(x) != args]
        return len(items) < count
    return remove


def _setter(field: str, add):
    """The spec side of an op that (re)declares one entry of the
    mapping ``field`` through the builder ``add``."""
    def put(spec: PolicySpec, name: str, *args) -> bool:
        old = getattr(spec, field).get(name)
        add(spec, name, *args)
        return getattr(spec, field)[name] != old
    return put


#: set-valued row fields -> (add op, remove op): the differ emits these
#: for the rows a new spec adds or drops
ROW_OPS = {
    "assignments": ("assign_user", "deassign_user"),
    "scoped_assignments": ("assign_scoped", "deassign_scoped"),
    "grants": ("grant", "revoke"),
    "scoped_grants": ("grant_scoped", "revoke_scoped"),
    "hierarchy": ("add_inheritance", "delete_inheritance"),
}


@dataclass(frozen=True)
class Descriptor:
    """One extension descriptor list: its ops, and what its items name.

    An add op's arguments are one item's fields in order (``make``
    builds the item), and a remove op's are the item's ``key``: the
    whole row, or for a keyed list the key an add replaces.
    """

    make: Callable[..., Any]
    add: str
    remove: str
    #: audit keys naming the ops' leading arguments
    audit: tuple[str, ...]
    key: Callable[[Any], tuple] = row_of
    #: the roles whose generated rules read one item (None: no rule
    #: reads the list)
    readers: Callable[[Any], set[str]] | None = None
    #: the declarations one item names, as (kind, name, where) rows:
    #: kind "role" or "user", where the subject of the validator's
    #: issue when the name is undeclared
    references: Callable[[Any], list[tuple[str, str, str]]] = (
        lambda item: [])
    #: for a list that must stay acyclic (an item's first two fields
    #: are an edge), the validator's issue text before the cycle
    cycle: str | None = None


#: extension descriptor lists, in the validator's order; dependencies
#: come first (a purpose before the object policies naming it).  A
#: keyed list holds one enabling window per role, one duration per
#: role and user and one disabling-time SoD per name.
DESCRIPTOR_OPS = {
    "federation_maps": Descriptor(
        lambda *row: row, "add_federation_map", "remove_federation_map",
        ("role", "domain", "host_role"),
        references=lambda m: [
            ("role", m[0], f"federation map to {m[1]!r}")]),
    "prerequisites": Descriptor(
        PrerequisiteRole, "add_prerequisite", "remove_prerequisite",
        ("role", "prerequisite"), readers=lambda p: {p.role},
        references=lambda p: [("role", p.role, "prerequisite"),
                              ("role", p.prerequisite, "prerequisite")],
        cycle="prerequisite roles form a cycle: "),
    "post_conditions": Descriptor(
        PostConditionDependency, "add_post_condition",
        "remove_post_condition", ("trigger_role", "required_role"),
        readers=lambda p: {p.trigger_role, p.required_role},
        references=lambda p: [
            ("role", p.trigger_role, "post-condition"),
            ("role", p.required_role, "post-condition")]),
    "transactions": Descriptor(
        TransactionActivation, "add_transaction", "remove_transaction",
        ("dependent_role", "anchor_role"),
        readers=lambda t: {t.dependent_role, t.anchor_role},
        references=lambda t: [
            ("role", t.dependent_role, "transaction activation"),
            ("role", t.anchor_role, "transaction activation")],
        cycle="transaction-activation anchors form a cycle: "),
    "durations": Descriptor(
        DurationConstraint, "set_duration", "clear_duration", ("role",),
        key=lambda d: (d.role, d.user), readers=lambda d: {d.role},
        references=lambda d: [("role", d.role, "duration constraint")] + (
            [] if d.user is None
            else [("user", d.user, "duration constraint")])),
    "enabling_windows": Descriptor(
        EnablingWindow, "set_enabling_window", "clear_enabling_window",
        ("role",), key=lambda w: (w.role,), readers=lambda w: {w.role},
        references=lambda w: [("role", w.role, "enabling window")]),
    "disabling_sod": Descriptor(
        DisablingTimeSoD, "add_disabling_sod", "remove_disabling_sod",
        ("name",), key=lambda c: (c.name,), readers=lambda c: set(c.roles),
        references=lambda c: [
            ("role", role, f"disabling-time SoD {c.name!r}")
            for role in sorted(c.roles)]),
    "context_constraints": Descriptor(
        ContextConstraint, "add_context_constraint",
        "remove_context_constraint", ("role", "variable"),
        readers=lambda c: {c.role},
        references=lambda c: [("role", c.role, "context constraint")]),
    "purposes": Descriptor(lambda *row: row, "add_purpose",
                           "remove_purpose", ("purpose", "parent")),
    "object_policies": Descriptor(
        ObjectPolicy, "add_object_policy", "remove_object_policy",
        ("object", "operation", "purpose")),
    "threshold_policies": Descriptor(
        ThresholdPolicy, "add_threshold_policy", "remove_threshold_policy",
        ("name",)),
}

#: op name -> the spec side of the op (see :meth:`PolicySpec.apply`)
_SPEC_OPS = {
    **{add: _adder(field) for field, (add, _) in ROW_OPS.items()},
    **{drop: _remover(field) for field, (_, drop) in ROW_OPS.items()},
    **{d.add: _adder(field, d.make, d.key)
       for field, d in DESCRIPTOR_OPS.items()},
    **{d.remove: _remover(field, d.key)
       for field, d in DESCRIPTOR_OPS.items()},
    # a flat deassign also drops the pair's scope bounds
    "deassign_user": PolicySpec._deassign,
    "add_user": _setter("users", PolicySpec.add_user),
    "set_user_max_roles": _setter("users", PolicySpec.add_user),
    "delete_user": PolicySpec._delete_user,
    "add_role": _setter("roles", PolicySpec.add_role),
    "set_role_cardinality": _setter("roles", PolicySpec.add_role),
    "delete_role": PolicySpec._delete_role,
    "add_permission": _adder("permissions"),
    "create_ssd": _setter("ssd", PolicySpec.add_ssd),
    "delete_ssd": lambda s, name: s.ssd.pop(name, None) is not None,
    "create_dsd": _setter("dsd", PolicySpec.add_dsd),
    "delete_dsd": lambda s, name: s.dsd.pop(name, None) is not None,
    "add_scope": lambda s, name, parent=None: _adder("scopes")(
        s, name, parent),
    "remove_scope": lambda s, name: _remover("scopes")(
        s, name, dict(s.scopes).get(name)),
}


def build_model(spec: PolicySpec) -> RBACModel:
    """Load a spec's static state into a fresh :class:`RBACModel`.

    Order matters and mirrors the standard's dependencies: element sets,
    then hierarchy, then SoD sets, then grants/assignments (assignment
    SSD checks see the final hierarchy).
    """
    model = RBACModel(hierarchy_limited=spec.hierarchy_limited)
    for role in spec.roles.values():
        model.add_role(role.name, role.max_active_users)
    for user in spec.users.values():
        model.add_user(user.name, user.max_active_roles)
    for name, parent in spec.scopes:
        model.add_scope(name, parent)
    for senior, junior in spec.hierarchy:
        model.add_inheritance(senior, junior)
    for sod in spec.ssd.values():
        model.create_ssd_set(sod.name, sod.roles, sod.cardinality)
    for sod in spec.dsd.values():
        model.create_dsd_set(sod.name, sod.roles, sod.cardinality)
    for operation, obj in spec.permissions:
        model.add_permission(operation, obj)
    for role, operation, obj in spec.grants:
        model.grant_permission(role, operation, obj)
    for role, operation, obj, scope in spec.scoped_grants:
        model.grant_permission(role, operation, obj, scope=scope)
    for user, role in spec.assignments:
        model.assign_user(user, role)
    # scoped assignments: the UA pair is committed flat first (SSD
    # checks included), then immediately bounded — the pair never
    # serves a check between the two calls since build_model runs
    # before any session exists
    for user, role, scope in spec.scoped_assignments:
        if role not in model.assigned_roles(user):
            model.assign_user(user, role)
        model.limit_assignment_scope(user, role, scope)
    return model
