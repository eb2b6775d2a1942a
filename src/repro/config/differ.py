"""Diff two policy specs into the minimal deployment delta.

The differ answers two different questions about a config push:

1. **what static state moves** — ordered model-level operations
   (roles/users added or removed, hierarchy edges, SoD sets, grants,
   assignments, cardinality edits) that
   :meth:`~repro.config.lifecycle.PolicyLifecycle` applies directly to
   the live :class:`~repro.rbac.model.RBACModel`;
2. **whose rules change** — the set of roles whose *generated rule
   set* the change actually touches.  This is deliberately narrower
   than "every role the document mentions": a grant, an assignment or
   a permission registration changes only model state read at decision
   time, so it regenerates **zero** rules — and every rule object that
   is not regenerated keeps its identity, which is what lets
   quarantine and counter state survive a policy push (see
   ``synthesis/regenerate.py``).

Rule-relevance is computed from a per-role signature covering exactly
the inputs of :meth:`RuleGenerator.generate_role_rules`: hierarchy
participation, DSD membership, cardinality, the temporal descriptors
(durations, enabling windows, disabling-time SoD), CFD descriptors
(prerequisites, post-conditions, transactions), and access-context
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.policy.spec import ROW_OPS, PolicySpec

__all__ = ["ConfigDiff", "diff_specs", "rule_signature"]


def rule_signature(spec: PolicySpec, role: str) -> tuple:
    """Everything about ``role`` that feeds its generated rule set."""
    return (
        # hierarchy participation picks the AAR variant; the incident
        # edge set is included so an edge swap regenerates both ends
        tuple(sorted(edge for edge in spec.hierarchy if role in edge)),
        tuple(sorted(
            (name, tuple(sorted(sod.roles)), sod.cardinality)
            for name, sod in spec.dsd.items() if role in sod.roles)),
        spec.roles[role].max_active_users if role in spec.roles else None,
        tuple(sorted((d.role, d.delta, d.user)
                     for d in spec.durations if d.role == role)),
        tuple(sorted(repr(w) for w in spec.enabling_windows
                     if w.role == role)),
        tuple(sorted(
            (c.name, tuple(sorted(c.roles)), repr(c.interval))
            for c in spec.disabling_sod if role in c.roles)),
        tuple(sorted((p.role, p.prerequisite)
                     for p in spec.prerequisites if p.role == role)),
        tuple(sorted(
            (p.trigger_role, p.required_role)
            for p in spec.post_conditions
            if role in (p.trigger_role, p.required_role))),
        tuple(sorted(
            (t.dependent_role, t.anchor_role)
            for t in spec.transactions
            if role in (t.dependent_role, t.anchor_role))),
        tuple(sorted(repr(c) for c in spec.context_constraints
                     if c.role == role)),
    )


@dataclass
class ConfigDiff:
    """The computed delta between two policy specs.

    ``model_ops`` is the ordered static-state edit script (applied by
    the lifecycle under one epoch); ``changed_roles`` is the
    rule-relevant seed set regeneration starts from.
    """

    added_roles: set[str] = field(default_factory=set)
    removed_roles: set[str] = field(default_factory=set)
    #: surviving roles whose generated rule set the change touches
    changed_roles: set[str] = field(default_factory=set)
    #: ordered static-state edits: ("op", args...) tuples
    model_ops: list[tuple[Any, ...]] = field(default_factory=list)
    #: privacy surface moved (purposes / object policies): the
    #: registry is rebuilt wholesale on apply
    privacy_changed: bool = False
    #: threshold policies moved: monitor policies re-seeded on apply
    thresholds_changed: bool = False
    #: context constraint set moved (affects kernel context mask)
    context_changed: bool = False
    #: federation role maps moved: serve re-syncs shard federations
    federation_changed: bool = False

    @property
    def is_empty(self) -> bool:
        return not (self.added_roles or self.removed_roles
                    or self.changed_roles or self.model_ops
                    or self.privacy_changed or self.thresholds_changed
                    or self.context_changed or self.federation_changed)

    @property
    def regen_seeds(self) -> set[str]:
        """Seed roles for incremental regeneration: surviving roles
        whose rules changed, plus brand-new roles (their rules do not
        exist yet).  Removed roles are retired, not regenerated."""
        return self.changed_roles | self.added_roles

    def summary(self) -> dict[str, Any]:
        return {
            "added_roles": sorted(self.added_roles),
            "removed_roles": sorted(self.removed_roles),
            "changed_roles": sorted(self.changed_roles),
            "model_ops": len(self.model_ops),
            "ops": [op[0] for op in self.model_ops],
            "privacy_changed": self.privacy_changed,
            "thresholds_changed": self.thresholds_changed,
            "context_changed": self.context_changed,
            "federation_changed": self.federation_changed,
            "empty": self.is_empty,
        }


def _sod_rows(family: dict) -> set[tuple]:
    return {(name, tuple(sorted(sod.roles)), sod.cardinality)
            for name, sod in family.items()}


def _rows(field: str, a: PolicySpec, b: PolicySpec) -> list[tuple]:
    """The rows of ``a``'s set-valued ``field`` that ``b`` lacks."""
    return sorted(set(getattr(a, field)) - set(getattr(b, field)))


def diff_specs(old: PolicySpec, new: PolicySpec) -> ConfigDiff:
    """Compute the deployment delta from ``old`` to ``new``."""
    diff = ConfigDiff()
    ops = diff.model_ops

    old_roles, new_roles = set(old.roles), set(new.roles)
    diff.added_roles = new_roles - old_roles
    diff.removed_roles = old_roles - new_roles
    survivors = old_roles & new_roles

    old_users, new_users = set(old.users), set(new.users)

    # -- deassignments, revocations and dropped edges first (they
    # reference state the removals below would tear down)
    for field, (_, remove) in ROW_OPS.items():
        ops.extend((remove, *row) for row in _rows(field, old, new))
    for family, old_fam, new_fam in (("ssd", old.ssd, new.ssd),
                                     ("dsd", old.dsd, new.dsd)):
        stale = _sod_rows(old_fam) - _sod_rows(new_fam)
        for name, _roles, _card in sorted(stale):
            ops.append((f"delete_{family}", name))
    for role in sorted(diff.removed_roles):
        ops.append(("delete_role", role))
    for user in sorted(old_users - new_users):
        ops.append(("delete_user", user))
    # removed scopes last (their scoped grants/bounds were revoked
    # above); reverse declaration order deletes children before parents
    new_scope_rows = set(new.scopes)
    for name, parent in reversed(old.scopes):
        if (name, parent) not in new_scope_rows:
            ops.append(("remove_scope", name))

    # -- additions, dependency-ordered: entities, hierarchy, SoD,
    # permissions, grants, assignments
    for user in sorted(new_users - old_users):
        ops.append(("add_user", user, new.users[user].max_active_roles))
    for user in sorted(old_users & new_users):
        if old.users[user].max_active_roles \
                != new.users[user].max_active_roles:
            ops.append(("set_user_max_roles", user,
                        new.users[user].max_active_roles))
    for role in sorted(diff.added_roles):
        ops.append(("add_role", role, new.roles[role].max_active_users))
    for role in sorted(survivors):
        if old.roles[role].max_active_users \
                != new.roles[role].max_active_users:
            ops.append(("set_role_cardinality", role,
                        new.roles[role].max_active_users))
    ops.extend(("add_inheritance", *edge)
               for edge in _rows("hierarchy", new, old))
    for family, old_fam, new_fam in (("ssd", old.ssd, new.ssd),
                                     ("dsd", old.dsd, new.dsd)):
        fresh = _sod_rows(new_fam) - _sod_rows(old_fam)
        for name, roles, cardinality in sorted(fresh):
            ops.append((f"create_{family}", name, set(roles), cardinality))
    # new scopes in declaration order (parents before children)
    old_scope_rows = set(old.scopes)
    for name, parent in new.scopes:
        if (name, parent) not in old_scope_rows:
            ops.append(("add_scope", name, parent))
    for pair in new.permissions:
        if pair not in old.permissions:
            ops.append(("add_permission", *pair))
    for field in ("grants", "scoped_grants", "assignments",
                  "scoped_assignments"):
        ops.extend((ROW_OPS[field][0], *row)
                   for row in _rows(field, new, old))

    # -- rule-relevant role changes (see module docstring)
    for role in sorted(survivors):
        if rule_signature(old, role) != rule_signature(new, role):
            diff.changed_roles.add(role)

    diff.privacy_changed = (
        old.purposes != new.purposes
        or old.object_policies != new.object_policies)
    diff.thresholds_changed = (
        old.threshold_policies != new.threshold_policies)
    diff.context_changed = (
        old.context_constraints != new.context_constraints)
    diff.federation_changed = (
        old.federation_maps != new.federation_maps)
    return diff
