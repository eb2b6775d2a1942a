"""Diff two policy specs into the minimal deployment delta.

The differ answers two different questions about a config push:

1. **what the policy edit is** — an ordered script of ops of the
   engine's one op table (roles/users added or removed, hierarchy
   edges, SoD sets, grants, assignments, cardinality edits, and every
   extension descriptor: durations, enabling windows, disabling-time
   SoD, CFD, context, privacy, thresholds and federation maps) that
   :class:`~repro.config.lifecycle.PolicyLifecycle` applies through
   :meth:`ActiveRBACEngine.apply <repro.engine.ActiveRBACEngine.apply>`;
2. **whose rules change** — the set of roles whose *generated rule
   set* the change actually touches.  This is deliberately narrower
   than "every role the document mentions": a grant, an assignment or
   a permission registration changes only model state read at decision
   time, so it regenerates **zero** rules — and every rule object that
   is not regenerated keeps its identity, which is what lets
   quarantine and counter state survive a policy push.

Rule-relevance is the one regeneration rule of admin ops and config
swaps alike: a role changes when its
:func:`~repro.synthesis.regenerate.rule_signatures` entry (exactly the
inputs of :meth:`RuleGenerator.generate_role_rules`) moves.  The diff
reports that set; the lifecycle applying the diff regenerates the
roles whose signature its ops moved on the live policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.policy.spec import DESCRIPTOR_OPS, ROW_OPS, PolicySpec, row_of
from repro.synthesis.regenerate import moved_roles, rule_signatures

__all__ = ["ConfigDiff", "diff_specs"]


@dataclass
class ConfigDiff:
    """The computed delta between two policy specs.

    ``model_ops`` is the ordered edit script of op-table ops (applied
    by the lifecycle as one swap); ``changed_roles`` holds the
    surviving roles whose rule signature moves.
    """

    added_roles: set[str] = field(default_factory=set)
    removed_roles: set[str] = field(default_factory=set)
    #: surviving roles whose generated rule set the change touches
    changed_roles: set[str] = field(default_factory=set)
    #: ordered policy edits: ("op", args...) tuples
    model_ops: list[tuple[Any, ...]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.added_roles or self.removed_roles
                    or self.changed_roles or self.model_ops)

    @property
    def regen_seeds(self) -> set[str]:
        """The roles applying the diff regenerates: surviving roles
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
            "empty": self.is_empty,
        }


def _sod_rows(family: dict) -> set[tuple]:
    return {(name, tuple(sorted(sod.roles)), sod.cardinality)
            for name, sod in family.items()}


def _rows(field: str, a: PolicySpec, b: PolicySpec) -> list[tuple]:
    """The rows of ``a``'s set-valued ``field`` that ``b`` lacks."""
    return sorted(set(getattr(a, field)) - set(getattr(b, field)))


def _dropped(old: PolicySpec, new: PolicySpec) -> dict[str, list]:
    """Descriptor list -> the items of ``old`` the delta removes: those
    whose key ``new`` lacks, and every purpose below a dropped purpose
    and every object policy naming one.  A re-parented purpose is a
    new row, so it and its dependents are removed and re-added."""
    dropped = {}
    for field, descriptor in DESCRIPTOR_OPS.items():
        kept = set(map(descriptor.key, getattr(new, field)))
        dropped[field] = [item for item in getattr(old, field)
                          if descriptor.key(item) not in kept]
    gone: set[str] = set()
    for purpose, parent in old.purposes:  # parents first
        if (purpose, parent) in dropped["purposes"] or parent in gone:
            gone.add(purpose)
    dropped["purposes"] = [p for p in old.purposes if p[0] in gone]
    dropped["object_policies"] += [o for o in old.object_policies
                                   if o.purpose in gone]
    return dropped


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
    # dropped descriptors, dependents first (an object policy before
    # its purpose, a child purpose before its parent); a kept key's
    # item is replaced by its set/add op below
    dropped = _dropped(old, new)
    for field, descriptor in reversed(DESCRIPTOR_OPS.items()):
        ops.extend((descriptor.remove, *descriptor.key(item))
                   for item in reversed(getattr(old, field))
                   if item in dropped[field])
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
    # new descriptors last (they name the entities above), in
    # declaration order
    for field, descriptor in DESCRIPTOR_OPS.items():
        kept = [item for item in getattr(old, field)
                if item not in dropped[field]]
        ops.extend((descriptor.add, *row_of(item))
                   for item in getattr(new, field) if item not in kept)

    # -- rule-relevant role changes (see module docstring)
    diff.changed_roles = moved_roles(rule_signatures(old), new) \
        - diff.added_roles
    return diff
