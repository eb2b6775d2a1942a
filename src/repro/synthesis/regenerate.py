"""Policy change and rule regeneration.

"When there is a change in the policy ... it can be easily changed in
the high level specification and the corresponding rules can be
regenerated ... With current systems and models it is a cumbersome
process as all the low level semantic descriptions have to be changed
manually.  When there are thousands of rules, it is highly error prone
to change them manually." (paper §5)

Which roles regenerate is decided by one rule: those whose
:func:`rule_signatures` entry moved.  A signature covers exactly the
inputs of :meth:`RuleGenerator.generate_role_rules
<repro.synthesis.generator.RuleGenerator.generate_role_rules>` (the
role's cardinality, its hierarchy edges, its DSD sets and the extension
descriptors its rules read), so a grant, an assignment or a scope
moves none, and every rule object not regenerated keeps its identity
(and the quarantine and counter state riding on it).  An admin op
(:meth:`ActiveRBACEngine.apply <repro.engine.ActiveRBACEngine.apply>`)
compares the signatures just before and after it writes the policy; a
config swap compares them once around its whole batch of ops, and the
config differ reports the same set as its ``changed_roles``.

Three strategies are implemented — they are the subjects of benchmarks
B2 and B9:

* :func:`regenerate_roles` — **incremental**: retire and re-derive only
  the rules of the changed roles (closing over cross-role rules via
  their ``role:*`` tags);
* :func:`full_regeneration` — rebuild the entire pool from the policy;
* :func:`simulate_manual_edit` — a cost model of an administrator
  hand-editing rules in a pool (scan + edit + error probability), the
  comparison point for the paper's maintainability argument.

:class:`PolicyEditor` is the administrator-facing API: each method is
one high-level policy change (the day-doctor shift change is
``set_enabling_window``).  Each is one op of the engine's op table,
the path a config promotion takes too: guarded, regenerated
incrementally, audited, and ended by one epoch bump (WAL-logged).  It
returns a :class:`RegenerationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.extensions.context import ContextConstraint
from repro.gtrbac.constraints import DisablingTimeSoD
from repro.gtrbac.periodic import PeriodicInterval
from repro.policy.spec import DESCRIPTOR_OPS, PolicySpec, row_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import ActiveRBACEngine


@dataclass
class RegenerationReport:
    """What one regeneration touched."""

    seed_roles: set[str] = field(default_factory=set)
    affected_roles: set[str] = field(default_factory=set)
    removed_rules: list[str] = field(default_factory=list)
    added_rules: list[str] = field(default_factory=list)

    @property
    def rules_touched(self) -> int:
        return len(set(self.removed_rules) | set(self.added_rules))

    def describe(self) -> str:
        return (f"regenerated {sorted(self.affected_roles)}: "
                f"-{len(self.removed_rules)} / +{len(self.added_rules)} "
                f"rule(s)")


def rule_signatures(spec: PolicySpec) -> dict[str, tuple]:
    """Role -> everything about it that feeds its generated rule set.

    One pass over the generator's inputs: each role's cardinality, and
    the set of hierarchy edges, DSD sets and extension descriptor items
    naming it among their readers.  User entries, grants, assignments
    and scopes are read at decision time, never by the generator, so
    they are not part of any signature.
    """
    facts: dict[str, set] = {role: set() for role in spec.roles}

    def note(roles: Iterable[str], fact: tuple) -> None:
        for role in roles:
            if role in facts:
                facts[role].add(fact)

    for edge in spec.hierarchy:
        # the incident edges, not only the flag: an edge swap
        # regenerates both ends
        note(edge, ("hierarchy", edge))
    for sod in spec.dsd.values():
        note(sod.roles, ("dsd", sod.name, frozenset(sod.roles),
                         sod.cardinality))
    for field_name, descriptor in DESCRIPTOR_OPS.items():
        if descriptor.readers is not None:
            for item in getattr(spec, field_name):
                note(descriptor.readers(item), (field_name, item))
    return {role: (spec.roles[role].max_active_users, frozenset(held))
            for role, held in facts.items()}


def moved_roles(before: dict[str, tuple], spec: PolicySpec) -> set[str]:
    """The roles of ``spec`` whose signature differs from ``before``
    (:func:`rule_signatures` of an earlier policy): new roles included,
    deleted roles excluded (their rules retire with them)."""
    return {role for role, signature in rule_signatures(spec).items()
            if before.get(role) != signature}


def affected_roles(engine: "ActiveRBACEngine",
                   seeds: Iterable[str]) -> set[str]:
    """Close a seed role set over cross-role rules.

    A rule tagged with several ``role:*`` keys (disabling-time SoD,
    post-condition CFD, transaction anchors) ties its roles together:
    removing it for one role requires regenerating the others too.
    """
    affected = set(seeds)
    frontier = set(seeds)
    while frontier:
        role = frontier.pop()
        for rule in engine.rules.by_tags(**{f"role:{role}": "1"}):
            for key in rule.tags:
                if key.startswith("role:"):
                    other = key[len("role:"):]
                    if other not in affected:
                        affected.add(other)
                        frontier.add(other)
    return affected


def regenerate_roles(engine: "ActiveRBACEngine",
                     seeds: Iterable[str]) -> RegenerationReport:
    """Incrementally regenerate the rules of the seed roles (plus any
    cross-role partners)."""
    report = RegenerationReport(seed_roles=set(seeds))
    report.affected_roles = affected_roles(engine, report.seed_roles)
    for role in sorted(report.affected_roles):
        report.removed_rules.extend(engine.generator.remove_role_rules(role))
    for role in sorted(report.affected_roles):
        if role in engine.policy.roles:
            report.added_rules.extend(
                engine.generator.generate_role_rules(role))
    engine.audit.record("admin.regenerate",
                        roles=sorted(report.affected_roles),
                        removed=len(report.removed_rules),
                        added=len(report.added_rules))
    # rule churn already bumps the manager version (one leg of the
    # kernel validity triple); dropping the kernel here makes the
    # recompile-on-regeneration contract explicit
    engine.invalidate_kernel()
    return report


def full_regeneration(engine: "ActiveRBACEngine") -> RegenerationReport:
    """Rebuild the whole pool from the policy (the naive strategy)."""
    report = RegenerationReport(seed_roles=set(engine.policy.roles))
    report.affected_roles = set(engine.policy.roles)
    for role in sorted(engine.policy.roles):
        report.removed_rules.extend(engine.generator.remove_role_rules(role))
    for role in sorted(engine.policy.roles):
        report.added_rules.extend(engine.generator.generate_role_rules(role))
    engine.invalidate_kernel()
    return report


@dataclass
class ManualEditEstimate:
    """Cost model of an administrator editing rules by hand (B2).

    The administrator must *find* the rules to change among the whole
    pool (``rules_scanned``), edit each (``rules_edited``), and has a
    per-edit error probability; ``expected_errors`` is the expectation.
    The paper's point is qualitative ("highly error prone"); this model
    makes the scaling comparable on a chart.
    """

    pool_size: int
    rules_scanned: int
    rules_edited: int
    error_rate_per_edit: float

    @property
    def expected_errors(self) -> float:
        return self.rules_edited * self.error_rate_per_edit

    @property
    def effort_units(self) -> float:
        """Scan effort (1 unit per rule read) + edit effort (10 units
        per rule changed): a simple, stated cost model."""
        return self.rules_scanned + 10.0 * self.rules_edited


def simulate_manual_edit(engine: "ActiveRBACEngine",
                         seeds: Iterable[str],
                         error_rate_per_edit: float = 0.05
                         ) -> ManualEditEstimate:
    """Estimate the manual cost of the change that
    :func:`regenerate_roles` would perform automatically."""
    roles = affected_roles(engine, set(seeds))
    to_edit = {
        rule.name
        for role in roles
        for rule in engine.rules.by_tags(**{f"role:{role}": "1"})
    }
    return ManualEditEstimate(
        pool_size=len(engine.rules),
        rules_scanned=len(engine.rules),
        rules_edited=len(to_edit),
        error_rate_per_edit=error_rate_per_edit,
    )


class PolicyEditor:
    """High-level policy changes with automatic incremental regeneration.

    Each method is one op of the engine's one op table
    (:meth:`ActiveRBACEngine.apply <repro.engine.ActiveRBACEngine.apply>`):
    it checks the validator's rules before it writes, regenerates the
    rules of the roles whose signature it moves, and ends in the
    epoch/WAL tail, so every edit is guarded, audited and durable.
    Each returns the regeneration report (None when no rule changed).
    """

    def __init__(self, engine: "ActiveRBACEngine") -> None:
        self.engine = engine

    # -- temporal ------------------------------------------------------------

    def set_enabling_window(self, role: str, interval: PeriodicInterval
                            ) -> RegenerationReport | None:
        """Change a role's shift (the paper's day-doctor example)."""
        return self.engine.apply(("set_enabling_window", role, interval))

    def clear_enabling_window(self, role: str) -> RegenerationReport | None:
        return self.engine.apply(("clear_enabling_window", role))

    def set_duration(self, role: str, delta: float,
                     user: str | None = None) -> RegenerationReport | None:
        return self.engine.apply(("set_duration", role, delta, user))

    def clear_duration(self, role: str, user: str | None = None
                       ) -> RegenerationReport | None:
        return self.engine.apply(("clear_duration", role, user))

    def add_disabling_sod(self, constraint: DisablingTimeSoD
                          ) -> RegenerationReport | None:
        return self.engine.apply(("add_disabling_sod", *row_of(constraint)))

    def remove_disabling_sod(self, name: str) -> RegenerationReport | None:
        return self.engine.apply(("remove_disabling_sod", name))

    # -- control-flow dependencies -----------------------------------------------

    def add_prerequisite(self, role: str, prerequisite: str
                         ) -> RegenerationReport | None:
        return self.engine.apply(("add_prerequisite", role, prerequisite))

    def add_post_condition(self, trigger_role: str, required_role: str
                           ) -> RegenerationReport | None:
        return self.engine.apply(
            ("add_post_condition", trigger_role, required_role))

    def add_transaction(self, dependent_role: str, anchor_role: str
                        ) -> RegenerationReport | None:
        return self.engine.apply(
            ("add_transaction", dependent_role, anchor_role))

    # -- cardinality ----------------------------------------------------------------

    def set_role_cardinality(self, role: str, max_users: int | None
                             ) -> RegenerationReport | None:
        return self.engine.apply(("set_role_cardinality", role, max_users))

    def set_user_max_roles(self, user: str, max_roles: int | None) -> None:
        """Specialized per-user cardinality: evaluated through a model
        lookup in the CC rules, so no regeneration is needed."""
        self.engine.apply(("set_user_max_roles", user, max_roles))

    # -- context ---------------------------------------------------------------------

    def add_context_constraint(self, constraint: ContextConstraint
                               ) -> RegenerationReport | None:
        return self.engine.apply(
            ("add_context_constraint", *row_of(constraint)))
