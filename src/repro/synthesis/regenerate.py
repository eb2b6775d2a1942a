"""Policy change and rule regeneration.

"When there is a change in the policy ... it can be easily changed in
the high level specification and the corresponding rules can be
regenerated ... With current systems and models it is a cumbersome
process as all the low level semantic descriptions have to be changed
manually.  When there are thousands of rules, it is highly error prone
to change them manually." (paper §5)

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
from repro.policy.spec import row_of

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


def regenerate_diff(engine: "ActiveRBACEngine",
                    diff: "ConfigDiff") -> RegenerationReport:
    """Regenerate exactly what a config diff requires — nothing more.

    Earlier callers seeded :func:`regenerate_roles` with *every* role a
    policy change mentioned, so a push that only moved grants or
    assignments (decision-time model state, not rule shape) still
    churned rules — and rule churn resets the quarantine and counter
    state riding on each :class:`~repro.rules.rule.OWTERule` object.
    The config differ computes the **rule-relevant** role set
    (``diff.regen_seeds``: surviving roles whose generated rule inputs
    changed, plus brand-new roles); this entry point regenerates that
    seed set (closed over cross-role partners as usual) and leaves
    every other rule object untouched — identity, fault counters and
    quarantine flags survive the deployment.

    Roles the diff removed must already be retired (the lifecycle's
    apply step removes their rules/events before static state moves);
    an empty seed set is a no-op report, with no version churn at all.
    """
    seeds = diff.regen_seeds & set(engine.policy.roles)
    if not seeds:
        return RegenerationReport()
    return regenerate_roles(engine, seeds)


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
    rules of the roles it touches, and ends in the epoch/WAL tail, so
    every edit is guarded, audited and durable.  Each returns the
    regeneration report (None when the edit changed nothing).
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
