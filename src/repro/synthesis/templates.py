"""Rule templates: builders for every rule shape in the paper.

Each function builds one :class:`~repro.rules.rule.OWTERule` (or a small
set) for a concrete role/constraint, closing over the engine.  Condition
and action description strings deliberately mirror the paper's rule
listings (``user IN userL``, ``checkAssignedR1(user) IS TRUE``,
``addSessionRoleR1(sessionId)``) so that ``rule.render()`` reproduces
the paper's figures.

Naming scheme (deterministic, so regeneration can dedupe):

==================  =========================================================
``AAR<v>.<role>``    activation rule; v = 1 core, 2 hierarchy, 3 DSD,
                     4 DSD+hierarchy (the paper's four variants)
``CC.<role>``        cardinality + commit rule (paper Rule 4's CC_1)
``DAR.<role>``       deactivation rule
``ER.<role>``        role enabling (with post-condition CFD rollback)
``DR.<role>``        role disabling (with disabling-time SoD)
``TSOD.<role>``      duration expiry deactivation (paper Rule 7's TSOD_2)
``TSOD.<role>.<u>``  per-user duration variant (specialized)
``ASEC.<role>``      transaction-anchor cleanup (paper Rule 9's cascade)
``GR.*`` / ``CA.*``  globalized administrative / checkAccess rules
==================  =========================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import (

    ActivationDenied,
    AdministrationError,
    CardinalityExceeded,
    DeactivationDenied,
    DsdViolationError,
    DuplicateEntityError,
    PrerequisiteNotMetError,
    ReproError,
    RoleNotEnabledError,
    SecurityLockout,
    SsdViolationError,
    UnknownRoleError,
    UnknownSessionError,
    UnknownUserError,
)
from repro.rules.rule import (
    Action,
    Condition,
    EvalClass,
    Granularity,
    OWTERule,
    RuleClass,
    RuleContext,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import ActiveRBACEngine


def role_tags(*roles: str, kind: str = "") -> dict[str, str]:
    """Attribution tags: one ``role:<name>`` key per involved role.

    Regeneration removes rules by any single involved role's tag, which
    is how a change to one role also retires cross-role rules.
    """
    tags = {f"role:{name}": "1" for name in roles}
    if kind:
        tags["kind"] = kind
    return tags


# Map the first failing can_activate reason to the typed denial the
# paper's ELSE clauses raise.
_ACTIVATION_ERRORS = {
    "dynamic SoD violation": DsdViolationError,
    "Maximum Number of Roles Reached": CardinalityExceeded,
    "role not enabled": RoleNotEnabledError,
    "prerequisite role not active": PrerequisiteNotMetError,
    "anchor role not activated": PrerequisiteNotMetError,
    "user locked by active security": SecurityLockout,
}


def activation_error(reason: str, rule: str) -> ActivationDenied:
    error_cls = _ACTIVATION_ERRORS.get(reason, ActivationDenied)
    return error_cls(reason or "Access Denied Cannot Activate", rule=rule)


def _deny_activation(engine: "ActiveRBACEngine", rule_name: str,
                     ctx: RuleContext) -> None:
    """Shared ELSE body for activation rules: emit the denial event for
    the security monitor, then raise the typed error."""
    session_id = ctx.get("sessionId")
    role = ctx.get("role")
    allowed, reason = engine.can_activate(session_id, role)
    if allowed:  # race-free in this single-threaded substrate; defensive
        reason = "Access Denied Cannot Activate"
    engine.detector.raise_event(
        "activationDenied", user=ctx.get("user"), role=role,
        sessionId=session_id, reason=reason,
    )
    engine.audit.record("decision.deny", category="activation", role=role,
                        session=session_id, reason=reason)
    raise activation_error(reason, rule_name)


# ===========================================================================
# activation rules: AAR1..AAR4 (paper Rule 3) + CC commit (paper Rule 4)
# ===========================================================================

def build_activation_rule(engine: "ActiveRBACEngine", role: str,
                          in_hierarchy: bool, in_dsd: bool,
                          has_prerequisites: bool, is_dependent: bool,
                          has_context: bool) -> OWTERule:
    """The AAR rule for one role, variant chosen by its relationships.

    AAR1: core; AAR2: + hierarchies (checkAuthorization instead of
    checkAssigned); AAR3: + dynamic SoD; AAR4: both (paper §4.3.1).
    """
    variant = {(False, False): 1, (True, False): 2,
               (False, True): 3, (True, True): 4}[(in_hierarchy, in_dsd)]
    name = f"AAR{variant}.{role}"
    model = engine.model

    conditions = [
        Condition("user IN userL",
                  lambda ctx: model.is_user(ctx.get("user"))),
        Condition("user NOT locked",
                  lambda ctx: not engine.is_user_locked(ctx.get("user"))),
        Condition("sessionId IN sessionL",
                  lambda ctx: model.is_session(ctx.get("sessionId"))),
        Condition("sessionId IN checkUserSessions(user)",
                  lambda ctx: model.owns_session(ctx.get("user"),
                                                 ctx.get("sessionId"))),
        Condition(f"{role} NOT IN checkSessionRoles(user)",
                  lambda ctx: not model.is_active_in_session(
                      ctx.get("sessionId"), role)),
        Condition(f"roleEnabled{role} IS TRUE",
                  lambda ctx: model.is_role_enabled(role)),
    ]
    if in_hierarchy:
        conditions.append(Condition(
            f"checkAuthorization{role}(user) IS TRUE",
            lambda ctx: model.is_authorized(ctx.get("user"), role)))
    else:
        conditions.append(Condition(
            f"checkAssigned{role}(user) IS TRUE",
            lambda ctx: model.is_assigned(ctx.get("user"), role)))
    if in_dsd:
        conditions.append(Condition(
            f"checkDynamicSoDSet(user, {role}) IS TRUE",
            lambda ctx: model.dsd_allows_activation(
                ctx.get("sessionId"), role)))
    if has_prerequisites:
        conditions.append(Condition(
            f"prerequisiteRoles({role}) active in session",
            lambda ctx: engine.prerequisites_ok(ctx.get("sessionId"),
                                                role)))
    if is_dependent:
        conditions.append(Condition(
            f"anchorRole({role}) currently activated",
            lambda ctx: engine.transaction_anchor_ok(role)))
    if has_context:
        conditions.append(Condition(
            f"contextConstraints({role}, activate) satisfied",
            lambda ctx: engine.activation_context_ok(role)))

    def then_cascade(ctx: RuleContext) -> None:
        ctx.raise_event(f"addSessionRole.{role}", **ctx.params)

    def else_deny(ctx: RuleContext) -> None:
        _deny_activation(engine, name, ctx)

    return OWTERule(
        name=name,
        event=f"addActiveRole.{role}",
        conditions=conditions,
        actions=[Action(f"addSessionRole{role}(sessionId)", then_cascade)],
        alt_actions=[Action('raise error "Access Denied Cannot Activate"',
                            else_deny)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=Granularity.LOCALIZED,
        tags=role_tags(role, kind="activation"),
    )


def build_commit_rule(engine: "ActiveRBACEngine", role: str,
                      max_active_users: int | None) -> OWTERule:
    """The CC rule: cardinality gate + commit + post-commit cascades.

    Mirrors paper Rule 4: the AAR rule's THEN invoked
    ``addSessionRole<R>`` which raised this rule's event; here the
    cardinality counters are checked and the activation committed.
    """
    name = f"CC.{role}"
    conditions = []
    if max_active_users is not None:
        conditions.append(Condition(
            f"Cardinality{role}(INCR) <= {max_active_users}",
            lambda ctx: engine.role_cardinality_ok(role, ctx.get("user"))))
    conditions.append(Condition(
        "activeRoleCount(user) < maxActiveRoles(user)",
        lambda ctx: engine.user_cardinality_ok(ctx.get("user"), role)))

    def commit(ctx: RuleContext) -> None:
        session_id = ctx.get("sessionId")
        user = ctx.get("user")
        activation_id = ctx.get("activationId")
        engine.commit_activation(session_id, role, activation_id)
        delta = engine.duration_for(role, user)
        if delta is not None:
            per_user = any(
                d.role == role and d.user == user
                for d in engine.policy.durations
            )
            event = (f"durationStart.{role}.{user}" if per_user
                     else f"durationStart.{role}")
            ctx.raise_event(event, sessionId=session_id, role=role,
                            user=user, activationId=activation_id)
        ctx.raise_event(f"roleActivated.{role}", **ctx.params)

    def else_deny(ctx: RuleContext) -> None:
        engine.detector.raise_event(
            "activationDenied", user=ctx.get("user"), role=role,
            sessionId=ctx.get("sessionId"),
            reason="Maximum Number of Roles Reached",
        )
        engine.audit.record("decision.deny", category="cardinality", role=role,
                            session=ctx.get("sessionId"))
        raise CardinalityExceeded("Maximum Number of Roles Reached",
                                  rule=name)

    return OWTERule(
        name=name,
        event=f"addSessionRole.{role}",
        conditions=conditions,
        actions=[Action(f"activate {role} in session", commit)],
        alt_actions=[Action(
            'raise error "Maximum Number of Roles Reached"', else_deny)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=Granularity.LOCALIZED,
        tags=role_tags(role, kind="commit"),
    )


def build_deactivation_rule(engine: "ActiveRBACEngine",
                            role: str) -> OWTERule:
    """The DAR rule: validate and commit a deactivation."""
    name = f"DAR.{role}"
    model = engine.model
    conditions = [
        Condition("sessionId IN sessionL",
                  lambda ctx: model.is_session(ctx.get("sessionId"))),
        Condition("sessionId IN checkUserSessions(user)",
                  lambda ctx: model.owns_session(ctx.get("user"),
                                                 ctx.get("sessionId"))),
        Condition(f"{role} IN checkSessionRoles(user)",
                  lambda ctx: model.is_active_in_session(
                      ctx.get("sessionId"), role)),
    ]

    def commit(ctx: RuleContext) -> None:
        engine.commit_deactivation(ctx.get("sessionId"), role)

    def else_deny(ctx: RuleContext) -> None:
        raise DeactivationDenied(
            f"role {role!r} is not active in session "
            f"{ctx.get('sessionId')!r}", rule=name,
        )

    return OWTERule(
        name=name,
        event=f"dropActiveRole.{role}",
        conditions=conditions,
        actions=[Action(f"removeSessionRole{role}(sessionId)", commit)],
        alt_actions=[Action('raise error "Cannot Deactivate"', else_deny)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=Granularity.LOCALIZED,
        tags=role_tags(role, kind="deactivation"),
    )


# ===========================================================================
# role enabling/disabling: ER (with post-condition CFD) and DR (with
# disabling-time SoD) — paper Rules 6 and 8
# ===========================================================================

def build_enable_rule(engine: "ActiveRBACEngine", role: str,
                      required_partners: list[str]) -> OWTERule:
    """ER rule.  ``required_partners`` are the post-condition CFD
    partners (paper Rule 8): enabling this role must also enable each
    partner, atomically — on partner failure this role is re-disabled
    and the request denied."""
    name = f"ER.{role}"
    involved = [role, *required_partners]

    def enable(ctx: RuleContext) -> None:
        model = engine.model
        if model.is_role_enabled(role):
            return  # idempotent; also breaks CFD cycles
        engine.commit_role_enabled(role, True)
        ctx.raise_event(f"roleEnabled.{role}", role=role)
        for partner in required_partners:
            if model.is_role_enabled(partner):
                continue
            failure: ReproError | None = None
            try:
                ctx.raise_event(f"enableRole.{partner}", role=partner)
            except ReproError as exc:
                failure = exc
            if failure is not None or not model.is_role_enabled(partner):
                # paper Rule 8's CFD_2 ELSE: disable the trigger role
                engine.commit_role_enabled(role, False)
                raise ActivationDenied(
                    f"Cannot Activate {role}: required role "
                    f"{partner!r} could not be enabled", rule=name,
                ) from failure

    return OWTERule(
        name=name,
        event=f"enableRole.{role}",
        actions=[Action(f"enableRole{role}()" + "".join(
            f" && enableRole{p}()" for p in required_partners), enable)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=Granularity.LOCALIZED,
        tags=role_tags(*involved, kind="enable"),
    )


def build_disable_rule(engine: "ActiveRBACEngine", role: str,
                       sod_partner_roles: list[str]) -> OWTERule:
    """DR rule.  The W clause enforces every disabling-time SoD set the
    role belongs to (paper Rule 6's TSOD_1: inside the interval, deny
    when a partner is already disabled)."""
    name = f"DR.{role}"
    conditions = []
    if sod_partner_roles:
        partners = ", ".join(sorted(sod_partner_roles))
        conditions.append(Condition(
            f"checkActive({partners}) IS TRUE within (I, P)",
            lambda ctx: engine.disabling_sod_ok(role)))

    def disable(ctx: RuleContext) -> None:
        if not engine.model.is_role_enabled(role):
            return  # idempotent
        engine.commit_role_enabled(role, False)
        ctx.raise_event(f"roleDisabled.{role}", role=role)

    def else_deny(ctx: RuleContext) -> None:
        raise DeactivationDenied(
            f"Denied as partner role Already Disabled (disabling-time "
            f"SoD on {role!r})", rule=name,
        )

    return OWTERule(
        name=name,
        event=f"disableRole.{role}",
        conditions=conditions,
        actions=[Action(f"disableRole{role}()", disable)],
        alt_actions=[Action(
            'raise error "Denied as partner Already Disabled"',
            else_deny)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=Granularity.LOCALIZED,
        tags=role_tags(role, *sod_partner_roles, kind="disable"),
    )


# ===========================================================================
# temporal rules: duration expiry (paper Rule 7's TSOD_2)
# ===========================================================================

def build_duration_rule(engine: "ActiveRBACEngine", role: str,
                        user: str | None) -> OWTERule:
    """TSOD rule on the PLUS event: deactivate when the countdown
    expires, unless the activation already ended (activation-id guard).
    """
    suffix = f".{user}" if user else ""
    name = f"TSOD.{role}{suffix}"

    def still_current(ctx: RuleContext) -> bool:
        key = (ctx.get("sessionId"), role)
        return engine.current_activation.get(key) == ctx.get("activationId")

    def deactivate(ctx: RuleContext) -> None:
        engine.audit.record("temporal.duration_expired", role=role,
                            session=ctx.get("sessionId"))
        engine.commit_deactivation(ctx.get("sessionId"), role)

    return OWTERule(
        name=name,
        event=f"durationExpired.{role}{suffix}",
        conditions=[Condition("activation still current", still_current)],
        actions=[Action(f"deactivateRole{role}(sessionId)", deactivate)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=(Granularity.SPECIALIZED if user
                     else Granularity.LOCALIZED),
        tags=role_tags(role, kind="duration"),
    )


# ===========================================================================
# transaction-anchor cleanup (paper Rule 9's ASEC_2 cascade)
# ===========================================================================

def build_anchor_cleanup_rule(engine: "ActiveRBACEngine", anchor: str,
                              dependents: list[str]) -> OWTERule:
    """When the last activation of the anchor role ends, deactivate
    every dependent role everywhere (Rule 9: deactivating Manager
    deactivates JuniorEmp and closes the activation window)."""
    name = f"ASEC.{anchor}"

    def anchor_gone(ctx: RuleContext) -> bool:
        return engine.model.active_user_count(anchor) == 0

    def cleanup(ctx: RuleContext) -> None:
        for dependent in dependents:
            dropped = engine.force_deactivate_role(dependent)
            if dropped:
                engine.audit.record(
                    "security.anchor_cleanup", anchor=anchor,
                    dependent=dependent, sessions=dropped,
                )

    return OWTERule(
        name=name,
        event=f"roleDeactivated.{anchor}",
        conditions=[Condition(f"activeUserCount({anchor}) == 0",
                              anchor_gone)],
        actions=[Action(
            "deactivate " + ", ".join(dependents), cleanup)],
        classification=RuleClass.ACTIVE_SECURITY,
        granularity=Granularity.LOCALIZED,
        tags=role_tags(anchor, *dependents, kind="anchor"),
    )


# ===========================================================================
# globalized administrative rules (paper scenario 3) and checkAccess
# (paper Rule 5's CA_1)
# ===========================================================================

def build_create_session_rule(engine: "ActiveRBACEngine") -> OWTERule:
    name = "GR.createSession"
    model = engine.model
    conditions = [
        Condition("user IN userL",
                  lambda ctx: model.is_user(ctx.get("user"))),
        Condition("user NOT locked",
                  lambda ctx: not engine.is_user_locked(ctx.get("user"))),
        Condition("sessionId NOT IN sessionL",
                  lambda ctx: not model.is_session(ctx.get("sessionId"))),
    ]

    def commit(ctx: RuleContext) -> None:
        engine.commit_session(ctx.get("sessionId"), ctx.get("user"))

    def else_deny(ctx: RuleContext) -> None:
        user = ctx.get("user")
        if not model.is_user(user):
            raise UnknownUserError(str(user))
        if engine.is_user_locked(user):
            raise SecurityLockout(
                f"user {user!r} is locked by active security", rule=name)
        raise DuplicateEntityError(
            f"session {ctx.get('sessionId')!r} already exists")

    return OWTERule(
        name=name, event="createSession",
        conditions=conditions,
        actions=[Action("createSession(user, sessionId)", commit)],
        alt_actions=[Action('raise error "Cannot Create Session"',
                            else_deny)],
        classification=RuleClass.ADMINISTRATIVE,
        granularity=Granularity.GLOBALIZED,
        tags={"scope": "global", "kind": "session"},
    )


def build_delete_session_rule(engine: "ActiveRBACEngine") -> OWTERule:
    name = "GR.deleteSession"

    def commit(ctx: RuleContext) -> None:
        engine.commit_session_delete(ctx.get("sessionId"))

    def else_deny(ctx: RuleContext) -> None:
        raise UnknownSessionError(str(ctx.get("sessionId")))

    return OWTERule(
        name=name, event="deleteSession",
        conditions=[Condition(
            "sessionId IN sessionL",
            lambda ctx: engine.model.is_session(ctx.get("sessionId")))],
        actions=[Action("deleteSession(sessionId)", commit)],
        alt_actions=[Action('raise error "Unknown Session"', else_deny)],
        classification=RuleClass.ADMINISTRATIVE,
        granularity=Granularity.GLOBALIZED,
        tags={"scope": "global", "kind": "session"},
    )


def build_assign_user_rule(engine: "ActiveRBACEngine") -> OWTERule:
    """The globalized user-role assignment rule (paper scenario 3: one
    rule invoked with different parameters for every assignment)."""
    name = "GR.assignUser"
    model = engine.model
    conditions = [
        Condition("user IN userL",
                  lambda ctx: model.is_user(ctx.get("user"))),
        Condition("role IN roleL",
                  lambda ctx: ctx.get("role") in model.roles),
        Condition("role NOT IN assignedRoles(user)",
                  lambda ctx: not model.is_assigned(ctx.get("user"),
                                                    ctx.get("role"))),
        Condition("checkStaticSoD(user, role) IS TRUE",
                  lambda ctx: model.ssd_allows_assignment(
                      ctx.get("user"), ctx.get("role"))),
    ]

    def commit(ctx: RuleContext) -> None:
        engine.commit_assignment(ctx.get("user"), ctx.get("role"))

    def else_deny(ctx: RuleContext) -> None:
        user, role = ctx.get("user"), ctx.get("role")
        if not model.is_user(user):
            raise UnknownUserError(str(user))
        if role not in model.roles:
            raise UnknownRoleError(str(role))
        if model.is_assigned(user, role):
            raise AdministrationError(
                f"user {user!r} is already assigned to role {role!r}")
        raise SsdViolationError(
            f"assigning {role!r} to {user!r} violates a static SoD "
            f"constraint", user=str(user))

    return OWTERule(
        name=name, event="assignUser",
        conditions=conditions,
        actions=[Action("assignUser(user, role)", commit)],
        alt_actions=[Action('raise error "Cannot Assign"', else_deny)],
        classification=RuleClass.ADMINISTRATIVE,
        granularity=Granularity.GLOBALIZED,
        tags={"scope": "global", "kind": "assignment"},
    )


def build_deassign_user_rule(engine: "ActiveRBACEngine") -> OWTERule:
    name = "GR.deassignUser"
    model = engine.model
    conditions = [
        Condition("user IN userL",
                  lambda ctx: model.is_user(ctx.get("user"))),
        Condition("role IN roleL",
                  lambda ctx: ctx.get("role") in model.roles),
        Condition("role IN assignedRoles(user)",
                  lambda ctx: model.is_assigned(ctx.get("user"),
                                                ctx.get("role"))),
    ]

    def commit(ctx: RuleContext) -> None:
        engine.commit_deassignment(ctx.get("user"), ctx.get("role"))

    def else_deny(ctx: RuleContext) -> None:
        user, role = ctx.get("user"), ctx.get("role")
        if not model.is_user(user):
            raise UnknownUserError(str(user))
        if role not in model.roles:
            raise UnknownRoleError(str(role))
        raise AdministrationError(
            f"user {user!r} is not assigned to role {role!r}")

    return OWTERule(
        name=name, event="deassignUser",
        conditions=conditions,
        actions=[Action("deassignUser(user, role)", commit)],
        alt_actions=[Action('raise error "Cannot Deassign"', else_deny)],
        classification=RuleClass.ADMINISTRATIVE,
        granularity=Granularity.GLOBALIZED,
        tags={"scope": "global", "kind": "assignment"},
    )


def build_check_access_rule(engine: "ActiveRBACEngine") -> OWTERule:
    """CA_1 (paper Rule 5), extended with context and privacy checks."""
    name = "CA.checkAccess"
    model = engine.model
    conditions = [
        Condition("sessionId IN sessionL",
                  lambda ctx: model.is_session(ctx.get("sessionId"))),
        Condition("user NOT locked",
                  lambda ctx: not engine.is_user_locked(ctx.get("user"))),
        Condition("operation IN opsL",
                  lambda ctx: ctx.get("operation") in model.operations),
        Condition("object IN objL",
                  lambda ctx: ctx.get("object") in model.objects),
        Condition("ForANY role IN getSessionRoles(sessionId): "
                  "checkPermissions(operation, object, role, scope) "
                  "IS TRUE",
                  # ctx.get("scope") is None on flat events, so the
                  # pre-scope behavior is unchanged byte for byte
                  lambda ctx: engine.access_roles_ok(
                      ctx.get("sessionId"), ctx.get("operation"),
                      ctx.get("object"), ctx.get("scope"))),
        Condition("objectPolicy(object, operation, purpose) IS TRUE",
                  lambda ctx: engine.privacy_ok(
                      ctx.get("object"), ctx.get("operation"),
                      ctx.get("purpose"))[0]),
    ]

    # the THEN/ELSE bodies live in engine.commit_access, which the
    # kernel path commits through as well
    def allow(ctx: RuleContext) -> None:
        engine.grant_decision(name)
        obj, operation = ctx.get("object"), ctx.get("operation")
        _allowed, obligations = engine.privacy_ok(obj, operation,
                                                  ctx.get("purpose"))
        engine.commit_access(True, ctx.get("sessionId"), ctx.get("user"),
                             operation, obj, ctx.get("scope"), name,
                             obligations)

    def else_deny(ctx: RuleContext) -> None:
        engine.commit_access(False, ctx.get("sessionId"), ctx.get("user"),
                             ctx.get("operation"), ctx.get("object"),
                             ctx.get("scope"), name)

    return OWTERule(
        name=name, event="checkAccess",
        conditions=conditions,
        actions=[Action("allow Access", allow)],
        alt_actions=[Action('raise error "Permission Denied"', else_deny)],
        classification=RuleClass.ACTIVITY_CONTROL,
        granularity=Granularity.GLOBALIZED,
        tags={"scope": "global", "kind": "checkAccess"},
        # the W clause is a pure function of the policy for unlocked
        # users, context-free roles and unregulated objects — exactly
        # the sub-domain PolicyKernel.evaluate answers; everything
        # else falls back here at runtime
        evaluation=EvalClass.STATIC,
    )
