"""Exception hierarchy for the repro access-control system.

Every error raised by the public API derives from :class:`ReproError`, so a
caller can catch one base class.  The hierarchy mirrors the subsystems:
RBAC administration, session/runtime enforcement, event algebra, the policy
DSL, and rule synthesis.

The paper's ELSE clauses "raise error ..." (e.g. Rule 1: *insufficient
privileges*, Rule 3: *Access Denied Cannot Activate*).  Those surface here
as :class:`AccessDenied` subclasses carrying the rule name that denied the
request, so callers and the audit log can attribute every denial to the
OWTE rule that produced it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# RBAC administration errors (ANSI INCITS 359-2004 administrative commands)
# ---------------------------------------------------------------------------

class AdministrationError(ReproError):
    """Invalid administrative command (bad arguments or model violation)."""


class UnknownUserError(AdministrationError):
    """Referenced user does not exist in the model."""

    def __init__(self, user: str) -> None:
        super().__init__(f"unknown user: {user!r}")
        self.user = user


class UnknownRoleError(AdministrationError):
    """Referenced role does not exist in the model."""

    def __init__(self, role: str) -> None:
        super().__init__(f"unknown role: {role!r}")
        self.role = role


class UnknownPermissionError(AdministrationError):
    """Referenced permission (operation, object) does not exist."""

    def __init__(self, permission: object) -> None:
        super().__init__(f"unknown permission: {permission!r}")
        self.permission = permission


class UnknownSessionError(AdministrationError):
    """Referenced session identifier does not exist."""

    def __init__(self, session_id: str) -> None:
        super().__init__(f"unknown session: {session_id!r}")
        self.session_id = session_id


class DuplicateEntityError(AdministrationError):
    """Attempt to create a user/role/permission/session that already exists."""


class HierarchyError(AdministrationError):
    """Role-hierarchy modification would break the partial order."""


class HierarchyCycleError(HierarchyError):
    """Adding the inheritance edge would create a cycle."""

    def __init__(self, senior: str, junior: str) -> None:
        super().__init__(
            f"inheritance {senior!r} -> {junior!r} would create a cycle"
        )
        self.senior = senior
        self.junior = junior


class LimitedHierarchyError(HierarchyError):
    """Edge violates the limited-hierarchy (single immediate descendant) rule."""


class SoDError(AdministrationError):
    """Separation-of-duty constraint definition or update is invalid."""


class SsdViolationError(SoDError):
    """Assignment (or SSD-set creation) violates a static SoD constraint."""

    def __init__(self, message: str, constraint: str = "",
                 user: str = "", roles: frozenset[str] = frozenset()) -> None:
        super().__init__(message)
        self.constraint = constraint
        self.user = user
        self.roles = roles


# ---------------------------------------------------------------------------
# Runtime enforcement errors (raised from OWTE rule ELSE branches)
# ---------------------------------------------------------------------------

class AccessDenied(ReproError):
    """A request was denied by an authorization rule's ELSE branch.

    ``rule`` names the OWTE rule whose condition evaluation failed; it is
    empty when the denial came from the direct (baseline) engine.
    ``path`` names the serving path that decided: a denial raised while
    committing a kernel verdict is re-tagged ``"kernel"``.
    """

    path = "interpreted"

    def __init__(self, message: str, rule: str = "") -> None:
        super().__init__(message)
        self.rule = rule


class ActivationDenied(AccessDenied):
    """Role activation refused ("Access Denied Cannot Activate")."""


class DeactivationDenied(AccessDenied):
    """Role deactivation refused (e.g. time-based SoD on disabling)."""


class OperationDenied(AccessDenied):
    """checkAccess refused ("Permission Denied" / "insufficient privileges")."""


class DsdViolationError(ActivationDenied):
    """Activation would exceed a dynamic SoD constraint's cardinality."""


class CardinalityExceeded(ActivationDenied):
    """Cardinality constraint hit ("Maximum Number of Roles Reached")."""


class RoleNotEnabledError(ActivationDenied):
    """GTRBAC: the role is not enabled in the current periodic interval."""


class PrerequisiteNotMetError(ActivationDenied):
    """A prerequisite-role or transaction-based activation constraint failed."""


class SecurityLockout(AccessDenied):
    """Active security disabled the rule/resource after repeated violations."""


class RuleExecutionError(AccessDenied):
    """A rule's W/T/E clause raised an *unexpected* (non-ReproError)
    exception and the failure policy is fail-closed for that rule.

    Enforcement must stay sound under arbitrary runtime faults: a broken
    clause can never be allowed to look like a grant, so the rule
    manager wraps the raw exception in this typed deny.  ``original``
    is the wrapped exception (also chained via ``__cause__``) and
    ``clause`` names the OWTE clause that faulted (``when`` / ``then``
    / ``else``).
    """

    def __init__(self, message: str, rule: str = "", clause: str = "",
                 original: BaseException | None = None) -> None:
        super().__init__(message, rule)
        self.clause = clause
        self.original = original


class DeadlineExceeded(AccessDenied):
    """An access check blew its deadline budget and is denied.

    Raised either mid-pipeline (before the next rule fires) or by
    ``require_access`` after dispatch — a check that stalled past its
    budget is denied even if some rule granted it, so a pathological
    condition cannot stall the pipeline into an unbounded grant.
    ``reason`` says which budget tripped (``virtual`` or ``wall``).
    """

    def __init__(self, message: str, rule: str = "",
                 reason: str = "") -> None:
        super().__init__(message, rule)
        self.reason = reason


# ---------------------------------------------------------------------------
# Infrastructure / transient faults
# ---------------------------------------------------------------------------

class TransientError(ReproError):
    """A retryable infrastructure fault (I/O hiccup, unreachable domain).

    Raised by persistence and federation transports to signal that the
    operation may succeed if retried; :func:`repro.containment.retry_transient`
    catches it (and ``OSError``) with bounded backoff.
    """


class RetryExhausted(ReproError):
    """A bounded retry loop used up every attempt.

    ``last`` is the final attempt's exception (also chained via
    ``__cause__``); ``attempts`` is how many were made.
    """

    def __init__(self, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"operation failed after {attempts} attempt(s): "
            f"{type(last).__name__}: {last}")
        self.attempts = attempts
        self.last = last


# ---------------------------------------------------------------------------
# Event algebra errors
# ---------------------------------------------------------------------------

class EventError(ReproError):
    """Invalid event definition or detector misuse."""


class UnknownEventError(EventError):
    """Raised/subscribed event name is not registered with the detector."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown event: {name!r}")
        self.name = name


class DuplicateEventError(EventError):
    """An event with this name is already registered."""


class CalendarExpressionError(EventError):
    """Malformed calendar expression (expected ``hh:mm:ss/mm/dd/yyyy``)."""


# ---------------------------------------------------------------------------
# Rule subsystem errors
# ---------------------------------------------------------------------------

class RuleError(ReproError):
    """Invalid rule definition or rule-manager misuse."""


class DuplicateRuleError(RuleError):
    """A rule with this name already exists in the pool."""


class UnknownRuleError(RuleError):
    """Referenced rule name is not in the pool."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown rule: {name!r}")
        self.name = name


class RuleCascadeError(RuleError):
    """Cascaded rule triggering exceeded the configured depth limit."""


# ---------------------------------------------------------------------------
# Policy DSL / synthesis errors
# ---------------------------------------------------------------------------

class PolicyError(ReproError):
    """Base for policy specification problems."""


class PolicySyntaxError(PolicyError):
    """The policy text failed to lex/parse.

    Carries 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PolicyValidationError(PolicyError):
    """The parsed policy is inconsistent (cycles, SoD conflicts, ...).

    ``issues`` holds every problem found so administrators can fix all of
    them in one pass rather than one-at-a-time.
    """

    def __init__(self, issues: list[str]) -> None:
        super().__init__(
            "policy validation failed:\n  - " + "\n  - ".join(issues)
        )
        self.issues = list(issues)


class SynthesisError(ReproError):
    """Rule generation from a policy graph failed."""
