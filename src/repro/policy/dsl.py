"""A textual policy language (the RBAC Manager GUI substitute).

The paper's administrators specify enterprise policies by drag-n-drop in
the RBAC Manager widget toolkit; the GUI is only a front-end that builds
the access-specification graph.  This module provides an equivalent
front-end as a small declarative language parsed by a hand-written
lexer + recursive-descent parser into a
:class:`~repro.policy.spec.PolicySpec`.

Grammar (one statement per ``;``-terminated line, ``#`` comments)::

    policy <name> {
      limited_hierarchy ;
      role <name> [ max_active_users <n> ] ;
      user <name> [ max_active_roles <n> ] ;
      hierarchy A > B > C ;                       # chain of seniority
      ssd <name> roles A, B [, C...] [cardinality <n>] ;
      dsd <name> roles A, B [, C...] [cardinality <n>] ;
      permission <op> on <object> ;
      grant <op> on <object> to <role> [ in <scope> ] ;
      assign <user> to <role> [ in <scope> ] ;
      scope <name> [ under <parent> ] ;            # S-A-O-C scope tree
      federate <home_role> to <host_domain> as <host_role> ;
      prerequisite <role> requires <role> ;
      require <role> when enabling <role> ;        # post-condition CFD
      transaction <role> during <role> ;           # Rule 9
      duration <role> <seconds> [for <user>] ;     # Rule 7
      enable <role> daily <hh:mm> to <hh:mm> ;     # GTRBAC window
      disabling_sod <name> roles A, B [,...] daily <hh:mm> to <hh:mm> ;
      context <role> requires <var> <op> <value> [for access] ;
      purpose <name> [under <parent>] ;
      object_policy <op> on <object> for <purpose> [obliges <name>,...] ;
      threshold <name> event <accessDenied|activationDenied>
                [group_by <param>|global] count <n> window <seconds>
                [lock_user] [deactivate A, B] [lockout <seconds>]
                [disable [<tag> == <value>, ...]]... ;  # one per tag set
    }

Identifiers may contain letters, digits, ``_``, ``-`` and ``.``
(object names like ``patient.dat``); arbitrary text goes in double
quotes.  Example::

    policy XYZ {
      role Clerk; role PC; role PM; role AC; role AM;
      hierarchy PM > PC > Clerk;
      hierarchy AM > AC > Clerk;
      ssd PurchaseApproval roles PC, AC;
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import CalendarExpressionError, PolicySyntaxError
from repro.events.calendar import parse_time_of_day
from repro.extensions.cfd import (
    PostConditionDependency,
    PrerequisiteRole,
    TransactionActivation,
)
from repro.extensions.context import ContextConstraint, ContextOp
from repro.extensions.privacy import ObjectPolicy
from repro.gtrbac.constraints import (
    DisablingTimeSoD,
    DurationConstraint,
    EnablingWindow,
)
from repro.gtrbac.periodic import PeriodicInterval
from repro.policy.spec import PolicySpec
from repro.security.monitor import ThresholdPolicy

# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+(?:\.\d+)?(?!['\w.:]))
  | (?P<time>\d{1,2}:\d{2}(?::\d{2})?)
  | (?P<word>[A-Za-z_][\w.\-]*)
  | (?P<op>==|!=|<=|>=|[{};,><])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "string" | "number" | "time" | "word" | "op" | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise PolicySyntaxError(
                f"unexpected character {source[pos]!r}", line, column)
        kind = match.lastgroup or ""
        text = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_CONTEXT_OPS = {op.value: op for op in ContextOp}


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        #: the first copy of every name read, so the spec holds each once
        self._names: dict[str, str] = {}

    # -- token plumbing -----------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _next(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> Exception:
        token = token or self._peek()
        return PolicySyntaxError(message, token.line, token.column)

    def _expect_op(self, text: str) -> Token:
        token = self._next()
        if token.kind != "op" or token.text != text:
            raise self._error(f"expected {text!r}, got {token.text!r}",
                              token)
        return token

    def _expect_word(self, *expected: str) -> Token:
        token = self._next()
        if token.kind != "word":
            raise self._error(
                f"expected identifier, got {token.text!r}", token)
        if expected and token.text not in expected:
            raise self._error(
                f"expected one of {expected}, got {token.text!r}", token)
        return token

    def _ident(self) -> str:
        token = self._next()
        if token.kind not in ("word", "string"):
            raise self._error(f"expected a name, got {token.text!r}", token)
        text = token.text if token.kind == "word" else token.text[1:-1]
        return self._names.setdefault(text, text)

    def _tag(self) -> tuple[str, str]:
        key = self._ident()
        self._expect_op("==")
        return key, self._ident()

    def _number(self) -> float:
        token = self._next()
        if token.kind != "number":
            raise self._error(f"expected a number, got {token.text!r}",
                              token)
        return float(token.text)

    def _time(self) -> str:
        token = self._next()
        if token.kind not in ("time", "number"):
            raise self._error(
                f"expected a clock time (HH:MM), got {token.text!r}",
                token)
        return token.text

    def _at_word(self, text: str) -> bool:
        token = self._peek()
        return token.kind == "word" and token.text == text

    def _eat_word(self, text: str) -> bool:
        if self._at_word(text):
            self._next()
            return True
        return False

    def _semicolon(self) -> None:
        self._expect_op(";")

    def _name_list(self, item=None) -> list:
        read = item or self._ident
        names = [read()]
        while self._peek().kind == "op" and self._peek().text == ",":
            self._next()
            names.append(read())
        return names

    # -- grammar --------------------------------------------------------------------

    def parse(self) -> PolicySpec:
        self._expect_word("policy")
        spec = PolicySpec(name=self._ident())
        self._expect_op("{")
        while not (self._peek().kind == "op" and self._peek().text == "}"):
            if self._peek().kind == "eof":
                raise self._error("unterminated policy block: missing '}'")
            self._statement(spec)
        self._expect_op("}")
        trailing = self._peek()
        if trailing.kind != "eof":
            raise self._error(
                f"unexpected input after policy block: {trailing.text!r}",
                trailing)
        return spec

    def _statement(self, spec: PolicySpec) -> None:
        keyword = self._expect_word()
        handler = getattr(self, f"_stmt_{keyword.text}", None)
        if handler is None:
            raise self._error(
                f"unknown statement keyword {keyword.text!r}", keyword)
        try:
            handler(spec)
        except PolicySyntaxError:
            raise
        except (ValueError, CalendarExpressionError) as exc:
            # descriptor constructors validate their arguments (e.g. a
            # non-positive duration); surface those as located syntax
            # errors rather than bare ValueErrors
            raise self._error(str(exc), keyword) from exc

    # each _stmt_* consumes through the terminating ';'

    def _stmt_limited_hierarchy(self, spec: PolicySpec) -> None:
        spec.hierarchy_limited = True
        self._semicolon()

    def _declare(self, add, bound: str) -> None:
        """``<name> [<bound> <n>]``: a role or user declaration."""
        name = self._ident()
        add(name, int(self._number()) if self._eat_word(bound) else None)
        self._semicolon()

    def _stmt_role(self, spec: PolicySpec) -> None:
        self._declare(spec.add_role, "max_active_users")

    def _stmt_user(self, spec: PolicySpec) -> None:
        self._declare(spec.add_user, "max_active_roles")

    def _stmt_hierarchy(self, spec: PolicySpec) -> None:
        chain = [self._ident()]
        while self._peek().kind == "op" and self._peek().text == ">":
            self._next()
            chain.append(self._ident())
        if len(chain) < 2:
            raise self._error("hierarchy needs at least 'senior > junior'")
        for senior, junior in zip(chain, chain[1:]):
            spec.add_hierarchy(senior, junior)
        self._semicolon()

    def _sod(self, add) -> None:
        name = self._ident()
        self._expect_word("roles")
        roles = self._name_list()
        cardinality = 2
        if self._eat_word("cardinality"):
            cardinality = int(self._number())
        add(name, set(roles), cardinality)
        self._semicolon()

    def _stmt_ssd(self, spec: PolicySpec) -> None:
        self._sod(spec.add_ssd)

    def _stmt_dsd(self, spec: PolicySpec) -> None:
        self._sod(spec.add_dsd)

    def _stmt_permission(self, spec: PolicySpec) -> None:
        operation = self._ident()
        self._expect_word("on")
        spec.apply(("add_permission", operation, self._ident()))
        self._semicolon()

    def _stmt_grant(self, spec: PolicySpec) -> None:
        operation = self._ident()
        self._expect_word("on")
        obj = self._ident()
        self._expect_word("to")
        role = self._ident()
        if self._eat_word("in"):
            spec.add_scoped_grant(role, operation, obj, self._ident())
        else:
            spec.add_grant(role, operation, obj)
        self._semicolon()

    def _stmt_assign(self, spec: PolicySpec) -> None:
        user = self._ident()
        self._expect_word("to")
        role = self._ident()
        if self._eat_word("in"):
            spec.add_scoped_assignment(user, role, self._ident())
        else:
            spec.add_assignment(user, role)
        self._semicolon()

    def _under(self) -> tuple[str, str | None]:
        """``<name> [under <parent>]``: a scope or purpose declaration."""
        name = self._ident()
        return name, self._ident() if self._eat_word("under") else None

    def _stmt_scope(self, spec: PolicySpec) -> None:
        spec.add_scope(*self._under())
        self._semicolon()

    def _stmt_federate(self, spec: PolicySpec) -> None:
        home_role = self._ident()
        self._expect_word("to")
        host_domain = self._ident()
        self._expect_word("as")
        host_role = self._ident()
        spec.add_federation_map(home_role, host_domain, host_role)
        self._semicolon()

    def _pair(self, *words: str) -> tuple[str, str]:
        """``<name> <words...> <name>``: a two-role statement's names."""
        first = self._ident()
        for word in words:
            self._expect_word(word)
        return first, self._ident()

    def _stmt_prerequisite(self, spec: PolicySpec) -> None:
        spec.prerequisites.append(PrerequisiteRole(*self._pair("requires")))
        self._semicolon()

    def _stmt_require(self, spec: PolicySpec) -> None:
        required, trigger = self._pair("when", "enabling")
        spec.post_conditions.append(
            PostConditionDependency(trigger, required))
        self._semicolon()

    def _stmt_transaction(self, spec: PolicySpec) -> None:
        spec.transactions.append(TransactionActivation(*self._pair("during")))
        self._semicolon()

    def _stmt_duration(self, spec: PolicySpec) -> None:
        role = self._ident()
        delta = self._number()
        user: str | None = None
        if self._eat_word("for"):
            user = self._ident()
        spec.durations.append(DurationConstraint(role, delta, user))
        self._semicolon()

    def _daily_interval(self) -> PeriodicInterval:
        self._expect_word("daily")
        start = self._time()
        self._expect_word("to")
        end = self._time()
        days = None
        if self._eat_word("on"):
            from repro.gtrbac.periodic import parse_days
            days = parse_days(self._name_list())
        return PeriodicInterval(parse_time_of_day(start),
                                parse_time_of_day(end), days=days)

    def _stmt_enable(self, spec: PolicySpec) -> None:
        role = self._ident()
        interval = self._daily_interval()
        spec.enabling_windows.append(EnablingWindow(role, interval))
        self._semicolon()

    def _stmt_disabling_sod(self, spec: PolicySpec) -> None:
        name = self._ident()
        self._expect_word("roles")
        roles = self._name_list()
        interval = self._daily_interval()
        spec.disabling_sod.append(
            DisablingTimeSoD(name, frozenset(roles), interval))
        self._semicolon()

    def _stmt_context(self, spec: PolicySpec) -> None:
        role = self._ident()
        self._expect_word("requires")
        variable = self._ident()
        op_token = self._next()
        if op_token.text not in _CONTEXT_OPS:
            raise self._error(
                f"expected a comparison operator, got {op_token.text!r}",
                op_token)
        value_token = self._next()
        value: object
        if value_token.kind == "number":
            value = float(value_token.text)
        elif value_token.kind == "string":
            value = value_token.text[1:-1]
        elif value_token.kind == "word":
            value = value_token.text
        else:
            raise self._error(
                f"expected a value, got {value_token.text!r}", value_token)
        applies_to = "activate"
        if self._eat_word("for"):
            what = self._expect_word("access", "activation")
            applies_to = "access" if what.text == "access" else "activate"
        spec.context_constraints.append(ContextConstraint(
            role=role, variable=variable,
            op=_CONTEXT_OPS[op_token.text], value=value,
            applies_to=applies_to))
        self._semicolon()

    def _stmt_purpose(self, spec: PolicySpec) -> None:
        spec.purposes.append(self._under())
        self._semicolon()

    def _stmt_object_policy(self, spec: PolicySpec) -> None:
        operation = self._ident()
        self._expect_word("on")
        obj = self._ident()
        self._expect_word("for")
        purpose = self._ident()
        obligations: tuple[str, ...] = ()
        if self._eat_word("obliges"):
            obligations = tuple(self._name_list())
        spec.object_policies.append(
            ObjectPolicy(obj, operation, purpose, obligations))
        self._semicolon()

    def _stmt_threshold(self, spec: PolicySpec) -> None:
        name = self._ident()
        event = "accessDenied"
        group_by: str | None = "user"
        count = 5
        window = 60.0
        lock_users = False
        deactivate: tuple[str, ...] = ()
        lockout: float | None = None
        disable: list[tuple[tuple[str, str], ...]] = []
        while not (self._peek().kind == "op" and self._peek().text == ";"):
            if self._eat_word("event"):
                event = self._ident()
            elif self._eat_word("group_by"):
                value = self._ident()
                group_by = None if value == "global" else value
            elif self._eat_word("count"):
                count = int(self._number())
            elif self._eat_word("window"):
                window = self._number()
            elif self._eat_word("lock_user"):
                lock_users = True
            elif self._eat_word("deactivate"):
                deactivate = tuple(self._name_list())
            elif self._eat_word("lockout"):
                lockout = self._number()
            elif self._eat_word("disable"):
                # a bare ``disable`` is the empty tag set: every rule
                after = self._tokens[self._index + 1:self._index + 2]
                disable.append(tuple(self._name_list(self._tag)) if after
                               and after[0].text == "==" else ())
            else:
                raise self._error(
                    f"unknown threshold option {self._peek().text!r}")
        spec.threshold_policies.append(ThresholdPolicy(
            name=name, event=event, group_by=group_by, threshold=count,
            window=window, disable_rule_tags=tuple(disable),
            deactivate_roles=deactivate, lock_users=lock_users,
            lockout_duration=lockout))
        self._semicolon()


def parse_policy(source: str) -> PolicySpec:
    """Parse policy text into a :class:`~repro.policy.spec.PolicySpec`.

    Raises :class:`~repro.errors.PolicySyntaxError` with line/column on
    malformed input.  The result is *not* validated; run
    :func:`~repro.policy.validator.validate_policy` (or use
    ``ActiveRBACEngine.from_policy``) for consistency checking.
    """
    return _Parser(tokenize(source)).parse()


_BARE_WORD_RE = re.compile(r"[A-Za-z_][\w.\-]*\Z")


def _q(name: str) -> str:
    """Quote an identifier the lexer cannot read bare (e.g. scope
    paths containing ``/``)."""
    return name if _BARE_WORD_RE.fullmatch(name) else f'"{name}"'


def render_policy(spec: PolicySpec) -> str:
    """Serialize a spec back to DSL text (round-trip tested).

    Only statements the DSL can express are rendered; the output parses
    to an equivalent spec.
    """
    lines = [f"policy {spec.name} {{"]
    if spec.hierarchy_limited:
        lines.append("  limited_hierarchy;")
    for role in spec.roles.values():
        extra = (f" max_active_users {role.max_active_users}"
                 if role.max_active_users is not None else "")
        lines.append(f"  role {role.name}{extra};")
    for user in spec.users.values():
        extra = (f" max_active_roles {user.max_active_roles}"
                 if user.max_active_roles is not None else "")
        lines.append(f"  user {user.name}{extra};")
    for scope, parent in spec.scopes:
        suffix = f" under {_q(parent)}" if parent else ""
        lines.append(f"  scope {_q(scope)}{suffix};")
    for senior, junior in spec.hierarchy:
        lines.append(f"  hierarchy {senior} > {junior};")
    for kind, family in (("ssd", spec.ssd), ("dsd", spec.dsd)):
        for sod in family.values():
            roles = ", ".join(sorted(sod.roles))
            lines.append(f"  {kind} {sod.name} roles {roles} "
                         f"cardinality {sod.cardinality};")
    for operation, obj in spec.permissions:
        lines.append(f"  permission {operation} on {obj};")
    for role, operation, obj in spec.grants:
        lines.append(f"  grant {operation} on {obj} to {role};")
    for role, operation, obj, scope in spec.scoped_grants:
        lines.append(
            f"  grant {operation} on {obj} to {role} in {_q(scope)};")
    for user, role in spec.assignments:
        lines.append(f"  assign {user} to {role};")
    for user, role, scope in spec.scoped_assignments:
        lines.append(f"  assign {user} to {role} in {_q(scope)};")
    for home_role, host_domain, host_role in spec.federation_maps:
        lines.append(
            f"  federate {home_role} to {host_domain} as {host_role};")
    for pre in spec.prerequisites:
        lines.append(f"  prerequisite {pre.role} requires "
                     f"{pre.prerequisite};")
    for post in spec.post_conditions:
        lines.append(f"  require {post.required_role} when enabling "
                     f"{post.trigger_role};")
    for txn in spec.transactions:
        lines.append(f"  transaction {txn.dependent_role} during "
                     f"{txn.anchor_role};")
    for duration in spec.durations:
        suffix = f" for {duration.user}" if duration.user else ""
        lines.append(f"  duration {duration.role} "
                     f"{duration.delta:g}{suffix};")

    def tod(seconds: float) -> str:
        seconds = int(seconds)
        return f"{seconds // 3600:02d}:{(seconds % 3600) // 60:02d}"

    def days_suffix(interval) -> str:
        if interval.days is None:
            return ""
        from repro.gtrbac.periodic import DAY_NAMES
        names = ", ".join(DAY_NAMES[d] for d in sorted(interval.days))
        return f" on {names}"

    for window in spec.enabling_windows:
        lines.append(
            f"  enable {window.role} daily "
            f"{tod(window.interval.start_tod)} to "
            f"{tod(window.interval.end_tod)}"
            f"{days_suffix(window.interval)};")
    for sod in spec.disabling_sod:
        roles = ", ".join(sorted(sod.roles))
        lines.append(
            f"  disabling_sod {sod.name} roles {roles} daily "
            f"{tod(sod.interval.start_tod)} to "
            f"{tod(sod.interval.end_tod)}"
            f"{days_suffix(sod.interval)};")
    for constraint in spec.context_constraints:
        value = constraint.value
        rendered = (f'"{value}"' if isinstance(value, str) else f"{value:g}")
        suffix = " for access" if constraint.applies_to == "access" else ""
        lines.append(
            f"  context {constraint.role} requires {constraint.variable} "
            f"{constraint.op.value} {rendered}{suffix};")
    for purpose, parent in spec.purposes:
        suffix = f" under {parent}" if parent else ""
        lines.append(f"  purpose {purpose}{suffix};")
    for object_policy in spec.object_policies:
        suffix = ""
        if object_policy.obligations:
            suffix = " obliges " + ", ".join(object_policy.obligations)
        lines.append(
            f"  object_policy {object_policy.operation} on "
            f"{object_policy.obj} for {object_policy.purpose}{suffix};")
    for threshold in spec.threshold_policies:
        parts = [f"  threshold {threshold.name} event {threshold.event}"]
        parts.append("group_by " + (threshold.group_by or "global"))
        parts.append(f"count {threshold.threshold}")
        parts.append(f"window {threshold.window:g}")
        if threshold.lock_users:
            parts.append("lock_user")
        if threshold.deactivate_roles:
            parts.append("deactivate "
                         + ", ".join(threshold.deactivate_roles))
        if threshold.lockout_duration is not None:
            parts.append(f"lockout {threshold.lockout_duration:g}")
        parts.extend(("disable " + ", ".join(
            f"{_q(key)} == {_q(value)}" for key, value in tags)).rstrip()
            for tags in threshold.disable_rule_tags)
        lines.append(" ".join(parts) + ";")
    lines.append("}")
    return "\n".join(lines)
