"""Active security monitor: sliding-window thresholds and countermeasures.

The paper's internal-security example (§1): *when access requests by
unauthorized roles for some files are more than a certain number of
times within a duration, an internal security alert is triggered and
some critical authorization rules are disabled and the administrators
are alerted.*  And the action list (§3): generate reports and alert
administrators; deactivate a set of roles; demote certain roles'
permissions; block access requests or impose access restrictions.

A :class:`ThresholdPolicy` declares: which denial stream to count
(grouped by user, role, object or globally), the count/window pair, and
the reactions.  The :class:`ActiveSecurityMonitor` subscribes to the
engine's ``accessDenied`` / ``activationDenied`` events, maintains the
windows, and on breach raises a ``securityAlert`` event, executes the
reactions (they are ordinary rule-manager / model operations) and — when
a ``lockout_duration`` is set — schedules the automatic re-enabling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.events.occurrence import Occurrence

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import ActiveRBACEngine

#: primitive events the monitor can count
DENIAL_EVENTS = ("accessDenied", "activationDenied")

#: alert event raised on threshold breach
SECURITY_ALERT_EVENT = "securityAlert"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Alert when ``threshold`` denials occur within ``window`` seconds.

    Attributes:
        name: policy identifier, carried on alerts.
        event: which denial stream to watch (``accessDenied`` or
            ``activationDenied``).
        group_by: occurrence parameter used as the counter key (``user``,
            ``role``, ``object`` ...), or ``None`` for one global counter.
        threshold: denial count that trips the alert (>= 1).
        window: sliding window length in seconds (> 0).
        disable_rule_tags: rules whose tags match any of these dicts are
            disabled on breach ("disable critical authorization rules").
        deactivate_roles: roles force-deactivated in every session.
        lock_users: when grouping by user, lock the offending user
            (their sessions are deleted and rule ``user.locked``
            attribute set).
        lockout_duration: seconds after which disabled rules are
            re-enabled and locked users unlocked; ``None`` = permanent
            until an administrator intervenes.
    """

    name: str
    event: str = "accessDenied"
    group_by: str | None = "user"
    threshold: int = 5
    window: float = 60.0
    disable_rule_tags: tuple[tuple[tuple[str, str], ...], ...] = ()
    deactivate_roles: tuple[str, ...] = ()
    lock_users: bool = False
    lockout_duration: float | None = None

    def __post_init__(self) -> None:
        if self.event not in DENIAL_EVENTS:
            raise ValueError(
                f"threshold policy {self.name!r}: event must be one of "
                f"{DENIAL_EVENTS}, got {self.event!r}"
            )
        if self.threshold < 1:
            raise ValueError(
                f"threshold policy {self.name!r}: threshold must be >= 1"
            )
        if self.window <= 0:
            raise ValueError(
                f"threshold policy {self.name!r}: window must be positive"
            )

    @staticmethod
    def tags(*tag_dicts: dict[str, str]
             ) -> tuple[tuple[tuple[str, str], ...], ...]:
        """Helper to build the hashable ``disable_rule_tags`` shape."""
        return tuple(tuple(sorted(d.items())) for d in tag_dicts)

    def describe(self) -> str:
        group = self.group_by or "global"
        return (f"{self.name}: >= {self.threshold} {self.event} per "
                f"{group} within {self.window:g}s")


@dataclass
class SecurityAlert:
    """A recorded alert: which policy tripped, for which group, when."""

    policy: str
    group: str | None
    time: float
    count: int
    reactions: list[str] = field(default_factory=list)


class ActiveSecurityMonitor:
    """Watches denial events and executes threshold-policy reactions.

    The monitor is itself implemented *with* the event substrate: it
    subscribes to the denial primitives and raises ``securityAlert``
    events, so administrators can attach further OWTE rules to alerts —
    rules reacting to the security system reacting, exactly the paper's
    "active security" loop.
    """

    def __init__(self, engine: "ActiveRBACEngine") -> None:
        self._engine = engine
        self._policies: list[ThresholdPolicy] = []
        self._windows: dict[tuple[str, str | None], deque[float]] = {}
        self.alerts: list[SecurityAlert] = []
        self._admin_channels: list[Callable[[SecurityAlert], None]] = []
        detector = engine.detector
        detector.ensure_primitive(SECURITY_ALERT_EVENT)
        for event in DENIAL_EVENTS:
            detector.ensure_primitive(event)
            detector.subscribe(event, self._on_denial)

    # -- configuration -------------------------------------------------------

    def add_policy(self, policy: ThresholdPolicy) -> None:
        self._policies.append(policy)

    def set_policies(self, policies: list[ThresholdPolicy]) -> None:
        """Replace every policy, dropping their sliding windows."""
        self._policies = list(policies)
        self._windows.clear()

    def policies(self) -> list[ThresholdPolicy]:
        return list(self._policies)

    def notify_admins(self, channel: Callable[[SecurityAlert], None]) -> None:
        """Register an administrator alert channel (paper: "alert the
        administrators")."""
        self._admin_channels.append(channel)

    # -- counting --------------------------------------------------------------

    def _on_denial(self, occurrence: Occurrence) -> None:
        now = self._engine.clock.now
        for policy in self._policies:
            if policy.event != occurrence.event:
                continue
            group = (None if policy.group_by is None
                     else occurrence.get(policy.group_by))
            key = (policy.name, group)
            window = self._windows.setdefault(key, deque())
            window.append(now)
            cutoff = now - policy.window
            while window and window[0] <= cutoff:
                window.popleft()
            if len(window) >= policy.threshold:
                window.clear()  # re-arm: one alert per breach episode
                self._trigger(policy, group, now)

    def window_count(self, policy_name: str, group: str | None) -> int:
        """Current in-window denial count (for tests and reports)."""
        return len(self._windows.get((policy_name, group), ()))

    # -- reactions ----------------------------------------------------------------

    def _trigger(self, policy: ThresholdPolicy, group: str | None,
                 now: float) -> None:
        alert = SecurityAlert(policy.name, group, now,
                              count=policy.threshold)
        engine = self._engine

        for frozen_tags in policy.disable_rule_tags:
            tags = dict(frozen_tags)
            changed = engine.rules.set_enabled_by_tags(False, **tags)
            alert.reactions.append(f"disabled {changed} rule(s) {tags}")
            if policy.lockout_duration is not None and changed:
                engine.timers.schedule_after(
                    policy.lockout_duration,
                    lambda t=tags: engine.rules.set_enabled_by_tags(
                        True, **t),
                )

        for role in policy.deactivate_roles:
            dropped = engine.force_deactivate_role(role)
            alert.reactions.append(
                f"deactivated role {role!r} in {dropped} session(s)")

        if policy.lock_users and policy.group_by == "user" and group:
            engine.lock_user(str(group))
            alert.reactions.append(f"locked user {group!r}")
            if policy.lockout_duration is not None:
                engine.timers.schedule_after(
                    policy.lockout_duration,
                    lambda u=str(group): engine.unlock_user(u),
                )

        self.alerts.append(alert)
        engine.audit.record(
            "security.alert", policy=policy.name, group=group,
            reactions=list(alert.reactions),
        )
        for channel in self._admin_channels:
            channel(alert)
        # Raise the alert as an event so further OWTE rules can react.
        engine.detector.raise_event(
            SECURITY_ALERT_EVENT, policy=policy.name, group=group,
        )
