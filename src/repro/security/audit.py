"""Audit log: the append-only trail behind active security and review.

Every enforcement decision (allow/deny), administrative change, rule
firing and security alert is recorded here with the simulated timestamp.
The monitor (:mod:`repro.security.monitor`) reads nothing from it — it
keeps its own sliding windows — but report generation ("generate reports
and alert administrators", paper §3) and the tests' assertions do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.clock import VirtualClock


@dataclass(frozen=True)
class AuditEntry:
    """One audit record.

    ``kind`` is a dotted category: ``decision.allow``, ``decision.deny``,
    ``admin.assign_user``, ``rule.then``, ``rule.else``,
    ``security.alert``, ``obligation.owed``, ...
    """

    time: float
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[t={self.time:g}] {self.kind}: {parts}"


class AuditLog:
    """Bounded append-only log of :class:`AuditEntry` records.

    ``capacity`` bounds memory on long simulations; the oldest entries
    are dropped first, in O(1) per record (a ring, so a log at capacity
    costs no more per record than an empty one).  ``observers`` receive
    every entry as it is recorded (the security monitor's report
    generator hooks here).
    """

    def __init__(self, clock: VirtualClock, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("audit capacity must be positive")
        self._clock = clock
        self._capacity = capacity
        self._entries: deque[AuditEntry] = deque(maxlen=capacity)
        self._dropped = 0
        self._observers: list[Callable[[AuditEntry], None]] = []
        self._kind_counts: dict[str, int] = {}
        #: observer callbacks that raised — a broken report shipper
        #: must never turn an audited operation into a failed one
        self.observer_faults = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(self._entries)

    @property
    def dropped(self) -> int:
        """How many old entries were evicted due to the capacity bound."""
        return self._dropped

    def observe(self, observer: Callable[[AuditEntry], None]) -> None:
        self._observers.append(observer)

    def record(self, kind: str, **detail: Any) -> AuditEntry:
        entry = AuditEntry(self._clock.now, kind, detail)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        entries = self._entries
        if len(entries) == self._capacity:
            self._dropped += 1  # the append evicts the oldest entry
        entries.append(entry)
        for observer in self._observers:
            try:
                observer(entry)
            except Exception:  # noqa: BLE001 — containment boundary
                self.observer_faults += 1
        return entry

    # -- queries -----------------------------------------------------------------

    def tail(self, count: int = 20) -> list[AuditEntry]:
        return list(self._entries)[-count:]

    def by_kind(self, prefix: str) -> list[AuditEntry]:
        """Entries whose kind equals or starts with ``prefix`` (dotted)."""
        return [
            e for e in self._entries
            if e.kind == prefix or e.kind.startswith(prefix + ".")
        ]

    def matching(self, **detail: Any) -> list[AuditEntry]:
        """Entries whose detail contains every given key/value."""
        return [
            e for e in self._entries
            if all(e.detail.get(k) == v for k, v in detail.items())
        ]

    def since(self, time: float) -> list[AuditEntry]:
        return [e for e in self._entries if e.time >= time]

    def counts_by_kind(self) -> dict[str, int]:
        """Records ever made per kind, maintained incrementally — unlike
        the entry list, counts are NOT decremented when the capacity
        bound evicts old entries (the ``repro_audit_records_total``
        metric reads this at collect time)."""
        return dict(self._kind_counts)

    def report(self, since: float = 0.0) -> str:
        """A human-readable activity report (the paper's "generate
        reports" action renders one of these)."""
        entries = self.since(since)
        lines = [f"audit report: {len(entries)} entr(ies) since t={since:g}"]
        counts: dict[str, int] = {}
        for entry in entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        for kind in sorted(counts):
            lines.append(f"  {kind}: {counts[kind]}")
        return "\n".join(lines)
