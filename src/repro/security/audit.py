"""Audit log: the append-only trail behind active security and review.

Every enforcement decision (allow/deny), administrative change, rule
firing and security alert is recorded here with the simulated timestamp.
The monitor (:mod:`repro.security.monitor`) reads nothing from it — it
keeps its own sliding windows — but report generation ("generate reports
and alert administrators", paper §3) and the tests' assertions do.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.clock import VirtualClock


class AuditEntry(tuple):
    """One audit record.

    ``kind`` is a dotted category: ``decision.allow``, ``decision.deny``,
    ``admin.assign_user``, ``rule.then``, ``rule.else``,
    ``security.alert``, ``obligation.owed``, ...

    Immutable and slotted, like a named tuple, over one flat row
    ``(time, kind, keys, *values)``, where ``keys`` is shared by every
    record made with the same keywords.  ``detail`` rebuilds a fresh
    dict on each read, so changing it never changes the log; the values
    themselves are stored by reference.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Simulated time of the record.")
    kind = property(itemgetter(1), doc="Dotted record category.")

    @property
    def detail(self) -> dict[str, Any]:
        return dict(zip(self[2], self[3:]))

    def __repr__(self) -> str:
        return (f"AuditEntry(time={self.time!r}, kind={self.kind!r}, "
                f"detail={self.detail!r})")

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

    A full ring holds ``capacity`` records, so each is kept small.  The
    ring stores plain ``(time, kind, keys, *values)`` tuples, which the
    cyclic garbage collector stops tracking once it has seen them
    (unlike instances of a class); readers get :class:`AuditEntry`
    views of them.  Every ``str`` value is stored as the policy's own
    copy of that name when ``names`` knows it (the engine points
    ``names`` at :attr:`RBACModel.names
    <repro.rbac.model.RBACModel.names>`), and as given otherwise — the
    table grows with the policy, never with traffic.  Key tuples are
    shared through a cache bounded by the distinct keyword sets the
    program records with.
    """

    def __init__(self, clock: VirtualClock, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("audit capacity must be positive")
        self._clock = clock
        self._capacity = capacity
        self._rows: deque[tuple] = deque(maxlen=capacity)
        self._observers: list[Callable[[AuditEntry], None]] = []
        self._kind_counts: dict[str, int] = {}
        self._keysets: dict[tuple[str, ...], tuple[str, ...]] = {}
        #: name -> the copy records store (the engine's policy table)
        self.names: dict[str, str] = {}
        #: observer callbacks that raised — a broken report shipper
        #: must never turn an audited operation into a failed one
        self.observer_faults = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[AuditEntry]:
        return map(AuditEntry, self._rows)

    @property
    def capacity(self) -> int:
        """How many entries the ring retains."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """How many old entries were evicted due to the capacity bound."""
        return sum(self._kind_counts.values()) - len(self._rows)

    def observe(self, observer: Callable[[AuditEntry], None]) -> None:
        self._observers.append(observer)

    def record(self, kind: str, **detail: Any) -> AuditEntry:
        keys = tuple(detail)
        keys = self._keysets.setdefault(keys, keys)
        values = detail.values()
        try:  # one C-level pass: a value equal to a name becomes the name
            row = (self._clock.now, kind, keys,
                   *map(self.names.get, values, values))
        except TypeError:  # an unhashable value: look up the strings only
            names = self.names
            row = (self._clock.now, kind, keys, *[
                names.get(value, value) if value.__class__ is str else value
                for value in values])
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        self._rows.append(row)
        entry = AuditEntry(row)
        for observer in self._observers:
            try:
                observer(entry)
            except Exception:  # noqa: BLE001 — containment boundary
                self.observer_faults += 1
        return entry

    # -- queries -----------------------------------------------------------------

    def tail(self, count: int = 20) -> list[AuditEntry]:
        """The last ``count`` entries, oldest first (none for
        ``count <= 0``), reading only those entries."""
        if count <= 0:
            return []
        return list(map(AuditEntry, islice(reversed(self._rows), count)))[::-1]

    def by_kind(self, prefix: str) -> list[AuditEntry]:
        """Entries whose kind equals or starts with ``prefix`` (dotted)."""
        return [
            e for e in self
            if e.kind == prefix or e.kind.startswith(prefix + ".")
        ]

    def matching(self, **detail: Any) -> list[AuditEntry]:
        """Entries whose detail contains every given key/value."""
        return [
            e for e in self
            if all(e.detail.get(k) == v for k, v in detail.items())
        ]

    def since(self, time: float) -> list[AuditEntry]:
        return [e for e in self if e.time >= time]

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
