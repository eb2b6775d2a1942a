"""Composite (complex) event operator nodes — the Snoop algebra.

The detector keeps one node per defined event; composite nodes subscribe
to their children and produce their own occurrences when the operator's
semantics are satisfied (paper §3, "Complex Events").  Implemented
operators, with the access-control reading the paper gives each:

=============  ===========================================================
OR(E1, E2)     either event — e.g. "role disabled by either path" (Rule 6)
AND(E1, E2)    both, any order
SEQUENCE       E1 strictly before E2 — prerequisite roles
NOT(E1,E2,E3)  E2 did *not* occur between E1 and E3
PLUS(E1, d)    d seconds after each E1 — forced file close (Rule 2),
               per-user-role activation duration (Rule 7)
APERIODIC      each E2 inside an [E1, E3) window — transaction-based
               activation (Rule 9)
APERIODIC*     all E2s inside the window, folded into one detection at E3
PERIODIC       a tick every tau seconds inside [E1, E3) — periodic
               monitoring/report generation
PERIODIC*      accumulated ticks, one detection at E3
ABSOLUTE       a calendar expression instant — 10:00:00/*/*/* (Rule 6)
=============  ===========================================================

Binary operators honour the Snoop parameter contexts via
:class:`~repro.events.consumption.InitiatorBuffer`.  Temporal operators
(PLUS, PERIODIC, ABSOLUTE) schedule on the detector's
:class:`~repro.clock.TimerService`, so they are exact and deterministic
under the virtual clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.events.calendar import CalendarExpression
from repro.events.consumption import ConsumptionMode, InitiatorBuffer
from repro.events.occurrence import Occurrence, compose, from_wire, to_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.events.detector import EventDetector


class EventNode:
    """Base class for every node in the event graph.

    A node knows its name, its detector, and the (parent, input-slot)
    pairs subscribed to it.  ``emit`` hands a fresh occurrence to the
    detector, which fans it out to rule listeners and parent operators.
    """

    #: True only on PrimitiveEventNode — read by the detector's dispatch
    #: to fold raise-counting into the single per-dispatch obs hook.
    is_primitive = False

    #: per-node cache of bound metric children, set lazily by
    #: ObsHub.bind_node on first dispatch (None until then)
    obs_pair = None

    def __init__(self, detector: "EventDetector", name: str) -> None:
        self.detector = detector
        self.name = name
        self.parents: list[tuple["OperatorNode", int]] = []
        self.enabled = True

    def attach_parent(self, parent: "OperatorNode", slot: int) -> None:
        self.parents.append((parent, slot))

    def emit(self, occurrence: Occurrence) -> None:
        if self.enabled:
            self.detector.dispatch(self, occurrence)

    def children(self) -> tuple["EventNode", ...]:
        """Child nodes (empty for primitives)."""
        return ()

    def reset(self) -> None:
        """Discard buffered partial detections (windows, initiators).

        For self-scheduling nodes (ABSOLUTE) this re-arms the next
        firing; use :meth:`detach` when removing the node for good.
        """

    def detach(self) -> None:
        """Tear the node down permanently: like :meth:`reset` but any
        self-scheduled timers stay cancelled (used by undefine)."""
        self.enabled = False
        self.reset()

    def snapshot_state(self) -> dict | None:
        """JSON-serialisable partial-detection state, or None when the
        node holds none (persistence captures non-None states so a
        restored engine resumes in-flight composite detections)."""
        return None

    def restore_state(self, data: dict) -> None:
        """Rebuild buffered partial detections from
        :meth:`snapshot_state` output (timers are re-armed against the
        detector's current clock)."""

    def describe(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PrimitiveEventNode(EventNode):
    """A primitive (simple) event, raised explicitly by the application.

    These model Sentinel's method-invocation events — ``user ->
    F(PA1, ..., PAn)`` in the paper's notation — as well as any other
    domain-specific occurrence of interest.
    """

    is_primitive = True

    def signal(self, params: dict) -> Occurrence:
        stamp = self.detector.clock.stamp()
        occurrence = Occurrence(self.name, stamp, stamp, dict(params))
        self.emit(occurrence)
        return occurrence


class OperatorNode(EventNode):
    """Base for composite operators: wires itself under its children."""

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, ...],
                 mode: ConsumptionMode = ConsumptionMode.RECENT) -> None:
        super().__init__(detector, name)
        self._children = children
        self.mode = mode
        for slot, child in enumerate(children):
            child.attach_parent(self, slot)

    def children(self) -> tuple[EventNode, ...]:
        return self._children

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        raise NotImplementedError

class OrNode(OperatorNode):
    """OR(E1, E2, ...): fires on every occurrence of any child."""

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        self.emit(compose(self.name, (occurrence,), occurrence.end))


class AndNode(OperatorNode):
    """AND(E1, E2): fires once both children have occurred, in any order.

    The arriving occurrence acts as the terminator: it pairs with buffered
    occurrences of the *other* side per the consumption mode.  If nothing
    pairs, it is buffered as an initiator itself.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode],
                 mode: ConsumptionMode = ConsumptionMode.RECENT) -> None:
        super().__init__(detector, name, children, mode)
        self._buffers = (InitiatorBuffer(mode), InitiatorBuffer(mode))

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        other = self._buffers[1 - slot]
        groups = other.take_matches()
        if not groups:
            self._buffers[slot].add(occurrence)
            return
        for group in groups:
            constituents = tuple(sorted((*group, occurrence),
                                        key=lambda o: o.end))
            self.emit(compose(self.name, constituents, occurrence.end))
        if self.mode is ConsumptionMode.UNRESTRICTED:
            # Nothing is ever consumed in the unrestricted context, so the
            # terminator is also retained for future pairings.
            self._buffers[slot].add(occurrence)

    def reset(self) -> None:
        for buffer in self._buffers:
            buffer.clear()

    def snapshot_state(self) -> dict | None:
        if not any(len(b) for b in self._buffers):
            return None
        return {"buffers": [[to_wire(o) for o in b.peek_all()]
                            for b in self._buffers]}

    def restore_state(self, data: dict) -> None:
        for buffer, wires in zip(self._buffers, data.get("buffers", ())):
            buffer.restore(from_wire(w) for w in wires)


class SequenceNode(OperatorNode):
    """SEQUENCE(E1, E2): E1 must end strictly before E2 starts.

    E1 is the initiator, E2 the terminator (SnoopIB interval order).  The
    paper's prerequisite-role constraint — *a user should be active in
    role A to activate role B* — is this operator.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode],
                 mode: ConsumptionMode = ConsumptionMode.RECENT) -> None:
        super().__init__(detector, name, children, mode)
        self._initiators = InitiatorBuffer(mode)

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        if slot == 0:
            self._initiators.add(occurrence)
            return
        groups = self._initiators.take_matches(
            eligible=lambda occ: occ.end < occurrence.start
        )
        for group in groups:
            constituents = (*group, occurrence)
            self.emit(compose(self.name, constituents, occurrence.end))

    def reset(self) -> None:
        self._initiators.clear()

    def snapshot_state(self) -> dict | None:
        if not len(self._initiators):
            return None
        return {"initiators": [to_wire(o)
                               for o in self._initiators.peek_all()]}

    def restore_state(self, data: dict) -> None:
        self._initiators.restore(from_wire(w)
                                 for w in data.get("initiators", ()))


class NotNode(OperatorNode):
    """NOT(E1, E2, E3): E3 after E1 with no intervening E2.

    E1 opens a window; any E2 contaminates every open window; E3 detects
    against the uncontaminated windows per the consumption mode.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode, EventNode],
                 mode: ConsumptionMode = ConsumptionMode.RECENT) -> None:
        super().__init__(detector, name, children, mode)
        self._initiators = InitiatorBuffer(mode)
        self._contaminated: set[int] = set()

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        if slot == 0:  # E1 opens a clean window
            self._initiators.add(occurrence)
            # RECENT mode dropped older windows; prune stale marks.
            live = {id(occ) for occ in self._initiators.peek_all()}
            self._contaminated &= live
            return
        if slot == 1:  # E2 contaminates every open window
            for open_occ in self._initiators.peek_all():
                self._contaminated.add(id(open_occ))
            return
        # slot == 2: E3 terminates
        groups = self._initiators.take_matches(
            eligible=lambda occ: (occ.end < occurrence.start
                                  and id(occ) not in self._contaminated)
        )
        for group in groups:
            constituents = (*group, occurrence)
            self.emit(compose(self.name, constituents, occurrence.end))

    def reset(self) -> None:
        self._initiators.clear()
        self._contaminated.clear()

    def snapshot_state(self) -> dict | None:
        open_windows = self._initiators.peek_all()
        if not open_windows:
            return None
        # contamination marks are object identities; persist them as a
        # parallel boolean list and rebuild against the restored objects
        return {"initiators": [to_wire(o) for o in open_windows],
                "contaminated": [id(o) in self._contaminated
                                 for o in open_windows]}

    def restore_state(self, data: dict) -> None:
        restored = [from_wire(w) for w in data.get("initiators", ())]
        self._initiators.restore(restored)
        self._contaminated = {
            id(occ) for occ, dirty in zip(restored,
                                          data.get("contaminated", ()))
            if dirty
        }


class AperiodicNode(OperatorNode):
    """APERIODIC(E1, E2, E3): each E2 inside an open [E1, E3) window fires.

    Windows are *not* consumed by detections — only E3 closes them — so a
    single window can detect many E2s (paper Rule 9: every JuniorEmp
    activation while the Manager window is open).  The consumption mode
    decides which open windows an E2 pairs with when several are open:
    RECENT -> newest, CHRONICLE -> oldest, others -> all.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode, EventNode],
                 mode: ConsumptionMode = ConsumptionMode.RECENT) -> None:
        super().__init__(detector, name, children, mode)
        self._open: list[Occurrence] = []

    @property
    def window_open(self) -> bool:
        return bool(self._open)

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        if slot == 0:  # E1 opens
            if self.mode is ConsumptionMode.RECENT:
                self._open.clear()
            self._open.append(occurrence)
            return
        if slot == 2:  # E3 closes every window
            self._open.clear()
            return
        # slot == 1: E2 occurred — detect against open windows
        if not self._open:
            return
        if self.mode is ConsumptionMode.RECENT:
            openers = [self._open[-1]]
        elif self.mode is ConsumptionMode.CHRONICLE:
            openers = [self._open[0]]
        else:
            openers = list(self._open)
        for opener in openers:
            constituents = (opener, occurrence)
            self.emit(compose(self.name, constituents, occurrence.end))

    def reset(self) -> None:
        self._open.clear()

    def snapshot_state(self) -> dict | None:
        if not self._open:
            return None
        return {"open": [to_wire(o) for o in self._open]}

    def restore_state(self, data: dict) -> None:
        self._open = [from_wire(w) for w in data.get("open", ())]


class AperiodicStarNode(OperatorNode):
    """A*(E1, E2, E3): accumulate E2s in the window; one detection at E3.

    The detection's constituents are (opener, e2..., closer).  A window
    with zero E2s still detects at E3 (the cumulative fold is empty), which
    lets rules distinguish "window ended with no activity".
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode, EventNode],
                 mode: ConsumptionMode = ConsumptionMode.CUMULATIVE) -> None:
        super().__init__(detector, name, children, mode)
        self._opener: Occurrence | None = None
        self._accumulated: list[Occurrence] = []

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        if slot == 0:
            self._opener = occurrence
            self._accumulated = []
            return
        if self._opener is None:
            return
        if slot == 1:
            self._accumulated.append(occurrence)
            return
        # slot == 2: fold and close
        constituents = (self._opener, *self._accumulated, occurrence)
        self.emit(compose(self.name, constituents, occurrence.end))
        self._opener = None
        self._accumulated = []

    def reset(self) -> None:
        self._opener = None
        self._accumulated = []

    def snapshot_state(self) -> dict | None:
        if self._opener is None:
            return None
        return {"opener": to_wire(self._opener),
                "accumulated": [to_wire(o) for o in self._accumulated]}

    def restore_state(self, data: dict) -> None:
        self._opener = from_wire(data["opener"])
        self._accumulated = [from_wire(w)
                             for w in data.get("accumulated", ())]


class PeriodicNode(OperatorNode):
    """PERIODIC(E1, tau, E3): fire every ``tau`` seconds inside [E1, E3).

    The paper's example: *periodically monitor the underlying system and
    generate reports*.  Each tick's occurrence carries ``tick`` (1-based)
    and inherits the opener's parameters.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode],
                 period: float) -> None:
        if period <= 0:
            raise ValueError(f"PERIODIC period must be positive, got {period}")
        super().__init__(detector, name, children)
        self.period = float(period)
        self._opener: Occurrence | None = None
        self._timer_id: int | None = None
        self._next_fire: float | None = None
        self._tick = 0

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        if slot == 0:
            if self._opener is None:  # first opener wins; E3 must close it
                self._opener = occurrence
                self._tick = 0
                self._arm()
            return
        # slot == 1: E3 closes
        self._disarm()
        self._opener = None

    def _arm(self) -> None:
        self._arm_at(self.detector.clock.now + self.period)

    def _arm_at(self, deadline: float) -> None:
        self._next_fire = deadline
        self._timer_id = self.detector.timers.schedule_at(
            deadline, self._fire
        )

    def _disarm(self) -> None:
        if self._timer_id is not None:
            self.detector.timers.cancel(self._timer_id)
            self._timer_id = None
            self._next_fire = None

    def _fire(self) -> None:
        if self._opener is None:
            return
        self._tick += 1
        stamp = self.detector.clock.stamp()
        params = dict(self._opener.params)
        params["tick"] = self._tick
        self.emit(Occurrence(self.name, self._opener.start, stamp, params,
                             constituents=(self._opener,)))
        self._arm()

    def reset(self) -> None:
        self._disarm()
        self._opener = None
        self._tick = 0

    def snapshot_state(self) -> dict | None:
        if self._opener is None:
            return None
        return {"opener": to_wire(self._opener), "tick": self._tick,
                "next_fire": self._next_fire}

    def restore_state(self, data: dict) -> None:
        self._disarm()
        self._opener = from_wire(data["opener"])
        self._tick = int(data.get("tick", 0))
        next_fire = data.get("next_fire")
        if next_fire is not None:
            # a tick owed from before the restart fires on the next
            # clock advance; subsequent ticks resume the cadence
            self._arm_at(float(next_fire))


class PeriodicStarNode(OperatorNode):
    """P*(E1, tau, E3): count ticks silently; one detection at E3.

    The closing detection carries ``ticks`` — how many periods elapsed —
    alongside the opener's parameters.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode, EventNode],
                 period: float) -> None:
        if period <= 0:
            raise ValueError(f"PERIODIC* period must be positive, got {period}")
        super().__init__(detector, name, children)
        self.period = float(period)
        self._opener: Occurrence | None = None
        self._opened_at: float = 0.0

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        if slot == 0:
            if self._opener is None:
                self._opener = occurrence
                self._opened_at = self.detector.clock.now
            return
        if self._opener is None:
            return
        elapsed = self.detector.clock.now - self._opened_at
        params = dict(self._opener.params)
        params["ticks"] = int(elapsed // self.period)
        self.emit(Occurrence(self.name, self._opener.start, occurrence.end,
                             params, constituents=(self._opener, occurrence)))
        self._opener = None

    def reset(self) -> None:
        self._opener = None

    def snapshot_state(self) -> dict | None:
        if self._opener is None:
            return None
        return {"opener": to_wire(self._opener),
                "opened_at": self._opened_at}

    def restore_state(self, data: dict) -> None:
        self._opener = from_wire(data["opener"])
        self._opened_at = float(data.get("opened_at", 0.0))


class PlusNode(OperatorNode):
    """PLUS(E1, delta): fires ``delta`` seconds after each E1 occurrence.

    The detection inherits E1's parameters, so a rule like the paper's
    Rule 2 (*close patient.dat two hours after Bob opened it*) sees which
    file/session started the countdown.  Each E1 occurrence arms its own
    timer; overlapping countdowns are independent.
    """

    def __init__(self, detector: "EventDetector", name: str,
                 children: tuple[EventNode], delta: float) -> None:
        if delta < 0:
            raise ValueError(f"PLUS delta must be non-negative, got {delta}")
        super().__init__(detector, name, children)
        self.delta = float(delta)
        #: timer id -> (initiating occurrence, absolute fire deadline);
        #: the deadline is kept so persistence can re-arm the remaining
        #: countdowns after a restore
        self._pending: dict[int, tuple[Occurrence, float]] = {}

    def on_child(self, slot: int, occurrence: Occurrence) -> None:
        self._arm(occurrence, self.detector.clock.now + self.delta)

    def _arm(self, occurrence: Occurrence, deadline: float) -> None:
        timer_box: list[int] = []

        def fire() -> None:
            self._pending.pop(timer_box[0], None)
            stamp = self.detector.clock.stamp()
            self.emit(Occurrence(self.name, occurrence.start, stamp,
                                 dict(occurrence.params),
                                 constituents=(occurrence,)))

        timer_id = self.detector.timers.schedule_at(deadline, fire)
        timer_box.append(timer_id)
        self._pending[timer_id] = (occurrence, deadline)

    def cancel_pending(self) -> int:
        """Cancel every armed countdown (e.g. role deactivated early)."""
        cancelled = 0
        for timer_id in list(self._pending):
            if self.detector.timers.cancel(timer_id):
                cancelled += 1
        self._pending.clear()
        return cancelled

    def reset(self) -> None:
        self.cancel_pending()

    def snapshot_state(self) -> dict | None:
        if not self._pending:
            return None
        return {"pending": [
            {"occurrence": to_wire(occ), "deadline": deadline}
            for occ, deadline in self._pending.values()
        ]}

    def restore_state(self, data: dict) -> None:
        # countdowns that expired while the engine was down fire on the
        # next clock advance (schedule_at accepts past deadlines)
        for entry in data.get("pending", ()):
            self._arm(from_wire(entry["occurrence"]),
                      float(entry["deadline"]))


class AbsoluteNode(EventNode):
    """An absolute temporal event: fires at calendar-expression instants.

    ``[10:00:00/*/*/*]`` (paper Rule 6) becomes an AbsoluteNode that
    re-arms itself after every firing.  Occurrence parameters carry the
    matched ``instant`` (simulated seconds).
    """

    def __init__(self, detector: "EventDetector", name: str,
                 expression: CalendarExpression) -> None:
        super().__init__(detector, name)
        self.expression = expression
        self._timer_id: int | None = None
        self._arm()

    def _arm(self) -> None:
        if not self.enabled:
            self._timer_id = None
            return
        next_at = self.expression.next_after(self.detector.clock.now)
        if next_at is None:
            self._timer_id = None
            return
        self._timer_id = self.detector.timers.schedule_at(next_at, self._fire)

    def _fire(self) -> None:
        stamp = self.detector.clock.stamp()
        self.emit(Occurrence(self.name, stamp, stamp,
                             {"instant": stamp.seconds,
                              "expression": str(self.expression)}))
        self._arm()

    def reset(self) -> None:
        if self._timer_id is not None:
            self.detector.timers.cancel(self._timer_id)
        self._arm()

    def describe(self) -> str:
        return f"Absolute({self.name}, {self.expression})"


#: Factory table used by the detector's generic ``define_composite``.
OPERATOR_FACTORIES: dict[str, Callable] = {
    "OR": OrNode,
    "AND": AndNode,
    "SEQUENCE": SequenceNode,
    "SEQ": SequenceNode,
    "NOT": NotNode,
    "APERIODIC": AperiodicNode,
    "APERIODIC_STAR": AperiodicStarNode,
}
