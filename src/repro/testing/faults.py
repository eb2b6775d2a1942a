"""Deterministic fault-injection harness for the rule pipeline.

Chaos testing an *authorization* system has one extra requirement over
ordinary chaos testing: failures must be reproducible, because the
property under test ("no fault yields a spurious grant") is only
auditable when the exact fault schedule can be replayed.  The
:class:`FaultInjector` therefore derives every probabilistic decision
from a per-point ``random.Random(f"{seed}:{point}")`` stream — two
injectors with the same seed fire identical schedules regardless of
how many *other* points are armed or in which order they are hit.

Fault points are plain string names.  The harness can attach them to

* rule clauses, via :meth:`FaultInjector.instrument_rule` (a probe
  condition/action prepended to the W/T/E clause);
* any callable attribute, via :meth:`FaultInjector.patch` (e.g.
  ``repro.persistence._write_payload`` or
  ``Federation._home_is_authorized``);
* arbitrary code, by calling :meth:`FaultInjector.hit` directly.

A firing point either raises (``error``) or *stalls* (``stall=N``
advances the virtual clock without firing timers — a deterministic
model of a hung clause that deadline budgets must catch), or both.

**Network chaos.**  :class:`NetFaultPlan` extends the same
determinism discipline to the service plane's transport: it assigns
each request *index* a :class:`NetFault` (connection reset, stall,
partial write, garbage frame, or none) drawn from a per-index seeded
stream, so a chaos schedule replays identically regardless of worker
count or completion order.  The plan is transport-agnostic — it only
*decides*; :class:`repro.testing.load.ChaosHttpClient` executes the
faults against a live server and the chaos-serve CI job asserts the
server survives them fail-closed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.clock import VirtualClock
from repro.errors import TransientError
from repro.rules.rule import Action, Condition, OWTERule


class SimulatedCrash(BaseException):
    """A process death injected at a kill-point.

    Deliberately a ``BaseException``: a real crash is not an error any
    layer can handle, so it must sail past both the rule manager's
    containment boundary (``except Exception``) and
    ``retry_transient`` — reaching the test harness exactly the way
    ``SIGKILL`` would, with all in-memory state abandoned mid-step.
    """


@dataclass
class FaultPoint:
    """One armed fault point and its call/fire accounting."""

    name: str
    error: Callable[[], BaseException] | None = None
    rate: float | None = None
    at: frozenset[int] = frozenset()
    stall: float = 0.0
    limit: int | None = None
    calls: int = 0
    fires: int = 0
    rng: random.Random = field(default_factory=random.Random)

    def should_fire(self) -> bool:
        self.calls += 1
        if self.limit is not None and self.fires >= self.limit:
            return False
        if self.at:
            return self.calls in self.at
        if self.rate is not None:
            return self.rng.random() < self.rate
        return True  # armed with no schedule: fire every call


class FaultInjector:
    """Seeded registry of fault points, patches and rule probes.

    Usable as a context manager; leaving the ``with`` block restores
    every patched attribute and instrumented rule::

        with FaultInjector(seed=7, clock=engine.clock) as chaos:
            chaos.arm("persistence.write", rate=0.5)
            chaos.patch(persistence, "_write_payload",
                        "persistence.write")
            ...
    """

    def __init__(self, seed: int = 0,
                 clock: VirtualClock | None = None) -> None:
        self.seed = seed
        self.clock = clock
        self._points: dict[str, FaultPoint] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._rules: list[tuple[OWTERule, str, tuple]] = []

    # -- arming --------------------------------------------------------------

    def arm(self, point: str, *,
            error: BaseException | type[BaseException] |
            Callable[[], BaseException] | None = TransientError,
            rate: float | None = None,
            at: Sequence[int] = (),
            stall: float = 0.0,
            limit: int | None = None) -> FaultPoint:
        """Arm ``point``.

        ``error`` may be an exception class, instance, factory, or
        ``None`` (stall-only point).  Exactly one scheduling mode:
        ``at`` (explicit 1-based call indices) beats ``rate``
        (per-call probability from the point's seeded stream) beats
        the default of firing on every call.  ``limit`` caps total
        fires; ``stall`` advances the injector's virtual clock by that
        many seconds on each fire (a deterministic "hang").
        """
        factory: Callable[[], BaseException] | None
        if error is None:
            factory = None
            if stall <= 0:
                raise ValueError(
                    f"point {point!r} armed with neither error nor stall")
        elif isinstance(error, BaseException):
            captured = error
            factory = lambda: captured  # noqa: E731
        elif isinstance(error, type):
            cls = error
            factory = lambda: cls(f"injected fault at {point}")  # noqa: E731
        else:
            factory = error
        spec = FaultPoint(
            name=point, error=factory, rate=rate,
            at=frozenset(at), stall=stall, limit=limit,
            rng=random.Random(f"{self.seed}:{point}"),
        )
        self._points[point] = spec
        return spec

    def disarm(self, point: str) -> None:
        self._points.pop(point, None)

    # -- firing --------------------------------------------------------------

    def hit(self, point: str) -> bool:
        """Record one pass through ``point``; stall/raise when due.

        Returns False (and costs nothing) when the point is not armed,
        so permanent probes in production-shaped code are safe.
        """
        spec = self._points.get(point)
        if spec is None or not spec.should_fire():
            return False
        spec.fires += 1
        if spec.stall > 0 and self.clock is not None:
            # a "hang": simulated time passes with no timers firing,
            # which is precisely what a deadline budget must detect
            self.clock.advance(spec.stall)
        if spec.error is not None:
            raise spec.error()
        return True

    def calls(self, point: str) -> int:
        spec = self._points.get(point)
        return spec.calls if spec else 0

    def fires(self, point: str) -> int:
        spec = self._points.get(point)
        return spec.fires if spec else 0

    # -- attachment ----------------------------------------------------------

    def patch(self, obj: Any, attr: str, point: str) -> None:
        """Wrap callable ``obj.attr`` so every call passes through
        ``point`` first (works on modules, classes and instances)."""
        original = getattr(obj, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.hit(point)
            return original(*args, **kwargs)

        self._patches.append((obj, attr, original))
        setattr(obj, attr, wrapper)

    def instrument_rule(self, rule: OWTERule, clause: str = "then",
                        point: str | None = None) -> str:
        """Prepend a fault probe to one OWTE clause of ``rule``.

        ``clause`` is ``"when"`` (a probe condition that passes through
        the point then answers TRUE), ``"then"`` or ``"else"`` (a probe
        action).  Returns the point name (default
        ``rule.<name>.<clause>``) — arm it separately with :meth:`arm`.
        """
        name = point or f"rule.{rule.name}.{clause}"
        if clause == "when":
            probe = Condition(f"chaos probe {name}",
                              lambda ctx: self.hit(name) or True)
            self._rules.append((rule, "conditions", tuple(rule.conditions)))
            rule.conditions = (probe, *rule.conditions)
        elif clause == "then":
            self._rules.append((rule, "actions", tuple(rule.actions)))
            rule.actions = (Action(f"chaos probe {name}",
                                   lambda ctx: self.hit(name)),
                            *rule.actions)
        elif clause == "else":
            self._rules.append(
                (rule, "alt_actions", tuple(rule.alt_actions)))
            rule.alt_actions = (Action(f"chaos probe {name}",
                                       lambda ctx: self.hit(name)),
                                *rule.alt_actions)
        else:
            raise ValueError(f"unknown clause {clause!r}")
        return name

    def restore(self) -> None:
        """Undo every patch and rule probe (points stay armed but are
        no longer reachable through instrumented code)."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)
        while self._rules:
            rule, attr, original = self._rules.pop()
            setattr(rule, attr, original)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        return {
            name: {"calls": spec.calls, "fires": spec.fires}
            for name, spec in sorted(self._points.items())
        }


# ---------------------------------------------------------------------------
# Network chaos: deterministic per-request transport faults
# ---------------------------------------------------------------------------

#: fault kinds a :class:`NetFaultPlan` can schedule
NET_FAULT_KINDS = ("reset", "stall", "partial", "garbage")


@dataclass(frozen=True)
class NetFault:
    """One transport fault assigned to one request index.

    ``kind`` is one of :data:`NET_FAULT_KINDS` or ``"none"``:

    * ``reset``   — abort the connection before the request is sent
      (the server sees a clean disconnect mid-keep-alive);
    * ``stall``   — hold the connection ``delay_s`` seconds before
      writing (slow-loris shaped; the server's read timeout must
      reap it, not hang on it);
    * ``partial`` — send the head claiming a body of N bytes, write
      only ``fraction`` of it, then abort (truncated body: the
      server must time the read out fail-closed, never block);
    * ``garbage`` — send a malformed frame (bad request line /
      non-numeric Content-Length); the server must answer 4xx and
      keep serving.
    """

    kind: str
    delay_s: float = 0.0
    fraction: float = 0.5


class NetFaultPlan:
    """Seeded request-index -> :class:`NetFault` schedule.

    Each index draws from ``random.Random(f"{seed}:net:{index}")``, so
    the schedule is a pure function of ``(seed, rates, index)`` —
    independent of how many workers replay it or in which order they
    finish, mirroring :class:`FaultInjector`'s per-point streams.
    ``rates`` maps fault kind -> probability; the remainder is fault-
    free.  ``counts`` tallies what was actually dealt.
    """

    def __init__(self, seed: int = 0,
                 rates: dict[str, float] | None = None,
                 stall_s: float = 0.25,
                 partial_fraction: float = 0.5) -> None:
        self.seed = seed
        self.rates = dict(rates) if rates is not None else {
            "reset": 0.05, "stall": 0.05, "partial": 0.05,
            "garbage": 0.05}
        unknown = set(self.rates) - set(NET_FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown net fault kinds {sorted(unknown)}")
        if sum(self.rates.values()) > 1.0:
            raise ValueError("net fault rates must sum to <= 1")
        self.stall_s = stall_s
        self.partial_fraction = partial_fraction
        self.counts: dict[str, int] = dict.fromkeys(
            (*NET_FAULT_KINDS, "none"), 0)

    def decide(self, index: int) -> NetFault:
        """The fault dealt to request ``index`` (deterministic)."""
        draw = random.Random(f"{self.seed}:net:{index}").random()
        edge = 0.0
        for kind in NET_FAULT_KINDS:
            edge += self.rates.get(kind, 0.0)
            if draw < edge:
                self.counts[kind] += 1
                return NetFault(kind, delay_s=self.stall_s,
                                fraction=self.partial_fraction)
        self.counts["none"] += 1
        return NetFault("none")
