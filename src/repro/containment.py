"""Fault containment primitives: failure policies and bounded retries.

The paper argues OWTE rules are a *seamless enforcement mechanism*;
enforcement is only as trustworthy as its failure behaviour.  This
module holds the policy vocabulary the rule manager enforces with:

* :class:`FailurePolicy` — decides, per rule, whether an unexpected
  clause exception becomes a typed deny (**fail closed**, the default
  for enforcement-class rules) or is contained and skipped (**fail
  open**, for advisory/active-security rules whose absence must never
  deny a legitimate request), and when repeated faults quarantine the
  rule;
* :func:`retry_transient` — bounded retry with exponential backoff for
  transient infrastructure faults (persistence writes, federation
  lookups), and :func:`retry_transient_async` — the same contract for
  coroutine callables (the service-plane load client reconnects with
  it), with optional seeded jitter so a fleet of retrying clients does
  not reconnect in lockstep;
* :func:`fsync_file` / :func:`fsync_dir` — the durability primitives
  snapshot writes and the write-ahead log build on: an ``os.replace``
  is only crash-safe once the payload is synced *before* the rename
  and the directory entry is synced *after* it.

None imports the engine, so persistence, the WAL, federation and the
rule manager can all share this vocabulary without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

from repro.errors import RetryExhausted, TransientError
from repro.rules.rule import OWTERule, RuleClass

T = TypeVar("T")

#: Tag a rule with ``advisory="1"`` to force fail-open regardless of
#: classification (e.g. an enforcement-class rule that only reports).
ADVISORY_TAG = "advisory"


@dataclass(frozen=True)
class FailurePolicy:
    """How the rule pool reacts to unexpected clause exceptions.

    Attributes:
        fail_open_classes: rules of these classifications have faults
            contained (logged, counted) and execution continues with
            the next rule; every other classification **fails closed**
            — the fault is wrapped in a typed
            :class:`~repro.errors.RuleExecutionError` deny.  Active
            security defaults to fail-open: a broken monitoring rule
            must not deny legitimate requests it never guarded.
        quarantine_threshold: consecutive faults before the rule is
            quarantined (disabled + tagged + audited); ``0`` disables
            quarantining.
        rearm_after: simulated seconds after which a quarantined rule
            is automatically re-armed via the virtual clock (``None``
            = manual re-arm only, through
            :meth:`~repro.rules.manager.RuleManager.rearm`).
    """

    fail_open_classes: frozenset[RuleClass] = field(
        default_factory=lambda: frozenset({RuleClass.ACTIVE_SECURITY}))
    quarantine_threshold: int = 3
    rearm_after: float | None = None

    def fails_open(self, rule: OWTERule) -> bool:
        """True when a fault in ``rule`` is contained rather than
        converted into a deny."""
        return (rule.classification in self.fail_open_classes
                or rule.tags.get(ADVISORY_TAG) == "1")


def _schedule(attempts: int, base_delay: float, factor: float,
              max_delay: float) -> Iterator[tuple[int, float | None]]:
    """The one retry schedule: ``(attempt, backoff before the next
    attempt)`` pairs, the last with None."""
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = base_delay
    for attempt in range(1, attempts):
        yield attempt, delay
        delay = min(delay * factor if delay > 0 else base_delay, max_delay)
    yield attempts, None


def retry_transient(fn: Callable[[], T], *,
                    attempts: int = 3,
                    base_delay: float = 0.0,
                    factor: float = 2.0,
                    max_delay: float = 1.0,
                    retry_on: tuple[type[BaseException], ...] = (
                        TransientError, OSError),
                    sleep: Callable[[float], None] | None = None,
                    on_retry: Callable[[int, BaseException], None] | None
                    = None) -> T:
    """Call ``fn`` with bounded retry-with-backoff on transient faults.

    Retries only exceptions in ``retry_on`` (default: transient
    infrastructure faults); anything else propagates immediately.
    After ``attempts`` failures raises
    :class:`~repro.errors.RetryExhausted` chaining the last error.

    ``sleep`` defaults to None (no real sleeping — deterministic under
    the virtual clock); pass ``time.sleep`` for genuine wall-clock
    backoff, or an ``engine.advance_time`` shim in simulations.
    ``on_retry(attempt, exc)`` is invoked before each re-attempt (the
    engine wires a metrics bump here).
    """
    for attempt, delay in _schedule(attempts, base_delay, factor,
                                    max_delay):
        try:
            return fn()
        except retry_on as exc:
            if delay is None:
                raise RetryExhausted(attempts, exc) from exc
            if on_retry is not None:
                on_retry(attempt, exc)
            if sleep is not None and delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


async def retry_transient_async(fn, *,
                                attempts: int = 3,
                                base_delay: float = 0.0,
                                factor: float = 2.0,
                                max_delay: float = 1.0,
                                retry_on: tuple[type[BaseException], ...] = (
                                    TransientError, OSError),
                                jitter: Callable[[], float] | None = None,
                                sleep=None,
                                on_retry: Callable[[int, BaseException], None]
                                | None = None):
    """:func:`retry_transient` for coroutine callables.

    Same contract — bounded attempts, exponential backoff capped at
    ``max_delay``, :class:`~repro.errors.RetryExhausted` chaining the
    last error — with an async ``fn`` and an awaitable ``sleep``
    (default ``asyncio.sleep``).  ``jitter`` (e.g. a seeded
    ``random.Random(...).random``) scales each delay by ``[0, 1)`` so
    a fleet of clients retrying against the same recovering server
    does not reconnect in lockstep; pass None for the deterministic
    full-delay schedule.
    """
    if sleep is None:
        import asyncio

        sleep = asyncio.sleep
    for attempt, delay in _schedule(attempts, base_delay, factor,
                                    max_delay):
        try:
            return await fn()
        except retry_on as exc:
            if delay is None:
                raise RetryExhausted(attempts, exc) from exc
            if on_retry is not None:
                on_retry(attempt, exc)
            if delay > 0:
                await sleep(delay * jitter() if jitter is not None
                            else delay)
    raise AssertionError("unreachable")  # pragma: no cover


def fsync_file(fileobj) -> None:
    """Flush a file object's buffers and fsync it to stable storage."""
    fileobj.flush()
    os.fsync(fileobj.fileno())


def fsync_dir(path: str) -> None:
    """fsync a directory so a just-renamed/created entry is durable.

    A power loss after ``os.replace`` but before the directory entry
    reaches stable storage can resurrect the old file (or leave none);
    syncing the containing directory closes that window.  Platforms
    whose directories cannot be opened or fsynced (e.g. Windows) are
    skipped — the rename itself is still atomic there.
    """
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)
