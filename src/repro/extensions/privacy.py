"""Privacy-aware RBAC: purposes and object policies.

The paper (§4.1, §4.4) extends the entity-relationship model with the
privacy-aware RBAC elements of He (TR-2003-09): a **purpose** — "the
purpose for which an operation is executed" — and an **object policy**
binding (purpose, operation, object) together with conditions and
obligations.  An access is privacy-compliant when the requester's stated
purpose is covered by an object policy for that (operation, object) —
purposes form a hierarchy, so a policy allowing a general purpose allows
its sub-purposes.

Enforcement plugs into OWTE rules as an additional W-clause condition on
``checkAccess`` (the paper: "privacy-aware RBAC can also be enforced
using OWTE rules as it also follows the Entity Relationship model").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class PurposeTree:
    """A hierarchy of business purposes (general -> specific).

    ``add("marketing")`` creates a root purpose; ``add("email-ads",
    parent="marketing")`` a sub-purpose.  A policy granting
    ``marketing`` covers ``email-ads``; the reverse does not hold.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str | None] = {}
        self._children: dict[str, set[str]] = {}

    def add(self, purpose: str, parent: str | None = None) -> None:
        if purpose in self._parent:
            raise ValueError(f"purpose {purpose!r} already exists")
        if parent is not None and parent not in self._parent:
            raise ValueError(f"unknown parent purpose {parent!r}")
        self._parent[purpose] = parent
        self._children.setdefault(purpose, set())
        if parent is not None:
            self._children[parent].add(purpose)

    def __contains__(self, purpose: str) -> bool:
        return purpose in self._parent

    def purposes(self) -> Iterator[str]:
        return iter(self._parent)

    def ancestors_inclusive(self, purpose: str) -> set[str]:
        """The purpose and every purpose above it."""
        if purpose not in self._parent:
            raise ValueError(f"unknown purpose {purpose!r}")
        result = {purpose}
        node = self._parent[purpose]
        while node is not None:
            result.add(node)
            node = self._parent[node]
        return result

    def descendants_inclusive(self, purpose: str) -> set[str]:
        """The purpose and every purpose beneath it."""
        if purpose not in self._parent:
            raise ValueError(f"unknown purpose {purpose!r}")
        result: set[str] = set()
        queue = deque([purpose])
        while queue:
            node = queue.popleft()
            if node in result:
                continue
            result.add(node)
            queue.extend(self._children.get(node, ()))
        return result

    def covers(self, granted: str, requested: str) -> bool:
        """Does a grant for ``granted`` cover a request for ``requested``?

        True when ``requested`` equals ``granted`` or is a descendant.
        """
        if granted not in self._parent or requested not in self._parent:
            return False
        return granted in self.ancestors_inclusive(requested)


@dataclass(frozen=True)
class ObjectPolicy:
    """An object's privacy policy entry.

    Allows ``operation`` on ``obj`` when performed for a purpose covered
    by ``purpose``.  ``obligations`` name follow-up duties (e.g.
    ``notify-owner``) the engine records in the audit trail — it cannot
    discharge them, only log that they are owed, which is the standard
    enforcement-point treatment of obligations.
    """

    obj: str
    operation: str
    purpose: str
    obligations: tuple[str, ...] = ()

    def describe(self) -> str:
        text = (f"allow {self.operation!r} on {self.obj!r} for purpose "
                f"{self.purpose!r}")
        if self.obligations:
            text += f" with obligations {list(self.obligations)}"
        return text


@dataclass
class PrivacyRegistry:
    """All object policies plus the purpose tree; answers the W-clause
    question *is this (operation, object, purpose) privacy-compliant?*

    Objects with no registered policy are unregulated: privacy checks
    pass (privacy-aware RBAC constrains only data marked private).
    """

    purposes: PurposeTree = field(default_factory=PurposeTree)
    _policies: dict[tuple[str, str], list[ObjectPolicy]] = field(
        default_factory=dict)

    def add_policy(self, policy: ObjectPolicy) -> None:
        if policy.purpose not in self.purposes:
            raise ValueError(
                f"object policy references unknown purpose "
                f"{policy.purpose!r}"
            )
        key = (policy.obj, policy.operation)
        self._policies.setdefault(key, []).append(policy)

    def policies_for(self, obj: str, operation: str) -> list[ObjectPolicy]:
        return list(self._policies.get((obj, operation), ()))

    def is_regulated(self, obj: str) -> bool:
        """Does any policy mention this object (for any operation)?"""
        return any(key[0] == obj for key in self._policies)

    def compliant(self, obj: str, operation: str,
                  purpose: str | None) -> tuple[bool, tuple[str, ...]]:
        """Privacy check: ``(allowed, obligations_owed)``.

        * unregulated object -> allowed, no obligations;
        * regulated object, no/unknown purpose -> denied;
        * regulated object with a covering policy -> allowed with that
          policy's obligations.
        """
        if not self.is_regulated(obj):
            return (True, ())
        if purpose is None or purpose not in self.purposes:
            return (False, ())
        for policy in self.policies_for(obj, operation):
            if self.purposes.covers(policy.purpose, purpose):
                return (True, policy.obligations)
        return (False, ())

    @classmethod
    def of(cls, purposes: Iterable[tuple[str, str | None]],
           policies: Iterable[ObjectPolicy]) -> "PrivacyRegistry":
        """The registry a policy declares: its (purpose, parent) pairs,
        parents first, and its object policies."""
        registry = cls()
        registry.add_purposes(purposes)
        for policy in policies:
            registry.add_policy(policy)
        return registry

    def add_purposes(self, pairs: Iterable[tuple[str, str | None]]) -> None:
        """Bulk-add (purpose, parent) pairs, parents first."""
        for purpose, parent in pairs:
            self.purposes.add(purpose, parent)
