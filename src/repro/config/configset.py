"""ConfigSet: one immutable, versioned policy deployment unit.

A config set pins three things together: a **monotone version id**
(the lifecycle refuses to stage a version that does not advance), the
parsed :class:`~repro.policy.spec.PolicySpec`, and a sha256
**checksum** of the spec's **canonical source** (the DSL re-rendering
of the spec, so two documents that mean the same policy canonicalise
identically regardless of input format).  The checksum — not the input
file — is what the WAL records and what replay verifies, so an
edited-in-place config file cannot silently masquerade as the version
that was actually deployed.  The active set keeps no text (see
:meth:`ConfigSet.settled`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.policy.spec import PolicySpec


def policy_checksum(source: str) -> str:
    """sha256 hex digest of a canonical policy rendering."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ConfigSet:
    """One versioned policy configuration (immutable)."""

    version: int
    spec: PolicySpec
    checksum: str
    #: canonical DSL rendering of ``spec`` (the artifact); None once settled
    source: str | None = None
    #: where the document came from (file path, "inline", "adopted")
    origin: str = "inline"
    name: str = field(default="policy")

    @classmethod
    def from_spec(cls, spec: PolicySpec, version: int,
                  origin: str = "inline") -> "ConfigSet":
        """Canonicalise a copy of ``spec``: later edits of it never
        change what this version means."""
        return cls.of(spec.clone(), version, origin)

    @classmethod
    def of(cls, spec: PolicySpec, version: int,
           origin: str = "inline") -> "ConfigSet":
        """Canonicalise a spec nothing edits afterwards (a freshly
        loaded one, or one the engine shares until its next edit)."""
        from repro.policy.dsl import render_policy
        if version < 1:
            raise ValueError(f"config version must be >= 1, got {version}")
        source = render_policy(spec)
        return cls(version=int(version), spec=spec, source=source,
                   checksum=policy_checksum(source), origin=origin,
                   name=spec.name)

    def settled(self) -> "ConfigSet":
        """This set without its source, once the source is persisted."""
        return replace(self, source=None)

    def describe(self) -> dict[str, object]:
        """Flat manifest row for status surfaces and the CLI."""
        return {
            "version": self.version,
            "name": self.name,
            "checksum": self.checksum,
            "origin": self.origin,
            "roles": len(self.spec.roles),
            "users": len(self.spec.users),
            "grants": len(self.spec.grants),
        }
