"""Separation-of-duty constraints: static (SSD) and dynamic (DSD).

Static SoD "prevent[s] ... conflicts between roles by placing constraints
on the assignment of users to roles" (paper §2): a named constraint is a
pair ``(role_set, n)`` with ``2 <= n <= |role_set|`` meaning *no user may
be assigned to n or more roles from the set*.  With hierarchies, the
check applies to the user's *authorized* roles (assignment plus
inherited membership), exactly as the standard's hierarchical SSD
requires.

Dynamic SoD places the same-shaped constraint on the roles *activated
within one session*: "a user can be assigned to M mutually exclusive
roles, but cannot be active in N or more mutually exclusive roles at the
same time" (paper §2).

:class:`SodRegistry` stores both families and answers the two questions
the enforcement rules ask:

* would assigning role R to user U violate any SSD constraint?
* would activating role R in session S violate any DSD constraint?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import SoDError


@dataclass(frozen=True)
class SsdConstraint:
    """A named static SoD constraint: ``(roles, cardinality)``.

    A user is in violation when they are authorized for ``cardinality``
    or more roles from ``roles``.
    """

    name: str
    roles: frozenset[str]
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 2:
            raise SoDError(
                f"SSD {self.name!r}: cardinality must be >= 2, "
                f"got {self.cardinality}"
            )
        if self.cardinality > len(self.roles):
            raise SoDError(
                f"SSD {self.name!r}: cardinality {self.cardinality} exceeds "
                f"role-set size {len(self.roles)}"
            )

    def violated_by(self, authorized_roles: Iterable[str]) -> bool:
        """Is the constraint violated by this authorized-role set?"""
        overlap = self.roles.intersection(authorized_roles)
        return len(overlap) >= self.cardinality


@dataclass(frozen=True)
class DsdConstraint:
    """A named dynamic SoD constraint: same shape, applied per session."""

    name: str
    roles: frozenset[str]
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 2:
            raise SoDError(
                f"DSD {self.name!r}: cardinality must be >= 2, "
                f"got {self.cardinality}"
            )
        if self.cardinality > len(self.roles):
            raise SoDError(
                f"DSD {self.name!r}: cardinality {self.cardinality} exceeds "
                f"role-set size {len(self.roles)}"
            )

    def violated_by(self, active_roles: Iterable[str]) -> bool:
        overlap = self.roles.intersection(active_roles)
        return len(overlap) >= self.cardinality


def hierarchy_conflicts(constraints: Iterable[SsdConstraint],
                        roles: Iterable[str],
                        juniors_inclusive: Callable[[str], set[str]],
                        ) -> list[str]:
    """Hierarchical SSD checked per *role*: report every (role, SSD
    set) where the role's junior closure alone covers ``cardinality``
    or more members of the set.

    Such a role makes the constraint unsatisfiable for every user
    assigned to it, whether or not anyone holds it yet.  The policy
    validator, ``RBACModel.add_inheritance`` and
    ``RBACModel.create_ssd_set`` all refuse these states through this
    one check, so any state reachable through the admin API is one the
    validator (and so the config lifecycle) accepts.
    """
    problems = []
    for constraint in constraints:
        for role in roles:
            covered = juniors_inclusive(role) & constraint.roles
            if len(covered) >= constraint.cardinality:
                problems.append(
                    f"SSD set {constraint.name!r} conflicts with the "
                    f"hierarchy: role {role!r} alone is authorized "
                    f"for {sorted(covered)}"
                )
    return problems


class SodRegistry:
    """Holds every SSD/DSD constraint and evaluates them.

    An index from role name to the constraints mentioning it keeps the
    per-check cost proportional to the constraints that can actually be
    affected (measured in benchmark B5).
    """

    def __init__(self) -> None:
        self._ssd: dict[str, SsdConstraint] = {}
        self._dsd: dict[str, DsdConstraint] = {}
        self._ssd_by_role: dict[str, set[str]] = {}
        self._dsd_by_role: dict[str, set[str]] = {}

    # -- SSD administration ------------------------------------------------------

    def create_ssd(self, name: str, roles: Iterable[str],
                   cardinality: int) -> SsdConstraint:
        if name in self._ssd:
            raise SoDError(f"SSD set {name!r} already exists")
        constraint = SsdConstraint(name, frozenset(roles), cardinality)
        self._ssd[name] = constraint
        for role in constraint.roles:
            self._ssd_by_role.setdefault(role, set()).add(name)
        return constraint

    def delete_ssd(self, name: str) -> None:
        constraint = self._ssd.pop(name, None)
        if constraint is None:
            raise SoDError(f"no SSD set named {name!r}")
        for role in constraint.roles:
            self._ssd_by_role[role].discard(name)

    def replace_ssd(self, name: str, roles: Iterable[str],
                    cardinality: int) -> SsdConstraint:
        """Update a set's membership/cardinality in one step (ANSI
        SetSsdSetCardinality / AddSsdRoleMember combined)."""
        self.delete_ssd(name)
        return self.create_ssd(name, roles, cardinality)

    def ssd_sets(self) -> Iterator[SsdConstraint]:
        return iter(self._ssd.values())

    @property
    def has_ssd(self) -> bool:
        return bool(self._ssd)

    def ssd_named(self, name: str) -> SsdConstraint:
        try:
            return self._ssd[name]
        except KeyError:
            raise SoDError(f"no SSD set named {name!r}") from None

    # -- DSD administration --------------------------------------------------------

    def create_dsd(self, name: str, roles: Iterable[str],
                   cardinality: int) -> DsdConstraint:
        if name in self._dsd:
            raise SoDError(f"DSD set {name!r} already exists")
        constraint = DsdConstraint(name, frozenset(roles), cardinality)
        self._dsd[name] = constraint
        for role in constraint.roles:
            self._dsd_by_role.setdefault(role, set()).add(name)
        return constraint

    def delete_dsd(self, name: str) -> None:
        constraint = self._dsd.pop(name, None)
        if constraint is None:
            raise SoDError(f"no DSD set named {name!r}")
        for role in constraint.roles:
            self._dsd_by_role[role].discard(name)

    def dsd_sets(self) -> Iterator[DsdConstraint]:
        return iter(self._dsd.values())

    def dsd_named(self, name: str) -> DsdConstraint:
        try:
            return self._dsd[name]
        except KeyError:
            raise SoDError(f"no DSD set named {name!r}") from None

    def remove_role(self, role: str) -> None:
        """Drop a deleted role from every constraint (shrinking sets).

        A constraint whose set would fall below its cardinality is
        deleted outright — it can no longer be violated.
        """
        for name in list(self._ssd_by_role.get(role, ())):
            old = self._ssd[name]
            remaining = old.roles - {role}
            self.delete_ssd(name)
            if len(remaining) >= old.cardinality:
                self.create_ssd(name, remaining, old.cardinality)
        for name in list(self._dsd_by_role.get(role, ())):
            old = self._dsd[name]
            remaining = old.roles - {role}
            self.delete_dsd(name)
            if len(remaining) >= old.cardinality:
                self.create_dsd(name, remaining, old.cardinality)

    # -- checks ----------------------------------------------------------------------

    def ssd_mentions(self, roles: Iterable[str]) -> bool:
        """Does any SSD constraint name one of ``roles``?

        In a consistent state, an edit that only adds ``roles`` to
        some authorized-role sets can newly violate a constraint only
        when this is true; the model's SSD-preserving commands skip
        their scans otherwise.
        """
        by_role = self._ssd_by_role
        return any(by_role.get(role) for role in roles)

    def ssd_ok(self, authorized_roles: set[str], adding: str) -> bool:
        """May a user authorized for ``authorized_roles`` gain ``adding``?

        Only constraints mentioning ``adding`` (or already straddled by
        the user) can newly fire; the role index narrows the scan.
        """
        candidate = authorized_roles | {adding}
        names = self._ssd_by_role.get(adding, ())
        return all(
            not self._ssd[name].violated_by(candidate) for name in names
        )

    def ssd_violations(self, authorized_roles: set[str]) -> list[SsdConstraint]:
        """Every SSD constraint violated by this authorized-role set."""
        names: set[str] = set()
        for role in authorized_roles:
            names.update(self._ssd_by_role.get(role, ()))
        return [
            self._ssd[name] for name in sorted(names)
            if self._ssd[name].violated_by(authorized_roles)
        ]

    def dsd_ok(self, active_roles: set[str], adding: str) -> bool:
        """May a session with ``active_roles`` also activate ``adding``?"""
        candidate = active_roles | {adding}
        names = self._dsd_by_role.get(adding, ())
        return all(
            not self._dsd[name].violated_by(candidate) for name in names
        )

    def dsd_violations(self, active_roles: set[str]) -> list[DsdConstraint]:
        names: set[str] = set()
        for role in active_roles:
            names.update(self._dsd_by_role.get(role, ()))
        return [
            self._dsd[name] for name in sorted(names)
            if self._dsd[name].violated_by(active_roles)
        ]

    def check_consistency(
        self, authorized_roles_of: Callable[[str], set[str]],
        users: Iterable[str],
    ) -> list[str]:
        """Audit: report every (user, SSD set) violation in the model.

        Used after hierarchy edits, which can retroactively put users in
        violation (the standard requires AddInheritance to preserve SSD).
        """
        problems = []
        for user in users:
            for constraint in self.ssd_violations(authorized_roles_of(user)):
                problems.append(
                    f"user {user!r} violates SSD {constraint.name!r} "
                    f"(>= {constraint.cardinality} of "
                    f"{sorted(constraint.roles)})"
                )
        return problems
