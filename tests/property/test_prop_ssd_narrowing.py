"""Properties: the SSD checks narrowed to where a constraint can fire
accept and reject exactly as checks that always scan every user.

``RBACModel.assign_user``, ``add_inheritance`` and ``create_ssd_set``
skip (or shrink) their user scans when no SSD set names a role the
edit can add to someone's authorized roles.  :class:`AlwaysScanModel`
keeps the unnarrowed checks; every build and admin sequence below must
give both models the same outcome, the same error (type, named
constraint and message) and the same state.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdministrationError, ReproError, SsdViolationError
from repro.policy.spec import PolicySpec, build_model
from repro.rbac.model import RBACModel
from repro.rbac.sod import hierarchy_conflicts

ROLES = [f"R{i}" for i in range(6)]
USERS = [f"u{i}" for i in range(4)]


class AlwaysScanModel(RBACModel):
    """The SSD-preserving commands with no narrowing: every check scans
    every user it could possibly concern."""

    def assign_user(self, user: str, role: str) -> None:
        self._require_user(user)
        self._require_role(role)
        if role in self._ua[user]:
            raise AdministrationError(
                f"user {user!r} is already assigned to role {role!r}")
        candidate = (self.authorized_roles(user)
                     | self.hierarchy.juniors_inclusive(role))
        violations = self.sod.ssd_violations(candidate)
        if violations:
            names = ", ".join(v.name for v in violations)
            raise SsdViolationError(
                f"assigning {role!r} to {user!r} violates SSD "
                f"constraint(s): {names}",
                constraint=violations[0].name, user=user,
                roles=violations[0].roles,
            )
        self._ua[user].add(role)

    def add_inheritance(self, senior: str, junior: str) -> None:
        self.hierarchy.add_inheritance(senior, junior)
        problems = hierarchy_conflicts(
            self.sod.ssd_sets(), self.hierarchy.seniors_inclusive(senior),
            self.hierarchy.juniors_inclusive)
        problems += self.sod.check_consistency(
            self.authorized_roles, self.authorized_users(senior))
        if problems:
            self.hierarchy.delete_inheritance(senior, junior)
            raise SsdViolationError(
                f"inheritance {senior!r} -> {junior!r} rejected: "
                + "; ".join(problems))

    def create_ssd_set(self, name: str, roles, cardinality: int) -> None:
        roles = list(roles)
        for role in roles:
            self._require_role(role)
        constraint = self.sod.create_ssd(name, roles, cardinality)
        problems = [user for user in self.users
                    if constraint.violated_by(self.authorized_roles(user))]
        conflicts = hierarchy_conflicts([constraint], self.roles,
                                        self.hierarchy.juniors_inclusive)
        if problems or conflicts:
            self.sod.delete_ssd(name)
            reason = (f"already violated by user(s) {sorted(problems)}"
                      if problems else "; ".join(conflicts))
            raise SsdViolationError(
                f"SSD set {name!r} rejected: {reason}", constraint=name)

    def ssd_allows_assignment(self, user: str, role: str) -> bool:
        if user not in self.users or role not in self.roles:
            return False
        candidate = (self.authorized_roles(user)
                     | self.hierarchy.juniors_inclusive(role))
        return not self.sod.ssd_violations(candidate)


def outcome(fn, *args):
    """``None`` on success, else the error's comparable fingerprint."""
    try:
        fn(*args)
    except ReproError as exc:
        return (type(exc), getattr(exc, "constraint", None), str(exc))
    return None


def state(model: RBACModel):
    return (
        {user: frozenset(roles) for user, roles in model._ua.items()},
        model.hierarchy.edges(),
        sorted((c.name, c.roles, c.cardinality)
               for c in model.sod.ssd_sets()),
        [model.ssd_allows_assignment(user, role)
         for user in USERS for role in ROLES],
    )


role_ix = st.integers(0, len(ROLES) - 1)
user_ix = st.integers(0, len(USERS) - 1)
#: (senior, junior) with senior < junior, so every edge set is acyclic
edges = st.tuples(role_ix, role_ix).filter(lambda e: e[0] < e[1])
ssd_sets = st.tuples(st.frozensets(role_ix, min_size=2, max_size=4),
                     st.integers(2, 4))
assignments = st.tuples(user_ix, role_ix)
admin_ops = st.one_of(
    st.tuples(st.just("assign"), assignments),
    st.tuples(st.just("deassign"), assignments),
    st.tuples(st.just("add_inheritance"), edges),
    st.tuples(st.just("delete_inheritance"), edges),
    st.tuples(st.just("create_ssd"), ssd_sets),
    st.tuples(st.just("delete_ssd"), st.integers(0, 3)),
)


def make_spec(hierarchy, ssd, assigned) -> PolicySpec:
    spec = PolicySpec(name="narrowing")
    for role in ROLES:
        spec.add_role(role)
    for user in USERS:
        spec.add_user(user)
    for senior, junior in hierarchy:
        spec.add_hierarchy(ROLES[senior], ROLES[junior])
    for n, (members, cardinality) in enumerate(ssd):
        spec.add_ssd(f"ssd{n}", {ROLES[i] for i in members},
                     min(cardinality, len(members)))
    for user, role in assigned:
        spec.add_assignment(USERS[user], ROLES[role])
    return spec


def apply(model: RBACModel, op: str, arg):
    if op == "assign":
        return outcome(model.assign_user, USERS[arg[0]], ROLES[arg[1]])
    if op == "deassign":
        return outcome(model.deassign_user, USERS[arg[0]], ROLES[arg[1]])
    if op == "add_inheritance":
        return outcome(model.add_inheritance, ROLES[arg[0]], ROLES[arg[1]])
    if op == "delete_inheritance":
        return outcome(model.delete_inheritance, ROLES[arg[0]],
                       ROLES[arg[1]])
    if op == "create_ssd":
        members, cardinality = arg
        name = f"ssd{len(list(model.sod.ssd_sets()))}"
        return outcome(model.create_ssd_set, name,
                       sorted(ROLES[i] for i in members),
                       min(cardinality, len(members)))
    return outcome(model.delete_ssd_set, f"ssd{arg}")


def build_both(spec: PolicySpec):
    """``build_model`` over both model classes: (outcome, model) each."""
    results = []
    for cls in (RBACModel, AlwaysScanModel):
        built = []
        with mock.patch("repro.policy.spec.RBACModel", cls):
            result = outcome(lambda: built.append(build_model(spec)))
        results.append((result, built[0] if built else None))
    return results


@given(st.lists(edges, max_size=6, unique=True),
       st.lists(ssd_sets, max_size=3),
       st.lists(assignments, max_size=8, unique=True))
def test_build_model_matches_always_scan(hierarchy, ssd, assigned):
    (narrow, model), (wide, reference) = build_both(
        make_spec(hierarchy, ssd, assigned))
    assert narrow == wide
    if model is not None:
        assert state(model) == state(reference)


@settings(max_examples=300)
@given(st.lists(edges, max_size=4, unique=True),
       st.lists(ssd_sets, max_size=2),
       st.lists(assignments, max_size=4, unique=True),
       st.lists(admin_ops, max_size=12))
def test_admin_sequences_match_always_scan(hierarchy, ssd, assigned, ops):
    (narrow, model), (wide, reference) = build_both(
        make_spec(hierarchy, ssd, assigned))
    assert narrow == wide
    if model is None:
        return
    for op, arg in ops:
        assert apply(model, op, arg) == apply(reference, op, arg), op
        assert state(model) == state(reference)


def test_gains_through_the_junior_closure_still_fire():
    """Each edit below adds an SSD role only through a junior of the
    role it names, so a check narrowed to that role alone would miss
    the violation."""
    # R1 > R2, R4 > R5; SSD {R2, R3}; u0 holds R3
    spec = make_spec([(1, 2), (4, 5)], [(frozenset({2, 3}), 2)], [(0, 3)])
    (_, model), (_, reference) = build_both(spec)
    for target in (model, reference):
        result = apply(target, "assign", (0, 1))
        assert result[0] is SsdViolationError and result[1] == "ssd0"
        assert apply(target, "assign", (0, 0)) is None
        result = apply(target, "add_inheritance", (0, 1))
        assert result[0] is SsdViolationError
        assert "user 'u0' violates SSD 'ssd0'" in result[2]
        assert apply(target, "assign", (1, 1)) is None
        assert apply(target, "assign", (1, 4)) is None
        result = apply(target, "create_ssd", (frozenset({2, 5}), 2))
        assert result[0] is SsdViolationError and result[1] == "ssd1"
        assert "already violated by user(s) ['u1']" in result[2]
    assert state(model) == state(reference)


def test_rejections_name_the_same_constraint():
    """The narrowed checks still fire where a constraint can bite."""
    spec = make_spec([(0, 1)], [(frozenset({1, 2}), 2)], [(0, 0)])
    (_, model), (_, reference) = build_both(spec)
    for target in (model, reference):
        result = apply(target, "assign", (0, 2))
        assert result[0] is SsdViolationError and result[1] == "ssd0"
        result = apply(target, "add_inheritance", (0, 2))
        assert result[0] is SsdViolationError
        assert "role 'R0' alone is authorized" in result[2]
        result = apply(target, "create_ssd", (frozenset({0, 1}), 2))
        assert result[0] is SsdViolationError and result[1] == "ssd1"


def _no_ssd_spec(users: int) -> PolicySpec:
    """A hierarchy-heavy policy with no SSD set: a role forest over
    eight roles and two assignments per user."""
    spec = PolicySpec(name="scaling")
    roles = [f"R{i}" for i in range(8)]
    for role in roles:
        spec.add_role(role)
    for i in range(1, len(roles)):
        spec.add_hierarchy(roles[(i - 1) // 2], roles[i])
    for n in range(users):
        spec.add_user(f"u{n}")
        spec.add_assignment(f"u{n}", roles[n % len(roles)])
        spec.add_assignment(f"u{n}", roles[(n + 3) % len(roles)])
    return spec


def test_no_ssd_build_computes_no_authorized_sets():
    """With no SSD set nothing can fire, so loading a policy never
    computes a user's authorized roles or a role's authorized users,
    whatever the population."""
    for users in (40, 400):
        with mock.patch.object(
                RBACModel, "authorized_users", autospec=True,
                side_effect=RBACModel.authorized_users) as by_role, \
                mock.patch.object(
                    RBACModel, "authorized_roles", autospec=True,
                    side_effect=RBACModel.authorized_roles) as by_user:
            model = build_model(_no_ssd_spec(users))
        assert len(model.users) == users
        assert by_role.call_count == 0
        assert by_user.call_count == 0
