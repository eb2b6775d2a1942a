"""Properties of the one administrative op table.

Random sequences mix the ``POST /v1/admin`` wire ops (through
:meth:`Shard.admin_op <repro.serve.shard.Shard.admin_op>`) with the
config differ's ops, extension descriptor ops included (through
:meth:`ActiveRBACEngine.apply <repro.engine.ActiveRBACEngine.apply>`),
over small name universes that include unknown users, roles, scopes
and purposes, so many ops must fail.  After every op:

* **a raising op writes nothing** — ``persistence.snapshot(engine)``
  (apart from its id counters and clock tiebreak) and the model view
  are exactly as before, and the policy epoch did not move;
* **one source of truth** — the model view and the rule pool's names
  equal those of an engine rebuilt from ``render_policy(engine.policy)``;
* **the validator accepts the policy** — ``validate_policy`` reports
  no issue;
* **explain agrees with the check** on a fixed probe grid, for every
  live session once the sequence has run.

The first two also hold, exhaustively, for every op over the universes
applied once to the base state, and there an op moves the policy epoch
if and only if it changed the rendered policy.

A round-trip property pins the differ and the spec side of the ops
against each other: applying ``diff_specs(old, new).model_ops`` to
``old.clone()`` through :meth:`PolicySpec.apply` gives ``new`` on every
field the differ covers, extension descriptors included.  Between two
valid specs the engine's guards accept every op of that script too.
"""

from __future__ import annotations

from itertools import combinations, product

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import ActiveRBACEngine, parse_policy, persistence
from repro.config.differ import diff_specs
from repro.engine import OPS
from repro.errors import ReproError
from repro.extensions.cfd import (
    PostConditionDependency,
    PrerequisiteRole,
    TransactionActivation,
)
from repro.extensions.context import ContextConstraint, ContextOp
from repro.extensions.privacy import ObjectPolicy
from repro.gtrbac.constraints import (
    DisablingTimeSoD,
    DurationConstraint,
    EnablingWindow,
)
from repro.gtrbac.periodic import PeriodicInterval
from repro.policy.dsl import render_policy
from repro.policy.spec import DESCRIPTOR_OPS, PolicySpec
from repro.policy.validator import validate_policy
from repro.security.monitor import ThresholdPolicy
from repro.serve.shard import Shard

BASE = """
policy ops {
  role R0; role R1; role R2; role R3; role R5;
  user u0; user u1 max_active_roles 2;
  scope s0; scope s0.a under s0;
  hierarchy R1 > R0;
  ssd S roles R0, R3;
  permission read on doc; permission write on doc;
  grant read on doc to R0;
  grant write on doc to R3 in s0;
  assign u0 to R1;
  assign u1 to R0 in s0;
  enable R5 daily 09:00 to 17:00;
  duration R5 60 for u0;
  purpose care;
}
"""


def _col(*values) -> list[tuple]:
    return [(value,) for value in values]


# argument columns; known names are listed more than once, so the random
# sequences draw them more often than new or unknown ones
U = _col(*["u0", "u1"] * 3, "u2", "ghost")
R = _col(*["R0", "R1", "R2", "R3"] * 3, "R4", "R9")
S = _col(*["s0", "s0.a"] * 2, "s1", "/", "nowhere")
#: R5 holds a closed enabling window and a per-user duration; only the
#: descriptor ops name it
RD = [*R, ("R5",)]
P = [("read", "doc"), ("write", "doc"), ("read", "log")]
L = _col(None, 1, 2)
SOD = [(frozenset(pair),) for pair in combinations(["R0", "R1", "R2", "R3",
                                                     "R9"], 2)]
WINDOWS = _col(PeriodicInterval.daily("09:00", "17:00"),
               PeriodicInterval.daily("00:00", "12:00"))
CONTEXT = [("net", ContextOp.EQ, "secure", applies)
           for applies in ("activate", "access")]
PURPOSES = _col("care", "care.x", "ops")
OBJECT_POLICY = (_col("doc"), _col("read"), PURPOSES, _col((), ("notify",)))
THRESHOLD = (_col("T1", "T2"),
             [("accessDenied", "user", 3, 60.0, (), (), False, None)])

#: argument columns per op-table name: an op is its name followed by
#: one row of each column, as the differ emits them
DOMAINS = {
    "add_user": (U, L), "delete_user": (U,), "set_user_max_roles": (U, L),
    "add_role": (R, L), "delete_role": (R,),
    "set_role_cardinality": (R, L),
    "add_permission": (P,), "grant": (R, P), "grant_scoped": (R, P, S),
    "revoke": (R, P), "revoke_scoped": (R, P, S),
    "add_inheritance": (R, R), "delete_inheritance": (R, R),
    "create_ssd": (_col("S", "S2"), SOD, _col(2, 3)),
    "delete_ssd": (_col("S", "S2"),),
    "create_dsd": (_col("D", "D2"), SOD, _col(2, 3)),
    "delete_dsd": (_col("D", "D2"),),
    "add_scope": (_col("s0.a", "s1", "s1.b"), _col(None, "s0", "s1",
                                                   "nowhere")),
    "remove_scope": (S,),
    "assign_user": (U, R), "assign_scoped": (U, R, S),
    "deassign_user": (U, R), "deassign_scoped": (U, R, S),
    "add_federation_map": (R, _col("lab"), _col("Visitor")),
    "remove_federation_map": (R, _col("lab"), _col("Visitor")),
    "set_enabling_window": (RD, WINDOWS), "clear_enabling_window": (RD,),
    "set_duration": (RD, _col(60.0, 90.0), _col(None, "u0", "ghost")),
    "clear_duration": (RD, _col(None, "u0")),
    "add_disabling_sod": (_col("T", "T2"), SOD, WINDOWS),
    "remove_disabling_sod": (_col("T", "T2"),),
    "add_prerequisite": (R, R), "remove_prerequisite": (R, R),
    "add_post_condition": (R, R), "remove_post_condition": (R, R),
    "add_transaction": (R, R), "remove_transaction": (R, R),
    "add_context_constraint": (R, CONTEXT),
    "remove_context_constraint": (R, CONTEXT),
    "add_purpose": (PURPOSES, _col(None, "care", "nowhere")),
    "remove_purpose": (PURPOSES, _col(None, "care")),
    "add_object_policy": OBJECT_POLICY,
    "remove_object_policy": OBJECT_POLICY,
    "add_threshold_policy": THRESHOLD, "remove_threshold_policy": THRESHOLD,
}


def ops_of(name: str) -> list[tuple]:
    return [(name, *sum(row, ())) for row in product(*DOMAINS[name])]


TABLE_OPS = {name: st.sampled_from(ops_of(name)) for name in DOMAINS}
USERS = st.sampled_from([user for (user,) in U])
ROLES = st.sampled_from([role for (role,) in R])
SCOPES = st.sampled_from([scope for (scope,) in S])
PERMS = st.sampled_from(P)
LIMITS = st.sampled_from([limit for (limit,) in L])


def _scoped(args: dict, scope: str | None) -> dict:
    return args if scope is None else {**args, "scope": scope}


MAYBE_SCOPE = st.one_of(st.none(), SCOPES)
WIRE_OPS = st.one_of(
    st.builds(lambda op, r, p, s: (op, _scoped(
        {"role": r, "operation": p[0], "object": p[1]}, s)),
        st.sampled_from(["grant", "revoke"]), ROLES, PERMS, MAYBE_SCOPE),
    st.builds(lambda op, u, r, s: (op, _scoped({"user": u, "role": r}, s)),
              st.sampled_from(["assign", "deassign"]), USERS, ROLES,
              MAYBE_SCOPE),
    PERMS.map(lambda p: ("add_permission",
                         {"operation": p[0], "object": p[1]})),
    ROLES.map(lambda r: ("add_role", {"role": r})),
    st.builds(lambda s, p: ("add_scope", {"scope": s, "parent": p}),
              st.sampled_from(["s1", "s1.b", "s2"]),
              st.sampled_from([None, "s0", "s1"])),
    SCOPES.map(lambda s: ("remove_scope", {"scope": s})),
    st.builds(lambda op, r: (op, {"role": r}),
              st.sampled_from(["enable_role", "disable_role"]), ROLES),
    # a missing argument and an unknown op must be refused untouched
    st.just(("grant", {"role": "R0"})),
    st.just(("drop_everything", {})),
)

#: the scoped ops and assignments, drawn twice as often: their guards
#: span the model, the scope tree and the administrative rules
SCOPED_OPS = [TABLE_OPS[name] for name in (
    "grant_scoped", "revoke_scoped", "assign_user", "assign_scoped",
    "deassign_user", "deassign_scoped")]
STEPS = st.one_of(
    st.one_of(*TABLE_OPS.values(), *SCOPED_OPS).map(
        lambda op: ("apply", op)),
    WIRE_OPS.map(lambda wire: ("wire", wire)),
    USERS.map(lambda user: ("session", user)),
)

PROBES = [(op, obj, scope) for op, obj in (("read", "doc"),
                                           ("write", "doc"),
                                           ("read", "log"))
          for scope in (None, "s0", "s0.a", "s1")]


def model_view(engine: ActiveRBACEngine) -> dict:
    """Everything static the model holds."""
    model = engine.model
    return {
        "users": {u: x.max_active_roles for u, x in model.users.items()},
        "roles": {r: x.max_active_users for r, x in model.roles.items()},
        "permissions": set(model.permissions),
        "ua": {(u, r, frozenset(model.assignment_scopes(u, r)))
               for u in model.users for r in model.assigned_roles(u)},
        "pa": {(r, p) for r in model.roles
               for p in model.direct_role_permissions(r)},
        "pa_scoped": {(r, s, p) for r, scoped in model._pa_scoped.items()
                      for s, perms in scoped.items() for p in perms},
        "hierarchy": {(s, j) for s in model.roles
                      for j in model.hierarchy.immediate_juniors(s)},
        "scopes": {(s, model.scopes.parent_of(s)) for s in model.scopes},
        "ssd": {(c.name, c.roles, c.cardinality)
                for c in model.sod.ssd_sets()},
        "dsd": {(c.name, c.roles, c.cardinality)
                for c in model.sod.dsd_sets()},
    }


def frozen_state(engine: ActiveRBACEngine) -> dict:
    """The persisted state, apart from id counters and the clock
    tiebreak (a refused op may still mint event stamps)."""
    state = persistence.snapshot(engine)
    del state["counters"], state["clock_seq"]
    return state


def run_step(engine: ActiveRBACEngine, shard: Shard, step: tuple) -> None:
    kind, payload = step
    if kind == "apply":
        engine.apply(payload)
    elif kind == "wire":
        shard.admin_op(*payload)
    else:
        shard.session_for(payload)


def test_generators_cover_the_op_table():
    assert set(TABLE_OPS) == set(OPS)


def check_op(engine: ActiveRBACEngine, shard: Shard, step: tuple) -> None:
    """Run one step; a raising step must leave no trace, and either
    way the model and the rule pool must equal the ones its policy
    rebuilds, and the validator must accept the policy."""
    before_state, before_view = frozen_state(engine), model_view(engine)
    try:
        run_step(engine, shard, step)
    except (ReproError, KeyError):
        assert frozen_state(engine) == before_state, step
        assert model_view(engine) == before_view, step
    rebuilt = ActiveRBACEngine(parse_policy(render_policy(engine.policy)))
    assert model_view(rebuilt) == model_view(engine), step
    assert {rule.name for rule in engine.rules} \
        == {rule.name for rule in rebuilt.rules}, step
    assert validate_policy(engine.policy) == [], step


def test_every_single_op_from_the_base_state():
    """Exhaustive over the small universes: every op, once, on a fresh
    engine with live sessions.  An op moves the policy epoch if and
    only if it changed the rendered policy: one that changes nothing
    costs no epoch, and so no recompile and no WAL record."""
    spec = parse_policy(BASE)
    for name in DOMAINS:
        for op in dict.fromkeys(ops_of(name)):
            engine = ActiveRBACEngine(spec)
            shard = Shard("t", engine)
            for user in ("u0", "u1"):
                shard.session_for(user)
            epoch, text = engine.policy_epoch, render_policy(engine.policy)
            check_op(engine, shard, ("apply", op))
            assert (engine.policy_epoch != epoch) == (
                render_policy(engine.policy) != text), op


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(STEPS, min_size=1, max_size=15))
def test_admin_ops_are_atomic_and_keep_one_source_of_truth(steps):
    engine = ActiveRBACEngine(parse_policy(BASE))
    shard = Shard("t", engine)
    for user in ("u0", "u1"):
        shard.session_for(user)
    for step in steps:
        check_op(engine, shard, step)
    for sid in list(engine.model.sessions):
        for operation, obj, scope in PROBES:
            explained = engine.explain(sid, operation, obj, scope=scope)
            assert explained.allowed == engine.check_access(
                sid, operation, obj, scope=scope), (sid, operation, scope)


# -- round trip: the differ and PolicySpec.apply are inverses ---------------

NAMES_U = ["u0", "u1", "u2"]
NAMES_R = ["R0", "R1", "R2", "R3"]


@st.composite
def specs(draw) -> PolicySpec:
    """A small well-formed spec: every reference names a declared
    element, a scope's parent comes first, and a UA pair is either
    flat or scoped."""
    spec = PolicySpec(name="rt")
    roles = draw(st.lists(st.sampled_from(NAMES_R), unique=True))
    for role in roles:
        spec.add_role(role, draw(LIMITS))
    for user in draw(st.lists(st.sampled_from(NAMES_U), unique=True)):
        spec.add_user(user, draw(LIMITS))
    for name, parent in (("s0", None), ("s0.a", "s0"), ("s1", None)):
        if draw(st.booleans()) and (parent is None
                                    or (parent, None) in spec.scopes):
            spec.add_scope(name, parent)
    scopes = [name for name, _parent in spec.scopes]
    perms = draw(st.lists(st.sampled_from(
        [("read", "doc"), ("write", "doc"), ("read", "log")]), unique=True))
    spec.permissions.extend(perms)
    if len(roles) >= 2:
        for _ in range(draw(st.integers(0, 2))):
            senior, junior = draw(st.permutations(roles))[:2]
            if (senior, junior) not in spec.hierarchy:
                spec.add_hierarchy(senior, junior)
        for add, names in ((spec.add_ssd, ["S", "S2"]),
                           (spec.add_dsd, ["D", "D2"])):
            for name in draw(st.lists(st.sampled_from(names), unique=True)):
                add(name, draw(st.frozensets(st.sampled_from(roles),
                                             min_size=2)), 2)
    if roles and perms:
        for role, (op, obj) in draw(st.lists(st.tuples(
                st.sampled_from(roles), st.sampled_from(perms)),
                unique=True, max_size=4)):
            if scopes and draw(st.booleans()):
                spec.scoped_grants.append(
                    (role, op, obj, draw(st.sampled_from(scopes))))
            else:
                spec.grants.append((role, op, obj))
    if roles and spec.users:
        for user, role in draw(st.lists(st.tuples(
                st.sampled_from(sorted(spec.users)),
                st.sampled_from(roles)), unique=True, max_size=4)):
            if scopes and draw(st.booleans()):
                for scope in draw(st.lists(st.sampled_from(scopes),
                                           min_size=1, unique=True)):
                    spec.add_scoped_assignment(user, role, scope)
            else:
                spec.add_assignment(user, role)
    if roles:
        descriptors(draw, spec, roles)
    return spec


def descriptors(draw, spec: PolicySpec, roles: list[str]) -> None:
    """Extension descriptors over ``roles``: one enabling window per
    role, one duration per role and user, one disabling-time SoD per
    name, and purposes declared parents first (``care.x`` under either
    root, so two specs may re-parent it)."""
    role = st.sampled_from(roles)
    pairs = st.lists(st.tuples(role, role).filter(lambda p: p[0] != p[1]),
                     unique=True, max_size=2)
    window = st.sampled_from([w for (w,) in WINDOWS])
    for name in draw(st.lists(role, unique=True, max_size=2)):
        spec.enabling_windows.append(EnablingWindow(name, draw(window)))
    for name in draw(st.lists(role, unique=True, max_size=2)):
        spec.durations.append(DurationConstraint(
            name, draw(st.sampled_from([60.0, 90.0])),
            draw(st.sampled_from([None, *spec.users]))))
    for name, applies in draw(st.lists(st.tuples(role, st.sampled_from(
            ["activate", "access"])), unique=True, max_size=2)):
        spec.context_constraints.append(ContextConstraint(
            name, "net", ContextOp.EQ, "secure", applies))
    if len(roles) >= 2:
        for kind, field in ((PrerequisiteRole, "prerequisites"),
                            (PostConditionDependency, "post_conditions"),
                            (TransactionActivation, "transactions")):
            getattr(spec, field).extend(kind(*pair) for pair in draw(pairs))
        for name in draw(st.lists(st.sampled_from(["T", "T2"]),
                                  unique=True)):
            spec.disabling_sod.append(DisablingTimeSoD(
                name, draw(st.frozensets(role, min_size=2)), draw(window)))
    spec.federation_maps.extend(
        (name, "lab", "Visitor")
        for name in draw(st.lists(role, unique=True, max_size=2)))
    for purpose, parent in (("care", None), ("ops", None),
                            ("care.x", draw(st.sampled_from(["care",
                                                             "ops"]))),
                            ("care.x.y", "care.x")):
        if draw(st.booleans()) and (parent is None
                                    or parent in dict(spec.purposes)):
            spec.purposes.append((purpose, parent))
    for purpose, _parent in spec.purposes:
        if draw(st.booleans()):
            spec.object_policies.append(ObjectPolicy("doc", "read", purpose))
    for name in draw(st.lists(st.sampled_from(["T1", "T2"]), unique=True)):
        spec.threshold_policies.append(ThresholdPolicy(
            name, threshold=draw(st.sampled_from([3, 5]))))


def covered(spec: PolicySpec) -> dict:
    """Every field the differ's model ops cover, order-free."""
    return {
        "users": dict(spec.users), "roles": dict(spec.roles),
        "hierarchy": set(spec.hierarchy), "ssd": dict(spec.ssd),
        "dsd": dict(spec.dsd), "grants": set(spec.grants),
        "scoped_grants": set(spec.scoped_grants),
        "assignments": set(spec.assignments),
        "scoped_assignments": set(spec.scoped_assignments),
        "scopes": set(spec.scopes),
        **{field: set(getattr(spec, field))
           for field in DESCRIPTOR_OPS},
    }


@settings(max_examples=200, deadline=None)
@given(old=specs(), new=specs())
def test_spec_apply_inverts_the_differ(old, new):
    result = old.clone()
    for op in diff_specs(old, new).model_ops:
        result.apply(op)
    assert covered(result) == covered(new)
    # the differ never unregisters a permission
    assert set(result.permissions) == set(old.permissions) | set(
        new.permissions)


@settings(max_examples=200, deadline=None)
@given(old=specs(), new=specs())
def test_the_engine_applies_every_differ_op(old, new):
    """A promotion between valid specs skips no op: every op's guard
    holds on the state the ops before it leave."""
    assume(not validate_policy(old) and not validate_policy(new))
    engine = ActiveRBACEngine.from_policy(old)
    for op in diff_specs(old, new).model_ops:
        engine.apply(op, batch=True)
    assert covered(engine.policy) == covered(new)
